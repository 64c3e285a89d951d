"""Command-line surface: exact rendering, report round-trips, exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gmspectra.branch_algebra as ba
import gmspectra.curve_models as cm
import gmspectra.semigroup as sg
import gmspectra.signature as signature
from gmspectra import catalog, cli
from gmspectra.classifier import clifford_profile_chi1
from gmspectra.signature import derive
from cli_invoke import invoke
from test_branch_algebra import closures


# ------------------------------------------------------------------- slope


def test_slope_principal_stratum_example():
    result = invoke("slope", "--signature", "1,1,1,1,1,1")
    assert result.exit_code == 0
    assert result.output == "42/5\n"  # 6 + 12/(g+1) at genus 4


def test_slope_decimal_flag_appends_marked_approximation():
    result = invoke("slope", "--signature", "1,1,1,1,1,1", "--decimal")
    assert result.output == "42/5 ~8.4\n"


def test_slope_from_catalog_entry():
    result = invoke("slope", "--catalog", "E7")
    assert result.exit_code == 0
    assert result.output == "9\n"


def test_slope_needs_a_source():
    result = invoke("slope")
    assert result.exit_code != 0


# -------------------------------------------------------------- invariants


def test_invariants_catalog_json():
    result = invoke("invariants", "--catalog", "E7", "--m", "1,2",
                    "--format", "json")
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["chi1_log"] == 7 and doc["chi2_log"] == 31
    assert doc["alpha"] == "29/60" and doc["slope"] == "9"
    assert doc["delta"] == 4 and doc["gorenstein"] is True
    assert doc["gap_sequence"] == [1, 1, 0, 1]
    assert "spin" not in doc  # (3,1) has an odd order


def test_invariants_spin_for_even_signature():
    result = invoke("invariants", "--catalog", "H(4,2)-even", "--format", "json")
    doc = json.loads(result.output)
    assert doc["spin"] == "even"
    assert doc["chi1_log"] == 32


def test_invariants_from_input_file(tmp_path):
    doc = {
        "signature": [3, 1],
        "generators": [
            {"name": "x", "monomials": [
                {"branch": 0, "exp": 2, "coeff": "1"},
                {"branch": 1, "exp": 1, "coeff": "1"}]},
            {"name": "y", "monomials": [{"branch": 0, "exp": 3, "coeff": "1"}]},
        ],
        "dualizing_units": ["1", "-1"],
    }
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    result = invoke("invariants", "--input", str(path))
    assert result.exit_code == 0
    assert "chi1_log: 7" in result.output
    assert "alpha: 29/60" in result.output


def test_invariants_requires_exactly_one_source(tmp_path):
    assert invoke("invariants").exit_code != 0
    path = tmp_path / "x.json"
    path.write_text("{}")
    result = invoke("invariants", "--catalog", "E7", "--input", str(path))
    assert result.exit_code != 0


def test_invariants_unknown_id_points_at_the_list():
    result = invoke("invariants", "--catalog", "nope")
    assert result.exit_code != 0
    assert "catalog list" in result.output


# -------------------------------------------------------------- filtration


def test_filtration_printed_sequence():
    result = invoke("filtration", "--catalog", "H(5,1)")
    lines = result.output.splitlines()
    assert lines[0] == "5 4 3 2 1 1 1"
    assert lines[1] == "chi1_log: 12"


def test_filtration_model_spec_json_report():
    result = invoke("filtration", "--signature", "6",
                    "--model", "unibranch:3,5", "--format", "json")
    doc = json.loads(result.output)
    assert doc["chi1_log"] == 14
    assert len(doc["dims"]) == derive((6,)).ell + 1


def test_filtration_hyperelliptic_spec():
    result = invoke("filtration", "--signature", "2,2",
                    "--model", "hyperelliptic:pair:1,pair:1")
    assert result.output.splitlines()[1] == "chi1_log: 6"


OVERRIDE_TABLE = ('{{"kind": "override", "base": {{"kind": "clifford-max", "genus": 3}},'
                  ' "table": [{{"divisor": [0], "h0": {h0}}}]}}')
INCREASING = OVERRIDE_TABLE.format(h0=9)


def test_filtration_override_may_pin_level_zero_to_nothing():
    # h0(0) = 0 ends the filtration at dimension 0: no weight sits at ell
    result = invoke("filtration", "--signature", "4", "--model", OVERRIDE_TABLE.format(h0=0))
    assert result.output.splitlines() == ["3 3 2 1 1 0", "chi1_log: 7"]


def test_catalog_filtration_reads_the_graded_pieces(monkeypatch):
    # the ring's levels are its graded dimensions summed: no section space
    # is read at any ladder row of H(6,2)-odd (ell = 21) at m = 400
    def fail(*args):
        raise AssertionError("section_space read")
    monkeypatch.setattr(ba, "section_space", fail)
    result = invoke("filtration", "--catalog", "H(6,2)-odd", "--m", "400", "--format", "json")
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.output.encode()).hexdigest() == (
        "acd432c0324a6628f152e07588229ad2a9353546cdf76fadfc3848339ef00e6f")


def test_filtration_rejects_unknown_model():
    result = invoke("filtration", "--signature", "4", "--model", "mystery")
    assert result.exit_code != 0


def assert_usage_error(result, *fragments):
    """Exit code 2, one `Error:` line naming the fragments, no traceback."""
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1
    for fragment in fragments:
        assert fragment in errors[0]


def test_filtration_rejects_invalid_signatures():
    for text, reason in (("1,2", "even"), ("-2,4", "non-negative")):
        result = invoke("filtration", "--signature", text, "--model", "clifford-max")
        assert_usage_error(result, "--signature", reason, text)


BAD_INPUTS = [
    (["classify", "alpha", "--genus", "9"], ["--genus", "genus 9", "bound 8"]),
    (["classify", "alpha", "--genus", "0"], ["--genus", "genus must be at least 1", "at least 1"]),
    (["classify", "semigroups", "--genus", "1"], ["--genus", "genus at least 2"]),
    # refused before a walk that would overflow the recursion limit
    (["classify", "semigroups", "--genus", "1200"], ["--genus", "genus 1200", "bound 40"]),
    (["classify", "semigroups", "--genus", "41"], ["--genus", "genus 41", "bound 40"]),
    (["filtration", "--signature", "6", "--model", "unibranch:3,x"],
     ["'--model'", "integers", "'x'"]),
    (["filtration", "--signature", "4", "--model", "{bad"], ["line 1 column 2"]),
    (["filtration", "--signature", "4", "--model", "unibranch:3,7"],
     ["model genus 6", "genus 3"]),
    (["filtration", "--signature", "4,2", "--model", "hyperelliptic:w"],
     ["hyperelliptic model has 1 tag, not one per marked point (2)"]),
    (["filtration", "--signature", "4", "--model", "mystery"], ["'mystery'"]),
    (["invariants", "--catalog", "E7", "--m", "1,x"], ["'--m'", "integers", "'x'"]),
    (["invariants", "--catalog", "E7", "--m", "0,1"], ["'--m'", "positive"]),
    (["filtration", "--signature", "6,x", "--model", "clifford-max"],
     ["'--signature'", "integers", "'x'"]),
    (["slope", "--catalog", "E7", "--signature", "6", "--model", "unibranch:3,7"],
     ["--catalog alone"]),
    (["slope", "--catalog", "E7", "--model", "clifford-max"], ["--catalog alone"]),
    (["filtration", "--catalog", "E7", "--signature", "4", "--model", "clifford-max"],
     ["--catalog alone"]),
    # no catalog value, exclusion rule or exact profile resolves (4, 1, 1) at tau = 0
    (["classify", "alpha", "--genus", "4", "--threshold", "0"], ["threshold 0", "(4, 1, 1)"]),
    (["filtration", "--signature", "6", "--model", '{"kind": "unibranch", "generators": "3,5"}'],
     ["generators", "list", "'3,5'"]),
    (["filtration", "--signature", "2", "--model", '{"kind": "clifford-max", "genus": "2"}'],
     ["genus", "integer", "'2'"]),
    (["filtration", "--signature", "2", "--model",
      '{"kind": "hyperelliptic", "genus": 2, "tags": ["w", 1]}'], ["tags[1]", "string", "1"]),
    (["filtration", "--signature", "4", "--model",
      '{"kind": "override", "base": {"kind": "clifford-max", "genus": 3},'
      ' "table": [{"divisor": 5, "h0": 1}]}'], ["table[0].divisor", "list", "5"]),
    (["filtration", "--signature", "4", "--model",
      '{"kind": "override", "base": {"kind": "clifford-max", "genus": "3"}, "table": []}'],
     ["genus", "integer", "'3'"]),
    # a table row with a coefficient per point of another signature
    (["filtration", "--signature", "4", "--model",
      '{"kind": "override", "base": {"kind": "clifford-max", "genus": 3},'
      ' "table": [{"divisor": [1, 2, 3], "h0": 1}]}'],
     ["table[0].divisor", "3 coefficients", "(1)"]),
    # one coefficient on a two-point signature: the noun agrees with the count
    (["filtration", "--signature", "2,2", "--model",
      '{"kind": "override", "base": {"kind": "clifford-max", "genus": 3},'
      ' "table": [{"divisor": [1], "h0": 1}]}'],
     ["table[0].divisor has 1 coefficient, not one per marked point (2)"]),
    # h0 = 9 at the last level, above the 1 before it: refused naming the level
    (["filtration", "--signature", "4", "--model", INCREASING],
     ["not non-increasing", "9 at lam = 5", "1 at lam = 4"]),
    (["slope", "--signature", "4", "--model", INCREASING], ["not non-increasing", "lam = 5"]),
    # a negative h0 is no dimension: refused naming the row
    (["filtration", "--signature", "4", "--model", OVERRIDE_TABLE.format(h0=-5)],
     ["table[0].h0", "-5"]),
    (["slope", "--signature", "4", "--model", OVERRIDE_TABLE.format(h0=-5)], ["table[0].h0", "-5"]),
    # refused before a mask of about 10^12 bits is built
    (["filtration", "--signature", "4", "--model",
      '{"kind": "unibranch", "generators": [1000003, 1000033]}'],
     ["model genus at least 1000002", "signature genus 3"]),
    # tags that no hyperelliptic differential carries on its zeros
    (["slope", "--signature", "3,1", "--model", "hyperelliptic:pair:1,pair:1"],
     ["pair '1' joins zeros of orders 3 and 1: conjugate zeros have equal order"]),
    (["slope", "--signature", "3,3", "--model", "hyperelliptic:w,w"],
     ["tag 'w' on a zero of odd order 3: a Weierstrass zero has even order"]),
    (["slope", "--signature", "4", "--model", "hyperelliptic:free"],
     ["tag 'free' on a zero of order 4: a free point has order 0"]),
    (["slope", "--signature", "2,2", "--model", "hyperelliptic:free,free"],
     ["tag 'free' on a zero of order 2: a free point has order 0"]),
    # a tag per marked point, against no tag at all
    (["filtration", "--signature", "2", "--model", "hyperelliptic:"],
     ["hyperelliptic model has 0 tags, not one per marked point (1)"]),
    *((["classify", command, "--genus", "4", "--threshold", text], ["--threshold", repr(text)])
      for command in ("alpha", "semigroups") for text in ("1/0", "zebra")),
    # the m = 2 ladder frame may have 2(2g - 2 + n) + 1 rows: refused before it is built
    (["slope", "--signature", "799998"],
     ["ladder frame of (799998) at m = 2", "1599999 rows", "frame row bound 1000000"]),
    # a spec fault comes before any frame: the two-coefficient row is named,
    # not the m = 2 frame of up to 1599999 rows
    (["slope", "--signature", "799998", "--model",
      '{"kind":"override","base":{"kind":"clifford-max","genus":400000},'
      '"table":[{"divisor":[1,2],"h0":1}]}'],
     ["table[0].divisor has 2 coefficients, not one per marked point (1)"]),
    # with a base of another genus too, the base is named first
    (["slope", "--signature", "799998", "--model",
      '{"kind":"override","base":{"kind":"clifford-max","genus":399000},'
      '"table":[{"divisor":[1,2],"h0":1}]}'],
     ["model genus 399000 differs from signature genus 400000"]),
    # a hyperelliptic spec of another genus is refused at build
    (["slope", "--signature", "4,4", "--model",
      '{"kind":"hyperelliptic","genus":4,"tags":["w","w"]}'],
     ["model genus 4 differs from signature genus 5"]),
    # an override spec nested 1,200 levels deep is read past the recursion limit
    (["slope", "--signature", "2", "--model",
      '{"kind": "override", "base": ' * 1200 + '{"kind": "clifford-max", "genus": 2}'
      + ', "table": []}' * 1200], ["nested too deeply"]),
]


@pytest.mark.parametrize("args,fragments", BAD_INPUTS)
def test_bad_input_is_one_error_line(args, fragments):
    assert_usage_error(invoke(*args), *fragments)


def test_slope_refuses_the_level_two_frame_before_building_the_first(monkeypatch):
    # the m = 1 frame of (799998) has 797,999 rows, within the bound: slope
    # checks the m = 2 bound first, so no ladder run is built at all
    built = []
    runs = cm.ladder_runs
    monkeypatch.setattr(cm, "ladder_runs", lambda *args: built.append(args) or runs(*args))
    cm._ladder_frame.cache_clear()
    result = invoke("slope", "--signature", "799998")
    assert result.exit_code == 2 and built == []
    assert [line for line in result.output.splitlines() if line.startswith("Error:")] == [
        "Error: the ladder frame of (799998) at m = 2 has up to 1599999 rows, "
        "beyond the frame row bound 1000000"]


def test_unibranch_specs_are_decided_by_the_signature_genus():
    # each verdict reads the Apery set of the smallest generator, never a
    # mask as long as the Frobenius number of the generators' semigroup
    for spec, fragment in (
        ('{"kind": "unibranch", "generators": [1000003, 1000033]}', "at least 1000002"),
        ("unibranch:3,1000000000001", "model genus 1000000000000"),  # smallest is 3
        ('{"kind": "override", "base": {"kind": "unibranch", "generators": [999999, 1000000]},'
         ' "table": []}', "at least 999998"),
    ):
        result = invoke("filtration", "--signature", "6", "--model", spec)
        assert_usage_error(result, fragment, "signature genus 4")
    for spec in ("unibranch:3,5,100", "unibranch:3,5,1000000000000"):  # <3,5>, genus 4
        result = invoke("filtration", "--signature", "6", "--model", spec)
        assert result.exit_code == 0, result.output
        assert result.output == "4 4 3 2 2 1 1 1\nchi1_log: 14\n"


def test_unibranch_specs_beyond_the_semigroup_size_bound_end_in_one_error_line():
    # the signature has the model's genus, so only the size bound refuses
    # the 1000003-entry Apery list, or a mask of 1999999 bits
    for sig, spec, fragment in (
        ("1000034000062", "unibranch:1000003,1000033", "smallest generator 1000003"),
        ("1999998", "unibranch:2,2000001", "Frobenius number 1999999"),
    ):
        start = time.perf_counter()
        result = invoke("slope", "--signature", sig, "--model", spec)
        assert time.perf_counter() - start < 1
        assert_usage_error(result, fragment, "size bound 1000000")
        # filtration refuses the printed length first, before the model
        result = invoke("filtration", "--signature", sig, "--model", spec)
        assert_usage_error(result, "filtration levels", str(cli.MAX_PRINTED_LEVELS))


def test_long_unibranch_specs_beyond_the_apery_work_bound_end_in_one_error_line():
    # lo = 999000 is within the genus and the size bound; its four walked
    # generators are not, and are refused before the walk
    spec = "unibranch:" + ",".join(str(h) for h in range(999000, 999005))
    start = time.perf_counter()
    result = invoke("slope", "--signature", "1998000", "--model", spec)
    assert time.perf_counter() - start < 1
    assert_usage_error(result, "Apery walk of 3996000 steps", "work bound 1000000")


def test_input_without_signature_is_one_error_line(tmp_path):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"generators": []}))
    assert_usage_error(invoke("invariants", "--input", str(path)), "'signature'")


def test_a_document_nested_too_deeply_is_one_error_line(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert_usage_error(invoke("invariants", "--input", str(path)), "nested too deeply")


def test_a_failed_cross_check_still_raises(monkeypatch):
    # a RecursionError is a RuntimeError; no other RuntimeError becomes an Error: line
    def fail(*args):
        raise RuntimeError("cross-check failed")

    monkeypatch.setattr(cli.inv, "algebra_report", fail)
    result = invoke("invariants", "--catalog", "E7")
    assert result.exit_code == 1 and isinstance(result.exception, RuntimeError)
    assert "Error:" not in result.output


def monomial_doc(**fields):
    """The (3, 1) document with one generator t1^2, its monomial overridden."""
    return {"signature": [3, 1], "generators": [
        {"name": "x", "monomials": [{"branch": 0, "exp": 2, "coeff": "1", **fields}]}]}


MALFORMED_DOCUMENTS = [
    (monomial_doc(branch="0"), ["monomials[0].branch", "integer", "'0'"]),
    ({"signature": "31", "generators": []}, ["signature", "list", "'31'"]),
    ({"signature": [3, 1], "generators": 5}, ["generators", "list", "5"]),
    (monomial_doc(coeff=[1]), ["monomials[0].coeff", "rational", "[1]"]),
    ([{"signature": [3, 1], "generators": []}], ["document", "object"]),
    (monomial_doc(exp=2.5), ["monomials[0].exp", "integer", "2.5"]),
    (monomial_doc(coeff="1/0"), ["monomials[0].coeff", "'1/0'"]),
]


@pytest.mark.parametrize("doc,fragments", MALFORMED_DOCUMENTS)
def test_malformed_algebra_document_is_one_error_line(tmp_path, doc, fragments):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    assert_usage_error(invoke("invariants", "--input", str(path)), *fragments)


def test_ring_without_generators_gets_a_full_report(tmp_path):
    # its conductor read reaches degree D = 21, past the closure's window W = 10
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"signature": [3, 1], "generators": []}))
    result = invoke("invariants", "--input", str(path))
    assert result.exit_code == 0, result.output
    assert "gorenstein: False\n" in result.output
    assert "conductor: 6 6\n" in result.output
    assert "graded_dims: 1 0 0 0 0 0 0 0 0 0 0\n" in result.output
    assert "slope" not in result.output  # alpha and slope need a Gorenstein ring
    # the ring is not cofinite (delta is infinite), so no finite delta or genus
    keys = {line.split(":")[0] for line in result.output.splitlines()}
    assert "delta" not in keys and "genus" not in keys and "gap_sequence" in keys
    result = invoke("invariants", "--input", str(path), "--format", "json")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert "delta" not in doc and "genus" not in doc and doc["gorenstein"] is False


def test_ring_that_is_not_cofinite_is_not_gorenstein(tmp_path):
    # k[t^2] on (2,) has no odd power of t: no conductor, infinite delta
    path = tmp_path / "t2.json"
    path.write_text(json.dumps({"signature": [2], "generators": [
        {"monomials": [{"branch": 0, "exp": 2, "coeff": "1"}]}]}))
    result = invoke("invariants", "--input", str(path))
    assert result.exit_code == 0, result.output
    assert "gorenstein: False\n" in result.output
    keys = {line.split(":")[0] for line in result.output.splitlines()}
    assert not keys & {"delta", "genus", "alpha", "slope"}


def pure_powers_doc(orders, powers):
    """The algebra document generated by the pure powers t_(i+1)^e, (i, e) in powers."""
    return {"signature": list(orders), "generators": [
        {"monomials": [{"branch": i, "exp": e, "coeff": "1"}]} for i, e in powers]}


@pytest.mark.parametrize("doc,lines", [
    # certified within T = max(m) + 2, and Gorenstein
    (catalog.as_dict(catalog.get("E7")),
     ["delta: 4", "genus: 3", "conductor: 5 3", "gorenstein: True"]),
    # certified within T, not Gorenstein: sum(c) = 6 is not 2*delta = 10
    (pure_powers_doc((100, 98), [(i, e) for i in (0, 1) for e in (3, 4, 5)]),
     ["delta: 5", "genus: 4", "conductor: 3 3", "gorenstein: False"]),
    # certified past T: c_1 = 12 > 8, so no delta and no genus
    (pure_powers_doc((6, 4), [*((0, e) for e in range(12, 24)), (1, 1)]),
     ["conductor: 12 1", "gorenstein: False"]),
    # no certificate: the stand-in conductor max(m) + 3
    (pure_powers_doc((2,), [(0, 2)]), ["conductor: 5", "gorenstein: False"]),
], ids=["E7", "t345", "t64", "t2"])
def test_the_report_of_each_conductor_case(tmp_path, doc, lines):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    result = invoke("invariants", "--input", str(path))
    assert result.exit_code == 0, result.output
    keys = ("delta:", "genus:", "conductor:", "gorenstein:")
    assert [line for line in result.output.splitlines() if line.startswith(keys)] == lines


def test_a_ring_that_is_not_cofinite_read_far_out_is_refused_at_the_piece_bound(tmp_path):
    # k[t^2] on (2) up to level 333333 is within the printed bound, but has
    # no certificate: one piece per degree, refused at the closure's bound
    path = tmp_path / "t2.json"
    path.write_text(json.dumps({"signature": [2], "generators": [
        {"monomials": [{"branch": 0, "exp": 2, "coeff": "1"}]}]}))
    result = invoke("invariants", "--input", str(path), "--m", "333333")
    assert_usage_error(result, "(2) has no certificate by degree D = 8",
                       f"more than {ba.CLOSURE_PIECE_BOUND} pieces")


def test_elliptic_12_input_reports_without_alpha(tmp_path):
    # 13*chi1_log = chi2_log: alpha is undefined, the rest of the report stands
    path = tmp_path / "elliptic-12.json"
    path.write_text(json.dumps(catalog.as_dict(catalog.family("elliptic", n=12))))
    result = invoke("invariants", "--input", str(path))
    assert result.exit_code == 0, result.output
    keys = {line.split(":")[0] for line in result.output.splitlines()}
    assert "alpha" not in keys
    assert "chi2_log: 13\n" in result.output and "slope: 12\n" in result.output
    result = invoke("invariants", "--input", str(path), "--format", "json")
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert "alpha" not in doc and doc["slope"] == "12"


def test_slope_routes_still_check_rings_that_pass_the_length_test(tmp_path):
    # a node passes len(R/c) = delta but is no (1, 1) ring: the two slope routes disagree
    doc = {"signature": [1, 1], "generators": [
        {"monomials": [{"branch": 0, "exp": 1, "coeff": "1"}]},
        {"monomials": [{"branch": 1, "exp": 1, "coeff": "1"}]}]}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    assert_usage_error(invoke("invariants", "--input", str(path)), "slope routes disagree")


@pytest.mark.parametrize("args,option", [
    (["invariants", "--catalog", "nope"], "'--catalog'"),
    (["filtration", "--catalog", "nope"], "'--catalog'"),
    (["slope", "--catalog", "nope"], "'--catalog'"),
    (["catalog", "show", "nope"], "'ENTRY_ID'"),
])
def test_unknown_catalog_id_is_a_usage_error(args, option):
    assert_usage_error(invoke(*args), option, "'nope'", "catalog list")


LARGE_ELL = "30,28,22,18,16,12,10,6,4,2"  # ell = 100280245065


def test_filtration_refuses_to_print_beyond_the_level_bound():
    result = invoke("filtration", "--signature", LARGE_ELL, "--model", "clifford-max")
    assert_usage_error(result, "100280245066", str(cli.MAX_PRINTED_LEVELS))


def test_invariants_refuses_a_cap_beyond_the_level_bound(tmp_path):
    doc = {"signature": [int(v) for v in LARGE_ELL.split(",")],
           "generators": [{"name": "x", "monomials": [
               {"branch": 0, "exp": 2, "coeff": "1"}]}]}
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    result = invoke("invariants", "--input", str(path))
    assert time.perf_counter() - start < 1
    assert_usage_error(result, "graded dimensions", str(cli.MAX_PRINTED_LEVELS))
    # the bound also holds for a catalog entry at a high level
    result = invoke("invariants", "--catalog", "E7", "--m", "1,2,250000")
    assert_usage_error(result, "1000001", str(cli.MAX_PRINTED_LEVELS))


def test_slope_at_large_ell():
    sig = derive(tuple(int(v) for v in LARGE_ELL.split(",")))
    chi1 = clifford_profile_chi1(sig)
    deficit = (2 * sig.genus - 2 + sig.n) * sig.ell - sum(sig.weights_a)
    result = invoke("slope", "--signature", LARGE_ELL)
    assert result.exit_code == 0
    assert result.output == cli.fmt_rational(12 - Fraction(deficit, chi1)) + "\n"


# --------------------------------------------------- filtration/slope fuzz

SMALL = st.integers(-2, 12)
GENERATORS = st.lists(st.integers(-1, 40), max_size=4)
TAG = st.sampled_from(["w", "free", "pair:1", "pair:2", "pair:x", "bogus"])


@st.composite
def model_docs(draw, genus, n, depth=1):
    """A model document of any kind, mostly of the signature's genus and
    number of points, some with fields of the wrong type or value."""
    near = st.sampled_from([genus, genus, genus, -1, 0, "3"])
    tags = st.one_of(st.lists(TAG, min_size=n, max_size=n), st.lists(TAG, max_size=4))
    kind = draw(st.sampled_from(["clifford-max", "unibranch", "hyperelliptic", "override"] * 3
                                + ["mystery", 5]))
    if kind == "unibranch":
        known = [list(H.generators) for H in sg.enumerate_symmetric(genus)] if 1 <= genus <= 6 else []
        gens = draw(st.sampled_from(known) | GENERATORS if known else GENERATORS)
        return {"kind": kind, "generators": gens}
    if kind == "hyperelliptic":
        return {"kind": kind, "genus": draw(near), "tags": draw(tags)}
    if kind == "override":
        rows = st.lists(st.fixed_dictionaries({
            "divisor": st.one_of(st.lists(SMALL, min_size=n, max_size=n),
                                 st.lists(SMALL, max_size=3), SMALL),
            "h0": st.one_of(SMALL, st.just("1"))}), max_size=3)
        base = draw(model_docs(genus, n, depth - 1)) if depth else {"kind": "clifford-max",
                                                                    "genus": genus}
        return {"kind": kind, "base": base, "table": draw(rows)}
    return {"kind": kind, "genus": draw(near)}


@st.composite
def model_specs(draw, genus, n):
    """A --model value: a short spec, a JSON document, or malformed JSON."""
    doc = json.dumps(draw(model_docs(genus, n)))
    form = draw(st.sampled_from(["json"] * 3 + ["short", "cut", "bad"]))
    if form == "short":
        return draw(st.one_of(
            st.just("clifford-max"),
            GENERATORS.map(lambda gens: "unibranch:" + ",".join(map(str, gens))),
            st.lists(TAG, max_size=4).map(lambda tags: "hyperelliptic:" + ",".join(tags))))
    if form == "cut":
        return doc[:-draw(st.integers(1, len(doc)))]
    if form == "bad":
        return draw(st.sampled_from(["{bad", "{}", "[]", '{"kind": "unibranch"}', "mystery", ""]))
    return doc


@st.composite
def filtration_and_slope_calls(draw):
    # mostly valid zero orders (non-negative, even sum), some that are not
    if draw(st.integers(0, 3)):
        orders = draw(st.lists(st.integers(0, 10), min_size=1, max_size=4))
        orders += [1] * (sum(orders) % 2)
    else:
        orders = draw(st.lists(st.integers(-1, 12), min_size=1, max_size=4))
    spec = draw(model_specs(sum(orders) // 2 + 1, len(orders)))
    args = ["--signature", ",".join(map(str, orders)), "--model", spec]
    if draw(st.booleans()):
        return ["slope", *args]
    return ["filtration", *args, "--m", str(draw(st.sampled_from([-1, 0, 1, 2, 3])))]


def assert_clean_end(args, codes):
    """Run the CLI on args: within 5 s, an exit code in codes, no
    traceback, and exactly one Error: line on exit code 2."""
    start = time.perf_counter()
    result = invoke(*args)
    assert time.perf_counter() - start < 5, args
    assert result.exit_code in codes, (args, result.output, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit), args
    assert "Traceback" not in result.output, args
    if result.exit_code == 2:
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1, (args, result.output)


@settings(max_examples=300, deadline=None)
@given(filtration_and_slope_calls())
def test_filtration_and_slope_end_in_a_result_or_one_error_line(args):
    assert_clean_end(args, (0, 2))



# ---------------------------------------------------------- invariants fuzz

@st.composite
def algebra_documents(draw):
    """The rings of the closure tests as algebra documents: n <= 3, zero
    orders allowed, 0-5 generators with rational coefficients, two in three
    with consecutive pure powers per branch, so that many are certified;
    one in four has one field broken."""
    sig, gens, *_ = draw(closures())
    orders, n, a = list(sig.orders), sig.n, sig.weights_a
    doc = {"signature": orders, "generators": [
        {"monomials": [{"branch": b, "exp": e, "coeff": str(c)} for b, e, c in terms]}
        for terms in gens]}
    if draw(st.integers(0, 3)):
        return doc
    broken = draw(st.sampled_from(["type", "1/0", "branch", "homogeneous"]))
    if broken == "type":
        field = draw(st.sampled_from(["signature", "generators", "branch", "exp", "coeff"]))
        if field in ("signature", "generators") or not gens:
            doc[field if field in doc else "signature"] = ",".join(map(str, orders))
        else:
            monomial = draw(st.sampled_from(doc["generators"]))["monomials"][0]
            monomial[field] = {"branch": float, "exp": str, "coeff": list}[field](monomial[field])
    elif broken == "homogeneous" and n > 1:  # t1 and a power of t2 of a higher degree
        doc["generators"].append({"monomials": [
            {"branch": 0, "exp": 1, "coeff": "1"},
            {"branch": 1, "exp": a[0] // a[1] + 1, "coeff": "1"}]})
    else:
        doc["generators"].append({"monomials": [
            {"branch": n if broken == "branch" else 0, "exp": 1,
             "coeff": "1/0" if broken == "1/0" else "1"}]})
        if broken == "homogeneous":  # one branch: an exponent below 1 instead
            doc["generators"][-1]["monomials"][0]["exp"] = 0
    return doc


@settings(max_examples=200, deadline=None)
@given(algebra_documents(), st.sampled_from(["1", "1,2", "2,3"]))
def test_invariants_input_ends_in_a_result_or_one_error_line(tmp_path_factory, doc, levels):
    path = tmp_path_factory.mktemp("fuzz") / "algebra.json"
    path.write_text(json.dumps(doc))
    assert_clean_end(["invariants", "--input", str(path), "--m", levels], (0, 2))


# ---------------------------------------------------------------- classify


def test_classify_alpha_genus_four_table():
    result = invoke("classify", "alpha", "--genus", "4")
    assert result.exit_code == 0
    assert "catalog[H(4,2)-even]" in result.output
    assert "catalog[H(5,1)]" in result.output
    assert "unibranch(<3,5>)" in result.output
    assert "3,2,1" not in result.output
    assert "fail" not in result.output


def test_classify_alpha_csv_columns_fixed():
    result = invoke("classify", "alpha", "--genus", "3", "--format", "csv")
    lines = result.output.splitlines()
    assert lines[0] == "signature,model,chi1_log,threshold,verdict,item,component,dangling"
    assert len(lines) == 1 + 16


def test_classify_alpha_json_roundtrip():
    result = invoke("classify", "alpha", "--genus", "4", "--format", "json")
    payload = json.loads(result.output)
    assert len(payload) == 17
    by_model = {(tuple(r["signature"]), r["model"]): r for r in payload}
    locus = by_model[((5, 1), "catalog[H(5,1)]")]
    assert locus["threshold_lhs"] == "12" and locus["threshold_rhs"] == "12"
    assert all(r["verdict"] == "pass" for r in payload)


def test_classify_alpha_five_ninths():
    result = invoke("classify", "alpha", "--genus", "3",
                    "--threshold", "5/9", "--format", "csv")
    body = result.output.splitlines()[1:]
    assert body == [
        '"2,2",hyperelliptic(p2),6,6,pass,hyperelliptic,hyp,',
        "4,hyperelliptic(w4),9,25/3,pass,hyperelliptic,hyp,",
    ]


def test_classify_alpha_dangling_column():
    result = invoke("classify", "alpha", "--genus", "4", "--dangling",
                    "--format", "csv")
    rows = [line for line in result.output.splitlines()
            if "catalog[H(4,2)-odd]" in line]
    assert '"4,2","catalog[H(4,2)-odd]",29,115/4,pass,stratum,odd,1' in rows


# sha256 of whole outputs, as invoke captures them (csv rows end in \n),
# that carry threshold_lhs, threshold_rhs and the verdict; fixed before the
# Candidate rendering properties moved into the CLI
PINNED_ALPHA_OUTPUTS = [
    (("-g", "6", "--format", "json"),
     "34d826c9119770c43fdb858069267d365844c4b7a231d8632c38ad69dcdb5826"),
    (("-g", "4", "--threshold", "1/2", "--dangling", "--format", "csv"),
     "b6bcaee0b809007bd48c4bbda2a730128b2a0012d562b9cce68febfdd031a362"),
    # its unibranch(<4,6,7>) locus row meets only the lenient cutoff, and its
    # spin's verdict reads the strict one
    (("-g", "5", "--dangling", "--format", "csv"),
     "c450429fa3b2b9955920e64dafcdee25a857fb68e75f28eb13c2b85be3f0f551"),
]


@pytest.mark.parametrize("args,digest", PINNED_ALPHA_OUTPUTS,
                         ids=["g6-json", "g4-half-dangling-csv", "g5-dangling-csv"])
def test_classify_alpha_outputs_are_pinned(args, digest):
    result = invoke("classify", "alpha", *args)
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == digest


def test_classify_alpha_rejects_out_of_range_threshold():
    assert invoke("classify", "alpha", "--genus", "3",
                  "--threshold", "11/12").exit_code != 0
    assert invoke("classify", "alpha", "--genus", "3",
                  "--threshold", "zebra").exit_code != 0


def test_classify_runs_are_byte_identical():
    first = invoke("classify", "alpha", "--genus", "5", "--format", "csv")
    second = invoke("classify", "alpha", "--genus", "5", "--format", "csv")
    assert first.output == second.output


def test_classify_semigroups_genus_six():
    result = invoke("classify", "semigroups", "--genus", "6")
    lines = result.output.splitlines()
    assert any("<3,7>" in line and "pass" in line for line in lines)
    assert any("<4,6,9>" in line and "fail" in line for line in lines)


# ----------------------------------------------------------------- catalog


def test_catalog_list_mentions_every_entry():
    result = invoke("catalog", "list")
    for needle in ("E6", "E7", "E8", "H(5,3)", "H(7,3)-special"):
        assert needle in result.output


def test_catalog_show_json_rebuilds_the_algebra(tmp_path):
    # the document `catalog show --json` prints gives the whole invariants
    # report of the stored entry, byte for byte, under every flag set
    path = tmp_path / "entry.json"
    for entry in catalog.entries():
        result = invoke("catalog", "show", entry.id, "--json")
        doc = json.loads(result.output)
        sig, gens, units = ba.generators_from_json(doc)
        alg = ba.close(sig, [terms for _, terms in gens])
        assert list(ba.gap_sequence(alg)) == doc["expected"]["gap_sequence"]
        assert [str(u) for u in units] == doc["dualizing_units"]
        path.write_text(result.output)
        for flags in ([], ["--format", "json"], ["--m", "1,2,3", "--decimal"]):
            stored = invoke("invariants", "--catalog", entry.id, *flags)
            rebuilt = invoke("invariants", "--input", str(path), *flags)
            assert stored.exit_code == rebuilt.exit_code == 0, (entry.id, flags)
            assert rebuilt.stdout == stored.stdout, (entry.id, flags)


def test_catalog_show_unknown_id():
    result = invoke("catalog", "show", "E9")
    assert result.exit_code != 0


# ------------------------------------------------------------------ verify


def test_verify_full_suite_is_green():
    result = invoke("verify")
    assert result.exit_code == 0
    for section in ("identities", "regression", "search", "semigroups"):
        assert f"ok   {section}" in result.output
    assert "FAIL" not in result.output


def test_verify_single_section():
    result = invoke("verify", "--suite", "search")
    assert result.exit_code == 0
    assert result.output == "ok   search\n"


def test_verify_exits_nonzero_on_mismatch(monkeypatch):
    monkeypatch.setitem(cli.VERIFY_SECTIONS, "search", lambda: ["lost a stratum"])
    result = invoke("verify", "--suite", "search")
    assert result.exit_code == 1
    assert "FAIL search" in result.output
    assert "lost a stratum" in result.output


def test_verify_regression_prints_each_failing_check(monkeypatch):
    e7 = catalog.get("E7")
    bad = e7._replace(expected=e7.expected._replace(delta=99))
    monkeypatch.setattr(catalog, "nonvarying_entries", lambda: (bad,))
    result = invoke("verify", "--suite", "regression")
    assert (result.exit_code, result.output) == (
        1, "FAIL regression\n  E7.delta: expected 99, got 4\n1 mismatch(es)\n")


def test_verify_identities_prints_the_notes_of_a_doctored_spectrum(monkeypatch):
    # one more weight at the pivot ell of E7's level-two spectrum breaks the
    # top multiplicity and the character formula, and nothing else
    e7 = catalog.get("E7")
    spectrum = cli.inv.weight_spectrum

    def doctored(source, m=1, sig=None):
        s = spectrum(source, m, sig)
        if m != 2:
            return s
        held = dict(s.entries)
        held[source.signature.ell] = held.get(source.signature.ell, 0) + 1
        return cli.inv.WeightSpectrum(2, tuple(sorted(held.items())))

    monkeypatch.setattr(catalog, "entries", lambda: (e7,))
    monkeypatch.setattr(cli.inv, "weight_spectrum", doctored)
    result = invoke("verify", "--suite", "identities")
    assert (result.exit_code, result.output) == (
        1, "FAIL identities\n"
           "  E7 m=2: multiplicity at 4 is 2, not 1; chi_2^log is 35, formula gives 31\n"
           "1 mismatch(es)\n")


@pytest.mark.parametrize("name, doctored, line", [
    ("ladder_sum_identity", lambda sig, i: 0, "  E6 branch 0: ladder sum is not (m_i+2)*ell/2\n"),
    ("parity_count", lambda k1, k2: k1 * k2, "  parity_count(2, 1) is not its closed form\n"),
])
def test_verify_identities_reads_the_ladder_facts(monkeypatch, name, doctored, line):
    # both ladder facts behind the closed forms are checked, with no change
    # to the green output
    checks = []

    def counted(*args):
        checks.append(args)
        return getattr(signature, name)(*args)

    monkeypatch.setattr(cli, name, counted)
    result = invoke("verify", "--suite", "identities")
    assert (result.exit_code, result.output) == (0, "ok   identities\n")
    assert len(checks) == {"ladder_sum_identity": 42, "parity_count": 57}[name]
    monkeypatch.setattr(cli, name, doctored)
    result = invoke("verify", "--suite", "identities")
    assert result.exit_code == 1
    assert result.output.startswith("FAIL identities\n")
    assert line in result.output


def test_verify_search_flags_a_nonhyperelliptic_candidate_at_genus_20(monkeypatch):
    search = cli.alpha_search

    def doctored(g, *args, **kwargs):
        cands = search(g, *args, **kwargs)
        return cands + (cands[0]._replace(component="odd"),) if g == 20 else cands

    monkeypatch.setattr(cli, "alpha_search", doctored)
    result = invoke("verify", "--suite", "search")
    assert result.exit_code == 1
    assert "  genus 20: unexpected nonhyperelliptic candidate\n" in result.output
    assert "genus 19" not in result.output


def test_verify_search_flags_a_candidate_below_its_cutoff(monkeypatch):
    # verify re-decides chi1_log >= threshold_rhs; the passed flag is not read
    search = cli.alpha_search

    def doctored(g, *args, **kwargs):
        cands = search(g, *args, **kwargs)
        if g != 5:
            return cands
        return cands[:-1] + (cands[-1]._replace(chi1_log=cands[-1].threshold_rhs - 1),)

    monkeypatch.setattr(cli, "alpha_search", doctored)
    result = invoke("verify", "--suite", "search")
    assert result.exit_code == 1
    assert result.output == "FAIL search\n  genus 5: emitted a failing candidate\n1 mismatch(es)\n"


@pytest.mark.parametrize("g, orders, ok", [(3, (1, 1, 1, 1, 0), True),
                                           (4, (1, 1, 1, 1, 1, 1), False)])
def test_verify_search_counts_zeros_of_positive_order(monkeypatch, g, orders, ok):
    # an appended ordinary point (order 0) is no zero; the stub replaces the
    # search's last row at genus g, so the row counts stay as expected
    search = cli.alpha_search

    def stubbed(genus, *args, **kwargs):
        cands = search(genus, *args, **kwargs)
        if genus != g:
            return cands
        return cands[:-1] + (cands[-1]._replace(signature=orders),)

    monkeypatch.setattr(cli, "alpha_search", stubbed)
    result = invoke("verify", "--suite", "search")
    if ok:
        assert (result.exit_code, result.output) == (0, "ok   search\n")
    else:
        assert result.exit_code == 1
        assert result.output == (f"FAIL search\n  genus {g}: a candidate has more than "
                                 "four zeros\n1 mismatch(es)\n")


# ------------------------------------------------------ classify/verify fuzz

THRESHOLD_TEXTS = st.one_of(
    st.fractions(min_value=0, max_value=1).map(str),  # valid below 11/12
    st.sampled_from(["0", "3/8", "0.5", "5/9", "11/12", "1", "-1/3", "2", "1e5"]),
    st.sampled_from(["", "abc", "1/0", "3/", "nan", "inf", "--dangling"]),
    st.text(max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(-2, 10), THRESHOLD_TEXTS, st.booleans(),
       st.sampled_from(["text", "json", "csv"]))
def test_classify_alpha_ends_in_a_result_or_one_error_line(g, tau, dangling, fmt):
    args = ["classify", "alpha", "-g", str(g), "--threshold", tau, "--format", fmt]
    assert_clean_end(args + ["--dangling"] * dangling, (0, 2))


@settings(max_examples=60, deadline=None)
@given(st.integers(-2, 26), THRESHOLD_TEXTS, st.sampled_from(["text", "json", "csv"]))
def test_classify_semigroups_ends_in_a_result_or_one_error_line(g, tau, fmt):
    assert_clean_end(["classify", "semigroups", "-g", str(g), "--threshold", tau,
                      "--format", fmt], (0, 2))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["full", *sorted(cli.VERIFY_SECTIONS)]))
def test_verify_suites_end_in_a_report(suite):
    assert_clean_end(["verify", "--suite", suite], (0, 1))


# ------------------------------------------------------------ command line

# each refused command line and its one Error: line, byte for byte as the
# click-based parser printed them
PARSER_ERRORS = [
    (["classify", "alpha"], "Missing option '--genus' / '-g'."),
    (["classify", "semigroups", "-g", "x"],
     "Invalid value for '--genus' / '-g': 'x' is not a valid integer."),
    (["classify", "alpha", "-g=3"],
     "Invalid value for '--genus' / '-g': '=3' is not a valid integer."),
    (["classify", "alpha", "-g", "3", "--format", "xml"],
     "Invalid value for '--format': 'xml' is not one of 'text', 'json', 'csv'."),
    # the given options are read in the order given, then the missing ones
    (["classify", "alpha", "--format", "xml", "-g", "x"],
     "Invalid value for '--format': 'xml' is not one of 'text', 'json', 'csv'."),
    (["classify", "alpha", "-g", "x", "--format", "xml"],
     "Invalid value for '--genus' / '-g': 'x' is not a valid integer."),
    (["verify", "--suite", "bogus"], "Invalid value for '--suite': 'bogus' is not one of "
     "'full', 'identities', 'regression', 'search', 'semigroups'."),
    (["filtration", "--m", "x"], "Invalid value for '--m': 'x' is not a valid integer."),
    (["slope", "--bogus"], "No such option '--bogus'."),
    (["classify", "alpha", "-g", "3", "--thresh", "1/2"],
     "No such option '--thresh'. Did you mean '--threshold'?"),
    (["classify", "alpha", "--dangl"],
     "No such option '--dangl'. (Did you mean one of: '--dangling', '--decimal'?)"),
    (["classify", "alpha", "-g", "3", "-x"], "No such option '-x'."),
    (["catalog", "show", "-2,4"], "No such option '-2'."),
    (["--hel"], "No such option '--hel'. Did you mean '--help'?"),
    (["nosuch"], "No such command 'nosuch'."),
    (["classif"], "No such command 'classif'. Did you mean 'classify'?"),
    (["classify", "nosuch", "--help"], "No such command 'nosuch'."),
    (["--"], "Missing command."),
    (["catalog", "show"], "Missing argument 'ENTRY_ID'."),
    (["catalog", "show", "E7", "extra"], "Got unexpected extra argument (extra)"),
    (["classify", "alpha", "-g", "3", "extra", "more"],
     "Got unexpected extra arguments (extra more)"),
    (["classify", "alpha", "-g", "3", "--", "--dangling"],
     "Got unexpected extra argument (--dangling)"),
    (["classify", "alpha", "-g", "3", "--threshold", "zebra"],
     "Invalid value for --threshold: expected an integer or p/q, got 'zebra'"),
    # a value is the next argument whatever it looks like
    (["classify", "alpha", "-g", "3", "--threshold", "--dangling"],
     "Invalid value for --threshold: expected an integer or p/q, got '--dangling'"),
    (["filtration", "--signature", "-2,4", "--model", "clifford-max"],
     "Invalid value for '--signature': zero orders must be non-negative, got '-2,4'"),
    (["classify", "alpha", "-g"], "Option '-g' requires an argument."),
    (["classify", "alpha", "-g", "3", "--dangling=1"], "Option '--dangling' does not take a value."),
]


def error_line(result) -> str:
    """The one Error: line of a refusal: exit code 2, all of it on stderr."""
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.stderr
    return errors[0]


@pytest.mark.parametrize("args,line", PARSER_ERRORS, ids=[" ".join(a) for a, _ in PARSER_ERRORS])
def test_parser_errors_keep_their_lines(args, line):
    assert error_line(invoke(*args)) == f"Error: {line}"


def test_an_input_file_must_exist_and_not_be_a_directory(tmp_path):
    for path, fault in ((tmp_path / "nonexistent.json", "does not exist"),
                        (tmp_path, "is a directory")):
        assert error_line(invoke("invariants", "--input", str(path))) == (
            f"Error: Invalid value for '--input': File '{path}' {fault}.")


@pytest.mark.parametrize("args,stderr", [
    (["catalog", "show"], "Usage: gmspectra catalog show [OPTIONS] ENTRY_ID\n"
                          "Try 'gmspectra catalog show --help' for help.\n\n"
                          "Error: Missing argument 'ENTRY_ID'.\n"),
    (["classify", "nosuch"], "Usage: gmspectra classify [OPTIONS] COMMAND [ARGS]...\n"
                             "Try 'gmspectra classify --help' for help.\n\n"
                             "Error: No such command 'nosuch'.\n"),
    # an option without its value, and input refused inside a command, show no usage
    (["slope", "--model"], "Error: Option '--model' requires an argument.\n"),
    (["filtration", "--signature", "4", "--model", "{bad"],
     "Error: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"),
])
def test_a_refusal_is_the_usage_block_of_its_command(args, stderr):
    result = invoke(*args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", stderr)


def test_attached_values_read_as_separate_ones():
    spaced = invoke("classify", "alpha", "-g", "3", "--format", "csv")
    assert spaced.exit_code == 0
    for args in (["-g3", "--format=csv"], ["--genus=3", "--format", "csv"],
                 ["-g", "2", "--format", "csv", "-g", "3"]):  # the last value given counts
        assert invoke("classify", "alpha", *args).output == spaced.output


@pytest.mark.parametrize("group,names", [
    ((), ["catalog", "classify", "filtration", "invariants", "slope", "verify"]),
    (("classify",), ["alpha", "semigroups"]),
    (("catalog",), ["list", "show"]),
])
def test_a_bare_group_lists_its_commands_and_exits_2(group, names):
    result = invoke(*group)
    assert (result.exit_code, result.stdout) == (2, "")
    listed = result.stderr.split("\nCommands:\n")[1].splitlines()
    assert [line.split()[0] for line in listed] == names
    assert invoke(*group, "--help").stdout == result.stderr


COMMAND_OPTIONS = {
    ("invariants",): ["--catalog", "--input", "--m", "--format", "--decimal"],
    ("filtration",): ["--catalog", "--signature", "--model", "--m", "--format"],
    ("classify", "alpha"): ["-g", "--genus", "--threshold", "--dangling", "--format",
                            "--decimal"],
    ("classify", "semigroups"): ["-g", "--genus", "--threshold", "--format"],
    ("catalog", "list"): [],
    ("catalog", "show"): ["--json"],
    ("verify",): ["--suite"],
    ("slope",): ["--signature", "--model", "--catalog", "--decimal"],
}


def test_every_command_is_known():
    assert set(cli.COMMANDS) == set(COMMAND_OPTIONS)


@pytest.mark.parametrize("path", COMMAND_OPTIONS, ids=" ".join)
def test_help_names_every_option_before_any_check(path):
    # --help is read before a missing or bad value is refused
    for extra in ([], ["--m", "x"] if "--m" in COMMAND_OPTIONS[path] else ["extra"]):
        result = invoke(*path, "--help", *extra)
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout.startswith(f"Usage: gmspectra {' '.join(path)} [OPTIONS]")
        words = set(result.stdout.replace(",", " ").split())
        assert {*COMMAND_OPTIONS[path], "--help"} <= words


def test_an_unknown_log_level_is_one_error_line(monkeypatch):
    monkeypatch.setenv("LOG_LEVEL", "bogus")
    assert error_line(invoke("catalog", "list")) == (
        "Error: unknown LOG_LEVEL 'bogus'; use DEBUG, INFO, WARNING, ERROR or CRITICAL")
    monkeypatch.setenv("LOG_LEVEL", "debug")  # a level's name in any case
    assert invoke("slope", "--catalog", "E7").output == "9\n"


SRC = os.path.dirname(os.path.dirname(cli.__file__))


def test_the_cli_import_loads_the_library_but_not_click():
    # a fresh, isolated interpreter: the library's modules load with the CLI,
    # and the import configures no logging
    probe = (f"import logging, sys; sys.path.insert(0, {SRC!r}); import gmspectra.cli; "
             "print('click' in sys.modules, 'gmspectra.catalog' in sys.modules, "
             "logging.getLogger().handlers)")
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False True []\n"


def test_main_reads_log_level():
    probe = (f"import sys; sys.path.insert(0, {SRC!r}); from gmspectra.cli import main; "
             "sys.argv[1:] = ['classify', 'alpha', '-g', '2']; main()")
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "LOG_LEVEL": "debug"})
    assert ":alpha_search g=2 tau=3/8 " in out.stderr


def test_a_closed_pipe_is_met_inside_main(monkeypatch):
    # a short output is still buffered when the command returns: main flushes
    # it, so the closed pipe ends in exit code 1, not in an error at exit
    read, write = os.pipe()
    os.close(read)
    with open(write, "w") as stdout, redirect_stderr(io.StringIO()) as stderr:
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "argv", ["gmspectra", "slope", "--catalog", "E7"])
        with pytest.raises(SystemExit) as end:
            cli.main()
        monkeypatch.undo()
    assert end.value.code == 1 and stderr.getvalue() == ""


def test_a_closed_pipe_ends_quietly():
    # about 600 kB of table rows: the reader's close is met mid-write, as `| head -1` does
    probe = (f"import sys; sys.path.insert(0, {SRC!r}); from gmspectra.cli import main; "
             "sys.argv[1:] = ['classify', 'semigroups', '-g', '30']; main()")
    with subprocess.Popen([sys.executable, "-I", "-c", probe], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"semigroup ")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == 1
