"""Section-count models: closed forms, Riemann-Roch regime, filtrations.

The models answer h0 without a branch algebra, so every closed form here
is checked against either a direct count (semigroup membership), the
algebra route (section spaces), or the Riemann-Roch line.
"""

from collections import Counter
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import example, given, strategies as st

import gmspectra.branch_algebra as ba
import gmspectra.classifier as classifier
import gmspectra.curve_models as cm
import gmspectra.invariants as inv
import gmspectra.semigroup as sg
from gmspectra import catalog
from gmspectra.signature import derive, enumerate_signatures


# ------------------------------------------------------------- unibranch


def test_unibranch_37():
    model = cm.UnibranchModel(sg.from_generators((3, 7)))
    assert model.genus == 6
    assert model.h0((9,)) == 5  # {0, 3, 6, 7, 9}
    assert model.h0((0,)) == 1
    assert model.h0((-1,)) == 0
    assert model.h0((11,)) == 6  # beyond 2g-2: Riemann-Roch
    with pytest.raises(ValueError, match="single point"):
        cm.model_from_spec({"kind": "unibranch", "generators": [3, 7]}, derive((9, 1)))


def test_unibranch_matches_membership_count():
    for gens in [(2, 5), (2, 9), (3, 4), (3, 5), (4, 5, 6), (3, 7)]:
        H = sg.from_generators(gens)
        model = cm.UnibranchModel(H)
        for k in range(0, 2 * H.genus - 1):
            assert model.h0((k,)) == sum(1 for j in range(k + 1) if H.contains(j))


# --------------------------------------------------------- hyperelliptic


def hyperelliptic_spec(genus, tags):
    return {"kind": "hyperelliptic", "genus": genus, "tags": list(tags)}


def test_hyperelliptic_weierstrass_canonical():
    for g in range(2, 7):
        model = cm.HyperellipticModel(g, (0,), ())
        assert model.h0((2 * g - 2,)) == g
        assert model.h0((2 * g - 1,)) == g  # first Riemann-Roch degree
        assert model.h0((1,)) == 1
        assert model.h0((2,)) == 2


def test_hyperelliptic_pair_ladder():
    # conjugate pair: h0((g - lam)(p1 + p2)) = g - lam + 1 down to the constants
    g = 5
    model = cm.HyperellipticModel(g, (), ((0, 1),))
    for lam in range(0, g + 1):
        c = g - lam
        expected = g + 1 - lam if lam >= 1 else g + 1  # lam = 0 is already RR
        assert model.h0((c, c)) == expected


def test_hyperelliptic_free_points_inert():
    g = 4
    sig = derive((2 * g - 2, 0))
    model = cm.model_from_spec(hyperelliptic_spec(g, ("w", "free")), sig)
    assert model == cm.HyperellipticModel(g, (0,), ())
    # below Riemann-Roch a general point changes nothing
    assert model.h0((4, 1)) == model.h0((4, 0)) == 3
    # the two-branch family filtration at level two: dims 3g - lam
    dims = inv.weight_spectrum(model, 2, sig).levels(2 * sig.ell)
    assert dims[0] == 3 * (g - 1) + 2 * 2
    for lam in range(1, 2 * g + 1):
        assert dims[lam] == 3 * g - lam


def test_hyperelliptic_mixed_tags():
    # one Weierstrass point and one pair on genus 6
    model = cm.HyperellipticModel(6, (0,), ((1, 2),))
    assert model.h0((2, 1, 1)) == 3
    assert model.h0((3, 1, 1)) == 3
    assert model.h0((0, 0, 0)) == 1
    assert model.h0((-2, 1, 0)) == 0  # negative total degree


def test_hyperelliptic_tag_validation():
    sig = derive((2, 2))
    for tags in (("w", "pair:1"), ("w", "wat"), ("w",)):
        with pytest.raises(ValueError):
            cm.model_from_spec(hyperelliptic_spec(sig.genus, tags), sig)


# ---------------------------------------------------------- clifford-max


def test_clifford_max_profile():
    g = 5
    model = cm.CliffordMaxModel(g)
    assert model.h0((-1,)) == 0
    assert model.h0((0,)) == 1
    assert [model.h0((d,)) for d in range(1, 2 * g - 2)] == [
        (d + 1) // 2 for d in range(1, 2 * g - 2)
    ]
    assert model.h0((2 * g - 2,)) == g  # canonical degree
    assert model.h0((2 * g - 1,)) == g
    assert model.h0((3 * g,)) == 2 * g + 1


def test_a_negative_clifford_max_genus_is_refused_by_the_signature_check(monkeypatch):
    # every signature has genus at least 1, so the genus check refuses a
    # negative genus: a spec's when it is built, a model built directly's
    # before its frame is read, with one message, as the CLI reports it
    sig = derive((4,))
    message = "^model genus -1 differs from signature genus 3$"
    with pytest.raises(ValueError, match=message):
        cm.filtration_dims(cm.CliffordMaxModel(-1), sig, 1)
    monkeypatch.setattr(cm, "ladder_runs", lambda *args: pytest.fail("a frame was built"))
    clifford = {"kind": "clifford-max", "genus": -1}
    for spec in (clifford, {"kind": "override", "base": clifford, "table": []}):
        with pytest.raises(ValueError, match=message):
            cm.model_from_spec(spec, sig)


def test_model_from_spec_refuses_a_genus_before_tags_and_rows(monkeypatch):
    # a hyperelliptic or clifford-max genus other than the signature's is
    # refused at build, before a bad tag or an override's bad row is read
    monkeypatch.setattr(cm, "ladder_runs", lambda *args: pytest.fail("a frame was built"))
    sig = derive((4, 4))
    message = "^model genus 4 differs from signature genus 5$"
    for spec in (hyperelliptic_spec(4, ("w", "w")), hyperelliptic_spec(4, ("w", "wat")),
                 {"kind": "clifford-max", "genus": 4},
                 {"kind": "override", "base": hyperelliptic_spec(4, ("w", "w")),
                  "table": [{"divisor": [1, 2, 3], "h0": 1}]}):
        with pytest.raises(ValueError, match=message):
            cm.model_from_spec(spec, sig)
    assert cm.model_from_spec(hyperelliptic_spec(5, ("w", "w")), sig) == cm.HyperellipticModel(
        5, (0, 1), ())


def test_clifford_max_principal_stratum():
    # all-ones signature: only three filtration levels survive
    for g in (3, 5, 8):
        sig = derive((1,) * (2 * g - 2))
        dims = inv.weight_spectrum(cm.CliffordMaxModel(g), 1, sig).levels(sig.ell)
        assert dims == (3 * g - 3, g, 1)


# --------------------------------------------------------------- override


def test_override_table():
    base = cm.CliffordMaxModel(5)
    model = cm.OverrideModel(base, (((3, 0), 2), ((1, 0), 1)))
    assert model.genus == 5
    assert model.h0((3, 0)) == 2
    assert model.h0((1, 0)) == 1
    assert model.h0((4, 0)) == base.h0((4, 0))


def test_override_special_locus_filtration():
    # the (7,1) locus: every level meets the nonhyperelliptic cap, so the
    # override entry only pins what genericity would lose
    e = catalog.get("H(7,1)-special")
    sig = derive(e.signature)
    divisor, value = e.locus_condition
    model = cm.OverrideModel(cm.CliffordMaxModel(sig.genus), ((divisor, value),))
    dims = inv.weight_spectrum(model, 1, sig).levels(sig.ell)
    assert sum(dims[1:]) == e.expected.chi1_log == 20
    # and the algebra computes the same filtration
    alg_dims = inv.weight_spectrum(e.algebra(), 1).levels(sig.ell)
    assert dims == alg_dims
    assert ba.section_space(e.algebra(), divisor).dimension == value


def test_catalog_ring_sections():
    alg = catalog.get("E7").algebra()
    assert ba.algebra_summary(alg)["genus"] == 3
    assert ba.section_space(alg, (0, 0)).dimension == 1
    assert ba.section_space(alg, (3, 1)).dimension == 3  # the zero divisor of the form is canonical


def test_ring_genus_needs_a_certified_conductor():
    # no generators: the ring is not cofinite, so delta is infinite, yet
    # the summed gap sequence is finite
    sig, gens, _units = ba.generators_from_json({"signature": [3, 1], "generators": []})
    alg = ba.close(sig, [terms for _, terms in gens])
    assert sum(ba.gap_sequence(alg)) == 8 and alg.delta is None
    assert "genus" not in ba.algebra_summary(alg)
    assert ba.section_space(alg, (0, 0)).dimension == 1  # sections are still read


# ---------------------------------------------------------- filtrations


def test_filtration_level_zero_law():
    models = [
        (cm.UnibranchModel(sg.from_generators((3, 5))), derive((6,))),
        (cm.HyperellipticModel(3, (), ((0, 1),)), derive((2, 2))),
        (cm.CliffordMaxModel(4), derive((3, 3))),
    ]
    for model, sig in models:
        g, n = sig.genus, sig.n
        for m in (1, 2, 3):
            dims = inv.weight_spectrum(model, m, sig).levels(m * sig.ell)
            assert len(dims) == m * sig.ell + 1
            expected0 = g - 1 + n if m == 1 else (2 * m - 1) * (g - 1) + m * n
            assert dims[0] == expected0
            assert dims[-1] == 1
            assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_filtration_genus_mismatch():
    with pytest.raises(ValueError):
        cm.filtration_dims(cm.CliffordMaxModel(3), derive((6,)), 1)
    with pytest.raises(ValueError):
        cm.filtration_dims(cm.CliffordMaxModel(4), derive((6,)), 0)


def test_filtration_genus_one():
    model = cm.UnibranchModel(sg.from_generators((2, 3)))
    sig = derive((0,))
    dims = inv.weight_spectrum(model, 1, sig).levels(sig.ell)
    assert dims == (1, 1)


# ----------------------------------------------------------- ladder frame


def frame_pairs():
    """Per model kind, two (model, signature) reads on different frames."""
    clifford = cm.CliffordMaxModel(3)
    return {
        "unibranch": ((cm.UnibranchModel(sg.from_generators((3, 4))), derive((4,))),
                      (cm.UnibranchModel(sg.from_generators((3, 5))), derive((6,)))),
        "hyperelliptic": ((cm.HyperellipticModel(3, (0,), ()), derive((4,))),
                          (cm.HyperellipticModel(3, (), ((0, 1),)), derive((2, 2)))),
        "clifford-max": ((clifford, derive((4,))), (clifford, derive((3, 1)))),
        "override": ((cm.OverrideModel(clifford, (((3,), 1),)), derive((4,))),
                     (cm.OverrideModel(clifford, (((2, 1), 1),)), derive((3, 1)))),
    }


def interleaved_reads():
    """Every kind's reads A, B, A at m = 1, then m = 2 on A's signature."""
    reads = []
    for a, b in frame_pairs().values():
        reads += [(*a, 1), (*b, 1), (*a, 1), (*a, 2), (*a, 1), (*b, 2), (*a, 2)]
    return reads


def test_shared_frames_give_the_runs_of_fresh_frames():
    reads = interleaved_reads()
    fresh = []
    for model, sig, m in reads:
        cm._ladder_frame.cache_clear()
        fresh.append(cm.filtration_dims(model, sig, m))
    cm._ladder_frame.cache_clear()
    assert [cm.filtration_dims(model, sig, m) for model, sig, m in reads] == fresh
    # one frame per change of (signature, m), shared by the reads in between
    frames = [(sig, m) for _, sig, m in reads]
    changes = 1 + sum(x != y for x, y in zip(frames, frames[1:]))
    info = cm._ladder_frame.cache_info()
    assert (info.misses, info.hits, info.currsize) == (changes, len(reads) - changes, 1)


def test_a_semigroup_search_builds_one_frame():
    cm._ladder_frame.cache_clear()
    records = classifier.semigroup_search(10)
    info = cm._ladder_frame.cache_info()
    assert (info.misses, info.hits) == (1, len(records) - 1)


def test_the_frame_is_immutable():
    frame = cm._ladder_frame(derive((3, 1)), 2)
    starts, ends, columns = frame.starts, frame.ends, frame.columns
    assert type(starts) is tuple and type(ends) is tuple and type(columns) is tuple
    assert all(type(col) is tuple for col in columns)
    assert type(frame.degrees) is tuple
    with pytest.raises(AttributeError):
        frame.starts = ()


def test_a_frame_beyond_the_row_bound_is_refused_before_its_runs(monkeypatch):
    runs = []
    ladder_runs = cm.ladder_runs
    monkeypatch.setattr(cm, "ladder_runs", lambda *args: runs.append(args) or ladder_runs(*args))
    cm._ladder_frame.cache_clear()
    # on (799998), m(2g - 2 + n) + 1 = 1599999 at m = 2, whatever the runs are
    sig = derive((799998,))
    with pytest.raises(ValueError, match=r"of \(799998\) at m = 2 has up to 1599999 rows, "
                                         r"beyond the frame row bound 1000000"):
        cm.filtration_dims(cm.CliffordMaxModel(sig.genus), sig, 2)
    # at ell = 100280245065 the m = 2 frame may have 317 rows and has 299
    sig = derive((30, 28, 22, 18, 16, 12, 10, 6, 4, 2))
    model = cm.CliffordMaxModel(sig.genus)
    monkeypatch.setattr(cm, "FRAME_ROW_BOUND", 316)
    with pytest.raises(ValueError, match="up to 317 rows, beyond the frame row bound 316"):
        cm.filtration_dims(model, sig, 2)
    assert runs == []
    monkeypatch.setattr(cm, "FRAME_ROW_BOUND", 317)
    assert len(cm.filtration_dims(model, sig, 2).starts) == 299
    assert len(runs) == 1


def test_degree_only_reads_build_no_column(monkeypatch):
    """Clifford-max filtrations and spectra read the frame's degrees alone;
    a column reader builds the columns once per frame."""
    built = []
    columns = cm.LadderFrame.columns.func
    counting = cached_property(lambda frame: built.append((frame.sig, frame.m))
                               or columns(frame))
    counting.__set_name__(cm.LadderFrame, "columns")
    monkeypatch.setattr(cm.LadderFrame, "columns", counting)
    cm._ladder_frame.cache_clear()
    sig = derive((90, 12, 10, 4))
    clifford = cm.CliffordMaxModel(sig.genus)
    for m in (1, 2, 1):
        cm.filtration_dims(clifford, sig, m)
        inv.weight_spectrum(clifford, m, sig)
    classifier.clifford_profile_chi1(sig)
    assert built == []
    hyperelliptic = cm.HyperellipticModel(sig.genus, (0, 1, 2, 3), ())
    for _ in range(2):
        cm.filtration_dims(hyperelliptic, sig, 1)
        cm.filtration_dims(clifford, sig, 1)
    assert built == [(sig, 1)]


# ------------------------------------------------------------ properties


DEGREES = st.integers(min_value=0, max_value=24)


@given(DEGREES)
def test_unibranch_monotone(k):
    model = cm.UnibranchModel(sg.from_generators((3, 7)))
    assert 0 <= model.h0((k,)) <= model.h0((k + 1,))


@given(st.tuples(DEGREES, DEGREES, DEGREES), st.integers(0, 2))
def test_hyperelliptic_monotone(divisor, slot):
    model = cm.HyperellipticModel(5, (0,), ((1, 2),))
    up = tuple(c + (1 if i == slot else 0) for i, c in enumerate(divisor))
    assert 0 <= model.h0(divisor) <= model.h0(up)


@given(st.tuples(DEGREES, DEGREES), st.integers(0, 1))
def test_clifford_max_monotone(divisor, slot):
    model = cm.CliffordMaxModel(6)
    up = tuple(c + (1 if i == slot else 0) for i, c in enumerate(divisor))
    assert 0 <= model.h0(divisor) <= model.h0(up)


def test_riemann_roch_regime_agreement():
    # every model settles on deg - g + 1 beyond the canonical degree
    for g in range(2, 9):
        models = [
            (cm.HyperellipticModel(g, (0,), ()), lambda deg: (deg - 1, 1)),
            (cm.CliffordMaxModel(g), lambda deg: (deg, 0)),
            (cm.UnibranchModel(sg.from_generators((2, 2 * g + 1))), lambda deg: (deg,)),
        ]
        for deg in range(2 * g - 1, 6 * g + 1):
            for model, divisor in models:
                assert model.h0(divisor(deg)) == deg - g + 1, (g, deg, model)


# ----------------------------------------------------------- frame reads
#
# h0 is the one-row frame read, so these check h0_frame itself, on
# batches of arbitrary columns (negative and Riemann-Roch entries
# included), against per-divisor formulas written out here.

COEFFS = st.integers(min_value=-6, max_value=30)


def rows_of(width):
    return st.lists(st.tuples(*[COEFFS] * width), max_size=12)


def columns_of(rows, width):
    return [[row[i] for row in rows] for i in range(width)]


def clifford_formula(g, divisor):
    deg = sum(divisor)
    if deg < 0:
        return 0
    if deg == 0:
        return 1
    if deg == 2 * g - 2:
        return g
    if deg > 2 * g - 2:
        return deg - g + 1
    return (deg + 1) // 2


def hyperelliptic_formula(g, weierstrass, pairs, divisor):
    deg = sum(divisor)
    if deg < 0:
        return 0
    if deg > 2 * g - 2:
        return deg - g + 1
    pencils = sum(divisor[i] // 2 for i in weierstrass)
    pencils += sum(min(divisor[i], divisor[j]) for i, j in pairs)
    return max(1 + pencils, 0)


@given(st.lists(COEFFS, max_size=12),
       st.sampled_from([(1,), (2, 3), (3, 7), (4, 5, 6), (5, 7, 9, 11)]))
def test_unibranch_column_counts_elements(column, gens):
    H = sg.from_generators(gens)
    model = cm.UnibranchModel(H)
    expected = [sum(1 for j in range(c + 1) if H.contains(j)) for c in column]
    assert model.h0_frame(cm.Batch.of([column])) == expected
    assert model.h0_frame(cm.Batch.of([column, [0] * len(column)])) == expected
    # only the first column is read: model_from_spec refuses a second point
    assert model.h0_frame(cm.Batch.of([column, [1] * len(column)])) == expected


@given(st.integers(0, 8), st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), rows_of(n))))
def test_clifford_max_column_matches_formula(g, case):
    n, rows = case
    model = cm.CliffordMaxModel(g)
    expected = [clifford_formula(g, r) for r in rows]
    assert model.h0_frame(cm.Batch.of(columns_of(rows, n))) == expected


# (column count, Weierstrass indices, pair indices) of the per-point tags
# w; free; w, free; pair:1 x2; w, pair:1 x2; pair:a, w, pair:b, pair:a, free, pair:b
HYPERELLIPTIC_POINTS = [(1, (0,), ()), (1, (), ()), (2, (0,), ()), (2, (), ((0, 1),)),
                        (3, (0,), ((1, 2),)), (6, (1,), ((0, 3), (2, 5)))]


@given(st.integers(1, 8), st.sampled_from(HYPERELLIPTIC_POINTS).flatmap(
    lambda points: st.tuples(st.just(points), rows_of(points[0]))))
@example(3, ((2, (0,), ()), [(-6, 6), (-5, 7), (-1, 1)]))  # 1 + pencils < 0
@example(3, ((2, (0,), ()), [(-4, 4), (-3, 5), (-2, 2)]))  # pencils -2, -2, -1
def test_hyperelliptic_column_matches_formula(g, case):
    (n, weierstrass, pairs), rows = case
    model = cm.HyperellipticModel(g, weierstrass, pairs)
    expected = [hyperelliptic_formula(g, weierstrass, pairs, r) for r in rows]
    assert model.h0_frame(cm.Batch.of(columns_of(rows, n))) == expected


def test_hyperelliptic_column_clamp_and_errors():
    model = cm.HyperellipticModel(3, (0,), ())
    # degree 0, pencils -3: the clamp answers 0, not -2
    assert model.h0_frame(cm.Batch.of([[-6, 0], [6, 0]])) == [0, 1]
    for orders, tags, message in (((4,), ("w", "free"), r"has 2 tags, not one per marked point"),
                                  ((2, 2), ("w", "wat"), "unknown tag"),
                                  ((2, 2), ("w", "pair:1"), "needs 2")):
        sig = derive(orders)
        with pytest.raises(ValueError, match=message):
            cm.model_from_spec(hyperelliptic_spec(sig.genus, tags), sig)


def test_one_pass_hyperelliptic_read():
    """The tag parser names the first fault: the tag count comes first,
    then the first unknown tag, then the pair ids seen other than twice,
    first seen first, each before a tag its order cannot carry (w on an
    odd order below); every kind of tag at once reads as before."""
    def refusal(tags, orders):
        sig = derive(orders)
        with pytest.raises(ValueError) as caught:
            cm.model_from_spec(hyperelliptic_spec(sig.genus, tags), sig)
        return str(caught.value)

    assert refusal(("wat", "pair:1"), (4,)) == (
        "hyperelliptic model has 2 tags, not one per marked point (1)")
    assert refusal(("pair:1", "w", "wat", "bad"), (1,) * 4) == "unknown tag 'wat'"
    assert refusal(("pair:z", "pair:a", "pair:a", "pair:a", "pair:q", "w"), (1,) * 6) == (
        "pair 'z' has 1 member, needs 2")
    assert refusal(("pair:a", "pair:a", "pair:z", "pair:z", "pair:z", "pair:q"),
                   (1,) * 6) == "pair 'z' has 3 members, needs 2"
    sig = derive((4, 2, 2, 0))
    model = cm.model_from_spec(hyperelliptic_spec(sig.genus, ("w", "pair:1", "pair:1", "free")),
                               sig)
    assert model == cm.HyperellipticModel(sig.genus, (0,), ((1, 2),))
    chi1_log = cm.runs_chi_log(cm.filtration_dims(model, sig, 1))
    chi2_log = cm.runs_chi_log(cm.filtration_dims(model, sig, 2))
    assert chi2_log == 222
    assert inv.slope(chi1_log, chi2_log, sig) == Fraction(176, 21)


@given(rows_of(2), st.lists(st.tuples(st.tuples(COEFFS, COEFFS), st.integers(0, 9)),
                            max_size=4), st.data())
def test_override_column_patches_table_rows(rows, table, data):
    base = cm.CliffordMaxModel(5)
    model = cm.OverrideModel(base, tuple(table))
    # put some table divisors in the middle of the column
    for divisor, _ in table:
        rows.insert(data.draw(st.integers(0, len(rows))), divisor)
    first = {}
    for divisor, value in table:
        first.setdefault(divisor, value)
    expected = [first.get(r, clifford_formula(5, r)) for r in rows]
    assert model.h0_frame(cm.Batch.of(columns_of(rows, 2))) == expected


def test_override_row_of_another_length_is_an_error(monkeypatch):
    monkeypatch.setattr(cm, "ladder_runs", lambda *args: pytest.fail("a frame was built"))
    spec = {"kind": "override", "base": {"kind": "clifford-max", "genus": 3},
            "table": [{"divisor": [3, 0], "h0": 2}, {"divisor": [1, 2, 3], "h0": 1}]}
    with pytest.raises(ValueError, match=r"table\[1\]\.divisor has 3 coefficients.*\(2\)$"):
        cm.model_from_spec(spec, derive((3, 1)))
    with pytest.raises(ValueError, match=r"table\[0\]\.divisor has 2 coefficients.*\(1\)$"):
        cm.model_from_spec(spec, derive((4,)))
    spec["table"][0]["h0"] = -2
    with pytest.raises(ValueError, match=r"^table\[0\]\.h0 is -2, below 0$"):
        cm.model_from_spec(spec, derive((3, 1)))


def test_override_column_first_entry_wins():
    model = cm.OverrideModel(cm.CliffordMaxModel(5), (((3, 0), 2), ((3, 0), 7)))
    assert model.h0_frame(cm.Batch.of([[4, 3, 2], [0, 0, 0]])) == [2, 2, 1]


# ------------------------------------------------------------- JSON spec


def test_model_from_spec():
    m1 = cm.model_from_spec({"kind": "unibranch", "generators": [3, 7]}, derive((10,)))
    assert isinstance(m1, cm.UnibranchModel) and m1.genus == 6
    m2 = cm.model_from_spec(
        {"kind": "hyperelliptic", "genus": 4, "tags": ["w", "pair:1", "pair:1"]}, derive((4, 1, 1))
    )
    assert m2.h0((2, 0, 0)) == 2
    m3 = cm.model_from_spec({"kind": "clifford-max", "genus": 5}, derive((8,)))
    assert m3.h0((8,)) == 5
    m4 = cm.model_from_spec(
        {
            "kind": "override",
            "base": {"kind": "clifford-max", "genus": 5},
            "table": [{"divisor": [3, 0], "h0": 2}],
        },
        derive((7, 1)),
    )
    assert m4.h0((3, 0)) == 2 and m4.h0((5, 0)) == 3
    with pytest.raises(ValueError):
        cm.model_from_spec({"kind": "mystery"}, derive((8,)))


@pytest.mark.parametrize("orders,tags,message", [
    ((3, 1), ["pair:1", "pair:1"], "pair '1' joins zeros of orders 3 and 1"),
    ((3, 3), ["w", "w"], "tag 'w' on a zero of odd order 3"),
    ((4,), ["free"], "tag 'free' on a zero of order 4"),
    ((2, 2), ["free", "free"], "tag 'free' on a zero of order 2"),
    # the first fault by position: the pair before the odd Weierstrass zero
    ((2, 2, 1, 1), ["pair:1", "w", "pair:1", "w"], "pair '1' joins zeros of orders 2 and 1"),
])
def test_model_from_spec_refuses_tags_no_hyperelliptic_differential_carries(
        orders, tags, message, monkeypatch):
    sig = derive(orders)
    monkeypatch.setattr(cm, "ladder_runs", lambda *args: pytest.fail("a frame was built"))
    with pytest.raises(ValueError, match=message):
        cm.model_from_spec(hyperelliptic_spec(sig.genus, tags), sig)
    override = {"kind": "override", "base": hyperelliptic_spec(sig.genus, tags), "table": []}
    with pytest.raises(ValueError, match=message):
        cm.model_from_spec(override, sig)


def test_model_from_spec_refuses_malformed_tags_before_inadmissible_ones():
    sig = derive((3, 1))
    for tags, message in [(["w"], r"hyperelliptic model has 1 tag, not one per marked point \(2\)"),
                          (["w", "zebra"], "unknown tag 'zebra'"),
                          (["w", "pair:1"], "pair '1' has 1 member, needs 2")]:
        with pytest.raises(ValueError, match=message):
            cm.model_from_spec(hyperelliptic_spec(sig.genus, tags), sig)


def point_tags(tagging, sig):
    """The per-point tags of a tagging, point by point: a nonzero order
    opens a pair while the tagging has pairs of it left and closes the one
    it opened, is a Weierstrass zero when none is left, and order 0 is free."""
    left, opened, tags = Counter(tagging.pairs), {}, []
    for v in sig.orders:
        if v in opened:
            tags.append(opened.pop(v))
        elif left[v]:
            left[v] -= 1
            opened[v] = f"pair:{len(tags)}"
            tags.append(opened[v])
        else:
            tags.append("w" if v else "free")
    return tags


@pytest.mark.parametrize("g", range(2, 7))
def test_model_from_spec_accepts_every_tagging_the_classifier_reads(g):
    checked = 0
    for core in enumerate_signatures(g, 2 * g - 2):
        sig = derive(core.orders + (0,))  # a free point too
        for tagging in classifier.hyperelliptic_taggings(sig):
            spec = hyperelliptic_spec(g, point_tags(tagging, sig))
            assert tagging.model(sig) == cm.model_from_spec(spec, sig), (sig, tagging)
            checked += 1
    assert checked >= g


def test_model_from_spec_decides_a_unibranch_genus_before_the_mask():
    spec = {"kind": "unibranch", "generators": [3, 5, 10**12]}  # <3,5>
    assert cm.model_from_spec(spec, derive((6,))).semigroup == sg.from_generators((3, 5))
    with pytest.raises(ValueError, match="model genus 6 differs from signature genus 3"):
        cm.model_from_spec({"kind": "unibranch", "generators": [3, 7]}, derive((4,)))
    with pytest.raises(ValueError, match="model genus at least 1000002 differs"):
        cm.model_from_spec({"kind": "unibranch", "generators": [1000003, 1000033]}, derive((4,)))


def test_model_from_spec_refuses_a_unibranch_spec_on_two_points_before_the_mask(monkeypatch):
    monkeypatch.setattr(sg, "from_generators", lambda gens: pytest.fail("a mask was built"))
    with pytest.raises(ValueError, match="^unibranch model only supports divisors on its "
                                         "single point$"):
        cm.model_from_spec({"kind": "unibranch", "generators": [3, 4]}, derive((4, 0)))
