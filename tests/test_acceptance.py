"""End-to-end acceptance gate.

Ten checks, one test function each so a verbose run reports exactly one
pass/fail line per guarantee.  All comparisons are exact (ints and
Fractions); there are no tolerances anywhere in this module.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from math import gcd

from click.testing import CliRunner

import gmspectra.branch_algebra as ba
import gmspectra.catalog as cat
import gmspectra.curve_models as cm
import gmspectra.invariants as inv
import gmspectra.semigroup as sg
from gmspectra.classifier import semigroup_search
from gmspectra.cli import main as cli_main
from gmspectra.signature import derive, ladder_sum_identity, parity_count


def spectra(entry, top_level=2):
    sig = derive(entry.signature)
    alg = entry.algebra()
    return sig, alg, {m: inv.weight_spectrum(alg, m) for m in range(1, top_level + 1)}


def run_cli(*args):
    result = CliRunner().invoke(cli_main, list(args))
    assert result.exit_code == 0, result.output
    return result.output


# ------------------------------------------------------------------ 1
# Character triples (chi1_log, chi2_log, alpha) of the nonvarying table,
# recomputed from the stored generator data alone.  The last signature
# has two distinct normal forms with identical characters.

NONVARYING_TRIPLES = {
    "E7": (7, 31, Fraction(29, 60)),
    "H(2,2)-odd": (5, 23, Fraction(19, 42)),
    "H(2,1,1)": (11, 53, Fraction(37, 90)),
    "H(5,1)": (12, 60, Fraction(3, 8)),
    "H(4,2)-even": (32, 152, Fraction(14, 33)),
    "H(4,2)-odd": (29, 149, Fraction(79, 228)),
    "H(3,3)-nonhyp": (8, 40, Fraction(3, 8)),
    "H(3,2,1)": (25, 133, Fraction(59, 192)),
    "H(2,2,2)-odd": (6, 33, Fraction(4, 15)),
    "H(6,2)-odd": (46, 256, Fraction(43, 171)),
    "H(5,3)": (27, 147, Fraction(19, 68)),
    "H(2,2,2)-even-1": (7, 34, Fraction(23, 57)),
    "H(2,2,2)-even-2": (7, 34, Fraction(23, 57)),
}

MONOMIAL_CHARACTERS = {"E6": (8, 33), "E8": (14, 63)}


def test_criterion_01_nonvarying_character_triples():
    for ident, (chi1, chi2_log, alpha) in NONVARYING_TRIPLES.items():
        _sig, _alg, sp = spectra(cat.get(ident))
        assert sp[1].chi_log == chi1, ident
        assert sp[2].chi_log == chi2_log, ident
        assert inv.alpha(sp[1].chi_log, sp[2].chi_log) == alpha, ident
    for ident, pair in MONOMIAL_CHARACTERS.items():
        _sig, _alg, sp = spectra(cat.get(ident))
        assert (sp[1].chi_log, sp[2].chi_log) == pair, ident


# ------------------------------------------------------------------ 2
# Gap sequences, conductor colength, and the duality test for every
# nonvarying entry; a doctored generator must fail the duality test.


def test_criterion_02_gap_sequences_and_gorenstein():
    for ident in NONVARYING_TRIPLES:
        entry = cat.get(ident)
        alg = entry.algebra()
        assert tuple(ba.gap_sequence(alg)) == tuple(entry.expected.gap_sequence), ident
        summary = ba.algebra_summary(alg)
        assert summary["gorenstein"], ident
        assert sum(summary["conductor"]) - alg.delta == alg.delta, ident
    assert tuple(cat.get("E7").expected.gap_sequence) == (1, 1, 0, 1)
    assert tuple(cat.get("H(6,2)-odd").expected.gap_sequence) == (2, 1, 1, 0, 0, 0, 1)

    # dropping the second-branch term of the degree-2 generator leaves a
    # ring that is no longer dual to itself
    sig = derive((3, 1))
    gens = [[(0, 2, 1)], [(0, 3, 1)]]
    broken = ba.close(sig, gens)
    broken.dim(40)  # a read far past the window W = 10 extends the closure first
    assert not ba.algebra_summary(broken)["gorenstein"]


# ------------------------------------------------------------------ 3
# Closed-form characters of the classical families.


def test_criterion_03_family_character_formulas():
    for g in range(2, 21):
        expected = {
            "A-odd": (g * (g + 1) // 2, (5 * g * g + g) // 2),
            "D-odd": (g * g, 5 * g * g - 2 * g),
            "D-even": ((g * g + g) // 2, (5 * g * g + 3 * g) // 2),
        }
        for name, want in expected.items():
            _sig, _alg, sp = spectra(cat.family(name, g=g))
            assert (sp[1].chi_log, sp[2].chi_log) == want, (name, g)
    for n in range(3, 11):
        sig, _alg, sp = spectra(cat.family("elliptic", n=n))
        assert (sp[1].chi_log, sp[2].chi_log) == (1, n + 1), n
        assert inv.chi2_from_log(sp[2].chi_log, sig) == 1, n


# ------------------------------------------------------------------ 4
# The four weight identities at levels m = 2, 3, 4 on every catalog
# algebra.


def test_criterion_04_weight_identities_all_entries():
    for entry in cat.entries():
        sig, _alg, sp = spectra(entry, top_level=4)
        for m in (2, 3, 4):
            report = inv.verify_weight_identities(sp[m], sp[1], sig)
            assert report.all_pass, (entry.id, m, report.notes)


# ------------------------------------------------------------------ 5
# Brute-force counting identities: lattice parity counts, the toric
# lattice identity, and one-period ladder sums.


def test_criterion_05_counting_identities():
    checked = 0
    for k2 in range(1, 25):
        for k1 in range(k2 + 1, 600 // k2 + 1):
            if gcd(k1, k2) != 1:
                continue
            both_odd = k1 % 2 == 1 and k2 % 2 == 1
            want = (k1 * k2 + 1) // 2 if both_odd else k1 * k2 // 2
            assert parity_count(k1, k2) == want, (k1, k2)
            checked += 1
    assert checked > 400

    degenerate = []
    for p in range(2, 21):
        for q in range(2, 21):
            try:
                report = inv.toric_lattice_identity(p, q)
            except ValueError:
                degenerate.append((p, q))
                continue
            assert report.equal, (p, q)
    assert degenerate == [(2, 2)]

    for m1 in range(1, 31):
        for m2 in range(1, m1 + 1):
            if (m1 + m2) % 2:
                continue
            sig = derive((m1, m2))
            for i in (0, 1):
                assert 2 * ladder_sum_identity(sig, i) == (sig.orders[i] + 2) * sig.ell
    for m1 in range(2, 31, 2):
        sig = derive((m1,))
        assert 2 * ladder_sum_identity(sig, 0) == (m1 + 2) * sig.ell


# ------------------------------------------------------------------ 6
# The classification lists at the 3/8 cutoff for every genus up to six,
# driven through the command line, including the boundary rows where the
# inequality is an equality and the ordinary-point budget rows.

CLASSIFY_ROWS = {
    1: [
        ((0,), "elliptic", 1, "genus-one", None),
        ((0, 0), "elliptic", 1, "genus-one", None),
        ((0, 0, 0), "elliptic", 1, "genus-one", None),
        ((0, 0, 0, 0), "elliptic", 1, "genus-one", None),
    ],
    2: [
        ((1, 1), "hyperelliptic(p1)", 3, "hyperelliptic", "hyp"),
        ((1, 1, 0), "hyperelliptic(p1,o)", 3, "hyperelliptic", "hyp"),
        ((1, 1, 0, 0), "hyperelliptic(p1,o,o)", 3, "hyperelliptic", "hyp"),
        ((2,), "hyperelliptic(w2)", 4, "hyperelliptic", "hyp"),
        ((2, 0), "hyperelliptic(w2,o)", 4, "hyperelliptic", "hyp"),
        ((2, 0, 0), "hyperelliptic(w2,o,o)", 4, "hyperelliptic", "hyp"),
    ],
    3: [
        ((1, 1, 1, 1), "clifford-max", 4, "stratum", None),
        ((1, 1, 1, 1), "hyperelliptic(p1,p1)", 4, "hyperelliptic", "hyp"),
        ((2, 1, 1), "catalog[H(2,1,1)]", 11, "stratum", None),
        ((2, 1, 1), "hyperelliptic(w2,p1)", 11, "hyperelliptic", "hyp"),
        ((2, 2), "catalog[H(2,2)-odd]", 5, "stratum", "odd"),
        ((2, 2), "hyperelliptic(p2)", 6, "hyperelliptic", "hyp"),
        ((2, 2), "hyperelliptic(w2,w2)", 5, "hyperelliptic", "hyp"),
        ((2, 2, 0), "hyperelliptic(p2,o)", 6, "hyperelliptic", "hyp"),
        ((2, 2, 0, 0), "hyperelliptic(p2,o,o)", 6, "hyperelliptic", "hyp"),
        ((3, 1), "catalog[E7]", 7, "stratum", None),
        ((3, 1, 0), "catalog[E7]", 7, "stratum", None),
        ((4,), "hyperelliptic(w4)", 9, "hyperelliptic", "hyp"),
        ((4,), "unibranch(<3,4>)", 8, "stratum", "odd"),
        ((4, 0), "hyperelliptic(w4,o)", 9, "hyperelliptic", "hyp"),
        ((4, 0), "unibranch(<3,4>)", 8, "stratum", "odd"),
        ((4, 0, 0), "hyperelliptic(w4,o,o)", 9, "hyperelliptic", "hyp"),
    ],
    4: [
        ((2, 2, 1, 1), "hyperelliptic(p2,p1)", 15, "hyperelliptic", "hyp"),
        ((2, 2, 2), "catalog[H(2,2,2)-even-1|H(2,2,2)-even-2]", 7, "stratum", "even"),
        ((2, 2, 2), "hyperelliptic(p2,w2)", 7, "hyperelliptic", "hyp"),
        ((3, 3), "catalog[H(3,3)-nonhyp]", 8, "stratum", "nonhyp"),
        ((3, 3), "hyperelliptic(p3)", 10, "hyperelliptic", "hyp"),
        ((3, 3, 0), "hyperelliptic(p3,o)", 10, "hyperelliptic", "hyp"),
        ((3, 3, 0, 0), "hyperelliptic(p3,o,o)", 10, "hyperelliptic", "hyp"),
        ((4, 1, 1), "hyperelliptic(w4,p1)", 23, "hyperelliptic", "hyp"),
        ((4, 2), "catalog[H(4,2)-even]", 32, "stratum", "even"),
        ((4, 2), "hyperelliptic(w4,w2)", 32, "hyperelliptic", "hyp"),
        ((5, 1), "catalog[H(5,1)]", 12, "stratum", None),
        ((6,), "hyperelliptic(w6)", 16, "hyperelliptic", "hyp"),
        ((6,), "unibranch(<3,5>)", 14, "stratum", "even"),
        ((6,), "unibranch(<4,5,6>)", 13, "stratum", "odd"),
        ((6, 0), "hyperelliptic(w6,o)", 16, "hyperelliptic", "hyp"),
        ((6, 0), "unibranch(<3,5>)", 14, "stratum", "even"),
        ((6, 0, 0), "hyperelliptic(w6,o,o)", 16, "hyperelliptic", "hyp"),
    ],
    5: [
        ((2, 2, 2, 2), "hyperelliptic(p2,p2)", 9, "hyperelliptic", "hyp"),
        ((3, 3, 1, 1), "hyperelliptic(p3,p1)", 12, "hyperelliptic", "hyp"),
        ((3, 3, 2), "hyperelliptic(p3,w2)", 34, "hyperelliptic", "hyp"),
        ((4, 2, 2), "hyperelliptic(w4,p2)", 42, "hyperelliptic", "hyp"),
        ((4, 4), "hyperelliptic(p4)", 15, "hyperelliptic", "hyp"),
        ((4, 4), "hyperelliptic(w4,w4)", 13, "hyperelliptic", "hyp"),
        ((4, 4, 0), "hyperelliptic(p4,o)", 15, "hyperelliptic", "hyp"),
        ((4, 4, 0, 0), "hyperelliptic(p4,o,o)", 15, "hyperelliptic", "hyp"),
        ((6, 1, 1), "hyperelliptic(w6,p1)", 39, "hyperelliptic", "hyp"),
        ((6, 2), "hyperelliptic(w6,w2)", 55, "hyperelliptic", "hyp"),
        ((7, 1), "override[h0(3p1)=2]", 20, "locus", None),
        ((8,), "hyperelliptic(w8)", 25, "hyperelliptic", "hyp"),
        ((8, 0), "hyperelliptic(w8,o)", 25, "hyperelliptic", "hyp"),
        ((8, 0, 0), "hyperelliptic(w8,o,o)", 25, "hyperelliptic", "hyp"),
    ],
    6: [
        ((3, 3, 2, 2), "hyperelliptic(p3,p2)", 42, "hyperelliptic", "hyp"),
        ((4, 3, 3), "hyperelliptic(w4,p3)", 66, "hyperelliptic", "hyp"),
        ((4, 4, 1, 1), "hyperelliptic(p4,p1)", 35, "hyperelliptic", "hyp"),
        ((4, 4, 2), "hyperelliptic(p4,w2)", 50, "hyperelliptic", "hyp"),
        ((5, 5), "hyperelliptic(p5)", 21, "hyperelliptic", "hyp"),
        ((5, 5, 0), "hyperelliptic(p5,o)", 21, "hyperelliptic", "hyp"),
        ((5, 5, 0, 0), "hyperelliptic(p5,o,o)", 21, "hyperelliptic", "hyp"),
        ((6, 2, 2), "hyperelliptic(w6,p2)", 69, "hyperelliptic", "hyp"),
        ((6, 4), "hyperelliptic(w6,w4)", 108, "hyperelliptic", "hyp"),
        ((7, 3), "override[h0(2p1+p2)=2]", 24, "locus", None),
        ((8, 1, 1), "hyperelliptic(w8,p1)", 59, "hyperelliptic", "hyp"),
        ((8, 2), "hyperelliptic(w8,w2)", 28, "hyperelliptic", "hyp"),
        ((10,), "hyperelliptic(w10)", 36, "hyperelliptic", "hyp"),
        ((10,), "unibranch(<3,7>)", 31, "locus", "even"),
        ((10, 0), "hyperelliptic(w10,o)", 36, "hyperelliptic", "hyp"),
        ((10, 0, 0), "hyperelliptic(w10,o,o)", 36, "hyperelliptic", "hyp"),
    ],
}

EQUALITY_SIGNATURES = {
    3: [(1, 1, 1, 1)],
    4: [(5, 1), (3, 3)],
    5: [(7, 1)],
    6: [(7, 3)],
}


def test_criterion_06_classification_lists_through_cli():
    for g, expected in CLASSIFY_ROWS.items():
        out = run_cli("classify", "alpha", "--genus", str(g), "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        got = [
            (
                tuple(int(x) for x in r["signature"].split(",")),
                r["model"],
                int(r["chi1_log"]),
                r["item"],
                r["component"] or None,
            )
            for r in rows
        ]
        assert got == expected, g
        assert all(r["verdict"] == "pass" for r in rows), g
        assert all(len(t[0]) <= 4 for t in got), g
        signatures = {t[0] for t in got}
        if g >= 2:
            # the ordinary-point budget admits two extra free points here
            assert (2 * g - 2, 0, 0) in signatures, g
        if g == 4:
            assert (5, 1) in signatures and (5, 1, 0) not in signatures
        for boundary in EQUALITY_SIGNATURES.get(g, []):
            hits = [
                r for r in rows
                if tuple(int(x) for x in r["signature"].split(",")) == boundary
                and Fraction(r["threshold"]) == Fraction(r["chi1_log"])
            ]
            assert hits, (g, boundary)


# ------------------------------------------------------------------ 7
# Genus-six symmetric semigroups passing the element-sum bound, and the
# toric closed form at b = 1 for planar gap sums.


def test_criterion_07_semigroup_search_and_gap_sums():
    records = semigroup_search(6)
    winners = [r for r in records if r.passed and not r.hyperelliptic]
    assert [tuple(r.semigroup.generators) for r in winners] == [(3, 7)]
    assert all(r.passed for r in records if r.hyperelliptic)
    for p in range(2, 31):
        for q in range(p + 1, 31):
            if gcd(p, q) == 1:
                H = sg.from_generators((p, q))
                assert sg.gap_sum(H) == inv.toric_lattice_identity(p, q).closed_form, (p, q)


# ------------------------------------------------------------------ 8
# The three slope series, each produced by an explicit h0 profile and
# pushed through the character pipeline.  slope() recomputes itself
# along both of its defining routes and raises on any mismatch, so
# every record below also certifies that the two routes agree.


def weierstrass_point_model(g):
    """Generic curve with one distinguished point whose gap sequence is
    1, ..., g-1, g+1 and with the residual points in general position:
    k copies of it sit inside a canonical divisor with corank g - k."""
    n = g - 1
    table = [((k,) + (1,) * (n - 1), k) for k in range(1, g + 1)]
    table += [((k,) + (0,) * (n - 1), 1) for k in range(g)]
    return cm.OverrideModel(cm.CliffordMaxModel(g), tuple(table))


def slope_record(orders, model):
    sig = derive(orders)
    chi1 = sum(cm.expand_runs(cm.filtration_dims(model, sig, 1))[1:])
    chi2 = sum(cm.expand_runs(cm.filtration_dims(model, sig, 2))[1:])
    return inv.alpha_slope_record(chi1, chi2, sig)


def test_criterion_08_slope_series():
    for g in range(3, 16):
        rec = slope_record((1,) * (2 * g - 2), cm.CliffordMaxModel(g))
        assert rec.chi1_log == g + 1
        assert rec.slope == 6 + Fraction(12, g + 1)

        # odd theta characteristic: the points span a single section
        theta = cm.OverrideModel(cm.CliffordMaxModel(g), (((1,) * (g - 1), 1),))
        rec = slope_record((2,) * (g - 1), theta)
        assert rec.chi1_log == g + 2
        assert rec.slope == 4 + Fraction(24, g + 2)

        if g % 2:
            rec = slope_record((g,) + (1,) * (g - 2), weierstrass_point_model(g))
            assert rec.chi1_log == (g + 1) * (3 * g + 5) // 8
            want = 12 - Fraction(4 * (5 * g + 6) * (g - 1), (3 * g + 5) * (g + 1))
            assert rec.slope == want


# ------------------------------------------------------------------ 9
# Filtration level dimensions of the worked multibranch entries,
# recomputed from their stored algebras.

LEVEL_DIMS = {
    "H(5,1)": (5, 4, 3, 2, 1, 1, 1),
    "H(4,2)-even": (5, 4, 4, 4, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1),
    "H(4,2)-odd": (5, 4, 4, 4, 3, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    "H(6,2)-odd": (6, 5, 5, 5, 4, 4, 4, 3, 2, 2, 1, 1,
                   1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    "H(5,3)": (6, 5, 5, 4, 3, 2, 2, 1, 1, 1, 1, 1, 1),
}


def test_criterion_09_filtration_level_dimensions():
    for ident, dims in LEVEL_DIMS.items():
        entry = cat.get(ident)
        sig = derive(entry.signature)
        model = cm.AlgebraModel(entry.algebra())
        assert cm.expand_runs(cm.filtration_dims(model, sig, 1)) == dims, ident
        assert sum(dims[1:]) == entry.expected.chi1_log, ident


# ------------------------------------------------------------------ 10
# Spin parity of every even-order entry, recomputed as the parity of
# the half-canonical section space.

SPIN_IDS = (
    "H(2,2)-odd",
    "H(4,2)-even",
    "H(4,2)-odd",
    "H(6,2)-odd",
    "H(2,2,2)-odd",
    "H(2,2,2)-even-1",
    "H(2,2,2)-even-2",
)


def test_criterion_10_spin_parities():
    for ident in SPIN_IDS:
        entry = cat.get(ident)
        alg = entry.algebra()
        half = tuple(v // 2 for v in entry.signature)
        parity = ba.section_space(alg, half).dimension % 2
        label = "odd" if parity else "even"
        assert label == entry.expected.spin, ident
        assert label in ident, ident
