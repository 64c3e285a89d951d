"""Threshold search: golden candidate lists, budgets, taggings, regression.

The searches for genus up to six are pinned row by row (signature, model
label, chi1_log, item, component); genus seven and eight must consist of
the parametric hyperelliptic families and nothing else, and every search
from genus seven to thirty of hyperelliptic candidates only.  Searches at
cutoffs whose coefficient has a numerator above one are pinned by digest.
On top of the golden lists: dual-route agreement for every hyperelliptic
tagging up to genus ten, the Clifford profile identity, ordinary-point
budgets, the alternate 5/9 cutoff, dangling re-scoring, the
symmetric-semigroup side search, and the nonvarying regression harness
including its failure mode.  The search decides its cutoff on ints
(_threshold_x, _margin, _budget); a Fraction oracle here restates the
cutoff, the Clifford cap and the budget, and every check compares the two.
"""

import hashlib
import itertools
import logging
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import gmspectra.classifier as classifier
import gmspectra.curve_models as cm
import gmspectra.invariants as inv
import gmspectra.semigroup as sg
from gmspectra import catalog
from gmspectra.classifier import (
    Tagging,
    UnresolvedSignatureError,
    _branch_cap,
    _budget,
    _margin,
    _threshold_x,
    alpha_search,
    clifford_profile_chi1,
    hyperelliptic_chi1,
    hyperelliptic_taggings,
    nonvarying_regression,
    semigroup_search,
    threshold_coefficient,
)
from gmspectra.signature import derive, enumerate_signatures

FIVE_NINTHS = Fraction(5, 9)


def rows(cands):
    return [(c.signature, c.model, c.chi1_log, c.item, c.component) for c in cands]


# ------------------------------------------------------- the Fraction oracle


def oracle_rhs(sig, coeff, dangling=()):
    """The cutoff c*((2g-2+n)*ell - sum_{i in Q} a_i) that chi1_log must reach."""
    drop = sum(sig.weights_a[i] for i in dangling)
    return coeff * ((2 * sig.genus - 2 + sig.n) * sig.ell - drop)


def oracle_cap(sig):
    """The Clifford cap (g+1)*ell/2: no curve model has a larger chi1_log."""
    return Fraction((sig.genus + 1) * sig.ell, 2)


def oracle_budget(sig, chi1, coeff, dangling=()):
    """Largest k with chi1 >= the cutoff of sig with k ordinary points appended."""
    return math.floor((chi1 - oracle_rhs(sig, coeff, dangling)) / (coeff * sig.ell))


def prunes(sig, coeff):
    """The search's Clifford-cap prune of sig: more branches than its genus's cap."""
    return sig.n > _branch_cap(sig.genus, coeff)


def budget(sig, chi1, tau=Fraction(3, 8), dangling=()):
    """The search's ordinary-point budget of sig, on ints."""
    coeff = threshold_coefficient(tau)
    return _budget(coeff, chi1, _threshold_x(sig, dangling), sig.ell)


def search_stages(caplog, g, tau=Fraction(3, 8)):
    """The stage counts of alpha_search's DEBUG line for one search."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="gmspectra"):
        alpha_search(g, threshold=tau)
    (line,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("alpha_search")]
    return dict(part.split("=") for part in line.split()[1:])


# ----------------------------------------------------------- golden lists

GOLDEN_G1 = [
    ((0,), "elliptic", 1, "genus-one", None),
    ((0, 0), "elliptic", 1, "genus-one", None),
    ((0, 0, 0), "elliptic", 1, "genus-one", None),
    ((0, 0, 0, 0), "elliptic", 1, "genus-one", None),
]

GOLDEN_G2 = [
    ((1, 1), "hyperelliptic(p1)", 3, "hyperelliptic", "hyp"),
    ((1, 1, 0), "hyperelliptic(p1,o)", 3, "hyperelliptic", "hyp"),
    ((1, 1, 0, 0), "hyperelliptic(p1,o,o)", 3, "hyperelliptic", "hyp"),
    ((2,), "hyperelliptic(w2)", 4, "hyperelliptic", "hyp"),
    ((2, 0), "hyperelliptic(w2,o)", 4, "hyperelliptic", "hyp"),
    ((2, 0, 0), "hyperelliptic(w2,o,o)", 4, "hyperelliptic", "hyp"),
]

GOLDEN_G3 = [
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
]

GOLDEN_G4 = [
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
]

GOLDEN_G5 = [
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
]

GOLDEN_G6 = [
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
]


@pytest.mark.parametrize(
    "g,expected",
    [(1, GOLDEN_G1), (2, GOLDEN_G2), (3, GOLDEN_G3), (4, GOLDEN_G4),
     (5, GOLDEN_G5), (6, GOLDEN_G6)],
)
def test_search_matches_golden_list(g, expected):
    assert rows(alpha_search(g)) == expected


def test_g7_to_g30_are_hyperelliptic_only():
    for g in range(7, 31):
        cands = alpha_search(g, genus_bound=g)
        assert cands, g  # the parametric families never dry up
        assert all(c.component == "hyp" for c in cands), g
        assert all(c.item == "hyperelliptic" for c in cands), g


def expected_family_rows(g):
    """The parametric hyperelliptic families, spelled out at genus g.

    One zero of order 2g-2 at a Weierstrass point (plus up to two free
    points), a conjugate pair of order g-1 (same), and the three sweeps
    (2a,2b), (2a,b,b), (a,a,b,b) over a+b = g-1 with a,b >= 1; the b = 0
    degenerations are exactly the free-point extensions of the first two.
    """
    out = set()
    top = Tagging((2 * g - 2,), ())
    pair = Tagging((), (g - 1,))
    for k in range(3):
        out.add(((2 * g - 2,) + (0,) * k, top.with_free(k).label))
        out.add(((g - 1, g - 1) + (0,) * k, pair.with_free(k).label))
    for a in range(1, g - 1):
        b = g - 1 - a
        if a >= b:
            out.add((tuple(sorted((2 * a, 2 * b), reverse=True)),
                     Tagging((2 * a, 2 * b), ()).label))
            out.add((tuple(sorted((a, a, b, b), reverse=True)),
                     Tagging((), (a, b)).label))
        out.add((tuple(sorted((2 * a, b, b), reverse=True)),
                 Tagging((2 * a,), (b,)).label))
    return out


@pytest.mark.parametrize("g", range(2, 9))
def test_hyperelliptic_side_is_the_parametric_families(g):
    got = {(c.signature, c.model)
           for c in alpha_search(g) if c.component == "hyp"}
    assert got == expected_family_rows(g)


EQUALITY_CASES = [
    (3, (1, 1, 1, 1), "clifford-max"),
    (3, (1, 1, 1, 1), "hyperelliptic(p1,p1)"),
    (4, (5, 1), "catalog[H(5,1)]"),
    (4, (3, 3), "catalog[H(3,3)-nonhyp]"),
    (4, (2, 2, 1, 1), "hyperelliptic(p2,p1)"),
    (5, (7, 1), "override[h0(3p1)=2]"),
    (5, (2, 2, 2, 2), "hyperelliptic(p2,p2)"),
    (5, (3, 3, 1, 1), "hyperelliptic(p3,p1)"),
    (6, (7, 3), "override[h0(2p1+p2)=2]"),
    (6, (4, 4, 1, 1), "hyperelliptic(p4,p1)"),
    (6, (3, 3, 2, 2), "hyperelliptic(p3,p2)"),
    (7, (3, 3, 3, 3), "hyperelliptic(p3,p3)"),
    (7, (4, 4, 2, 2), "hyperelliptic(p4,p2)"),
    (7, (5, 5, 1, 1), "hyperelliptic(p5,p1)"),
    (7, (6, 6, 0, 0), "hyperelliptic(p6,o,o)"),
    (8, (4, 4, 3, 3), "hyperelliptic(p4,p3)"),
    (8, (5, 5, 2, 2), "hyperelliptic(p5,p2)"),
    (8, (6, 6, 1, 1), "hyperelliptic(p6,p1)"),
    (8, (7, 7, 0, 0), "hyperelliptic(p7,o,o)"),
]


def test_equality_boundary_cases():
    # these sit exactly on the cutoff: chi1_log == rhs, a zero margin
    coeff = threshold_coefficient(Fraction(3, 8))
    by_genus = {g: alpha_search(g) for g in set(g for g, _, _ in EQUALITY_CASES)}
    for g, sig, model in EQUALITY_CASES:
        match = [c for c in by_genus[g]
                 if c.signature == sig and c.model == model]
        assert len(match) == 1, (g, sig, model)
        c = match[0]
        assert c.chi1_log == c.threshold_rhs == oracle_rhs(derive(sig), coeff)
        assert _margin(coeff, c.chi1_log, _threshold_x(derive(sig))) == 0


def test_g4_component_split():
    cands = alpha_search(4)
    present = {(c.signature, c.component) for c in cands}
    assert ((5, 1), None) in present
    assert ((4, 2), "even") in present
    assert ((3, 3), "nonhyp") in present
    assert ((2, 2, 2), "even") in present
    assert ((4, 2), "odd") not in present  # fails: 29 < 30
    assert all(c.signature != (3, 2, 1) for c in cands)


def test_candidate_fields_reconstruct():
    # derive() rebuilds every signature, appended ordinary points included,
    # where the search only adds c*ell to the cutoff per point
    for tau in (Fraction(3, 8), FIVE_NINTHS):
        coeff = threshold_coefficient(tau)
        for g in range(1, 9):
            for c in alpha_search(g, threshold=tau):
                sig = derive(c.signature)
                assert sum(c.signature) == 2 * g - 2
                assert type(c.chi1_log) is int and c.chi1_log >= c.threshold_rhs
                assert c.threshold_rhs == oracle_rhs(sig, coeff) == coeff * _threshold_x(sig)
                assert c.threshold_rhs == coeff * (2 * g - 2 + sig.n) * sig.ell
                assert c.passed and _margin(coeff, c.chi1_log, _threshold_x(sig)) >= 0
                assert c.dangling == ()


def test_search_is_deterministic_and_sorted():
    for g in (3, 5, 6):
        first, second = alpha_search(g), alpha_search(g)
        assert first == second
        keys = [c.sort_key() for c in first]
        assert keys == sorted(keys)


def test_no_candidate_has_five_branches():
    for g in range(1, 9):
        assert max(len(c.signature) for c in alpha_search(g)) <= 4


def test_wider_enumeration_changes_nothing():
    # five or more branches never survive the Clifford cap at 3/8, so the
    # search enumerates at most four
    coeff = threshold_coefficient(Fraction(3, 8))
    wide = [sig for g in (2, 3, 4) for sig in enumerate_signatures(g, 7) if sig.n >= 5]
    assert len(wide) == 2  # (2,1,1,1,1) and (1,1,1,1,1,1) at genus 4
    for sig in wide:
        assert oracle_cap(sig) < coeff * (2 * sig.genus - 2 + sig.n) * sig.ell, sig
        assert prunes(sig, coeff), sig


def test_genus_bounds():
    with pytest.raises(ValueError):
        alpha_search(0)
    with pytest.raises(ValueError):
        alpha_search(9)


# ------------------------------------------------------------ cap and cutoff


def test_clifford_cap_values():
    # the prune's margin is 2q*(cap - c*X), so its sign is the cap's verdict
    coeff = threshold_coefficient(Fraction(3, 8))
    for orders, cap in [((1, 1, 1, 1), 4), ((0,), 1), ((4,), 10)]:  # (4,): genus 3, ell 5
        sig = derive(orders)
        assert oracle_cap(sig) == cap
        margin = _margin(coeff, (sig.genus + 1) * sig.ell, 2 * _threshold_x(sig))
        assert margin == 2 * coeff.denominator * (cap - oracle_rhs(sig, coeff))


def test_cap_prunes_exactly_beyond_four_branches(caplog, monkeypatch):
    coeff = threshold_coefficient(Fraction(3, 8))
    for orders in [(2, 2, 2, 2, 2), (4, 2, 2, 1, 1), (1, 1, 1, 1, 1, 1)]:
        sig = derive(orders)
        assert oracle_cap(sig) < coeff * (2 * sig.genus - 2 + sig.n) * sig.ell
        assert prunes(sig, coeff)
    for orders in [(4,), (3, 1), (2, 2, 2), (1, 1, 1, 1)]:
        sig = derive(orders)
        assert oracle_cap(sig) >= coeff * (2 * sig.genus - 2 + sig.n) * sig.ell
        assert not prunes(sig, coeff)
    # the search logs the branch cap it decides and builds exactly the
    # signatures of its genus that the cap keeps, as many as the tracer's
    # enumerate_signatures count reads
    enumerate_all = classifier.enumerate_signatures
    built = []
    monkeypatch.setattr(classifier, "enumerate_signatures",
                        lambda g, n_max: built.append(enumerate_all(g, n_max)) or built[-1])
    for tau in (Fraction(3, 8), FIVE_NINTHS, Fraction(1, 2), Fraction(2, 3)):
        coeff = threshold_coefficient(tau)
        for g in range(2, 9):
            kept = [s for s in enumerate_all(g, 2 * g - 2) if oracle_cap(s) >= oracle_rhs(s, coeff)]
            built.clear()
            stages = search_stages(caplog, g, tau)
            assert int(stages["branch_cap"]) == _branch_cap(g, coeff), (g, tau)
            assert int(stages["signatures"]) == len(kept) == sum(map(len, built)), (g, tau)
            assert [s for sigs in built for s in sigs] == kept, (g, tau)


TAUS_AROUND_THE_CAP = (Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(3, 8),
                       Fraction(2, 5), Fraction(1, 2), FIVE_NINTHS, Fraction(2, 3))


def test_the_branch_cap_is_the_largest_branch_count_the_clifford_cap_keeps():
    for g in range(2, 13):
        sigs = enumerate_signatures(g, 2 * g - 2)
        for tau in TAUS_AROUND_THE_CAP:
            coeff = threshold_coefficient(tau)
            kept = [s.n for s in sigs if oracle_cap(s) >= oracle_rhs(s, coeff)]
            n_cap = _branch_cap(g, coeff)
            # the kept signatures are exactly those with at most n_cap branches
            assert kept == [s.n for s in sigs if s.n <= n_cap], (g, tau)
            assert max(kept, default=0) == min(max(n_cap, 0), 2 * g - 2), (g, tau)
    # four branches at 3/8 for every genus; none from genus six on at 5/9
    assert {_branch_cap(g, Fraction(1, 4)) for g in range(2, 60)} == {4}
    assert [g for g in range(2, 60) if _branch_cap(g, Fraction(1, 3)) >= 1] == [2, 3, 4, 5]
    # below 3/8 the cap keeps more than four: floor((g+41)/10) at 1/3
    coeff = threshold_coefficient(Fraction(1, 3))
    assert [_branch_cap(g, coeff) for g in (2, 9, 19)] == [4, 5, 6]
    assert all(_branch_cap(g, coeff) == (g + 41) // 10 for g in range(2, 60))


def test_a_pruned_branch_count_builds_no_signature(caplog, monkeypatch):
    import gmspectra.signature as signature

    # the Fraction oracle prunes every signature of these genera at 5/9
    coeff = threshold_coefficient(FIVE_NINTHS)
    for g in range(6, 17):
        assert all(oracle_cap(s) < oracle_rhs(s, coeff)
                   for s in enumerate_signatures(g, 2 * g - 2)), g
    built = []
    constructor = signature._signature

    def counted(orders):
        built.append(orders)
        return constructor(orders)

    monkeypatch.setattr(signature, "_signature", counted)
    for g in range(6, 17):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="gmspectra"):
            assert alpha_search(g, threshold=FIVE_NINTHS, genus_bound=16) == ()
        (line,) = [r.getMessage() for r in caplog.records]
        stages = dict(part.split("=") for part in line.split()[1:])
        assert built == [], g
        assert int(stages["branch_cap"]) == _branch_cap(g, coeff) < 1, g
        assert int(stages["signatures"]) == 0, g
        assert int(stages["screens"]) == int(stages["taggings"]) == 0
    # the wrapper sees every signature the search does build
    alpha_search(5, threshold=FIVE_NINTHS)
    assert built == [(8,)]


@pytest.mark.parametrize("tau", [Fraction(0), Fraction(1, 5), Fraction(1, 3), Fraction(7, 20)])
def test_the_cap_past_four_branches_changes_no_output_below_three_eighths(tau, monkeypatch):
    # below 3/8 the cap keeps more than four branches; the wider signatures
    # emit no row and raise no error that four branches do not.  Where wider
    # signatures exist here (g >= 4 at tau = 0 and 1/5), the lexicographic
    # walk meets an unresolved stratum with fewer branches first
    def search(g, dangling):
        try:
            return alpha_search(g, threshold=tau, dangling=dangling)
        except UnresolvedSignatureError as exc:
            return str(exc)

    wide = {(g, d): search(g, d) for g in range(1, 9) for d in (False, True)}
    assert all(_branch_cap(g, threshold_coefficient(tau)) >= 4 for g in range(2, 9))
    enumerate_all = classifier.enumerate_signatures
    monkeypatch.setattr(classifier, "enumerate_signatures",
                        lambda g, n_max: enumerate_all(g, min(n_max, 4)))
    assert {key: search(*key) for key in wide} == wide


def test_threshold_coefficient_values():
    assert threshold_coefficient(Fraction(3, 8)) == Fraction(1, 4)
    assert threshold_coefficient(FIVE_NINTHS) == Fraction(1, 3)
    assert threshold_coefficient(0) == Fraction(2, 11)
    with pytest.raises(ValueError):
        threshold_coefficient(Fraction(11, 12))
    with pytest.raises(ValueError):
        threshold_coefficient(-1)


@given(
    st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=40),
    st.fractions(min_value=0, max_value=Fraction(9, 10), max_denominator=40),
)
def test_threshold_coefficient_monotone(t1, t2):
    if t1 > t2:
        t1, t2 = t2, t1
    assert threshold_coefficient(t1) <= threshold_coefficient(t2)


# ------------------------------------------------------------------ budgets


def test_budget_table():
    quarter = threshold_coefficient(Fraction(3, 8))
    table = [((6,), 16, 2), ((5, 1), 12, 0), ((3, 1), 7, 1),
             ((4,), 8, 1),  # <3,4> branch
             ((6,), 14, 1)]  # <3,5> branch
    for g in range(2, 9):
        table += [((2 * g - 2,), g * g, 2), ((g - 1, g - 1), g * (g + 1) // 2, 2)]
    for orders, chi1, k in table:
        sig = derive(orders)
        assert budget(sig, chi1) == oracle_budget(sig, chi1, quarter) == k, orders


SOME_SIGS = [derive(t) for t in
             [(2,), (1, 1), (4,), (3, 1), (2, 2, 2), (6, 2), (4, 4, 1, 1)]]


@given(st.sampled_from(SOME_SIGS), st.integers(min_value=0, max_value=400),
       st.sampled_from([Fraction(3, 8), 0, Fraction(1, 4), Fraction(1, 2), Fraction(2, 3),
                        Fraction(9, 10)]),
       st.data())
def test_budget_is_the_floor(sig, chi1, tau, data):
    # c = p/q is 1/4 at 3/8 and has p > 1 at every other tau drawn here
    dangling = data.draw(st.sampled_from([(), (0,), tuple(range(sig.n))]))
    coeff = threshold_coefficient(tau)
    k = budget(sig, chi1, tau, dangling)
    rhs = oracle_rhs(sig, coeff, dangling)
    assert rhs == coeff * _threshold_x(sig, dangling)
    assert (_margin(coeff, chi1, _threshold_x(sig, dangling)) >= 0) == (chi1 >= rhs)
    assert rhs + k * coeff * sig.ell <= chi1 < rhs + (k + 1) * coeff * sig.ell
    assert k == oracle_budget(sig, chi1, coeff, dangling)


# The candidate rows of alpha_search over g = 1..top at cutoffs whose
# coefficient c = (2-tau)/(11-12tau) has a numerator above one (7/32, 3/10,
# 4/9), with dangling off and on: (row count, sha256 of the sorted rows).
PINNED_SEARCHES = {
    (Fraction(1, 4), 3, False): (37, "4291b0ec549128e65df5c2b693e0082c26001b397647878d17e4c388bba8afec"),
    (Fraction(1, 4), 3, True): (220, "d23a18cf7b26c4635002c79624e8aedeb9a2a7442e3844b35256781521963aab"),
    (Fraction(1, 2), 8, False): (15, "ca92615fb53079eb49d89a0d62e4ea6814508be91ae78499ed5bbe62f3ce5643"),
    (Fraction(1, 2), 8, True): (47, "592ad787ee0df0c61b9dfd1dd0d05bf646033e210338fddd9221d7b6c9cb7185"),
    (Fraction(2, 3), 8, False): (3, "7ce79eef4e19e138b007a8259c0bd73a153848a95ae4feda46bdfae5aadb7c59"),
    (Fraction(2, 3), 8, True): (7, "a0b7a9820b6f066b5cd1d7cf83a26d961dcde3284cbb647644aa9bceb2656439"),
}


@pytest.mark.parametrize("tau, top, dangling", sorted(PINNED_SEARCHES))
def test_searches_at_coefficients_with_numerator_above_one_are_pinned(tau, top, dangling):
    assert threshold_coefficient(tau).numerator > 1
    lines = sorted(
        f"{c.signature}|{c.model}|{c.chi1_log}|{c.threshold_rhs}|{c.passed}|"
        f"{c.item}|{c.component}|{c.dangling}"
        for g in range(1, top + 1)
        for c in alpha_search(g, threshold=tau, dangling=dangling)
    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == PINNED_SEARCHES[tau, top, dangling]


# --------------------------------------------------------------- taggings


def test_taggings_odd_orders_must_pair():
    assert hyperelliptic_taggings(derive((3, 1))) == ()
    assert hyperelliptic_taggings(derive((5, 3))) == ()
    (only,) = hyperelliptic_taggings(derive((3, 3)))
    assert only == Tagging((), (3,))


def test_taggings_even_orders_choose():
    got = hyperelliptic_taggings(derive((2, 2)))
    assert set(got) == {Tagging((2, 2), ()), Tagging((), (2,))}
    # four equal odd zeros: both pairs forced, a single descriptor
    assert hyperelliptic_taggings(derive((1, 1, 1, 1))) == (Tagging((), (1, 1)),)


def oracle_taggings(orders):
    """Every placement of the zeros, deduplicated to descriptors.

    An order-0 entry is free; a zero of positive order sits at a Weierstrass
    point (even orders only) or in a conjugate pair, and the paired zeros of
    each order must be even in number.
    """
    out = set()
    for kinds in itertools.product(*[("free",) if v == 0 else ("w", "pair") for v in orders]):
        placed = list(zip(orders, kinds))
        paired = Counter(v for v, kind in placed if kind == "pair")
        if any(v % 2 for v, kind in placed if kind == "w") or any(c % 2 for c in paired.values()):
            continue
        w = sorted((v for v, kind in placed if kind == "w"), reverse=True)
        pairs = sorted((v for v, c in paired.items() for _ in range(c // 2)), reverse=True)
        out.add(Tagging(tuple(w), tuple(pairs), kinds.count("free")))
    return out


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6)
       .filter(lambda orders: sum(orders) % 2 == 0))
def test_taggings_match_the_placement_oracle(orders):
    got = hyperelliptic_taggings(derive(orders))
    assert len(set(got)) == len(got)
    assert set(got) == oracle_taggings(orders)
    for t in got:
        assert list(t.weierstrass) == sorted(t.weierstrass, reverse=True)
        assert list(t.pairs) == sorted(t.pairs, reverse=True)


def oracle_model_tags(tagging, sig):
    """The tags of a tagging spread over sig's orders, regrouped by index per value."""
    by_value = {}
    for i, v in enumerate(sig.orders):
        by_value.setdefault(v, []).append(i)
    tags = [None] * sig.n
    pair_id = 0
    for v, idxs in by_value.items():
        if v == 0:
            for i in idxs:
                tags[i] = "free"
            continue
        p = tagging.pairs.count(v)
        for k in range(p):
            tags[idxs[2 * k]] = tags[idxs[2 * k + 1]] = f"pair:{pair_id}"
            pair_id += 1
        for i in idxs[2 * p:]:
            tags[i] = "w"
    return tuple(tags)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=8)
       .filter(lambda orders: sum(orders) % 2 == 0))
def test_model_tags_match_the_regrouping_oracle(orders):
    sig = derive(orders)
    for tagging in hyperelliptic_taggings(sig):
        assert tagging.model_tags(sig) == oracle_model_tags(tagging, sig), (sig, tagging)


def test_tagging_labels():
    assert Tagging((6,), (), 2).label == "hyperelliptic(w6,o,o)"
    assert Tagging((4,), (4,)).label == "hyperelliptic(p4,w4)"
    assert Tagging((), (5, 2)).label == "hyperelliptic(p5,p2)"


def oracle_label(tagging):
    """The label sorted with a key: largest order first, p before w."""
    parts = sorted([(v, "p") for v in tagging.pairs] + [(v, "w") for v in tagging.weierstrass],
                   key=lambda t: (-t[0], t[1]))
    rendered = [f"{kind}{v}" for v, kind in parts] + ["o"] * tagging.free
    return "hyperelliptic(" + ",".join(rendered) + ")"


def test_tagging_labels_match_the_key_sorted_label():
    checked = 0
    for g in range(2, 11):
        for sig in enumerate_signatures(g, 2 * g - 2):
            for tagging in hyperelliptic_taggings(sig):
                for k in range(3):
                    extended = tagging.with_free(k)
                    assert extended.label == oracle_label(extended), (sig, extended)
                    checked += 1
    assert checked > 1000
    # a tagging built out of order reads the same
    assert Tagging((2, 6), (4, 6), 1).label == oracle_label(Tagging((2, 6), (4, 6), 1))


def test_hyperelliptic_routes_agree_up_to_genus_ten():
    # summed model filtration vs the Weierstrass-correction closed form:
    # (g+1)*ell/2 less (ell - a_i)/4 for each zero tagged Weierstrass
    checked = 0
    for g in range(2, 11):
        for sig in enumerate_signatures(g, 4):
            for tagging in hyperelliptic_taggings(sig):
                tags = tagging.model_tags(sig)
                model = cm.HyperellipticModel(sig.genus, tags)
                summed = cm.runs_chi_log(cm.filtration_dims(model, sig, 1))
                shortcut = oracle_cap(sig) - sum(
                    Fraction(sig.ell - a, 4) for a, tag in zip(sig.weights_a, tags) if tag == "w")
                assert hyperelliptic_chi1(sig, tagging) == summed == shortcut, (sig, tagging)
                checked += 1
    assert checked > 150


def test_clifford_profile_identity_holds():
    for g in range(3, 9):
        for sig in enumerate_signatures(g, 3):
            clifford_profile_chi1(sig)  # raises if the parity identity breaks


# ----------------------------------------------------------- other cutoffs


def test_five_ninths_genus_one():
    assert [c.signature for c in alpha_search(1, threshold=FIVE_NINTHS)] == [
        (0,), (0, 0), (0, 0, 0)]


def test_five_ninths_genus_three():
    got = rows(alpha_search(3, threshold=FIVE_NINTHS))
    assert got == [
        ((2, 2), "hyperelliptic(p2)", 6, "hyperelliptic", "hyp"),
        ((4,), "hyperelliptic(w4)", 9, "hyperelliptic", "hyp"),
    ]
    # in particular 7 < (1/3)*6*4 knocks out the (3,1) stratum


@pytest.mark.parametrize("g", range(2, 9))
def test_a_search_at_tau_is_the_search_at_three_eighths_filtered_by_alpha(g):
    # X = (2g-2+n)*ell of the emitted signature, appended zeros included, so
    # that chi2_log = chi1_log + X; without --dangling no row is lost to a
    # prune or a screen that a higher tau makes stricter
    def triples(candidates):
        return {(c.signature, c.model, c.chi1_log) for c in candidates}

    floor = alpha_search(g, threshold=Fraction(3, 8))
    for tau in (Fraction(2, 5), Fraction(1, 2), FIVE_NINTHS, Fraction(2, 3)):
        kept = [c for c in floor
                if inv.alpha(c.chi1_log, c.chi1_log + _threshold_x(derive(c.signature))) >= tau]
        assert triples(alpha_search(g, threshold=tau)) == triples(kept), tau


# ----------------------------------------------------------------- dangling


def test_dangling_contains_the_plain_search():
    for g in (3, 4, 5):
        plain = set(rows(alpha_search(g)))
        dangled = alpha_search(g, dangling=True)
        assert set(rows(c for c in dangled if c.dangling == ())) == plain


def test_dangling_admits_the_odd_42_component():
    hits = {c.dangling: c for c in alpha_search(4, dangling=True)
            if c.signature == (4, 2) and c.component == "odd"}
    assert set(hits) == {(1,), (0, 1)}
    c = hits[(1,)]
    assert c.model == "catalog[H(4,2)-odd]"
    assert c.chi1_log == 29
    assert c.threshold_rhs == Fraction(115, 4)  # (8*15 - 5)/4


def test_dangling_candidates_all_pass_their_reduced_cutoff():
    for tau in (Fraction(3, 8), FIVE_NINTHS):
        coeff = threshold_coefficient(tau)
        for g in range(1, 9):
            for c in alpha_search(g, threshold=tau, dangling=True):
                sig = derive(c.signature)
                drop = sum(sig.weights_a[i] for i in c.dangling)
                rhs = coeff * ((2 * sig.genus - 2 + sig.n) * sig.ell - drop)
                assert c.threshold_rhs == oracle_rhs(sig, coeff, c.dangling) == rhs
                assert c.threshold_rhs == coeff * _threshold_x(sig, c.dangling)
                assert c.chi1_log >= rhs
                assert _margin(coeff, c.chi1_log, _threshold_x(sig, c.dangling)) >= 0
                # chi2_log = chi1_log + (2g-2+n)*ell, less the weight a_i of
                # each dangling branch, is rhs/c above chi1_log
                assert inv.alpha(c.chi1_log, c.chi1_log + rhs / coeff) >= tau


# --------------------------------------------------------------- semigroups


def test_semigroup_search_genus_six():
    records = {str(r.semigroup): r for r in semigroup_search(6)}
    assert records["<3,7>"].passed and records["<3,7>"].spin == "even"
    assert records["<3,7>"].chi1_log == 31 and records["<3,7>"].element_sum == 35
    assert not records["<4,6,9>"].passed  # 37 > 35 = g^2 - 1
    assert records["<2,13>"].hyperelliptic and records["<2,13>"].passed
    nonhyp_passers = [r for r in records.values()
                      if r.passed and not r.hyperelliptic]
    assert [str(r.semigroup) for r in nonhyp_passers] == ["<3,7>"]


def test_semigroup_search_genus_seven_all_nonhyp_fail():
    records = semigroup_search(7)
    assert all(not r.passed for r in records if not r.hyperelliptic)
    (r38,) = [r for r in records if r.semigroup.generators == (3, 8)]
    assert r38.element_sum == 49  # one above the g^2 - 1 = 48 bound


def test_semigroup_search_agrees_with_element_sum_filter():
    for g in (4, 5, 6, 7):
        records = semigroup_search(g)
        kept = sg.element_sum_bound_filter(g, [r.semigroup for r in records])
        assert {str(k.semigroup) for k in kept} == {
            str(r.semigroup) for r in records if r.passed}


def test_semigroup_chi1_matches_catalog():
    values = {str(r.semigroup): r.chi1_log
              for g in (3, 4) for r in semigroup_search(g)}
    assert values["<3,4>"] == catalog.get("E6").expected.chi1_log
    assert values["<3,5>"] == catalog.get("E8").expected.chi1_log
    assert values["<4,5,6>"] == catalog.get("H(6)-odd").expected.chi1_log


def test_hyperelliptic_semigroup_always_passes():
    for g in range(2, 11):
        total = g * (g - 1)  # 0, 2, ..., 2(g-1)
        assert total <= g * g - 1
    for g in (2, 5, 9):
        hyp = [r for r in semigroup_search(g) if r.hyperelliptic]
        assert len(hyp) == 1 and hyp[0].passed and hyp[0].spin is None


def test_semigroup_search_raises_when_either_chi1_route_is_off(monkeypatch):
    filtration_route = cm.runs_chi_log
    monkeypatch.setattr(cm, "runs_chi_log", lambda runs: filtration_route(runs) + 1)
    with pytest.raises(RuntimeError, match="unibranch chi1 routes disagree"):
        semigroup_search(5)
    monkeypatch.undo()
    element_route = sg.NumericalSemigroup.element_sum.fget
    monkeypatch.setattr(sg.NumericalSemigroup, "element_sum",
                        property(lambda H: element_route(H) - 1))
    with pytest.raises(RuntimeError, match="unibranch chi1 routes disagree"):
        semigroup_search(5)


TAU_GRID = [Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(3, 8),
            Fraction(2, 5), Fraction(1, 2), FIVE_NINTHS, Fraction(2, 3)]


def oracle_unibranch_rows(records):
    """A row per nonhyperelliptic record: a stratum when every record of its
    spin meets the strict cutoff, a locus otherwise."""
    strict = {}
    for r in records:
        strict[r.spin] = strict.get(r.spin, True) and r.passed
    return {(f"unibranch({r.semigroup})", r.chi1_log,
             "stratum" if strict[r.spin] else "locus", r.spin)
            for r in records if not r.hyperelliptic}


def meeting_the_lenient_cutoff(rows, sig, coeff):
    x = _threshold_x(sig, (0,))
    return {row for row in rows if _margin(coeff, row[1], x) >= 0}


def test_unibranch_rows_match_the_full_enumeration():
    for g in range(2, 25):
        sig = derive((2 * g - 2,))
        for tau in TAU_GRID:
            coeff = threshold_coefficient(tau)
            every = oracle_unibranch_rows(semigroup_search(g, tau))
            stats = Counter()
            got = classifier._unibranch_records(sig, coeff, stats)
            # every row that can emit, with its verdict; the rest are witnesses
            assert len(set(got)) == len(got) == stats["semigroups"], (g, tau)
            assert set(got) <= every, (g, tau)
            assert (meeting_the_lenient_cutoff(got, sig, coeff)
                    == meeting_the_lenient_cutoff(every, sig, coeff)), (g, tau)


def test_a_witness_settles_the_verdict_at_genus_five():
    # <4,6,7> meets only the lenient cutoff at 3/8, so its own spin fails
    # the strict one: a locus, with or without dangling branches
    sig, coeff = derive((8,)), threshold_coefficient(Fraction(3, 8))
    stats = Counter()
    assert classifier._unibranch_records(sig, coeff, stats) == [
        ("unibranch(<4,6,7>)", 20, "locus", "even")]
    assert stats["leaves"] == 2  # with <2,11>, and no witness read


def test_the_single_zero_walk_builds_few_leaves_at_genus_forty():
    # 53,629 symmetric semigroups; only <2,81> meets the lenient bound
    stats = Counter()
    rows = classifier._unibranch_records(derive((78,)), threshold_coefficient(Fraction(3, 8)),
                                         stats)
    assert rows == [] and stats["semigroups"] == 0
    assert 1 <= stats["leaves"] <= 10


def test_unibranch_rows_raise_when_either_chi1_route_is_off_on_a_witness(monkeypatch):
    # at genus six <3,7> alone of its (even) spin meets the strict cutoff,
    # and <5,7,8,9> is the witness that makes it a locus
    sig, coeff = derive((10,)), threshold_coefficient(Fraction(3, 8))
    witness = sg.from_generators((5, 7, 8, 9))
    rows = classifier._unibranch_records(sig, coeff, Counter())
    assert ("unibranch(<5,7,8,9>)", 27, "locus", "even") in rows
    off = [False]
    unibranch, filtration_route = cm.UnibranchModel, cm.runs_chi_log

    def model(H):
        off[0] = H == witness
        return unibranch(H)

    monkeypatch.setattr(cm, "UnibranchModel", model)
    monkeypatch.setattr(cm, "runs_chi_log", lambda runs: filtration_route(runs) + off[0])
    with pytest.raises(RuntimeError, match=r"unibranch chi1 routes disagree for <5,7,8,9>$"):
        classifier._unibranch_records(sig, coeff, Counter())
    monkeypatch.undo()
    element_route = sg.NumericalSemigroup.element_sum.fget
    monkeypatch.setattr(sg.NumericalSemigroup, "element_sum",
                        property(lambda H: element_route(H) - (H == witness)))
    with pytest.raises(RuntimeError, match=r"unibranch chi1 routes disagree for <5,7,8,9>$"):
        classifier._unibranch_records(sig, coeff, Counter())


def test_searches_refuse_a_genus_past_the_semigroup_bound():
    # (80,) is the first signature alpha_search scores at genus 41
    for search in (lambda: semigroup_search(41), lambda: alpha_search(41, genus_bound=41)):
        with pytest.raises(ValueError, match="^genus 41 beyond the semigroup search bound 40$"):
            search()


def test_hyperelliptic_chi1_raises_when_the_filtration_route_is_off(monkeypatch):
    sig = derive((4, 2))
    tagging = hyperelliptic_taggings(sig)[0]
    hyperelliptic_chi1(sig, tagging)
    filtration_route = cm.runs_chi_log
    monkeypatch.setattr(cm, "runs_chi_log", lambda runs: filtration_route(runs) + 1)
    with pytest.raises(RuntimeError, match="hyperelliptic chi1 routes disagree"):
        hyperelliptic_chi1(sig, tagging)


def test_clifford_profile_chi1_raises_when_n_plus_is_off(monkeypatch):
    sig = derive((4, 2))
    clifford_profile_chi1(sig)
    parity_route = classifier.n_plus
    monkeypatch.setattr(classifier, "n_plus", lambda *args: parity_route(*args) + 1)
    with pytest.raises(RuntimeError, match="Clifford profile identity failed"):
        clifford_profile_chi1(sig)


def test_semigroup_search_logs_one_debug_line(caplog):
    with caplog.at_level(logging.WARNING, logger="gmspectra"):
        semigroup_search(6)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="gmspectra"):
        records = semigroup_search(6)
    (line,) = caplog.records
    assert line.name == "gmspectra" and line.levelno == logging.DEBUG
    passed = sum(r.passed for r in records)
    assert f"g=6 enumerated={len(records)} passed={passed} " in line.getMessage()
    assert "enumerate_s=" in line.getMessage() and "score_s=" in line.getMessage()


def test_alpha_search_logs_its_stages_in_one_debug_line(caplog):
    with caplog.at_level(logging.WARNING, logger="gmspectra"):
        alpha_search(6)
    assert caplog.records == []
    with caplog.at_level(logging.DEBUG, logger="gmspectra"):
        found = alpha_search(6)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("alpha_search")]
    (line,) = lines  # one line per call, none per signature
    fields = dict(part.split("=") for part in line.split()[1:])
    assert fields["g"] == "6" and fields["tau"] == "3/8"
    assert int(fields["candidates"]) == len(found)
    assert int(fields["signatures"]) == len(enumerate_signatures(6, 4))
    # the rows scored: the two nonhyperelliptic semigroups within the lenient
    # element-sum bound, <4,5> (odd, misses the strict cutoff) and <3,7>
    # (even, meets it), and the first even one in walk order to miss it
    records = semigroup_search(6)
    sig, coeff = derive((10,)), threshold_coefficient(Fraction(3, 8))
    bounded = [r for r in records
               if _margin(coeff, r.chi1_log, _threshold_x(sig, (0,))) >= 0]
    witness = next(i for i, r in enumerate(records) if r.spin == "even" and not r.passed)
    assert [str(r.semigroup) for r in bounded] == ["<4,5>", "<3,7>", "<2,13>"]
    assert int(fields["semigroups"]) == 3
    # the bounded walk's leaves, then the lazy read up to the witness
    assert int(fields["leaves"]) == len(bounded) + witness + 1 == 5
    # the cap keeps four branches at 3/8, and every built signature of
    # n >= 2 reaches the Clifford screen once
    assert int(fields["branch_cap"]) == 4
    assert int(fields["screens"]) == int(fields["signatures"]) - 1
    # two pass it: (7,3) is resolved by its override, both spins of (6,4)
    # by exclusion rules
    assert int(fields["screens"]) - int(fields["screened_out"]) == 2
    assert (fields["override"], fields["excluded"], fields["catalog"]) == ("1", "2", "0")
    assert int(fields["taggings"]) > 0 and float(fields["score_s"]) >= 0


# ------------------------------------------------------------- resolution


def test_unresolved_when_catalog_entry_is_missing():
    pruned = [e for e in catalog.entries() if e.id != "H(4,2)-even"]
    with pytest.raises(UnresolvedSignatureError, match=r"\(4, 2\).*even"):
        alpha_search(4, catalog=pruned)


def test_full_catalog_resolves_all_searchable_genera():
    for g in range(1, 9):
        alpha_search(g)  # must not raise


# ------------------------------------------------------------- regression


def test_nonvarying_regression_is_green():
    report = nonvarying_regression()
    assert report.ok
    assert report.failures() == ()
    ids = {c.entry_id for c in report.checks}
    assert len(ids) == 14
    assert len(report.checks) == 10 * len(ids)


def test_regression_names_entry_and_field_on_mismatch():
    e = catalog.get("E7")
    bad = e._replace(expected=e.expected._replace(delta=99))
    report = nonvarying_regression([bad])
    assert not report.ok
    assert [(c.entry_id, c.field, c.expected, c.actual) for c in report.failures()] == [
        ("E7", "delta", 99, e.expected.delta)]


def test_regression_reports_an_undefined_alpha_as_none():
    # elliptic-12 has 13*chi1_log = chi2_log: both sides of the alpha check are None
    report = nonvarying_regression([catalog.family("elliptic", n=12)])
    checks = {c.field: c for c in report.checks}
    assert checks["alpha"].expected is None and checks["alpha"].actual is None
    assert checks["alpha"].ok and checks["slope"].ok and checks["chi2_log"].ok


def test_regression_reports_a_ring_without_a_certified_conductor():
    # k[t1^2] on the (3, 1) branches: delta, genus, alpha and slope are
    # left out of the report and read as None, so nothing raises
    e = catalog.get("E7")
    bad = e._replace(generators=(("x", ((0, 2, Fraction(1)),)),))
    report = nonvarying_regression([bad])
    failed = {c.field: c.actual for c in report.failures()}
    assert [c.field for c in report.checks] == [
        "gap_sequence", "delta", "genus", "gorenstein", "spin",
        "chi1_log", "chi2_log", "alpha", "slope", "ambient_weights"]
    assert set(failed) == {c.field for c in report.checks} - {"spin"}
    assert failed["gorenstein"] is False
    assert [failed[k] for k in ("delta", "genus", "alpha", "slope")] == [None] * 4
    assert failed["gap_sequence"] == (2, 1, 2, 1)  # a tuple, as expected


def test_regression_catches_character_corruption():
    e = catalog.get("H(5,3)")
    bad = e._replace(expected=e.expected._replace(chi2_log=1))
    report = nonvarying_regression([bad])
    assert {c.field for c in report.failures()} == {"chi2_log"}


def test_a_doctored_locus_entry_trips_the_override_check():
    e = catalog.get("H(7,1)-special")
    bad = e._replace(expected=e.expected._replace(chi1_log=e.expected.chi1_log + 1))
    entries = [bad if x.id == e.id else x for x in catalog.entries()]
    with pytest.raises(RuntimeError,
                       match=r"^H\(7,1\)-special: override filtration gives 20, stored 21$"):
        alpha_search(5, catalog=entries)


def test_two_catalog_values_for_one_component_trip_the_catalog_check():
    # H(2,2,2)-even-1 and -2 agree; a copy of one with another chi1_log does not
    e = catalog.get("H(2,2,2)-even-1")
    bad = e._replace(id="H(2,2,2)-even-3",
                     expected=e.expected._replace(chi1_log=e.expected.chi1_log + 1))
    with pytest.raises(RuntimeError, match=r"^catalog disagrees on chi1_log for \(2, 2, 2\) even$"):
        alpha_search(4, catalog=[*catalog.entries(), bad])
