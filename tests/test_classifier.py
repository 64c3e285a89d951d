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
import gmspectra.signature as signature
from gmspectra import catalog
from gmspectra.classifier import (
    Tagging,
    UnresolvedSignatureError,
    _branch_cap,
    _budget,
    _clifford_ceiling,
    _hyperelliptic_four_chi1,
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


def threshold_x(sig, dangling=()):
    """The search's X of sig with the branches ``dangling`` dropped, on ints."""
    return _threshold_x(sig.genus, sig.ell, sig.orders, dangling)


def budget(sig, chi1, tau=Fraction(3, 8), dangling=()):
    """The search's ordinary-point budget of sig, on ints."""
    coeff = threshold_coefficient(tau)
    return _budget(coeff, chi1, threshold_x(sig, dangling), sig.ell)


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
        assert _margin(coeff, c.chi1_log, threshold_x(derive(sig))) == 0


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
                assert c.threshold_rhs == oracle_rhs(sig, coeff) == coeff * threshold_x(sig)
                assert c.threshold_rhs == coeff * (2 * g - 2 + sig.n) * sig.ell
                assert c.passed and _margin(coeff, c.chi1_log, threshold_x(sig)) >= 0
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
        margin = _margin(coeff, (sig.genus + 1) * sig.ell, 2 * threshold_x(sig))
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
    # the search logs the branch cap it decides and walks exactly the order
    # tuples of its genus that the cap keeps, which its DEBUG line counts as
    # signatures
    walk = signature.order_tuples
    walked = []
    monkeypatch.setattr(signature, "order_tuples",
                        lambda g, n_max: (walked.append(t) or t for t in walk(g, n_max)))
    for tau in (Fraction(3, 8), FIVE_NINTHS, Fraction(1, 2), Fraction(2, 3)):
        coeff = threshold_coefficient(tau)
        for g in range(2, 9):
            kept = [s for s in enumerate_signatures(g, 2 * g - 2)
                    if oracle_cap(s) >= oracle_rhs(s, coeff)]
            walked.clear()
            stages = search_stages(caplog, g, tau)
            assert int(stages["branch_cap"]) == _branch_cap(g, coeff), (g, tau)
            assert int(stages["signatures"]) == len(kept) == len(walked), (g, tau)
            assert walked == [s.orders for s in kept], (g, tau)


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


@pytest.mark.parametrize("tau", [Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(3, 10)])
def test_the_cap_past_four_branches_changes_no_output_below_three_eighths(tau, monkeypatch):
    # below 3/8 the cap keeps more than four branches (five from g = 3 at
    # 1/4, from g = 5 at 3/10); capping the walk at four changes no output,
    # because the lexicographic walk reaches an unresolved stratum with at
    # most four branches before any wider signature is decided
    def search(g, dangling):
        try:
            return alpha_search(g, threshold=tau, dangling=dangling)
        except UnresolvedSignatureError as exc:
            return str(exc)

    wide = {(g, d): search(g, d) for g in range(1, 9) for d in (False, True)}
    assert all(_branch_cap(g, threshold_coefficient(tau)) >= 4 for g in range(2, 9))
    walk, caps = signature.order_tuples, []
    monkeypatch.setattr(signature, "order_tuples",
                        lambda g, n_max: caps.append(n_max) or walk(g, min(n_max, 4)))
    assert {key: search(*key) for key in wide} == wide
    # every search past genus one walked its tuples through the capped walk,
    # and some walk was cut below its cap
    assert len(caps) == 2 * 7
    assert max(caps) > 4


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
    assert rhs == coeff * threshold_x(sig, dangling)
    assert (_margin(coeff, chi1, threshold_x(sig, dangling)) >= 0) == (chi1 >= rhs)
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


def oracle_model_points(tagging, sig):
    """The point indices of a tagging spread over sig's orders, regrouped
    by index per value: (Weierstrass indices, pair indices)."""
    by_value = {}
    for i, v in enumerate(sig.orders):
        by_value.setdefault(v, []).append(i)
    weierstrass, pairs = [], []
    for v, idxs in by_value.items():
        if v == 0:
            continue
        p = tagging.pairs.count(v)
        pairs += [(idxs[2 * k], idxs[2 * k + 1]) for k in range(p)]
        weierstrass += idxs[2 * p:]
    return tuple(weierstrass), tuple(pairs)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=8)
       .filter(lambda orders: sum(orders) % 2 == 0))
def test_model_matches_the_regrouping_oracle(orders):
    sig = derive(orders)
    for tagging in hyperelliptic_taggings(sig):
        model = tagging.model(sig)
        assert model.genus == sig.genus
        assert (model.weierstrass_points, model.pair_points) == oracle_model_points(
            tagging, sig), (sig, tagging)


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
    # (g+1)*ell/2 less (ell - a_i)/4 for each zero tagged Weierstrass.  The
    # search reads only the closed form on a tagging it drops, so every
    # tagging of every branch count is read here, with 0, 1 and 2 appended
    # free points (at tau = 0 the cap keeps up to 12 branches at g = 10)
    checked = 0
    for g in range(2, 11):
        for core in enumerate_signatures(g, 2 * g - 2):
            for k in range(3):
                sig = derive(core.orders + (0,) * k)
                for tagging in hyperelliptic_taggings(sig):
                    assert tagging.free == k
                    model = tagging.model(sig)
                    summed = cm.runs_chi_log(cm.filtration_dims(model, sig, 1))
                    shortcut = oracle_cap(sig) - sum(
                        Fraction(sig.ell - sig.weights_a[i], 4) for i in model.weierstrass_points)
                    assert hyperelliptic_chi1(sig, tagging) == summed == shortcut, (sig, tagging)
                    assert _hyperelliptic_four_chi1(sig.genus, sig.ell, tagging.weierstrass) \
                        == 4 * summed, (sig, tagging)
                    checked += 1
    assert checked == 3 * 733


def test_clifford_profile_identity_holds():
    for g in range(3, 9):
        for sig in enumerate_signatures(g, 3):
            clifford_profile_chi1(sig)  # raises if the parity identity breaks


def test_the_parity_ceiling_bounds_the_clifford_profile():
    # 2*chi1 = g*ell - N+ + 2a_1 and N+ >= 0: the ceiling floor(g*ell/2) + a_1
    # bounds every profile, so what it decides the computed screen decides too
    profiles = {sig: clifford_profile_chi1(sig)
                for g in range(3, 13) for sig in enumerate_signatures(g, 6) if sig.n >= 2}
    assert len(profiles) == 1217
    ceilings = {sig: _clifford_ceiling(sig.genus, sig.ell, sig.orders) for sig in profiles}
    assert all(chi1 <= ceilings[sig] for sig, chi1 in profiles.items())
    decided = 0
    for tau in TAUS_AROUND_THE_CAP:
        coeff = threshold_coefficient(tau)
        for sig, chi1 in profiles.items():
            x = threshold_x(sig)
            if _margin(coeff, ceilings[sig], x) < 0:
                assert _margin(coeff, chi1, x) < 0, (sig, tau)
                decided += 1
    assert decided > 0
    # N+ = 0 somewhere: no lower ceiling holds
    attained = {sig.orders for sig, chi1 in profiles.items() if chi1 == ceilings[sig]}
    assert {(2, 2), (3, 1)} <= attained


# at tau = 0 and 1/5 every search from g = 4 on is unresolved; at 37/100
# every g = 1..12 resolves, dangling or not, so a screen below 3/8 is compared
# on rows, not only on error messages
SCREEN_TAUS = [Fraction(0), Fraction(1, 5), Fraction(37, 100), Fraction(3, 8), Fraction(2, 5),
               Fraction(1, 2), FIVE_NINTHS]


@pytest.mark.parametrize("tau", SCREEN_TAUS)
def test_the_parity_ceiling_changes_no_output(tau, monkeypatch):
    # with the ceiling off every signature of n >= 2 reaches the computed
    # screen; the candidates and the first unresolved stratum stay the same
    def search(g, dangling):
        try:
            return alpha_search(g, threshold=tau, dangling=dangling, genus_bound=12)
        except UnresolvedSignatureError as exc:
            return str(exc)

    ceiling = {(g, d): search(g, d) for g in range(1, 13) for d in (False, True)}
    monkeypatch.setattr(classifier, "_clifford_ceiling", lambda *args: math.inf)
    assert {key: search(*key) for key in ceiling} == ceiling


@pytest.mark.parametrize("tau", SCREEN_TAUS)
def test_the_hyperelliptic_screen_changes_no_output(tau, monkeypatch):
    # with the screen off every tagging reaches its model and its checked
    # chi1; the candidates and the first unresolved stratum stay the same.
    # The closed form reads +inf to the screen, on the tuple and on each
    # tagging, and its true value to the cross-check in hyperelliptic_chi1
    def search(g, dangling):
        try:
            return alpha_search(g, threshold=tau, dangling=dangling, genus_bound=12)
        except UnresolvedSignatureError as exc:
            return str(exc)

    screened = {(g, d): search(g, d) for g in range(1, 13) for d in (False, True)}
    closed_form, checked_chi1, checking = _hyperelliptic_four_chi1, hyperelliptic_chi1, []

    def chi1(sig, tagging):
        checking.append(tagging)
        try:
            return checked_chi1(sig, tagging)
        finally:
            checking.pop()

    monkeypatch.setattr(classifier, "_hyperelliptic_four_chi1",
                        lambda *args: closed_form(*args) if checking else math.inf)
    monkeypatch.setattr(classifier, "hyperelliptic_chi1", chi1)
    assert {key: search(*key) for key in screened} == screened


def test_the_hyperelliptic_screen_reads_the_most_lenient_cutoff():
    # a tagging is kept exactly when some dangling set and number of
    # appended points gives it a candidate
    tau = Fraction(2, 5)
    coeff = threshold_coefficient(tau)
    kept = dropped = 0
    for g in range(2, 9):
        for sig in enumerate_signatures(g, 6):
            for dangling in (False, True):
                subsets = range(sig.n + 1) if dangling else (0,)
                x4 = 4 * threshold_x(sig, range(sig.n) if dangling else ())
                assert x4 == 4 * oracle_rhs(sig, 1, range(sig.n) if dangling else ())
                for tagging in hyperelliptic_taggings(sig):
                    chi1 = hyperelliptic_chi1(sig, tagging)
                    emits = any(oracle_budget(sig, chi1, coeff, Q) >= 0
                                for r in subsets for Q in itertools.combinations(range(sig.n), r))
                    four_chi1 = _hyperelliptic_four_chi1(sig.genus, sig.ell, tagging.weierstrass)
                    keep = _margin(coeff, four_chi1, x4) >= 0
                    assert keep == emits, (sig, tagging, dangling)
                    kept, dropped = kept + keep, dropped + (not keep)
    assert kept > 0 and dropped > 0


def test_the_closed_form_tagging_count_and_best_tagging():
    # _best_tagging counts the taggings hyperelliptic_taggings lists, and its
    # Weierstrass orders give the largest closed-form chi1 among them; zeros
    # appended up to six points are free and change neither
    checked = 0
    for g in range(2, 13):
        for core in enumerate_signatures(g, 6):
            for k in range(6 - core.n + 1):
                sig = derive(core.orders + (0,) * k)
                taggings = hyperelliptic_taggings(sig)
                count, best = classifier._best_tagging(sig.orders)
                assert count == len(taggings), sig
                if taggings:
                    best_w = tuple(sorted(best, reverse=True))
                    assert best_w in {t.weierstrass for t in taggings}, sig
                    assert _hyperelliptic_four_chi1(sig.genus, sig.ell, best) == max(
                        _hyperelliptic_four_chi1(sig.genus, sig.ell, t.weierstrass)
                        for t in taggings), sig
                checked += 1
    assert checked == 2958


TUPLE_SCREEN_TAUS = sorted({*SCREEN_TAUS, Fraction(1, 3), Fraction(2, 3)})


@pytest.mark.parametrize("tau", TUPLE_SCREEN_TAUS)
def test_the_order_tuple_screen_changes_no_output(tau, caplog, monkeypatch):
    # with the best tagging free of Weierstrass zeros its closed form is the
    # Clifford cap, which every walked tuple reaches, so a tuple is closed
    # before its Signature only when it admits no tagging at all; every other
    # tuple is built and decided by the per-signature path.  The candidates,
    # the first unresolved stratum and every DEBUG stage count stay the same,
    # and no settled tuple is built
    coeff = threshold_coefficient(tau)
    built, settled = [], []
    constructor, best_tagging = signature._signature, classifier._best_tagging

    def search(g, dangling, best):
        # the search asks every tuple for its best tagging; the tuple is
        # settled when its nonhyperelliptic side is closed too, by more than
        # one zero below genus three or by a parity ceiling missing c*X,
        # and no tagging is admissible or the best one misses the lenient cutoff
        def screened(orders):
            count, weierstrass = best(orders)
            ell = math.lcm(*[m + 1 for m in orders])
            x = _threshold_x(g, ell, orders)
            x4 = 4 * _threshold_x(g, ell, orders, range(len(orders)) if dangling else ())
            closed = len(orders) > 1 and (
                g < 3 or _margin(coeff, _clifford_ceiling(g, ell, orders), x) < 0)
            if closed and (not count or _margin(
                    coeff, _hyperelliptic_four_chi1(g, ell, weierstrass), x4) < 0):
                settled[-1].append(orders)
            return count, weierstrass

        monkeypatch.setattr(classifier, "_best_tagging", screened)
        built.clear()
        settled.append([])
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="gmspectra"):
            try:
                out = alpha_search(g, threshold=tau, dangling=dangling, genus_bound=12)
            except UnresolvedSignatureError as exc:
                out = str(exc)
        assert not set(built) & set(settled[-1]), (g, dangling)
        return out, [r.getMessage().split(" score_s=")[0] for r in caplog.records
                     if r.getMessage().startswith("alpha_search")]

    monkeypatch.setattr(signature, "_signature",
                        lambda orders: built.append(orders) or constructor(orders))
    keys = [(g, d) for g in range(1, 13) for d in (False, True)]
    screened = {key: search(*key, best_tagging) for key in keys}
    # below 1/3 the walk reaches an unresolved stratum before any tuple the
    # screen settles; at 2/3 the cap keeps too few branches for one
    assert any(settled) == (Fraction(1, 3) <= tau <= FIVE_NINTHS)
    def free(orders):
        return best_tagging(orders)[0], []

    assert {key: search(*key, free) for key in keys} == screened


def test_each_order_tuple_reads_its_parity_ceiling_once(monkeypatch):
    # the tuple loop decides the nonhyperelliptic side of n >= 2 zeros once,
    # before any Signature, and sends _nonhyp_records only the open ones
    walk, ceiling, records = signature.order_tuples, _clifford_ceiling, classifier._nonhyp_records
    walked, reads, received = [], [], []

    def nonhyp(sig, coeff, x, *args):
        assert x == threshold_x(sig)
        assert _margin(coeff, ceiling(sig.genus, sig.ell, sig.orders), x) >= 0, sig
        received.append(sig.orders)
        return records(sig, coeff, x, *args)

    monkeypatch.setattr(signature, "order_tuples",
                        lambda g, n_max: (walked.append(t) or t for t in walk(g, n_max)))
    monkeypatch.setattr(classifier, "_clifford_ceiling",
                        lambda *args: reads.append(args[2]) or ceiling(*args))
    monkeypatch.setattr(classifier, "_nonhyp_records", nonhyp)
    read = 0
    for tau in TUPLE_SCREEN_TAUS:
        for g in range(3, 13):
            walked.clear()
            reads.clear()
            try:
                alpha_search(g, threshold=tau, genus_bound=12)
            except UnresolvedSignatureError:
                pass
            assert reads == [t for t in walked if len(t) >= 2], (g, tau)
            read += len(reads)
    # both verdicts occur on the grid
    assert 0 < len(received) < read


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
                if inv.alpha(c.chi1_log, c.chi1_log + threshold_x(derive(c.signature))) >= tau]
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
                assert c.threshold_rhs == coeff * threshold_x(sig, c.dangling)
                assert c.chi1_log >= rhs
                assert _margin(coeff, c.chi1_log, threshold_x(sig, c.dangling)) >= 0
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
    mask_route = cm.unibranch_chi_log
    monkeypatch.setattr(cm, "unibranch_chi_log", lambda H: mask_route(H) + 1)
    with pytest.raises(RuntimeError, match="unibranch chi1 routes disagree"):
        semigroup_search(5)
    monkeypatch.undo()
    walk = sg.walk_symmetric
    monkeypatch.setattr(sg, "walk_symmetric", lambda g, bound=None: (
        H._replace(element_sum=H.element_sum - 1) for H in walk(g, bound)))
    with pytest.raises(RuntimeError, match="unibranch chi1 routes disagree"):
        semigroup_search(5)


def test_semigroup_search_reads_no_filtration_and_builds_the_planes_once(monkeypatch):
    calls = Counter()
    mask_route = cm.unibranch_chi_log

    def counted(H):
        calls["chi"] += 1
        return mask_route(H)

    monkeypatch.setattr(cm, "filtration_dims", lambda *args: pytest.fail("a filtration was read"))
    monkeypatch.setattr(cm, "unibranch_chi_log", counted)
    cm._weight_planes.cache_clear()
    records = semigroup_search(12)
    assert cm._weight_planes.cache_info().misses == 1
    assert calls["chi"] == len(records) == len(sg.enumerate_symmetric(12))


def test_a_search_and_a_semigroup_search_of_one_genus_share_the_planes():
    # the planes are kept per genus, whichever search reads them first:
    # alpha_search scores two unibranch rows at genus six, <4,5> and <3,7>
    cm._weight_planes.cache_clear()
    alpha_search(6)
    records = semigroup_search(6)
    info = cm._weight_planes.cache_info()
    assert (info.misses, info.hits) == (1, 1 + len(records))


TAU_GRID = [Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(3, 8),
            Fraction(2, 5), Fraction(1, 2), FIVE_NINTHS, Fraction(2, 3)]


def oracle_unibranch_rows(records):
    """A row per nonhyperelliptic record: a stratum when every record of its
    spin meets the strict cutoff, a locus otherwise."""
    strict = {}
    for r in records:
        strict[r.spin] = strict.get(r.spin, True) and r.passed
    return {(f"unibranch({r.semigroup})", r.chi1_log,
             "stratum" if strict[r.spin] else "locus", r.spin, None)
            for r in records if not r.hyperelliptic}


def meeting_the_lenient_cutoff(rows, sig, coeff):
    x = threshold_x(sig, (0,))
    return {row for row in rows if _margin(coeff, row[1], x) >= 0}


def test_unibranch_rows_match_the_full_enumeration():
    for g in range(2, 25):
        sig = derive((2 * g - 2,))
        for tau in TAU_GRID:
            coeff = threshold_coefficient(tau)
            every = oracle_unibranch_rows(semigroup_search(g, tau))
            stats = Counter()
            got = classifier._unibranch_records(sig, coeff, threshold_x(sig), stats)
            # every row that can emit, with its verdict, and no other
            assert len(set(got)) == len(got) == stats["semigroups"], (g, tau)
            assert set(got) <= every, (g, tau)
            assert meeting_the_lenient_cutoff(got, sig, coeff) == set(got), (g, tau)
            assert (meeting_the_lenient_cutoff(got, sig, coeff)
                    == meeting_the_lenient_cutoff(every, sig, coeff)), (g, tau)


def extremal_semigroups(g):
    """{spin: (its largest element sum, the semigroup attaining it)} in
    closed form: <g, ..., 2g-2> for odd spin, <g-1, g+1, ..., 2g-2> for even
    spin from genus four on."""
    s_odd = (g - 1) * (3 * g - 2) // 2
    out = {"odd": (s_odd, sg.from_generators(range(g, 2 * g - 1)))}
    if g >= 4:
        out["even"] = (s_odd - 1, sg.from_generators((g - 1, *range(g + 1, 2 * g - 1))))
    return out


def test_each_spin_has_its_largest_element_sum_in_closed_form():
    for g in range(3, 31):
        by_spin = {}
        for H in sg.enumerate_symmetric(g):
            if not H.hyperelliptic:
                by_spin.setdefault(H.spin, []).append(H)
        largest = {}
        for spin, semigroups in by_spin.items():
            top = max(H.element_sum for H in semigroups)
            (H,) = [H for H in semigroups if H.element_sum == top]  # attained once
            largest[spin] = (top, H)
        assert largest == extremal_semigroups(g), g


def test_a_spin_is_a_stratum_exactly_when_its_extremal_semigroup_meets_the_cutoff():
    # a coefficient c putting the extremal semigroup of a spin on the strict
    # cutoff c*X makes the spin a stratum, and the next one up a locus; the
    # other spin's extremal chi1 differs by one, so it sits on the other side
    for g in range(4, 17):
        sig = derive((2 * g - 2,))
        x = threshold_x(sig)
        for spin, (total, _) in extremal_semigroups(g).items():
            chi1 = g * (2 * g - 1) - total
            for coeff, item in ((Fraction(chi1, x), "stratum"),
                                (Fraction(chi1 * x + 1, x * x), "locus")):
                rows = classifier._unibranch_records(sig, coeff, x, Counter())
                assert {row[2] for row in rows if row[3] == spin} == {item}, (g, spin, coeff)


def test_the_largest_element_sum_settles_the_verdict_at_genus_five():
    # <4,6,7> meets only the lenient cutoff at 3/8, and it has the largest
    # element sum of its spin, so that spin fails the strict one: a locus,
    # with or without dangling branches
    sig, coeff = derive((8,)), threshold_coefficient(Fraction(3, 8))
    stats = Counter()
    assert classifier._unibranch_records(sig, coeff, threshold_x(sig), stats) == [
        ("unibranch(<4,6,7>)", 20, "locus", "even", None)]
    assert stats["leaves"] == 2  # with <2,11>


def test_the_single_zero_walk_builds_few_leaves_at_genus_forty():
    # 53,629 symmetric semigroups; only <2,81> meets the lenient bound
    stats = Counter()
    sig = derive((78,))
    rows = classifier._unibranch_records(sig, threshold_coefficient(Fraction(3, 8)),
                                         threshold_x(sig), stats)
    assert rows == [] and stats["semigroups"] == 0
    assert 1 <= stats["leaves"] <= 10


def test_unibranch_rows_raise_when_either_chi1_route_is_off_on_a_bounded_row(monkeypatch):
    # at genus six <3,7> alone of its (even) spin meets the strict cutoff,
    # and the spin's largest element sum, that of <5,7,8,9>, misses it
    sig, coeff = derive((10,)), threshold_coefficient(Fraction(3, 8))
    row = sg.from_generators((3, 7))
    rows = classifier._unibranch_records(sig, coeff, threshold_x(sig), Counter())
    assert ("unibranch(<3,7>)", 31, "locus", "even", None) in rows
    mask_route = cm.unibranch_chi_log
    monkeypatch.setattr(cm, "unibranch_chi_log",
                        lambda H: mask_route(H) + (H == row))
    with pytest.raises(RuntimeError, match=r"unibranch chi1 routes disagree for <3,7>$"):
        classifier._unibranch_records(sig, coeff, threshold_x(sig), Counter())
    monkeypatch.undo()
    walk = sg.walk_symmetric
    monkeypatch.setattr(sg, "walk_symmetric", lambda g, bound=None: (
        H._replace(element_sum=H.element_sum - (H == row)) for H in walk(g, bound)))
    with pytest.raises(RuntimeError, match=r"unibranch chi1 routes disagree for <3,7>$"):
        classifier._unibranch_records(sig, coeff, threshold_x(sig), Counter())


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
    # (even, meets it); the leaves are those of the bounded walk alone
    records = semigroup_search(6)
    sig, coeff = derive((10,)), threshold_coefficient(Fraction(3, 8))
    bounded = [r for r in records
               if _margin(coeff, r.chi1_log, threshold_x(sig, (0,))) >= 0]
    assert [str(r.semigroup) for r in bounded] == ["<4,5>", "<3,7>", "<2,13>"]
    assert int(fields["semigroups"]) == 2
    assert int(fields["leaves"]) == len(bounded) == 3
    # the cap keeps four branches at 3/8, and every built signature of
    # n >= 2 is decided once: by the parity ceiling or by the Clifford screen
    assert int(fields["branch_cap"]) == 4
    assert int(fields["parity_out"]) + int(fields["screens"]) == int(fields["signatures"]) - 1
    assert (fields["parity_out"], fields["screens"], fields["screened_out"]) == ("17", "5", "3")
    # two pass it: (7,3) is resolved by its override, both spins of (6,4)
    # by exclusion rules
    assert int(fields["screens"]) - int(fields["screened_out"]) == 2
    assert (fields["override"], fields["excluded"], fields["catalog"]) == ("1", "2", "0")
    # every admissible tagging is counted, and the closed form drops 7 of
    # the 17 before any frame is built
    assert (fields["taggings"], fields["closed_out"]) == ("17", "7")
    assert float(fields["score_s"]) >= 0


# ------------------------------------------------------------- resolution


def test_unresolved_when_catalog_entry_is_missing():
    pruned = [e for e in catalog.entries() if e.id != "H(4,2)-even"]
    with pytest.raises(UnresolvedSignatureError, match=r"\(4, 2\).*even"):
        alpha_search(4, catalog=pruned)


def test_full_catalog_resolves_all_searchable_genera():
    for g in range(1, 9):
        alpha_search(g)  # must not raise


# ------------------------------------------------------------- regression


def failures(checks):
    return [c for c in checks if not c.ok]


def test_nonvarying_regression_is_green():
    checks = nonvarying_regression()
    assert all(c.ok for c in checks)
    assert failures(checks) == []
    ids = {c.entry_id for c in checks}
    assert len(ids) == 14
    assert len(checks) == 10 * len(ids)


def test_regression_names_entry_and_field_on_mismatch():
    e = catalog.get("E7")
    bad = e._replace(expected=e.expected._replace(delta=99))
    checks = nonvarying_regression([bad])
    assert not all(c.ok for c in checks)
    assert [(c.entry_id, c.field, c.expected, c.actual) for c in failures(checks)] == [
        ("E7", "delta", 99, e.expected.delta)]


def test_regression_reports_an_undefined_alpha_as_none():
    # elliptic-12 has 13*chi1_log = chi2_log: both sides of the alpha check are None
    checks = {c.field: c for c in nonvarying_regression([catalog.family("elliptic", n=12)])}
    assert checks["alpha"].expected is None and checks["alpha"].actual is None
    assert checks["alpha"].ok and checks["slope"].ok and checks["chi2_log"].ok


def test_regression_reports_a_ring_without_a_certified_conductor():
    # k[t1^2] on the (3, 1) branches: delta, genus, alpha and slope are
    # left out of the report and read as None, so nothing raises
    e = catalog.get("E7")
    bad = e._replace(generators=(("x", ((0, 2, Fraction(1)),)),))
    checks = nonvarying_regression([bad])
    failed = {c.field: c.actual for c in failures(checks)}
    assert [c.field for c in checks] == [
        "gap_sequence", "delta", "genus", "gorenstein", "spin",
        "chi1_log", "chi2_log", "alpha", "slope", "ambient_weights"]
    assert set(failed) == {c.field for c in checks} - {"spin"}
    assert failed["gorenstein"] is False
    assert [failed[k] for k in ("delta", "genus", "alpha", "slope")] == [None] * 4
    assert failed["gap_sequence"] == (2, 1, 2, 1)  # a tuple, as expected


def test_regression_catches_character_corruption():
    e = catalog.get("H(5,3)")
    bad = e._replace(expected=e.expected._replace(chi2_log=1))
    assert {c.field for c in failures(nonvarying_regression([bad]))} == {"chi2_log"}


def test_a_doctored_locus_entry_trips_the_override_check():
    e = catalog.get("H(7,1)-special")
    bad = e._replace(expected=e.expected._replace(chi1_log=e.expected.chi1_log + 1))
    entries = [bad if x.id == e.id else x for x in catalog.entries()]
    with pytest.raises(RuntimeError,
                       match=r"^H\(7,1\)-special: override filtration gives 20, stored 21$"):
        alpha_search(5, catalog=entries)


def test_a_twin_locus_on_another_component_keeps_both_rows():
    # a second locus entry of (7, 1) with the same condition on another
    # component shares its row's (signature, model, dangling): both stay
    e = catalog.get("H(7,1)-special")
    twin = e._replace(id="H(7,1)-special-odd", component="odd")
    for dangling in (False, True):
        rows = [c for c in alpha_search(5, catalog=[*catalog.entries(), twin], dangling=dangling)
                if c.model == "override[h0(3p1)=2]"]
        by_component = Counter(c.component for c in rows)
        assert by_component == {None: len(rows) // 2, "odd": len(rows) // 2}, dangling
        assert len(rows) == (8 if dangling else 2)
        assert {c.signature for c in rows} == {(7, 1)}


UNIQUENESS_TAUS = [Fraction(3, 8), Fraction(2, 5), Fraction(5, 12), Fraction(9, 20),
                   Fraction(1, 2), FIVE_NINTHS, Fraction(3, 5), Fraction(2, 3)]


def test_no_two_shipped_candidates_share_their_key():
    # over the shipped catalog one row per (signature, model, dangling, component)
    for g in range(1, 13):
        for tau in UNIQUENESS_TAUS:
            for dangling in (False, True):
                cands = alpha_search(g, threshold=tau, dangling=dangling, genus_bound=12)
                keys = [(c.signature, c.model, c.dangling, c.component) for c in cands]
                assert len(set(keys)) == len(keys), (g, tau, dangling)


def test_two_catalog_values_for_one_component_trip_the_catalog_check():
    # H(2,2,2)-even-1 and -2 agree; a copy of one with another chi1_log does not
    e = catalog.get("H(2,2,2)-even-1")
    bad = e._replace(id="H(2,2,2)-even-3",
                     expected=e.expected._replace(chi1_log=e.expected.chi1_log + 1))
    with pytest.raises(RuntimeError, match=r"^catalog disagrees on chi1_log for \(2, 2, 2\) even$"):
        alpha_search(4, catalog=[*catalog.entries(), bad])
