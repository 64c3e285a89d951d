"""Semigroup arithmetic against brute-force oracles and frozen values."""

from math import gcd

import pytest
from hypothesis import given, strategies as st

import gmspectra.semigroup as sgp


# ---------------------------------------------------------------- oracles


def brute_membership(gens, bound):
    """Independent closure computation: repeated saturation of a set."""
    elems = {0}
    changed = True
    while changed:
        changed = False
        for e in sorted(elems):
            for g in gens:
                s = e + g
                if s <= bound and s not in elems:
                    elems.add(s)
                    changed = True
    return elems


def brute_symmetric_gap_sets(g):
    """All symmetric gap sets of genus g by exhaustive pair assignment."""
    F = 2 * g - 1
    out = []
    for mask in range(1 << (g - 1)):
        mem = [False] * (F + 1)
        mem[0] = True
        for k in range(1, g):
            inside = bool(mask >> (k - 1) & 1)
            mem[k] = inside
            mem[F - k] = not inside
        ok = True
        elts = [k for k in range(F + 1) if mem[k]]
        for a in elts:
            if a == 0:
                continue
            for b in elts:
                if b < a:
                    continue
                if a + b <= F and not mem[a + b]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(k for k in range(1, F + 1) if not mem[k]))
    return sorted(out)


# ---------------------------------------------------------- construction


def test_small_examples():
    H = sgp.from_generators([3, 4])
    assert H.gaps == (1, 2, 5)
    assert H.genus == 3
    assert H.frobenius == 5
    assert H.symmetric
    H = sgp.from_generators([3, 5])
    assert H.gaps == (1, 2, 4, 7)
    assert H.genus == 4
    H = sgp.from_generators([1])
    assert H.gaps == ()
    assert H.genus == 0
    assert H.frobenius == -1
    assert 0 in H and 1 in H and 17 in H


def test_three_seven():
    H = sgp.from_generators([3, 7])
    assert H.gaps == (1, 2, 4, 5, 8, 11)
    assert H.genus == 6
    assert sgp.gap_sum(H) == 31
    assert H.symmetric
    assert not H.hyperelliptic


def test_rejections():
    with pytest.raises(ValueError):
        sgp.from_generators([])
    with pytest.raises(ValueError):
        sgp.from_generators([4, 6])
    with pytest.raises(ValueError):
        sgp.from_generators([0, 3])
    with pytest.raises(ValueError):
        sgp.from_generators([3, -2])


def test_minimal_generators():
    assert sgp.from_generators([3, 4, 7]).generators == (3, 4)
    assert sgp.from_generators([2, 4, 5]).generators == (2, 5)
    assert sgp.from_generators([6, 10, 15]).generators == (6, 10, 15)
    assert sgp.from_generators([1]).generators == (1,)


@given(st.lists(st.integers(2, 20), min_size=1, max_size=4))
def test_closure_matches_brute_force(raw):
    d = 0
    for g in raw:
        d = gcd(d, g)
    if d != 1:
        raw.append(d + 1)  # force cofiniteness
    H = sgp.from_generators(raw)
    bound = 2 * H.frobenius + 2 if H.frobenius >= 0 else 10
    expected = brute_membership(sorted(set(raw)), bound)
    for k in range(bound + 1):
        assert H.contains(k) == (k in expected)
    if H.frobenius >= 0:
        assert H.frobenius == max(k for k in range(bound + 1) if k not in expected)


@given(st.lists(st.integers(2, 15), min_size=1, max_size=3))
def test_closure_invariants(raw):
    d = 0
    for g in raw:
        d = gcd(d, g)
    if d != 1:
        raw.append(d + 1)
    H = sgp.from_generators(raw)
    top = 2 * H.frobenius + 2
    elems = [k for k in range(top + 1) if H.contains(k)]
    for a in elems:
        for b in elems:
            if a + b <= top:
                assert H.contains(a + b)
    for k in range(H.frobenius + 1, top + 1):
        assert H.contains(k)
    assert H.genus == len(H.gaps)


def assert_matches_brute_force(H, gens):
    """Every read of H against the saturation oracle on [0, 2F+3]."""
    built = sgp.from_generators(H.generators)  # fields compare, whatever was read
    assert built == H and hash(built) == hash(H)
    F = H.frobenius
    top = 2 * F + 3  # >= F + multiplicity, past every minimal generator
    elems = sorted(brute_membership(sorted(set(gens)), top))
    for k in range(-1, top + 1):
        assert H.contains(k) == (k in elems)
        assert H.count_upto(k) == sum(1 for e in elems if e <= k)
    assert H.prefix_counts() == [sum(1 for e in elems if e <= k) for k in range(F + 1)]
    assert H.element_sum == sum(elems[:H.genus])
    assert H.mask == sum(1 << e for e in elems if e <= F)
    assert H.gaps == tuple(k for k in range(F + 1) if k not in elems)
    positive = [e for e in elems if e > 0]
    assert H.generators == tuple(
        e for e in positive if not any(e - a in positive for a in positive))


@given(st.lists(st.integers(1, 24), min_size=1, max_size=5))
def test_generator_sets_match_brute_force(raw):
    d = 0
    for g in raw:
        d = gcd(d, g)
    if d != 1:
        raw.append(d + 1)  # force cofiniteness
    assert_matches_brute_force(sgp.from_generators(raw), raw)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=5))
def test_generated_genus_reads_no_mask(raw):
    d = 0
    for g in raw:
        d = gcd(d, g)
    if d != 1:
        raw.append(d + 1)  # force cofiniteness
    H = sgp.from_generators(raw)
    assert sgp.generated_genus(raw) == H.genus == len(H.gaps)


def test_generators_above_the_frobenius_number_cost_nothing():
    # the mask spans [0, F] only: no generator past F is ever expanded
    assert sgp.from_generators([3, 5, 10**12]) == sgp.from_generators([3, 5])
    assert sgp.generated_genus([3, 10**12 + 1]) == 10**12
    with pytest.raises(ValueError, match="gcd"):
        sgp.generated_genus([4, 6])


def test_symmetric_semigroups_match_brute_force():
    for g in range(1, 13):
        for H in sgp.enumerate_symmetric(g):
            assert_matches_brute_force(H, H.generators)


def test_generators_sumset_reaches_half_of_f_plus_multiplicity():
    # generators sums pairs whose smaller summand is at most (F + mult) // 2.
    # Here F + mult is even and its half h is an element, so F + mult =
    # h + h is the sum that a bound one lower would miss.
    cases = [H for g in range(1, 11) for H in sgp.enumerate_symmetric(g)]
    cases += [sgp.from_generators(gens) for gens in
              [(3, 4), (3, 5), (4, 6, 7), (5, 6, 8), (4, 5, 11), (6, 7, 8, 9, 10)]]
    pinned = 0
    for H in cases:
        F = H.frobenius
        mult = next(e for e in range(1, F + 2) if H.contains(e))
        if (F + mult) % 2 or not H.contains((F + mult) // 2):
            continue
        pinned += 1
        positive = [e for e in range(1, F + mult + 1) if H.contains(e)]
        minimal = tuple(e for e in positive if not any(H.contains(e - a) for a in positive
                                                        if 0 < a < e))
        assert sgp.NumericalSemigroup(F, H.mask).generators == minimal == H.generators, H
    assert pinned >= 20
    H = sgp.from_generators([3, 4])  # F + mult = 8 = 4 + 4 only
    assert H.generators == (3, 4) and sgp.NumericalSemigroup(5, H.mask).generators == (3, 4)


def test_counting_helpers():
    H = sgp.from_generators([3, 7])
    # elements: 0,3,6,7,9,10,12,13,14,...
    assert H.count_upto(9) == 5
    assert H.count_upto(0) == 1
    assert H.count_upto(-1) == 0
    assert H.count_upto(100) == 100 - 6 + 1
    assert H.prefix_counts() == [1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 6, 6]
    assert sgp.from_generators([1]).prefix_counts() == []
    assert sgp.from_generators([1]).element_sum == 0  # genus 0: nothing summed
    assert H.element_sum == sum((0, 3, 6, 7, 9, 10))
    assert H.mask == sum(1 << e for e in (0, 3, 6, 7, 9, 10))
    assert str(H) == "<3,7>"


def test_element_sum_is_kept_outside_equality_hash_and_repr():
    H, fresh = sgp.from_generators([3, 7]), sgp.from_generators([3, 7])
    assert H.element_sum == 35 and H._element_sum == 35 and fresh._element_sum is None
    assert H == fresh and hash(H) == hash(fresh) and repr(H) == repr(fresh)


# ------------------------------------------------------------ gap sums


def test_gap_sum_examples():
    assert sgp.gap_sum(sgp.from_generators([3, 4])) == 8
    assert sgp.gap_sum(sgp.from_generators([3, 5])) == 14
    assert sgp.gap_sum(sgp.from_generators([1])) == 0


def test_planar_formula_examples():
    assert sgp.planar_gap_sum_formula(3, 4) == 8
    assert sgp.planar_gap_sum_formula(3, 7) == 31
    for g in range(1, 12):
        assert sgp.planar_gap_sum_formula(2, 2 * g + 1) == g * g
        H = sgp.from_generators([2, 2 * g + 1])
        assert H.gaps == tuple(range(1, 2 * g, 2))
    with pytest.raises(ValueError):
        sgp.planar_gap_sum_formula(4, 6)
    with pytest.raises(ValueError):
        sgp.planar_gap_sum_formula(1, 5)


def test_planar_formula_matches_gap_sum():
    for p in range(2, 31):
        for q in range(p + 1, 31):
            if gcd(p, q) == 1:
                assert sgp.planar_gap_sum_formula(p, q) == sgp.gap_sum(
                    sgp.from_generators([p, q])
                )


# ------------------------------------------------- symmetric enumeration


def test_enumerate_symmetric_first_genera():
    (H,) = sgp.enumerate_symmetric(1)
    assert H.generators == (2, 3)
    (H,) = sgp.enumerate_symmetric(2)
    assert H.generators == (2, 5)
    gens3 = {H.generators for H in sgp.enumerate_symmetric(3)}
    assert gens3 == {(3, 4), (2, 7)}


def test_enumerate_symmetric_counts():
    # frozen from the exhaustive pair-assignment oracle
    expected = {1: 1, 2: 1, 3: 2, 4: 3, 5: 3, 6: 6, 7: 8, 8: 7}
    # OEIS A158206 (symmetric numerical semigroups by genus)
    expected.update({9: 15, 10: 20, 11: 18, 12: 36, 13: 44, 14: 45, 15: 83,
                     16: 109, 17: 101, 18: 174, 19: 246, 20: 227, 21: 420,
                     22: 546, 23: 498, 24: 926})
    for g, count in expected.items():
        assert len(sgp.enumerate_symmetric(g)) == count


def test_enumerate_symmetric_matches_brute_force():
    # the gap tuples, and the element sums the walk carried to each leaf:
    # the g smallest elements are those in [0, F], the complement of the gaps
    for g in range(1, 13):
        found = sgp.enumerate_symmetric(g)
        sums = [H.element_sum for H in found]
        got = [H.gaps for H in found]
        brute = brute_symmetric_gap_sets(g)
        assert got == brute
        assert len(set(got)) == len(got)
        assert sums == [g * (2 * g - 1) - sum(gaps) for gaps in brute]


def test_walk_leaves_arrive_with_their_element_sum():
    # the walk's running sum against the property's formula on a fresh copy
    for g in range(1, 21):
        for H in sgp.enumerate_symmetric(g):
            assert H._element_sum is not None and H._gaps is None
            fresh = sgp.NumericalSemigroup(H.frobenius, H.mask)
            assert H.element_sum == fresh.element_sum
            assert fresh._gaps is not None  # the formula read the gaps


def test_enumerate_symmetric_refuses_a_genus_past_its_bound():
    assert sgp.SEMIGROUP_GENUS_BOUND == 40
    with pytest.raises(ValueError, match="^genus 41 beyond the semigroup search bound 40$"):
        sgp.enumerate_symmetric(41)


def test_enumerate_symmetric_walks_in_gap_order():
    # no sort: the depth-first walk itself emits ascending gap tuples
    for g in range(1, 25):
        found = sgp.enumerate_symmetric(g)
        assert found == sorted(found, key=lambda H: H.gaps)


def test_symmetric_biconditional():
    for g in range(1, 13):
        for H in sgp.enumerate_symmetric(g):
            assert H.symmetric
            assert H.frobenius == 2 * g - 1
            for k in range(0, 2 * g):
                assert H.contains(k) == (not H.contains(2 * g - 1 - k))
            # a symmetric semigroup has exactly g elements up to 2g-1
            assert H.count_upto(2 * g - 1) == g


# ------------------------------------------------------ bound filtering


def test_element_sum_filter_genus_six():
    sym = sgp.enumerate_symmetric(6)
    kept = sgp.element_sum_bound_filter(6, sym)
    nonhyp = [r for r in kept if not r.semigroup.hyperelliptic]
    assert len(nonhyp) == 1
    assert nonhyp[0].semigroup.generators == (3, 7)
    assert nonhyp[0].element_sum == 35
    assert nonhyp[0].slack == 0


def test_element_sum_filter_small():
    H = sgp.from_generators([2, 5])
    (rec,) = sgp.element_sum_bound_filter(2, [H])
    assert rec.element_sum == 2
    assert rec.slack == 1


def test_element_sum_filter_hyperelliptic_always_passes():
    for g in range(2, 13):
        H = sgp.from_generators([2, 2 * g + 1])
        (rec,) = sgp.element_sum_bound_filter(g, [H])
        assert rec.element_sum == g * (g - 1)
        assert rec.slack == g - 1


def test_element_sum_filter_genus_check():
    with pytest.raises(ValueError):
        sgp.element_sum_bound_filter(3, [sgp.from_generators([2, 5])])
