"""Semigroup arithmetic against brute-force oracles and frozen values."""

import time
from math import gcd

import pytest
from hypothesis import given, strategies as st

import gmspectra.curve_models as cm
import gmspectra.invariants as inv
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


def one_sided_walk(g, max_element_sum=None):
    """The symmetric walk with the one-sided test alone: a child deciding
    element e is cut once bit F-e of its sumset is set (a triple summing
    to F through e), and the F-k child once its total passes the cap."""
    F = 2 * g - 1
    bound = g * F if max_element_sum is None else max_element_sum
    cap = [bound - (g - 1 - k) * (g + k) // 2 for k in range(g)]
    out = []

    def visit(k, elems, sums, total):
        if k == g:
            out.append(sgp.NumericalSemigroup(F, elems, g, total))
            return
        for e in (F - k, k):
            new = elems | 1 << e
            new_sums = sums | new << e
            if not new_sums >> (F - e) & 1 and (e == k or total + e <= cap[k]):
                visit(k + 1, new, new_sums, total + e)

    if cap[0] >= 0:
        visit(1, 1, 1, 0)
    return out


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
    built = sgp.from_generators(H.generators)  # every field compares, the sum included
    assert built == H and hash(built) == hash(H)
    F = H.frobenius
    top = 2 * F + 3  # >= F + multiplicity, past every minimal generator
    elems = sorted(brute_membership(sorted(set(gens)), top))
    model = cm.UnibranchModel(H)
    for k in range(-2, top + 1):
        assert H.contains(k) == (k in H) == (k in elems)  # a tuple's `in` would test fields
        assert model.h0((k,)) == sum(1 for e in elems if e <= k)
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


def test_semigroups_beyond_the_size_bound_are_refused_before_their_lists():
    bound = sgp.SEMIGROUP_SIZE_BOUND
    # an Apery list of 1000003 entries, then a mask of about 10^12 bits
    for call in (sgp.generated_genus, sgp.from_generators):
        with pytest.raises(ValueError, match=f"^smallest generator {bound + 3} beyond "
                                             f"the semigroup size bound {bound}$"):
            call([bound + 3, bound + 33])
    # a short Apery list whose Frobenius number is past the bound
    with pytest.raises(ValueError, match=f"^Frobenius number {2 * bound + 1} beyond "
                                         f"the semigroup size bound {bound}$"):
        sgp.from_generators([2, 2 * bound + 3])
    assert sgp.generated_genus([2, 2 * bound + 3]) == bound + 1  # no mask read
    assert sgp.from_generators([2, bound + 1]).frobenius == bound - 1  # just inside


def test_apery_walks_beyond_the_work_bound_are_refused_before_their_lists():
    bound = sgp.APERY_WORK_BOUND
    # 4 walked generators of about 10^6 steps each: refused at once
    gens = list(range(999000, 999005))
    for call in (sgp.generated_genus, sgp.from_generators):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^Apery walk of 3996000 steps \(5 generators, "
                                             rf"smallest 999000\) beyond the work bound {bound}$"):
            call(gens)
        assert time.perf_counter() - start < 0.1
    # the smallest-generator check still comes first
    with pytest.raises(ValueError, match="^smallest generator 1000003 beyond"):
        sgp.generated_genus(range(1000003, 1000063))
    # lo * (min(k, lo) - 1) = 2000 * 500 is the bound itself; the 499
    # generators past 2001 lie in <2000, 2001> and are skipped in one step each
    inside = [2000, 2001, *range(10**7, 10**7 + 499)]
    assert sgp.generated_genus(inside) == 1999 * 2000 // 2
    with pytest.raises(ValueError, match=f"^Apery walk of 1002000 steps .* {bound}$"):
        sgp.generated_genus([*inside, 10**8])


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
        assert H.generators == minimal, H
    assert pinned >= 20
    assert sgp.from_generators([3, 4]).generators == (3, 4)  # F + mult = 8 = 4 + 4 only


def test_counting_helpers():
    H = sgp.from_generators([3, 7])
    # elements: 0,3,6,7,9,10,12,13,14,...
    model = cm.UnibranchModel(H)
    assert model.h0((9,)) == 5
    assert model.h0((0,)) == 1
    assert model.h0((-1,)) == 0
    assert model.h0((100,)) == 100 - 6 + 1
    assert H.prefix_counts() == [1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 6, 6]
    assert sgp.from_generators([1]).prefix_counts() == []
    assert sgp.from_generators([1]).element_sum == 0  # genus 0: nothing summed
    assert H.element_sum == sum((0, 3, 6, 7, 9, 10))
    assert H.mask == sum(1 << e for e in (0, 3, 6, 7, 9, 10))
    assert str(H) == "<3,7>"


def test_element_sum_is_a_field_of_equality_hash_and_repr():
    # built whole: reading gaps or generators leaves no trace on either copy
    H, fresh = sgp.from_generators([3, 7]), sgp.from_generators([7, 3, 10])
    assert H.gaps and H.generators and H.element_sum == 35
    assert H == fresh and hash(H) == hash(fresh) and repr(H) == repr(fresh)
    assert repr(H) == "NumericalSemigroup(frobenius=11, mask=1737, genus=6, element_sum=35)"
    assert H._replace(element_sum=34) != H


# ------------------------------------------------------------ gap sums


def test_gap_sum_examples():
    assert sgp.gap_sum(sgp.from_generators([3, 4])) == 8
    assert sgp.gap_sum(sgp.from_generators([3, 5])) == 14
    assert sgp.gap_sum(sgp.from_generators([1])) == 0


def planar_formula(p, q):
    # the toric closed form at b = gcd(p, q) = 1 is the gap sum of <p, q>
    return inv.toric_lattice_identity(p, q).closed_form


def test_planar_formula_examples():
    assert planar_formula(3, 4) == 8
    assert planar_formula(3, 7) == 31
    for g in range(1, 12):
        assert planar_formula(2, 2 * g + 1) == g * g
        H = sgp.from_generators([2, 2 * g + 1])
        assert H.gaps == tuple(range(1, 2 * g, 2))
    with pytest.raises(ValueError):
        planar_formula(1, 5)


def test_planar_formula_matches_gap_sum():
    for p in range(2, 31):
        for q in range(p + 1, 31):
            if gcd(p, q) == 1:
                assert planar_formula(p, q) == sgp.gap_sum(
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
    # frozen from the one-sided walk
    expected.update({26: 1121, 28: 2496, 32: 5317, 36: 19812, 40: 53629})
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
    # the walk's carried genus and running sum against the Apery route
    for g in range(1, 21):
        for H in sgp.enumerate_symmetric(g):
            built = sgp.from_generators(H.generators)
            assert H == built and H.genus == g, (H, built)


def test_apery_element_sum_matches_brute_force():
    # <3,4,5>, <4,5,7>, <5,6,8> and <3,5,7> have F < 2g - 1: their g
    # smallest elements run past the conductor
    for gens in [(1,), (3, 4, 5), (4, 5, 7), (4, 6, 7), (5, 6, 8), (6, 7, 8, 9, 10),
                 (3, 5, 7)]:
        H = sgp.from_generators(gens)
        assert H.symmetric == (gens in [(1,), (4, 6, 7), (6, 7, 8, 9, 10)]), H
        assert_matches_brute_force(H, gens)


def test_enumerate_symmetric_refuses_a_genus_past_its_bound():
    assert sgp.SEMIGROUP_GENUS_BOUND == 40
    with pytest.raises(ValueError, match="^genus 41 beyond the semigroup search bound 40$"):
        sgp.enumerate_symmetric(41)


def test_enumerate_symmetric_walks_in_gap_order():
    # no sort: the depth-first walk itself emits ascending gap tuples
    for g in range(1, 25):
        found = sgp.enumerate_symmetric(g)
        assert found == sorted(found, key=lambda H: H.gaps)


def test_the_reflected_sumset_walk_keeps_the_leaves_of_the_one_sided_walk():
    # it cuts only subtrees with no leaf: same leaves, same order
    for g in range(1, 29):
        assert sgp.enumerate_symmetric(g) == one_sided_walk(g), g


def test_the_bounded_reflected_sumset_walk_keeps_the_leaves_of_the_one_sided_walk():
    for g in range(1, 17):
        for bound in sorted({H.element_sum for H in one_sided_walk(g)}):
            assert list(sgp.walk_symmetric(g, bound)) == one_sided_walk(g, bound), (g, bound)


def test_a_bounded_walk_keeps_exactly_the_semigroups_within_its_bound():
    # every distinct element sum as the bound, one below the least and a
    # negative one (the genus-one root is a leaf)
    for g in range(1, 17):
        every = sgp.enumerate_symmetric(g)
        sums = sorted({H.element_sum for H in every})
        for bound in (-1, sums[0] - 1, *sums):
            kept = [H for H in every if H.element_sum <= bound]
            assert sgp.enumerate_symmetric(g, bound) == kept, (g, bound)
            assert list(sgp.walk_symmetric(g, bound)) == kept, (g, bound)


def test_the_walk_is_lazy_and_checks_its_genus_at_the_call():
    with pytest.raises(ValueError, match="^genus 41 beyond the semigroup search bound 40$"):
        sgp.walk_symmetric(41)
    # F-k first: the first leaf takes every F-k, the second swaps the last pair
    walk = sgp.walk_symmetric(40)
    first, second = next(walk), next(walk)
    assert first.generators == tuple(range(40, 79))
    assert first.gaps == (*range(1, 40), 79) and second.gaps == (*range(1, 39), 40, 79)
    assert (first.spin, second.spin) == ("odd", "even")


def test_symmetric_biconditional():
    for g in range(1, 13):
        for H in sgp.enumerate_symmetric(g):
            assert H.symmetric
            assert H.frobenius == 2 * g - 1
            for k in range(0, 2 * g):
                assert H.contains(k) == (not H.contains(2 * g - 1 - k))
            # a symmetric semigroup has exactly g elements up to 2g-1
            assert cm.UnibranchModel(H).h0((2 * g - 1,)) == g


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
