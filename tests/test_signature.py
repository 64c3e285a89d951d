from math import gcd

import pytest
from hypothesis import given, strategies as st

from gmspectra import signature as sg


def test_derive_basic():
    s = sg.derive((3, 1))
    assert s.orders == (3, 1)
    assert s.genus == 3
    assert s.ell == 4
    assert s.weights_a == (1, 2)


def test_derive_sorts_non_increasing():
    assert sg.derive((1, 3)).orders == (3, 1)


def test_derive_single_zero():
    s = sg.derive((0,))
    assert (s.ell, s.weights_a, s.genus) == (1, (1,), 1)


def test_derive_4_2():
    s = sg.derive((4, 2))
    assert (s.ell, s.weights_a, s.genus) == (15, (3, 5), 4)


def test_derive_rejects_bad_input():
    with pytest.raises(ValueError):
        sg.derive(())
    with pytest.raises(ValueError):
        sg.derive((3,))  # odd total
    with pytest.raises(ValueError):
        sg.derive((2, -2))


def test_weight_times_order_is_ell():
    for orders in [(3, 1), (6, 2), (2, 1, 1), (5, 3), (0, 0, 0), (4,)]:
        s = sg.derive(orders)
        assert all(a * (m + 1) == s.ell for m, a in zip(s.orders, s.weights_a))


def test_ladder_values():
    s = sg.derive((3, 1))
    assert sg.ladder(s, 0) == (0, 0)
    assert sg.ladder(s, 3) == (3, 2)
    assert sg.ladder(s, 4) == (4, 2)  # at lam = ell this is (m_i + 1)


def test_ladder_periodicity_explicit():
    s = sg.derive((5, 3))
    for lam in range(0, 3 * s.ell):
        shifted = sg.ladder(s, lam + s.ell)
        base = sg.ladder(s, lam)
        assert shifted == tuple(b + m + 1 for b, m in zip(base, s.orders))


@given(st.lists(st.integers(0, 12), min_size=1, max_size=5), st.integers(0, 200))
def test_ladder_monotone_and_periodic(orders, lam):
    if sum(orders) % 2:
        orders = orders + [1]
    s = sg.derive(orders)
    lo = sg.ladder(s, lam)
    hi = sg.ladder(s, lam + 1)
    assert all(x <= y for x, y in zip(lo, hi))
    per = sg.ladder(s, lam + s.ell)
    assert per == tuple(x + m + 1 for x, m in zip(lo, s.orders))


def test_ladder_sum_identity_spec_cases():
    s = sg.derive((3, 1))
    # branch of order 1 has a = 2: 1 + 1 + 2 + 2 = 6
    assert sg.ladder_sum_identity(s, 1) == 6
    assert sg.ladder_sum_identity(s, 1) == (1 + 2) * s.ell // 2
    single = sg.derive((4,))  # a = 1, arithmetic series
    assert sg.ladder_sum_identity(single, 0) == 5 * 6 // 2
    trivial = sg.derive((0,))
    assert sg.ladder_sum_identity(trivial, 0) == 1


def test_ladder_sum_identity_exhaustive():
    # closed form (m_i + 2) * ell / 2 for every order up to 30
    for m1 in range(0, 31):
        for m2 in (m1, 1 if (m1 % 2) else 2):
            s = sg.derive((m1, m2))
            for i in range(s.n):
                want = (s.orders[i] + 2) * s.ell // 2
                assert sg.ladder_sum_identity(s, i) == want


def _parity_closed_form(k1, k2):
    if k1 % 2 and k2 % 2:
        return (k1 * k2 + 1) // 2
    return k1 * k2 // 2


def test_parity_count_small():
    assert sg.parity_count(3, 1) == 2
    assert sg.parity_count(2, 1) == 1
    assert sg.parity_count(5, 3) == 8


def test_parity_count_closed_form_exhaustive():
    pairs = [
        (k1, k2)
        for k1 in range(2, 601)
        for k2 in range(1, k1)
        if k1 * k2 <= 600 and gcd(k1, k2) == 1
    ]
    assert len(pairs) > 100
    for k1, k2 in pairs:
        assert sg.parity_count(k1, k2) == _parity_closed_form(k1, k2)


def test_parity_count_rejects_non_coprime():
    with pytest.raises(ValueError):
        sg.parity_count(6, 3)
    with pytest.raises(ValueError):
        sg.parity_count(3, 3)


def test_n_plus_single_branch():
    # the first level carries the canonical divisor and is excluded
    for g in range(2, 11):
        s = sg.derive((2 * g - 2,))
        ell, a1 = s.ell, s.weights_a[0]
        assert sg.n_plus(s, a1 + 1, ell) == (ell - a1) // 2
        assert sg.n_plus(s, a1 + 1, ell) == g - 1


def test_n_plus_empty_range():
    s = sg.derive((3, 1))
    assert sg.n_plus(s, 5, 4) == 0


def test_n_plus_matches_brute_force():
    s = sg.derive((5, 3))
    lo, hi = s.weights_a[0] + 1, s.ell - s.weights_a[0]
    expect = 0
    for lam in range(lo, hi + 1):
        vals = [-(-lam // a) - 1 for a in s.weights_a]
        if sum(vals) % 2 == 0:
            expect += 1
    assert sg.n_plus(s, lo, hi) == expect


def _brute_partitions(total, n_max):
    # independent oracle: filter all non-increasing tuples built recursively
    def rec(remaining, max_part, length):
        if remaining == 0:
            yield ()
        if length == 0 or remaining == 0:
            return
        for p in range(min(remaining, max_part), 0, -1):
            for tail in rec(remaining - p, p, length - 1):
                yield (p,) + tail

    return set(rec(total, total, n_max)) if total else ({()} if n_max >= 0 else set())


def test_enumerate_signatures_matches_partition_oracle():
    for g in range(2, 9):
        for n_max in (1, 2, 3, 4, 5, 2 * g - 2, 2 * g + 3):
            got = [s.orders for s in sg.enumerate_signatures(g, n_max)]
            assert len(got) == len(set(got))
            assert set(got) == _brute_partitions(2 * g - 2, n_max)
            assert got == sorted(got, reverse=True)


def test_enumerated_signatures_are_their_derived_form():
    for g in range(1, 13):
        for n_max in sorted({1, 2, 4, max(2 * g - 2, 1)}):
            for s in sg.enumerate_signatures(g, n_max):
                d = sg.derive(s.orders)
                assert s == d and hash(s) == hash(d), s
                assert (s.genus, s.ell, s.weights_a) == (d.genus, d.ell, d.weights_a)


def test_enumerate_signatures_examples():
    assert [s.orders for s in sg.enumerate_signatures(2, 2)] == [(2,), (1, 1)]
    got = [s.orders for s in sg.enumerate_signatures(3, 4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
