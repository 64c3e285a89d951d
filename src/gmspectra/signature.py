r"""Combinatorics of zero-order tuples.

A tuple ``mu = (m_1, ..., m_n)`` of non-negative integers with even sum
determines a genus ``g = (sum(mu) + 2) / 2``, the level ``ell = lcm(m_i + 1)``
and per-branch scaling weights ``a_i = ell / (m_i + 1)``.  Everything in this
module is derived from that data alone: ceiling ladders ``l_{lam,i} =
ceil(lam / a_i)``, their summation identity, parity counts, and exhaustive
enumeration of tuples of fixed genus.
"""

from collections import Counter
from itertools import chain
from math import gcd, lcm
from typing import NamedTuple


class Signature(NamedTuple):
    """Zero-order tuple with its derived scaling data.

    Orders are stored non-increasing; use :func:`derive` to build one.
    """

    orders: tuple
    genus: int
    ell: int
    weights_a: tuple

    @property
    def n(self):
        return len(self.orders)

    def __str__(self):
        return "(" + ",".join(str(m) for m in self.orders) + ")"


def derive(orders) -> Signature:
    """Build a :class:`Signature` from a sequence of zero orders.

    Orders are sorted non-increasing.  Raises ``ValueError`` on an empty
    tuple, a negative entry, or an odd total.
    """
    orders = tuple(sorted(orders, reverse=True))
    if not orders:
        raise ValueError("signature must have at least one entry")
    if orders[-1] < 0:
        raise ValueError("zero orders must be non-negative")
    if sum(orders) % 2:
        raise ValueError("sum of zero orders must be even")
    return _signature(orders)


def _signature(orders: tuple) -> Signature:
    # orders already non-increasing, non-negative and of even sum
    ell = lcm(*(m + 1 for m in orders))
    return Signature(orders, sum(orders) // 2 + 1, ell, tuple(ell // (m + 1) for m in orders))


def ladder(sig: Signature, lam: int):
    """Tuple ``(ceil(lam/a_1), ..., ceil(lam/a_n))`` for ``lam >= 0``."""
    if lam < 0:
        raise ValueError("ladder level must be non-negative")
    return tuple([-(-lam // a) for a in sig.weights_a])


def ladder_sum_identity(sig: Signature, i: int) -> int:
    """Sum of ladder values of branch ``i`` over one full period.

    Returns ``sum(l_{lam,i} for lam in 1..ell)``, which equals
    ``(m_i + 2) * ell / 2``.
    """
    a = sig.weights_a[i]
    return sum(-(-lam // a) for lam in range(1, sig.ell + 1))


def parity_count(k1: int, k2: int) -> int:
    """Number of even values of ``ceil(lam/k2) + ceil(lam/k1)``, ``1 <= lam <= k1*k2``.

    Requires coprime ``k1 > k2 >= 1``.  Equals ``(k1*k2 + 1) / 2`` when both
    are odd and ``k1*k2 / 2`` when exactly one is odd.
    """
    if k1 <= k2 or k2 < 1:
        raise ValueError("need k1 > k2 >= 1")
    if gcd(k1, k2) != 1:
        raise ValueError("k1 and k2 must be coprime")
    return sum(
        1
        for lam in range(1, k1 * k2 + 1)
        if (-(-lam // k2) - (-lam // k1)) % 2 == 0
    )


def ladder_runs(sig: Signature, lam_hi: int):
    """``(starts, ends, steps)``: the ladder's runs in ``[0, lam_hi]``, the
    one place a run's bounds are set.  A run starts at 0 or a ``k*a_i + 1``
    and ends one level before the next start, the last at ``lam_hi``.
    ``steps`` counts, per run, the branches whose ladder steps at its start,
    the first entry being 0, the ladder sum at 0; so ``accumulate(steps)``
    is ``sum_i ceil(lam/a_i)`` at the starts."""
    stepped = Counter(chain.from_iterable(range(1, lam_hi + 1, a) for a in sig.weights_a))
    later = sorted(stepped)
    ends = [lam - 1 for lam in later] + [lam_hi]
    return [0, *later], ends, [0, *map(stepped.__getitem__, later)]


def n_plus(sig: Signature, lam_lo: int, lam_hi: int) -> int:
    """Count levels ``lam in [lam_lo, lam_hi]`` with ``sum_i (l_{lam,i} - 1)`` even.

    ``ceil(lam/a)`` grows by one from ``lam - 1`` to ``lam`` exactly when
    ``lam - 1`` is a multiple of ``a``, so the sum grows by the number of
    branches stepping at ``lam``, each at its ``k*a_i + 1``, and its parity
    flips exactly at the levels where an odd number of branches step: the
    symmetric difference of the branches' step sets in
    ``(lam_lo, lam_hi]``.  Between consecutive bounds of
    ``[lam_lo, f_1, ..., f_r, lam_hi + 1]``, the flips ``f_j`` sorted, the
    parity is constant and alternates from run to run, starting from its
    value at ``lam_lo``.  So the even runs are every other bound pair,
    from the first pair when the parity at ``lam_lo`` is even and from the
    second otherwise, and the count is the alternating sum of their
    bounds.  The cost grows with the steps in the range,
    ``(lam_hi - lam_lo) * sum_i 1/a_i``, not with its length.
    """
    if lam_lo > lam_hi:
        return 0
    if lam_lo < 0:
        raise ValueError("ladder level must be non-negative")
    flips: set[int] = set()
    parity = -sig.n
    for a in sig.weights_a:
        k = -(-lam_lo // a)
        flips.symmetric_difference_update(range(k * a + 1, lam_hi + 1, a))
        parity += k
    bounds = [lam_lo, *sorted(flips), lam_hi + 1][parity % 2:]
    return sum(bounds[1::2]) - sum(bounds[:-1:2])


def order_tuples(g: int, n_max: int):
    """Every non-increasing positive order tuple of genus ``g`` with at most
    ``n_max`` entries, one at a time and lexicographically descending: the
    partitions of 2g-2 into at most ``n_max`` parts.  Genus one has none.
    Nothing is derived from a tuple here, so a reader can settle it before
    any :class:`Signature` is built; ``g < 1`` or ``n_max < 1`` is a
    ValueError at the first read.

    The next tuple keeps the longest prefix it can: it lowers by one the
    rightmost part whose suffix, less the lowered part, still fits in the
    places left, each at most the lowered part, and fills those greedily.
    """
    if g < 1 or n_max < 1:
        raise ValueError("need g >= 1 and n_max >= 1")
    parts = [2 * g - 2]
    while parts[0]:  # at genus one the one part is 0: no positive tuple
        yield tuple(parts)
        rest = 0
        for i in range(len(parts) - 1, -1, -1):
            v = parts[i] - 1
            rest += parts[i]
            if v and rest - v <= v * (n_max - 1 - i):
                q, r = divmod(rest - v, v)
                parts[i:] = [v] * (q + 1) + ([r] if r else [])
                break
        else:
            return


def enumerate_signatures(g: int, n_max: int):
    """The signatures of :func:`order_tuples`, in its order, as a list."""
    return list(map(_signature, order_tuples(g, n_max)))
