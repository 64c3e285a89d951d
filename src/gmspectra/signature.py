r"""Combinatorics of zero-order tuples.

A tuple ``mu = (m_1, ..., m_n)`` of non-negative integers with even sum
determines a genus ``g = (sum(mu) + 2) / 2``, the level ``ell = lcm(m_i + 1)``
and per-branch scaling weights ``a_i = ell / (m_i + 1)``.  Everything in this
module is derived from that data alone: ceiling ladders ``l_{lam,i} =
ceil(lam / a_i)``, their summation identity, parity counts, and exhaustive
enumeration of tuples of fixed genus.
"""

from dataclasses import dataclass
from math import gcd, lcm


@dataclass(frozen=True)
class Signature:
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

    def __iter__(self):
        return iter(self.orders)

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
    if any(m < 0 for m in orders):
        raise ValueError("zero orders must be non-negative")
    total = sum(orders)
    if total % 2:
        raise ValueError("sum of zero orders must be even")
    g = total // 2 + 1
    ell = lcm(*(m + 1 for m in orders))
    a = tuple(ell // (m + 1) for m in orders)
    return Signature(orders=orders, genus=g, ell=ell, weights_a=a)


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


def ladder_columns(sig: Signature, lam_lo: int, lam_hi: int):
    """``(starts, ends, columns)``: the ladder's runs in ``[lam_lo, lam_hi]``,
    the one place a run's bounds are set.  A run starts at ``lam_lo`` or a
    ``k*a_i + 1`` and ends one level before the next start, the last at
    ``lam_hi``; per branch, ``columns`` lists ``ceil(lam/a_i)`` at the starts."""
    if lam_lo < 0:
        raise ValueError("ladder level must be non-negative")
    steps = (range(-(-lam_lo // a) * a + 1, lam_hi + 1, a) for a in sig.weights_a)
    starts = sorted({lam_lo}.union(*steps))
    ends = [lam - 1 for lam in starts[1:]] + [lam_hi]
    return starts, ends, [[-(-lam // a) for lam in starts] for a in sig.weights_a]


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


def _partitions(total, max_part, max_len):
    # non-increasing tuples of positive integers
    if total == 0:
        yield ()
        return
    if max_len == 0:
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first, max_len - 1):
            yield (first,) + rest


def enumerate_signatures(g: int, n_max: int):
    """All non-increasing positive order tuples of genus ``g`` with at most
    ``n_max`` entries, sorted lexicographically descending; genus one has
    none."""
    if g < 1 or n_max < 1:
        raise ValueError("need g >= 1 and n_max >= 1")
    total = 2 * g - 2
    out = sorted(_partitions(total, total, n_max), reverse=True)
    return [derive(t) for t in out if t]
