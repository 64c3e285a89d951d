"""Numerical semigroups and Weierstrass gap sequences.

A numerical semigroup is a cofinite additive submonoid of the naturals.
Everything here is exact integer combinatorics on bitmasks: a semigroup
stores its elements in [0, F] as one integer whose bit k is set when k is
an element (every k > F is one).  Closure, sumsets and minimal generators
are shift-ors of such masks, and counting elements is a popcount.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import gcd

_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits, ascending."""
    return tuple([i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"])


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]  # minimal generating set, ascending
    gaps: tuple[int, ...]  # ascending; empty for the full monoid
    frobenius: int  # largest gap, -1 if there are none
    _mask: int = field(repr=False)  # bit k set iff k in [0, F] is an element

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    @property
    def elements_below_conductor(self) -> tuple[int, ...]:
        return _bits(self._mask)

    def contains(self, k: int) -> bool:
        if k < 0:
            return False
        if k > self.frobenius:
            return True
        return bool(self._mask >> k & 1)

    def __contains__(self, k: int) -> bool:
        return self.contains(k)

    @property
    def symmetric(self) -> bool:
        return self.frobenius == 2 * self.genus - 1

    @property
    def hyperelliptic(self) -> bool:
        """True when 2 is an element (genus >= 2 gap sequences 1,3,5,...)."""
        return self.contains(2)

    @property
    def spin(self) -> str | None:
        """Spin parity: that of the number of elements in [0, g-1].

        None when hyperelliptic, where the stratum has no spin components.
        """
        if self.hyperelliptic:
            return None
        return "odd" if self.count_upto(self.genus - 1) % 2 else "even"

    def count_upto(self, k: int) -> int:
        """Number of elements in [0, k]."""
        if k < 0:
            return 0
        if k >= self.frobenius:
            return k - self.genus + 1
        return (self._mask & ((1 << (k + 1)) - 1)).bit_count()

    def prefix_counts(self) -> list[int]:
        """Entry k is the number of elements in [0, k], for k = 0..F.

        One pass over the binary digits of the mask, bits 0..F in order.
        """
        digits = bin(self._mask | 1 << (self.frobenius + 1))[:2:-1]
        return list(accumulate(digits.encode().translate(_DIGITS)))

    def first_elements(self, count: int) -> tuple[int, ...]:
        """The `count` smallest elements, starting from 0."""
        if count <= 0:
            return ()
        small = self.elements_below_conductor[:count]
        return small + tuple(range(self.conductor, self.conductor + count - len(small)))

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.generators) + ">"


def _finish(mask: int, frobenius: int) -> NumericalSemigroup:
    """Package the element mask on [0, F] (higher bits are ignored)."""
    if frobenius == -1:
        return NumericalSemigroup((1,), (), -1, 0)
    mask &= (1 << (frobenius + 1)) - 1
    gaps = _bits(~mask & ((1 << (frobenius + 1)) - 2))
    rest = mask >> 1 | 1 << frobenius  # bit i: is i+1 an element (F+1 is)
    mult = (rest & -rest).bit_length()  # smallest positive element
    # minimal generators: positive elements that are not sums of two
    # positive elements; all lie at or below F + multiplicity.  A sum
    # a + b <= F + mult with a <= b has 2a <= F + mult, so the smaller
    # summand runs over the elements up to (F + mult) // 2 only.
    pos = (mask & ~1) | (((1 << mult) - 1) << (frobenius + 1))
    half = (frobenius + mult) // 2
    sums = 0
    for e in _bits(pos & ((1 << (half + 1)) - 1)):
        sums |= pos << e
    return NumericalSemigroup(_bits(pos & ~sums), gaps, frobenius, mask)


def from_generators(gens) -> NumericalSemigroup:
    """Additive closure of the given generators together with 0."""
    gset = sorted(set(gens))
    if not gset:
        raise ValueError("need at least one generator")
    if any(g < 1 for g in gset):
        raise ValueError("generators must be positive")
    d = 0
    for g in gset:
        d = gcd(d, g)
    if d != 1:
        raise ValueError(f"gcd of generators is {d}, not 1: not cofinite")
    lo, hi = gset[0], gset[-1]
    bound = (lo - 1) * (hi - 1)  # > F, since F <= (lo-1)(hi-1)-1 (0 when lo = 1)
    full = (1 << (bound + 1)) - 1
    mask = 1
    for g in gset:
        # multiples of g by doubling: after the shift by 2^j g the mask
        # holds every sum with up to 2^(j+1)-1 copies of g
        step = g
        while step <= bound:
            mask |= (mask << step) & full
            step <<= 1
    return _finish(mask, (full & ~mask).bit_length() - 1)


def gap_sum(H: NumericalSemigroup) -> int:
    """Sum of the gaps; the log weight sum of a one-point monomial model."""
    return sum(H.gaps)


def planar_gap_sum_formula(p: int, q: int) -> int:
    """Closed form (p-1)(q-1)(2pq-p-q-1)/12 for the gap sum of <p,q>."""
    if p < 2 or q < 2:
        raise ValueError("both parameters must be at least 2")
    if gcd(p, q) != 1:
        raise ValueError(f"{p} and {q} are not coprime")
    num = (p - 1) * (q - 1) * (2 * p * q - p - q - 1)
    assert num % 12 == 0
    return num // 12


def enumerate_symmetric(g: int) -> list[NumericalSemigroup]:
    """All numerical semigroups of genus g with Frobenius number 2g-1.

    Symmetry forces exactly one of k, F-k (F = 2g-1) to be an element for
    each 0 <= k <= F, so the search decides the pairs {k, F-k} for
    k = 1..g-1 depth-first, after {0, F}.  Every decided pair holds one
    element and one gap, so closure among decided positions fails exactly
    when three decided elements a, b, c (0 allowed) sum to F: a decided
    gap a+b pairs with the decided element c = F-a-b, and conversely
    a+b = F-c is the decided gap paired with c.  The walk carries the
    mask of decided elements and the mask of their pairwise sums (an
    element with itself and with 0 included).  Deciding element e sets
    ``elems |= 1 << e`` and then ``sums |= elems << e``; every new triple
    contains e, so the node is pruned iff bit F-e of ``sums`` is set.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    F = 2 * g - 1
    found: list[NumericalSemigroup] = []

    def walk(k: int, elems: int, sums: int) -> None:
        if k == g:
            found.append(_finish(elems, F))
            return
        for e in (F - k, k):
            new = elems | 1 << e
            new_sums = sums | new << e
            if not new_sums >> (F - e) & 1:
                walk(k + 1, new, new_sums)

    walk(1, 1, 1)  # 0 is an element and 0 + 0 = 0
    found.sort(key=lambda H: H.gaps)
    return found


@dataclass(frozen=True)
class ElementSumRecord:
    """A semigroup passing the element-sum bound, with its slack."""

    semigroup: NumericalSemigroup
    element_sum: int  # sum of the g smallest elements
    slack: int  # (g^2 - 1) - element_sum; 0 means the bound is attained


def element_sum_bound_filter(g: int, semigroups) -> list[ElementSumRecord]:
    """Keep semigroups whose g smallest elements sum to at most g^2 - 1."""
    out = []
    for H in semigroups:
        if H.genus != g:
            raise ValueError(f"expected genus {g}, got {H.genus} for {H}")
        total = sum(H.first_elements(g))
        slack = g * g - 1 - total
        if slack >= 0:
            out.append(ElementSumRecord(H, total, slack))
    return out


def tautological_coefficient(H: NumericalSemigroup) -> int:
    """3*(gap sum) - g^2 + g; positive for every numerical semigroup."""
    g = H.genus
    return 3 * gap_sum(H) - g * g + g
