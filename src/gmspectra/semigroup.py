"""Numerical semigroups and Weierstrass gap sequences.

A numerical semigroup is a cofinite additive submonoid of the naturals.
Everything here is exact integer combinatorics: membership tables are
materialized up to twice the Frobenius number, which is enough to decide
closure, symmetry, and minimal generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd


@dataclass(frozen=True)
class NumericalSemigroup:
    generators: tuple[int, ...]  # minimal generating set, ascending
    gaps: tuple[int, ...]  # ascending; empty for the full monoid
    frobenius: int  # largest gap, -1 if there are none
    _members: tuple[bool, ...] = field(repr=False)  # table on [0, 2F+2]

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    @property
    def elements_below_conductor(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.conductor) if self._members[k])

    def contains(self, k: int) -> bool:
        if k < 0:
            return False
        if k >= len(self._members):
            return True  # beyond the table means beyond the Frobenius number
        return self._members[k]

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
        return sum(1 for j in range(k + 1) if self._members[j])

    def first_elements(self, count: int) -> tuple[int, ...]:
        """The `count` smallest elements, starting from 0."""
        out = []
        k = 0
        while len(out) < count:
            if self.contains(k):
                out.append(k)
            k += 1
        return tuple(out)

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.generators) + ">"


def _finish(members: list[bool], frobenius: int) -> NumericalSemigroup:
    """Package a membership table (valid through index >= 2F+2)."""
    if frobenius == -1:
        return NumericalSemigroup((1,), (), -1, (True,))
    table = tuple(members[: 2 * frobenius + 3])
    gaps = tuple(k for k in range(1, frobenius + 1) if not table[k])
    mult = next(k for k in range(1, len(table)) if table[k])
    # minimal generators: positive elements that are not sums of two
    # positive elements; all lie at or below F + multiplicity
    mingens = []
    for e in range(1, min(frobenius + mult, 2 * frobenius + 2) + 1):
        if not table[e]:
            continue
        if any(table[a] and table[e - a] for a in range(mult, e - mult + 1)):
            continue
        mingens.append(e)
    return NumericalSemigroup(tuple(mingens), gaps, frobenius, table)


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
    if gset[0] == 1:
        return _finish([], -1)
    lo, hi = gset[0], gset[-1]
    bound = 2 * (lo - 1) * (hi - 1) + 2  # >= 2F+2 since F <= (lo-1)(hi-1)-1
    members = [False] * (bound + 1)
    members[0] = True
    for k in range(1, bound + 1):
        members[k] = any(members[k - g] for g in gset if g <= k)
    frob = max(k for k in range(bound + 1) if not members[k])
    return _finish(members, frob)


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

    Symmetry forces exactly one of k, 2g-1-k to be an element for each
    0 <= k <= 2g-1, so the search walks gap-set choices for k = 1..g-1
    depth-first, pruning assignments that already violate additive
    closure among decided positions.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    F = 2 * g - 1
    mem: list[bool | None] = [None] * (F + 1)
    mem[0] = True
    mem[F] = False
    found: list[NumericalSemigroup] = []

    def closed_so_far() -> bool:
        for a in range(1, F + 1):
            if mem[a] is not True:
                continue
            for b in range(a, F - a + 1):
                if mem[b] is True and mem[a + b] is False:
                    return False
        return True

    def walk(k: int) -> None:
        if k == g:
            table = [bool(v) for v in mem] + [True] * (F + 2)
            found.append(_finish(table, F))
            return
        for inside in (False, True):
            mem[k] = inside
            mem[F - k] = not inside
            if closed_so_far():
                walk(k + 1)
        mem[k] = None
        mem[F - k] = None

    walk(1)
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
