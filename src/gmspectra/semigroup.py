"""Numerical semigroups and Weierstrass gap sequences.

A numerical semigroup is a cofinite additive submonoid of the naturals.
Everything here is exact integer combinatorics on bitmasks: a semigroup
stores its Frobenius number F, its elements in [0, F] as one integer whose
bit k is set when k is an element (every k > F is one), its genus and its
element sum.  It is a named tuple, built whole by its two constructors:
the symmetric walk passes each leaf its genus and the element sum it
carried down, so its leaves build no gap tuple and count no bits, and the
same sum bounds the walk when asked; :func:`from_generators` reads both off
the Apery set it builds the mask from.  The gaps and minimal generators are
derived on each read.  Sumsets and minimal generators are shift-ors of
masks, and counting elements is a popcount.  ElementSumRecord is a named
tuple too: immutable, equal to the plain tuple of its fields, and copied
with ``_replace``.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from typing import Iterator, NamedTuple

_DIGITS = bytes.maketrans(b"01", b"\x00\x01")

# symmetric semigroups grow about 1.3x per genus (53,629 at g = 40)
SEMIGROUP_GENUS_BOUND = 40
# entries of an Apery list (the smallest generator) and bits of an element
# mask (the Frobenius number) are refused past this, before either is built
SEMIGROUP_SIZE_BOUND = 10**6
# steps of an Apery walk, lo * (min(k, lo) - 1) for k generators, are
# refused past this before the walk starts
APERY_WORK_BOUND = 10**6


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits, ascending."""
    return tuple([i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"])


class NumericalSemigroup(NamedTuple):
    frobenius: int  # largest gap, -1 if there are none
    mask: int  # bit k set iff k in [0, F] is an element; no higher bits
    genus: int  # the number of gaps
    element_sum: int  # sum of the g smallest elements

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    @property
    def gaps(self) -> tuple[int, ...]:
        """Ascending; empty for the full monoid."""
        return _bits(~self.mask & ((1 << self.conductor) - 1))

    @property
    def generators(self) -> tuple[int, ...]:
        """The minimal generating set, ascending.

        The minimal generators are the positive elements that are not sums
        of two positive elements; all lie at or below F + multiplicity.  A
        sum a + b <= F + mult with a <= b has 2a <= F + mult, so the smaller
        summand runs over the elements up to (F + mult) // 2 only.
        """
        F, mask = self.frobenius, self.mask
        if F == -1:
            return (1,)
        rest = mask >> 1 | 1 << F  # bit i: is i+1 an element (F+1 is)
        mult = (rest & -rest).bit_length()  # smallest positive element
        pos = (mask & ~1) | (((1 << mult) - 1) << (F + 1))
        sums = 0
        for e in _bits(pos & ((1 << ((F + mult) // 2 + 1)) - 1)):
            sums |= pos << e
        return _bits(pos & ~sums)

    def contains(self, k: int) -> bool:
        if k < 0:
            return False
        if k > self.frobenius:
            return True
        return bool(self.mask >> k & 1)

    def __contains__(self, k: int) -> bool:  # a tuple's own would test the fields
        return self.contains(k)

    @property
    def symmetric(self) -> bool:
        return self.frobenius == 2 * self.genus - 1

    @property
    def hyperelliptic(self) -> bool:
        """True when 2 is an element (genus >= 2 gap sequences 1,3,5,...).

        2 is an element past F, and below it when bit 2 of the mask is set.
        """
        return self.frobenius < 2 or self.mask & 4 != 0

    @property
    def spin(self) -> str | None:
        """Spin parity: that of the number of elements in [0, g-1].

        None when hyperelliptic, where the stratum has no spin components.
        Every gap is at most F, so g <= F for g >= 1 and [0, g-1] lies in
        the mask: the count is one masked popcount (0 when g = 0).
        """
        if self.hyperelliptic:
            return None
        return "odd" if (self.mask & ((1 << self.genus) - 1)).bit_count() % 2 else "even"

    def prefix_counts(self) -> list[int]:
        """Entry k is the number of elements in [0, k], for k = 0..F.

        One pass over the binary digits of the mask, bits 0..F in order.
        """
        digits = bin(self.mask | 1 << self.conductor)[:2:-1]
        return list(accumulate(digits.encode().translate(_DIGITS)))

    def __str__(self) -> str:
        return "<" + ",".join(str(g) for g in self.generators) + ">"


def generator_set(gens) -> list[int]:
    """The distinct generators, ascending; a ValueError unless they are
    positive with gcd 1 (the span is cofinite only then)."""
    gset = sorted(set(gens))
    if not gset:
        raise ValueError("need at least one generator")
    if any(g < 1 for g in gset):
        raise ValueError("generators must be positive")
    d = gcd(*gset)
    if d != 1:
        raise ValueError(f"gcd of generators is {d}, not 1: not cofinite")
    return gset


def _apery(gset: list[int]) -> list[int]:
    """Entry r is the least element congruent to r mod lo = gset[0].

    Boecker and Liptak's round-robin walk: the generators join one at a
    time.  Once h has joined, the least elements along each cycle
    r -> r + h (mod lo) of the classes obey w[r + h] <= w[r] + h, and the
    cycle's smallest entry cannot improve, so one pass around the cycle
    from it settles the cycle.  A generator h whose class already holds
    an element w <= h is h = w + t*lo, in the span of the smaller ones, and
    is skipped in one step; so at most lo - 1 generators are walked, and
    the walk costs O(lo * min(k, lo)) steps for k generators, whatever
    the Frobenius number is.  An lo above SEMIGROUP_SIZE_BOUND, then a
    walk of more than APERY_WORK_BOUND steps, is a ValueError before the
    list is built.
    """
    lo = gset[0]
    if lo > SEMIGROUP_SIZE_BOUND:
        raise ValueError(f"smallest generator {lo} beyond the semigroup size bound "
                         f"{SEMIGROUP_SIZE_BOUND}")
    work = lo * (min(len(gset), lo) - 1)
    if work > APERY_WORK_BOUND:
        raise ValueError(f"Apery walk of {work} steps ({len(gset)} generators, smallest "
                         f"{lo}) beyond the work bound {APERY_WORK_BOUND}")
    least: list[int | None] = [0] + [None] * (lo - 1)
    for h in gset[1:]:
        w = least[h % lo]
        if w is not None and w <= h:
            continue
        d = gcd(lo, h)
        for p in range(d):
            reached = [r for r in range(p, lo, d) if least[r] is not None]
            if not reached:
                continue
            r = min(reached, key=least.__getitem__)
            w = least[r]
            for _ in range(lo // d - 1):
                r, w = (r + h) % lo, w + h
                if least[r] is None or w < least[r]:
                    least[r] = w
                else:
                    w = least[r]
    return least  # type: ignore[return-value]


def _apery_gaps(lo: int, least: list[int]) -> tuple[int, int]:
    """The genus and the gap sum of the semigroup with Apery list ``least``.

    The gaps of class r mod lo are r, r + lo, ..., w_r - lo below the least
    element w_r of the class: k_r = (w_r - r) / lo of them (Selmer's
    formula), summing to k_r*r + lo*k_r(k_r - 1)/2.
    """
    genus = total = 0
    for r, w in enumerate(least):
        k = (w - r) // lo
        genus += k
        total += k * r + lo * k * (k - 1) // 2
    return genus, total


def generated_genus(gens) -> int:
    """Genus of the semigroup the generators span, without its element mask."""
    gset = generator_set(gens)
    return _apery_gaps(gset[0], _apery(gset))[0]


def from_generators(gens) -> NumericalSemigroup:
    """Additive closure of the given generators together with 0.

    Read off the Apery set of the smallest generator lo: k is an element iff
    k >= w_(k mod lo), and F = max(w) - lo.  Each class is one shifted comb
    of bits lo apart, so the mask costs O(lo) shifts of F + 1 bits, and a
    generator in the span of the smaller ones (every one above F among
    them) costs one step, never F bits.  An F above SEMIGROUP_SIZE_BOUND is
    a ValueError before the mask is built.

    The genus g and the gap sum come off the same list in O(lo) steps, and
    with them the sum of the g smallest elements.  Each k in [0, F] has at
    most one of k, F - k in H, or F = k + (F - k) would be an element; so
    the F + 1 - g elements of [0, F] number at most (F + 1) / 2, i.e.
    F <= 2g - 1, and they are the F + 1 - g smallest elements, at most g of
    them.  Their sum is F(F+1)/2 minus the gap sum.  The other
    r = 2g - 1 - F >= 0 of the g smallest are C, C+1, ..., C+r-1 from the
    conductor C = F + 1 on, summing to r*C + r(r-1)/2.
    """
    gset = generator_set(gens)
    lo = gset[0]
    least = _apery(gset)
    F = max(least) - lo
    if F > SEMIGROUP_SIZE_BOUND:
        raise ValueError(f"Frobenius number {F} beyond the semigroup size bound "
                         f"{SEMIGROUP_SIZE_BOUND}")
    comb = ((1 << lo * (F // lo + 1)) - 1) // ((1 << lo) - 1)  # bits 0, lo, 2lo, ...
    mask = 0
    for w in least:
        mask |= comb << w
    g, gap_total = _apery_gaps(lo, least)
    C = F + 1
    r = 2 * g - C
    return NumericalSemigroup(F, mask & ((1 << C) - 1), g,
                              F * C // 2 - gap_total + r * C + r * (r - 1) // 2)


def gap_sum(H: NumericalSemigroup) -> int:
    """Sum of the gaps; the log weight sum of a one-point monomial model."""
    return sum(H.gaps)


def enumerate_symmetric(g: int, max_element_sum: int | None = None) -> list[NumericalSemigroup]:
    """The semigroups :func:`walk_symmetric` finds, as a list in its order."""
    return list(walk_symmetric(g, max_element_sum))


def walk_symmetric(g: int, max_element_sum: int | None = None) -> Iterator[NumericalSemigroup]:
    """The numerical semigroups of genus g with Frobenius number 2g-1, lazily.

    With ``max_element_sum``, only those whose g smallest elements sum to
    at most that bound.

    Symmetry forces exactly one of k, F-k (F = 2g-1) to be an element for
    each 0 <= k <= F, so the search decides the pairs {k, F-k} for
    k = 1..g-1 depth-first, F-k before k, after {0, F}.  Each node carries
    the mask ``elems`` of decided elements and the mask ``sums`` of their
    pairwise sums (an element with itself and with 0 included), and their
    reflections in [0, F]: ``relems`` has bit F-x for each decided element
    x, and ``rsums`` bit F-s for each of those sums s <= F.  Deciding
    element e sets ``elems |= 1 << e``, ``sums |= elems << e``,
    ``relems |= 1 << (F-e)`` and then ``rsums |= relems >> e`` (bit
    F-(x+e) for each decided x, the shift dropping the sums past F).

    A child is kept iff ``sums & rsums`` is 0: no y has both y and F-y in
    the sumset.  No leaf is lost.  Sums of elements are elements, and a
    symmetric semigroup holds exactly one of y and F-y, so a node whose
    sumset holds both has no leaf below it.  And every leaf kept is a
    semigroup: a sum a+b <= F of two of its elements that were a gap would
    pair with the element F-a-b, putting both a+b and F-(a+b) in the
    sumset.  The test's case y = e is the triple test, bit F-e of ``sums``
    (e = e + 0 is a sum, so that bit says a + b + e = F for decided a, b);
    the full test drops a node as soon as both y and F-y are sums, where
    the triple test waits for the child that decides the pair {y, F-y}.

    The walk yields the semigroups in ascending order of their gap tuples,
    with no sort.  Every leaf has g gaps, F and one of each pair.  Take two
    leaves that first differ at pair k: the one walked first took F-k, so
    k is its gap, and the other took k as an element.  Every gap below k
    comes from a pair j < k (F-j >= g > k for every pair j <= g-1), where
    the two agree, so both gap tuples share the same gaps below k; next
    comes k in the first and a larger gap in the second.  So the first
    leaf has the smaller gap tuple.

    Each leaf is built with its genus g and its element sum.  Its elements
    in [0, F] are 0 and the one chosen from each pair, g in all, so they
    are its g smallest elements: the walk carries their running ``total``,
    one add per node, and the leaf takes it as its ``element_sum``.

    The bound prunes whole subtrees.  A node decided up to pair k with
    running total T has only leaves of sum at least T + (k+1) + ... + (g-1),
    since each later pair j adds j or F-j > j.  So a node can reach a leaf
    within the bound B only if T <= cap[k] = B - sum_{j=k+1}^{g-1} j, and
    the walk keeps exactly the nodes that pass: the root (T = 0) when
    cap[0] >= 0, and a child that takes F-k when its total passes cap[k].
    A child that takes k needs no test: its parent passed cap[k-1] =
    cap[k] - k.  Every leaf within the bound passes at each of its nodes
    (its own sum is one of the completions), so none is lost, and each
    leaf kept has T <= cap[g-1] = B.  Without a bound the cap is g*F, above
    every sum of g elements below F, so the one test never prunes.

    The genus is capped at ``SEMIGROUP_GENUS_BOUND`` at the call, before
    the walk starts: the leaves grow about 1.3x per genus.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    if g > SEMIGROUP_GENUS_BOUND:
        raise ValueError(f"genus {g} beyond the semigroup search bound {SEMIGROUP_GENUS_BOUND}")
    F = 2 * g - 1
    bound = g * F if max_element_sum is None else max_element_sum
    return _walk(g, F, [bound - (g - 1 - k) * (g + k) // 2 for k in range(g)])


def _walk(g: int, F: int, cap: list[int]) -> Iterator[NumericalSemigroup]:
    # nodes (k, elems, sums, relems, rsums, total) on a stack, the F-k child
    # pushed last so that it is walked first; 0 is an element, 0 + 0 = 0
    # and both reflect to F
    stack = [(1, 1, 1, 1 << F, 1 << F, 0)] if cap[0] >= 0 else []
    pop, push = stack.pop, stack.append
    while stack:
        k, elems, sums, relems, rsums, total = pop()
        if k == g:
            yield NumericalSemigroup(F, elems, g, total)
            continue
        e = F - k
        new = elems | 1 << k
        new_sums = sums | new << k
        new_rel = relems | 1 << e
        new_rsums = rsums | new_rel >> k
        if not new_sums & new_rsums:
            push((k + 1, new, new_sums, new_rel, new_rsums, total + k))
        if total + e <= cap[k]:
            new = elems | 1 << e
            new_sums = sums | new << e
            new_rel = relems | 1 << k
            new_rsums = rsums | new_rel >> e
            if not new_sums & new_rsums:
                push((k + 1, new, new_sums, new_rel, new_rsums, total + e))


class ElementSumRecord(NamedTuple):
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
        total = H.element_sum
        slack = g * g - 1 - total
        if slack >= 0:
            out.append(ElementSumRecord(H, total, slack))
    return out
