"""Graded subalgebras of a product of polynomial branches.

The ambient ring is a product of n polynomial rings, one per branch,
with the degree of an exponent-e monomial on branch i set to e*a_i.
A homogeneous element of degree k is stored as its coefficient vector
over the branches that can carry degree k (those with a_i | k), and
multiplication is componentwise, so closing a generating set under
products reduces to degree-by-degree linear algebra.  That algebra is
exact and runs on Python ints alone.  A generator is given as
(branch, exponent, coefficient) terms and stored only as its degree and
integer coefficients: generator() validates the terms and scales the
rational coefficients once to an integer vector on the same line, as it
does for membership vectors; dualizing units are scaled the same way.
Only the degrees that carry a slot, S = union of the a_i*N, are walked,
computed and stored, each piece as its _rref map {pivot column: row}, built
from a lazy product stream that is not read once the piece is full; R_k = 0
off S reads as the empty map.  The walk jumps over the degrees with no
slot, so its work follows the stored pieces, not ell.  Past the
certificate bound D, a ring with no certificate is refused once it holds
CLOSURE_PIECE_BOUND pieces.
Everything downstream reads the graded bases through one reader:
degrees(top), the slot-carrying degrees; rank(k, positions); has_power,
one lookup; and contains.  Membership and rank read rows off the map by
pivot and never eliminate them again: only the vector, or the rows
pivoting outside the positions, is reduced.  The conductor has one
proof, the closure's certificate (_conductor), kept once found; the
Gorenstein test sum(c_i) = 2*delta and the condition (G3) both read it.
BranchAlgebra is the one mutable class; the reports are named tuples,
immutable, equal to the plain tuple of their fields and copied with
``_replace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from typing import NamedTuple

from .signature import Signature, derive


Generator = tuple[int, dict[int, int]]  # (degree, {branch: coefficient})
Piece = dict[int, tuple[int, ...]]  # {pivot column: row}, see _rref

# a piece past the certificate bound D (see _certificate_bound) is refused
# once the closure holds this many: only a ring with no certificate gets there
CLOSURE_PIECE_BOUND = 10**5


def generator(sig: Signature, terms) -> Generator:
    """Validate (branch, exponent, coefficient) terms of one homogeneous element.

    Returns its degree and {branch: coefficient} with the rational
    coefficients scaled once by _integral: a nonzero multiple spans the
    same line, so the ring and every membership answer are unchanged.
    """
    coeffs = {}
    degree = None
    for branch, exp, coeff in terms:
        coeff = coeff if isinstance(coeff, (int, Fraction)) else Fraction(coeff)
        if coeff == 0:
            continue
        if not 0 <= branch < sig.n:
            raise ValueError(f"branch {branch} out of range for {sig}")
        if exp < 1:
            raise ValueError(f"exponent {exp} must be at least 1")
        if branch in coeffs:
            raise ValueError(f"branch {branch} appears twice in one generator")
        d = exp * sig.weights_a[branch]
        if degree is None:
            degree = d
        elif d != degree:
            raise ValueError(
                f"non-homogeneous generator: degree {d} on branch {branch}, "
                f"expected {degree}"
            )
        coeffs[branch] = coeff
    if degree is None:
        raise ValueError("generator has no nonzero terms")
    return degree, dict(zip(coeffs, _integral(coeffs.values())))


# ------------------------------------------------- exact linear algebra
#
# Rows are lists or tuples of Python ints.  Elimination is fraction-free,
# r <- p[c]*r - r[c]*p, and a row is stored primitive: the gcd of its
# entries is 1 and its leading entry is positive.  Rationals are scaled
# to integers once, where they enter (_integral).


def _integral(values) -> list[int]:
    """A vector of ints and Fractions times the lcm of its denominators: an
    integer vector on the same line."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values]


def _primitive(r: list[int], lead: int) -> list[int]:
    g = gcd(*r)
    if r[lead] < 0:
        g = -g
    return r if g == 1 else [x // g for x in r]


def _echelon(rows, width: int) -> list[tuple[int, list[int]]]:
    """(pivot column, primitive row) pairs spanning rows of the given width;
    each row is zero in the pivot columns of the rows found before it.  The
    rows, any iterable, are read one at a time and only until there are
    width pivots: the rest lie in their span."""
    pivots = []
    rows = iter(rows)
    while len(pivots) < width and (r := next(rows, None)) is not None:
        for col, p in pivots:
            f = r[col]
            if f:
                c = p[col]
                r = [c * x - f * y for x, y in zip(r, p)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is not None:
            pivots.append((lead, _primitive(r, lead)))
    return pivots


def _rref(rows, width: int) -> Piece:
    """Canonical integer echelon basis of the span of integer rows of the
    width, as {pivot column: row} in pivot order; rows are read as by _echelon.

    Each row is primitive with a positive pivot, its first nonzero entry,
    and zero in every other pivot column, so it is the unique such
    multiple of the matching reduced row echelon row: the identity map
    when the span is everything.
    """
    pivots = _echelon(rows, width)
    if len(pivots) == width:
        return _identity(width)
    pivots.sort()  # pivot columns are distinct
    for idx in range(len(pivots) - 2, -1, -1):
        col, r = pivots[idx]
        for col2, r2 in pivots[idx + 1 :]:
            f = r[col2]
            if f:
                c = r2[col2]
                r = [c * x - f * y for x, y in zip(r, r2)]
        pivots[idx] = (col, _primitive(r, col))
    return {col: tuple(r) for col, r in pivots}


@cache
def _identity(s: int) -> Piece:
    """The identity map of width s, one dict shared by every caller: never mutated."""
    return {p: tuple(int(j == p) for j in range(s)) for p in range(s)}


# ----------------------------------------------------------- the algebra


@dataclass(eq=False)
class BranchAlgebra:
    """The ring spanned by the generators; graded_basis holds R_k so far, k in S."""

    signature: Signature
    generators: tuple[Generator, ...]  # see generator()
    graded_basis: dict[int, Piece]  # the _rref map of R_k over slots(k)
    stable_from: int | None = None  # R_k is full for every k >= stable_from
    _full_from: int = field(default=1, repr=False)  # one past the last piece not full
    _gap_full: tuple[int, ...] | None = field(default=None, repr=False)
    _conductor: tuple[int, ...] | None = field(default=None, repr=False)  # once certified
    _slots: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)

    @property
    def degree_cap(self) -> int:
        """The last degree stored; every slot-carrying degree up to it is computed."""
        return next(reversed(self.graded_basis))

    def slots(self, k: int) -> tuple[int, ...]:
        """Branches that carry degree k; they depend on k mod ell only."""
        r = k % self.signature.ell
        if r not in self._slots:
            a = self.signature.weights_a
            self._slots[r] = tuple(i for i in range(self.signature.n) if r % a[i] == 0)
        return self._slots[r]

    @cached_property
    def _span(self) -> int | None:
        """M = max_i d_i, where d_i is the least degree of a generator with a
        nonzero coefficient on branch i; None when some branch has none."""
        least = {}
        for d, coeffs in self.generators:
            for i in coeffs:
                least[i] = min(d, least.get(i, d))
        return max(least.values()) if len(least) == self.signature.n else None

    def _close_to(self, top: int) -> None:
        """Compute R_k up to top at the degrees that carry a slot, stopping for
        good once certified; a degree with no slot is neither computed nor
        stored, and its piece R_k = 0 counts as full.

        The closure tracks K = _full_from, one past the last piece that is
        not full (1 before any: degree 0 never starts a run), and stops at
        the first degree past K + M - 1, slot or not, recording
        stable_from = K; M = _span is the largest of the least generator
        degrees d_i touching each branch i.  The walk steps from a
        slot-carrying degree to the next degree and jumps from one with no
        slot to the least next multiple of any a_i.  K moves only at a
        computed piece, so a jump over [k, next) passes the stop exactly
        when next > K + M - 1: the walk goes on only while it has not, and
        one test after it places the stop.  Stop, K and stored pieces are
        those of a walk through every degree, while the work and the slots()
        cache follow the pieces, not ell.  A call with top <= degree_cap
        computes and certifies nothing.

        Past D = 2*A*T + A - 1, where every certificate _conductor uses has
        fired, a piece is computed only while fewer than
        CLOSURE_PIECE_BOUND are stored: a ring with no certificate read far
        out is a ValueError, not one stored piece per degree read.

        Proof that R_k is full for every k >= K once every R_k with
        K <= k <= K + M - 1 is, by induction on k.  For k >= K + M and a
        slot i of k, take a generator of degree d_i <= M with coefficient
        c_i != 0 on branch i.  a_i divides d_i, so k - d_i >= K carries
        slot i; R_{k-d_i} is full and holds e_i*t_i^((k-d_i)/a_i), and that
        times the generator is c_i*e_i*t_i^(k/a_i).  So every slot of R_k
        lies in it.  (This is the numerical-semigroup fact that m
        consecutive elements from the conductor on, m the multiplicity,
        give every larger integer.)

        Full pieces on [K, K + A), A = max_i a_i, force M < K + A: a
        product has a nonzero coefficient on branch i only if each factor
        has, so R_k is zero on slot i for 0 < k < d_i, and [K, K + a_i)
        holds a positive multiple of a_i.  A ring with an untouched branch
        (no M) is not cofinite and never gets a certificate, so every
        slot-carrying degree read is computed, up to the piece bound.
        """
        if self.stable_from is not None or top <= self.degree_cap:
            return
        basis, a, span = self.graded_basis, self.signature.weights_a, self._span
        _, last = _certificate_bound(self.signature)
        k = self.degree_cap + 1
        while k <= top and (span is None or k < self._full_from + span):
            sl = self.slots(k)
            if not sl:
                k = min(-(-k // x) * x for x in a)
                continue
            if k > last and len(basis) >= CLOSURE_PIECE_BOUND:
                raise ValueError(f"{self.signature} has no certificate by degree D = {last}; "
                                 f"closing it to degree {k} would store more than "
                                 f"{CLOSURE_PIECE_BOUND} pieces")
            basis[k] = _rref(self._products(k, sl), len(sl))
            if len(basis[k]) < len(sl):
                self._full_from = k + 1
            k += 1
        if span is not None and self._full_from + span <= min(k, top + 1):
            self.stable_from = self._full_from

    def _products(self, k: int, sl: tuple[int, ...]):
        """Each generator times each row of R_{k-d}, on the slots sl of k: a
        stream that _rref stops reading once R_k is full."""
        for d, coeffs in self.generators:
            if d > k:
                continue
            # a branch the generator touches carries degree d, so it is
            # a slot of k - d whenever it is a slot of k
            prev = self.slots(k - d)
            picks = [(prev.index(i), coeffs[i]) if i in coeffs else (0, 0) for i in sl]
            for v in self.graded_basis.get(k - d, {}).values():
                w = [c * v[pos] for pos, c in picks]
                if any(w):
                    yield w

    def _stable(self, k: int) -> bool:
        if self.stable_from is None and k > self.degree_cap:
            self._close_to(k)
        return self.stable_from is not None and k >= self.stable_from

    def basis(self, k: int) -> Piece:
        """R_k over slots(k) as its _rref map {pivot column: row}; the
        identity map once stable."""
        if not self._stable(k):
            return self.graded_basis.get(k, {})
        return _identity(len(self.slots(k)))

    def dim(self, k: int) -> int:
        return len(self.basis(k))

    def degrees(self, top: int) -> list[int]:
        """The degrees in [0, top] that carry a slot, ascending; R_k = 0 at the others."""
        return sorted(set().union(*(range(0, top + 1, a) for a in self.signature.weights_a)))

    def rank(self, k: int, positions) -> int:
        """Rank of R_k on the given (distinct) slot positions P, read at the pivots.

        A full piece has rank len(P).  Otherwise every row is zero in the
        other rows' pivot columns, so on P the rows pivoting in P are zero
        on P ∩ pivots except at their own nonzero pivot entry, and the
        other rows are zero on all of P ∩ pivots.  The restricted matrix is
        block-triangular with an invertible diagonal block: its rank is
        |P ∩ pivots| plus the rank of the rows pivoting outside P on
        P ∖ pivots, and only that remainder is eliminated.  A zero piece
        (no pivots) and P ⊆ pivots (an empty remainder) are cases of it.
        """
        pivots = self.basis(k)
        if len(pivots) == len(self.slots(k)):
            return len(positions)
        inside = set(positions)
        free = [j for j in positions if j not in pivots]
        rest = ([r[j] for j in free] for col, r in pivots.items() if col not in inside)
        return len(positions) - len(free) + len(_echelon(rest, len(free)))

    def has_power(self, branch: int, exp: int) -> bool:
        """Whether t_branch^exp is in R, one lookup: a vector of the span is
        fixed by its pivot entries, so the unit vector e_j lies in it
        exactly when column j is a pivot whose row is e_j."""
        k = exp * self.signature.weights_a[branch]
        sl = self.slots(k)
        j = sl.index(branch)
        return self.basis(k).get(j) == _identity(len(sl))[j]

    def contains(self, terms) -> bool:
        """Membership of generator-style terms, read off R_k's pivot map.

        A full piece holds everything.  Otherwise the vector v is reduced
        once, fraction-free, v <- c*v - v[j]*r, by the row r = pivots[j] at
        each pivot column j where v is nonzero, c = r[j].  Every row is zero
        in the other pivot columns, so a step clears column j and only
        scales v's other pivot entries: the remainder is zero at every
        pivot, and only its entries on the other (free) columns are
        computed.  It is a nonzero multiple of v minus a combination of
        rows, and a vector of the span is fixed by its pivot entries, so v
        lies in R_k exactly when the remainder is zero on the free columns.
        """
        k, coeffs = generator(self.signature, terms)  # every branch it touches is a slot of k
        pivots, sl = self.basis(k), self.slots(k)
        if len(pivots) == len(sl):
            return True
        free = [j for j in range(len(sl)) if j not in pivots]
        v = {sl.index(i): x for i, x in coeffs.items()}
        rest = [v.get(j, 0) for j in free]
        scale = 1  # the product of the c's so far: v's pivot entries carry it
        for j, x in v.items():
            if j in pivots:
                r = pivots[j]
                c, f = r[j], scale * x
                rest = [c * y - f * r[col] for y, col in zip(rest, free)]
                scale *= c
        return not any(rest)


def window(sig: Signature) -> int:
    """W = max(2*ell, max_i a_i*(max(m)+2)): levels 1, 2 and the conductor window."""
    return max(2 * sig.ell, max(a * (sig.orders[0] + 2) for a in sig.weights_a))


def close(sig: Signature, generators_in) -> BranchAlgebra:
    """Span all products of the generators, each a list of generator() terms,
    up to window(sig), or to a certified conductor first (see
    BranchAlgebra._close_to); a read of any later degree extends the same
    closure."""
    gens = tuple(generator(sig, terms) for terms in generators_in)
    alg = BranchAlgebra(sig, gens, {0: {0: (1,) * sig.n}})
    alg._close_to(window(sig))
    return alg


def graded_dims(alg: BranchAlgebra, top: int) -> tuple[int, ...]:
    return tuple(alg.dim(k) for k in range(top + 1))


# --------------------------------------------------- singularity numbers


def _gap_sequence_full(alg: BranchAlgebra) -> tuple[int, ...]:
    """Codimensions alpha_j of the leading-coefficient spaces at orders
    j = 1..T, T = max(m)+2.

    Order j reads R_k at each k = j*a_i: the order-j coefficients of the
    elements vanishing below order j have rank rank(below + level) -
    rank(below), where below and level are the slots of k with exponent
    k/a_i < j and = j, and alpha_j sums |level| minus that rank.  A full
    piece adds 0, so one pass reads only the stored pieces at
    0 < k <= A*T (A = max_i a_i) that are not full, at each exponent
    j <= T of their slots.  The closure is first taken to A*T, which after
    close() computes nothing: close() has computed every degree up to
    A*T <= W, or certified that every later piece is full.
    """
    if alg._gap_full is not None:
        return alg._gap_full
    sig = alg.signature
    a, top = sig.weights_a, sig.orders[0] + 2
    start, _ = _certificate_bound(sig)
    alg._close_to(start)
    alphas = [0] * (top + 1)
    for k, piece in alg.graded_basis.items():  # ascending
        if k > start:
            break
        sl = alg.slots(k)
        if not k or len(piece) == len(sl):
            continue
        exps = [k // a[i] for i in sl]
        for j in set(exps):
            if j <= top:
                below = [pos for pos, e in enumerate(exps) if e < j]
                level = [pos for pos, e in enumerate(exps) if e == j]
                alphas[j] += len(level) - alg.rank(k, below + level) + alg.rank(k, below)
    alg._gap_full = tuple(alphas[1:])
    return alg._gap_full


def gap_sequence(alg: BranchAlgebra) -> tuple[int, ...]:
    """Gap sequence (alpha_1, ..., alpha_{max(m)+1}) of the singular point."""
    return _gap_sequence_full(alg)[: alg.signature.orders[0] + 1]


def delta_and_genus(alg: BranchAlgebra) -> tuple[int, int]:
    """(delta, arithmetic genus): delta counts the order-0 piece too.

    The gap sequence is summed over orders 1..max(m)+1 only.  Order j has
    no gap once j >= every c_i, so the sum is delta exactly when every c_i
    is at most max(m)+2: when ``conductor_and_gorenstein(alg)`` reports
    ``conductor_bound_ok``.  A ring that is not cofinite has infinite delta
    yet still gets a finite sum here.
    """
    g = sum(gap_sequence(alg))
    delta = alg.signature.n - 1 + g
    return delta, g


def _certificate_bound(sig: Signature) -> tuple[int, int]:
    """(A*T, D = 2*A*T + A - 1) with A = max_i a_i and T = max(m)+2 (see _conductor)."""
    reach = max(sig.weights_a)
    start = reach * (sig.orders[0] + 2)
    return start, 2 * start + reach - 1


def _conductor(alg: BranchAlgebra) -> tuple[int, ...] | None:
    """The per-branch conductor exponents c_i, proven by the closure's
    certificate, or None when there is none by degree D = 2*A*T + A - 1,
    where A = max_i a_i and T = max(m)+2.  c_i is the least exponent with
    t_i^e in R for every e >= c_i.

    Proof that None means some c_i exceeds T: if every c_i <= T, each slot
    i of a degree k >= A*T has exponent k/a_i >= T >= c_i, so every R_k
    with k >= A*T is full.  The full run through D then starts at some
    K <= A*T, so M < K + A (see BranchAlgebra._close_to) and its stop
    fires by K + M - 1 < 2K + A - 1 <= D.  Since W >= A*T,
    D <= 2W + A - 1.  A certificate with stable_from > A*T may be found
    only by a later read past D: it is not used, so the answer does not
    depend on what was read before.

    Once certified, t_i^e lies in R whenever e*a_i >= stable_from, so c_i
    is found walking down from ceil(stable_from / a_i) with has_power,
    once per algebra: the certified exponents are kept.  The walk may
    reach e = 0: t_i^0 = e_i lies in R only when n = 1, so a smooth branch
    k[t] has c = 0.  Without a certificate the closure has already run to
    D, so a second call computes no piece.
    """
    if alg._conductor is not None:
        return alg._conductor
    start, last = _certificate_bound(alg.signature)
    alg._close_to(last)
    if alg.stable_from is None or alg.stable_from > start:
        return None
    conductor = []
    for i, a in enumerate(alg.signature.weights_a):
        c = -(-alg.stable_from // a)
        while c > 0 and alg.has_power(i, c - 1):
            c -= 1
        conductor.append(c)
    alg._conductor = tuple(conductor)
    return alg._conductor


class ConductorReport(NamedTuple):
    conductor: tuple[int, ...]  # per-branch exponents c_i
    quotient_length: int | None  # len(R/c) = sum(c_i) - delta, once delta is known
    gorenstein: bool
    conductor_bound_ok: bool  # certified, and every c_i <= max(m)+2
    delta: int


def conductor_and_gorenstein(alg: BranchAlgebra) -> ConductorReport:
    """Per-branch conductor exponents and the length test len(R/c) = delta.

    R is Gorenstein exactly when len(R/c) = delta (Serre, Groupes
    algebriques et corps de classes, IV 11), so the conductor is the one
    _conductor proves.  Lengths add along the normalization Rbar ⊇ R ⊇ c,
    and Rbar/c = prod_i k[t_i]/(t_i^c_i) has length sum(c_i), so
    len(R/c) = sum(c_i) - delta and the test reads sum(c_i) = 2*delta.
    conductor_bound_ok says the conductor is proven and every c_i is at
    most max(m)+2, which is also when the summed gap sequence is delta
    (see delta_and_genus); otherwise quotient_length is None.  A ring with
    no certificate reports c_i = max(m)+3 on every branch, a value never
    proven, and is not Gorenstein.
    """
    sig = alg.signature
    top = sig.orders[0] + 2
    conductor = _conductor(alg)
    bound_ok = conductor is not None and max(conductor) <= top
    if conductor is None:
        conductor = (top + 1,) * sig.n
    delta, _ = delta_and_genus(alg)
    length = sum(conductor) - delta if bound_ok else None
    return ConductorReport(
        conductor=conductor,
        quotient_length=length,
        gorenstein=bound_ok and length == delta,
        conductor_bound_ok=bound_ok,
        delta=delta,
    )


class SectionSpace(NamedTuple):
    dimension: int
    by_degree: tuple[tuple[int, int], ...]  # (degree, dim) with dim > 0


def section_space(alg: BranchAlgebra, divisor) -> SectionSpace:
    """Sections bounded by the divisor: pole order at most c_i on branch i.

    Degree-k elements contribute when their branch-i component vanishes
    wherever k/a_i exceeds c_i; a negative c_i excludes its branch in
    every degree, including the constants.
    """
    sig = alg.signature
    a = sig.weights_a
    if len(divisor) != sig.n:
        raise ValueError(f"divisor needs {sig.n} coefficients, got {len(divisor)}")
    k_top = max((a[i] * c for i, c in enumerate(divisor) if c >= 0), default=-1)
    per = []
    for k in alg.degrees(k_top):
        sl = alg.slots(k)
        excluded = [pos for pos, i in enumerate(sl) if k > a[i] * divisor[i]]
        d = alg.dim(k) - alg.rank(k, excluded)
        if d:
            per.append((k, d))
    return SectionSpace(sum(d for _, d in per), tuple(per))


def spin_parity(alg: BranchAlgebra) -> str | None:
    """Parity of the half-canonical sections, or None unless every order is even."""
    orders = alg.signature.orders
    if any(v % 2 for v in orders):
        return None
    half = tuple(v // 2 for v in orders)
    return "odd" if section_space(alg, half).dimension % 2 else "even"


# --------------------------------------------------------- validation


class GConditionReport(NamedTuple):
    no_bare_parameters: bool  # (G1)
    conductor_bound: bool  # (G3)
    dualizing_pairs: bool  # (G4)
    gap_tail: bool  # (G5)
    notes: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.no_bare_parameters
            and self.conductor_bound
            and self.dualizing_pairs
            and self.gap_tail
        )


def validate_G_conditions(alg: BranchAlgebra, dualizing_units=None) -> GConditionReport:
    """Check (G1) and (G3)-(G5) of a dualizing-graded branch ring; (G2),
    homogeneity, holds by construction in close()."""
    sig = alg.signature
    n = sig.n
    if dualizing_units is None:
        units = [1] * n
    else:
        # scaling every unit by one factor keeps each pair on its line
        units = _integral(Fraction(u) for u in dualizing_units)
        if len(units) != n or not all(units):
            raise ValueError("need one nonzero unit per branch")

    notes = [f"bare parameter on branch {i} lies in the ring"
             for i in range(n) if alg.has_power(i, 1)]
    g1 = not notes

    # (G3) is conductor_bound_ok; the note names a pure power past max(m)+2
    # that R misses, from the last piece up to D that is not full when there
    # is no certificate: that piece lies at k >= A*T (see _conductor)
    top = sig.orders[0] + 2
    conductor = _conductor(alg)
    if conductor is None:
        a = sig.weights_a
        _, last = _certificate_bound(sig)
        k = next(k for k in reversed(alg.degrees(last)) if alg.dim(k) < len(alg.slots(k)))
        missing = next((i, k // a[i]) for i in alg.slots(k) if not alg.has_power(i, k // a[i]))
    else:
        missing = next(((i, c - 1) for i, c in enumerate(conductor) if c > top), None)
    g3 = missing is None
    if not g3:
        notes.append(f"pure power t{missing[0] + 1}^{missing[1]} missing from the ring")

    # (G4): with x_i = t_i^(m_i+1) e_i, all in R_ell, the pair (i, j) is
    # u_i*u_j*(x_i/u_i - x_j/u_j), a combination of the consecutive pairs
    # (k, k+1) with i <= k < j: all pairs lie in R iff those n - 1 do, and
    # only a failure scans every pair, so the notes name each failing one
    def pair_in_ring(i, j):
        return alg.contains([(i, sig.orders[i] + 1, units[j]),
                             (j, sig.orders[j] + 1, -units[i])])

    g4 = all(pair_in_ring(i, i + 1) for i in range(n - 1))
    if not g4:
        notes += [f"dualizing pair test fails for branches ({i}, {j})"
                  for i in range(n) for j in range(i + 1, n) if not pair_in_ring(i, j)]

    full = _gap_sequence_full(alg)
    maxm = sig.orders[0]
    g5 = full[maxm] == 1 and all(v == 0 for v in full[maxm + 1 :])
    if not g5:
        notes.append(f"gap tail is {full[maxm:]}, expected (1, 0, ...)")

    return GConditionReport(
        no_bare_parameters=g1,
        conductor_bound=g3,
        dualizing_pairs=g4,
        gap_tail=g5,
        notes=tuple(notes),
    )


# ------------------------------------------------------------- JSON I/O


_JSON_TYPES = {"an object": dict, "a list": list, "an integer": int, "a string": str,
               "a rational string": (int, str)}


def _field(value, kind: str, name: str, *args):
    """value (a Fraction for a rational string) if it has the JSON kind, else
    a ValueError naming the field name.format(*args)."""
    if not isinstance(value, bool) and isinstance(value, _JSON_TYPES[kind]):
        try:
            return Fraction(value) if kind == "a rational string" else value
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{name.format(*args)} must be {kind}, got {value!r}")


def _entries(doc: dict, key: str, kind: str, at: str = "") -> list:
    """The entries of the JSON list doc[key], each checked to have the kind."""
    name = at + key
    return [_field(v, kind, "{}[{}]", name, i) for i, v in enumerate(_field(doc[key], "a list", name))]


def generators_from_json(doc: dict):
    """(signature, ((name, terms), ...), dualizing units) of a JSON algebra document.

    Each generator lists ``monomials`` of the form {"branch", "exp",
    "coeff"}; branch indices are 0-based; coefficients and units are
    rational strings such as "1", "-1", or "3/2".  Units default to one
    per branch.  A field of the wrong JSON type is a ValueError naming
    it; derive() and generator() check the ranges.
    """
    _field(doc, "an object", "the algebra document")
    sig = derive(_entries(doc, "signature", "an integer"))
    gens = []
    at = "generators[{}].monomials[{}]."
    for j, gd in enumerate(_entries(doc, "generators", "an object")):
        terms = tuple(
            (_field(m["branch"], "an integer", at + "branch", j, t),
             _field(m["exp"], "an integer", at + "exp", j, t),
             _field(m["coeff"], "a rational string", at + "coeff", j, t))
            for t, m in enumerate(_entries(gd, "monomials", "an object", f"generators[{j}]."))
        )
        gens.append((gd.get("name", ""), terms))
    units = _entries({"dualizing_units": ["1"] * sig.n, **doc}, "dualizing_units",
                     "a rational string")
    if len(units) != sig.n:
        raise ValueError("dualizing_units length must match the number of branches")
    return sig, tuple(gens), tuple(units)


def algebra_summary(alg: BranchAlgebra) -> dict:
    """Plain-JSON summary of the computed singularity invariants.

    delta and genus are left out unless the conductor is certified: without
    that, the summed gap sequence need not be delta, which is infinite on a
    ring that is not cofinite.
    """
    report = conductor_and_gorenstein(alg)
    finite = {}
    if report.conductor_bound_ok:
        finite = dict(zip(("delta", "genus"), delta_and_genus(alg)))
    return {
        **finite,
        "gap_sequence": list(gap_sequence(alg)),
        "conductor": list(report.conductor),
        "gorenstein": report.gorenstein,
    }
