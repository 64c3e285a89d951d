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
one lookup; and contains.  One fraction-free step, _reduce, is the only
elimination: _echelon runs it on each incoming row, _rref back-substitutes
with it, and membership reduces the vector by the stored rows with it; rank
reads the rows off the map by pivot and eliminates only those pivoting
outside the positions.  The conductor, whose one proof is the closure's
certificate, the gap sequence and delta are cached properties of
BranchAlgebra, the one mutable class, decided at their first read; the
Gorenstein test sum(c_i) = 2*delta of algebra_summary and the condition
(G3) read them.  A check's verdict is its notes: validate_G_conditions
returns Checks(notes), one note per failure, and all_pass reads
``not notes``.  The records are named tuples, immutable, equal to the
plain tuple of their fields and copied with ``_replace``.
"""

from __future__ import annotations

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
# Rows are lists or tuples of Python ints.  Elimination is one fraction-free
# step, r <- p[c]*r - r[c]*p in _reduce, and a row is stored primitive: the
# gcd of its entries is 1 and its leading entry is positive.  Rationals are
# scaled to integers once, where they enter (_integral).


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


def _reduce(row, pivots) -> list[int]:
    """The row after one fraction-free step r <- p[c]*r - r[c]*p by each
    (pivot column c, row p) of pivots, in order: a nonzero multiple of the
    row minus a combination of the pivot rows.

    Precondition: each pivot row is zero in the pivot columns of the rows
    before it.  A step then clears its own column and leaves the earlier
    ones zero, so the result is zero at every pivot column; it is zero
    exactly when the row lies in the span of the pivot rows.
    """
    for col, p in pivots:
        f = row[col]
        if f:
            c = p[col]
            row = [c * x - f * y for x, y in zip(row, p)]
    return row


def _echelon(rows, width: int) -> list[tuple[int, list[int]]]:
    """(pivot column, primitive row) pairs spanning rows of the given width;
    each row is zero in the pivot columns of the rows found before it.  The
    rows, any iterable, are read one at a time and only until there are
    width pivots: the rest lie in their span."""
    pivots = []
    rows = iter(rows)
    while len(pivots) < width and (r := next(rows, None)) is not None:
        r = _reduce(r, pivots)
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
    # the rows after idx are already zero in each other's pivot columns
    for idx in range(len(pivots) - 2, -1, -1):
        col, r = pivots[idx]
        pivots[idx] = (col, _primitive(_reduce(r, pivots[idx + 1 :]), col))
    return {col: tuple(r) for col, r in pivots}


@cache
def _identity(s: int) -> Piece:
    """The identity map of width s, one dict shared by every caller: never mutated."""
    return {p: tuple(int(j == p) for j in range(s)) for p in range(s)}


# ----------------------------------------------------------- the algebra


class BranchAlgebra:
    """The ring spanned by the generators; graded_basis holds R_k so far, k in S."""

    def __init__(self, signature: Signature, generators: tuple[Generator, ...],
                 graded_basis: dict[int, Piece]):
        self.signature = signature
        self.generators = generators  # see generator()
        self.graded_basis = graded_basis  # the _rref map of R_k over slots(k)
        self.stable_from: int | None = None  # R_k is full for every k >= stable_from
        self._full_from = 1  # one past the last piece not full
        self._slots: dict[int, tuple[int, ...]] = {}

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

        Past D = 2*A*T + A - 1, where every certificate certified_conductor
        uses has fired, a piece is computed only while fewer than
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
        """Membership of generator-style terms: the vector reduced by R_k's
        pivot rows (_reduce) is zero exactly when it lies in R_k."""
        k, coeffs = generator(self.signature, terms)  # every branch it touches is a slot of k
        return not any(_reduce([coeffs.get(i, 0) for i in self.slots(k)], self.basis(k).items()))

    @cached_property
    def gap_full(self) -> tuple[int, ...]:
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
        a, top = self.signature.weights_a, self.signature.orders[0] + 2
        start, _ = _certificate_bound(self.signature)
        self._close_to(start)
        alphas = [0] * (top + 1)
        for k, piece in self.graded_basis.items():  # ascending
            if k > start:
                break
            sl = self.slots(k)
            if not k or len(piece) == len(sl):
                continue
            exps = [k // a[i] for i in sl]
            for j in set(exps):
                if j <= top:
                    below = [pos for pos, e in enumerate(exps) if e < j]
                    level = [pos for pos, e in enumerate(exps) if e == j]
                    alphas[j] += len(level) - self.rank(k, below + level) + self.rank(k, below)
        return tuple(alphas[1:])

    @cached_property
    def certified_conductor(self) -> tuple[int, ...] | None:
        """The per-branch conductor exponents c_i, proven by the closure's
        certificate, or None when there is none by degree D = 2*A*T + A - 1,
        where A = max_i a_i and T = max(m)+2.  c_i is the least exponent with
        t_i^e in R for every e >= c_i.

        Proof that None means some c_i exceeds T: if every c_i <= T, each slot
        i of a degree k >= A*T has exponent k/a_i >= T >= c_i, so every R_k
        with k >= A*T is full.  The full run through D then starts at some
        K <= A*T, so M < K + A (see _close_to) and its stop fires by
        K + M - 1 < 2K + A - 1 <= D.  Since W >= A*T, D <= 2W + A - 1.  A
        certificate that only a read past D finds starts above A*T, since
        one starting at K <= A*T fires by D as above; it is not used, so the
        answer, None included, is the same whether a far read came before
        this first read or comes after it.

        Once certified, t_i^e lies in R whenever e*a_i >= stable_from, so c_i
        is found walking down from ceil(stable_from / a_i) with has_power.
        The walk may reach e = 0: t_i^0 = e_i lies in R only when n = 1, so a
        smooth branch k[t] has c = 0.
        """
        start, last = _certificate_bound(self.signature)
        self._close_to(last)
        if self.stable_from is None or self.stable_from > start:
            return None
        conductor = []
        for i, a in enumerate(self.signature.weights_a):
            c = -(-self.stable_from // a)
            while c > 0 and self.has_power(i, c - 1):
                c -= 1
            conductor.append(c)
        return tuple(conductor)

    @cached_property
    def delta(self) -> int | None:
        """delta = dim Rbar/R, or None unless the conductor is certified with
        every c_i <= T = max(m)+2.

        delta counts the order-0 piece, n - 1, plus the gaps at every order
        j >= 1.  Order j has no gap once j >= every c_i, so past T no order
        has one and the gap sequence, summed over orders 1..max(m)+1, is the
        rest.  Without that bound the sum need not be delta, which is
        infinite on a ring that is not cofinite.
        """
        conductor, top = self.certified_conductor, self.signature.orders[0] + 2
        if conductor is None or max(conductor) > top:
            return None
        return self.signature.n - 1 + sum(gap_sequence(self))


def _certificate_bound(sig: Signature) -> tuple[int, int]:
    """(A*T, D = 2*A*T + A - 1) with A = max_i a_i and T = max(m)+2 (see
    BranchAlgebra.certified_conductor)."""
    reach = max(sig.weights_a)
    start = reach * (sig.orders[0] + 2)
    return start, 2 * start + reach - 1


def window(sig: Signature) -> int:
    """W = max(2*ell, A*T): levels 1, 2 and the conductor window."""
    return max(2 * sig.ell, _certificate_bound(sig)[0])


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


def gap_sequence(alg: BranchAlgebra) -> tuple[int, ...]:
    """Gap sequence (alpha_1, ..., alpha_{max(m)+1}) of the singular point."""
    return alg.gap_full[: alg.signature.orders[0] + 1]


class SectionSpace(NamedTuple):
    dimension: int


def section_space(alg: BranchAlgebra, divisor) -> SectionSpace:
    """Sections bounded by the divisor: pole order at most c_i on branch i.

    Degree-k elements contribute when their branch-i component vanishes
    wherever k/a_i exceeds c_i; a negative c_i excludes its branch in
    every degree, including the constants.
    """
    sig = alg.signature
    a = sig.weights_a
    if len(divisor) != sig.n:
        raise ValueError(f"divisor needs {sig.n} coefficient{'s' * (sig.n != 1)}, "
                         f"got {len(divisor)}")
    k_top = max((a[i] * c for i, c in enumerate(divisor) if c >= 0), default=-1)
    return SectionSpace(sum(
        alg.dim(k) - alg.rank(k, [pos for pos, i in enumerate(alg.slots(k))
                                  if k > a[i] * divisor[i]])
        for k in alg.degrees(k_top)))


def spin_parity(alg: BranchAlgebra) -> str | None:
    """Parity of the half-canonical sections, or None unless every order is even."""
    orders = alg.signature.orders
    if any(v % 2 for v in orders):
        return None
    half = tuple(v // 2 for v in orders)
    return "odd" if section_space(alg, half).dimension % 2 else "even"


# --------------------------------------------------------- validation


class Checks(NamedTuple):
    """The verdict of a family of checks: one note per failure, in check order."""

    notes: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return not self.notes


def validate_G_conditions(alg: BranchAlgebra, dualizing_units=None) -> Checks:
    """Check (G1) and (G3)-(G5) of a dualizing-graded branch ring; (G2),
    homogeneity, holds by construction in close().  A condition fails
    exactly when it adds a note: (G3) names one missing pure power and a
    failing (G4) at least the consecutive pair that failed."""
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

    # (G3), a certified c with every c_i <= max(m)+2, holds exactly when delta
    # is known; the note names a pure power past max(m)+2 that R misses, from
    # the last piece up to D that is not full when there is no certificate: it
    # lies at k >= A*T (see certified_conductor)
    if alg.delta is None:
        conductor = alg.certified_conductor
        if conductor is None:
            a = sig.weights_a
            _, last = _certificate_bound(sig)
            k = next(k for k in reversed(alg.degrees(last)) if alg.dim(k) < len(alg.slots(k)))
            missing = next((i, k // a[i]) for i in alg.slots(k) if not alg.has_power(i, k // a[i]))
        else:
            top = sig.orders[0] + 2
            missing = next((i, c - 1) for i, c in enumerate(conductor) if c > top)
        notes.append(f"pure power t{missing[0] + 1}^{missing[1]} missing from the ring")

    # (G4): with x_i = t_i^(m_i+1) e_i, all in R_ell, the pair (i, j) is
    # u_i*u_j*(x_i/u_i - x_j/u_j), a combination of the consecutive pairs
    # (k, k+1) with i <= k < j: all pairs lie in R iff those n - 1 do, and
    # only a failure scans every pair, so the notes name each failing one
    def pair_in_ring(i, j):
        return alg.contains([(i, sig.orders[i] + 1, units[j]),
                             (j, sig.orders[j] + 1, -units[i])])

    if not all(pair_in_ring(i, i + 1) for i in range(n - 1)):
        notes += [f"dualizing pair test fails for branches ({i}, {j})"
                  for i in range(n) for j in range(i + 1, n) if not pair_in_ring(i, j)]

    full = alg.gap_full
    maxm = sig.orders[0]
    if full[maxm] != 1 or any(full[maxm + 1 :]):
        notes.append(f"gap tail is {full[maxm:]}, expected (1, 0, ...)")

    return Checks(tuple(notes))


# ------------------------------------------------------------- JSON I/O


# the most characters of a rational string from outside the program, and the
# largest size of its exponent: its Fraction, about 2,000 digits a side at most,
# is built at once and prints, as do the thresholds made from it, under
# Python's 4,300-digit bound on int-to-text conversion
RATIONAL_BOUND = 1000


def parse_rational(text: str) -> Fraction:
    """The Fraction of a rational string from outside the program: an
    integer, p/q or a decimal such as "0.375" or "375e-3", as Fraction reads
    it.  Text of more than RATIONAL_BOUND characters, or whose exponent is
    beyond RATIONAL_BOUND in size, is an OverflowError raised before
    Fraction would build 10**e; text Fraction refuses is its ValueError or
    ZeroDivisionError."""
    exponent = text.lower().partition("e")[2]
    try:
        big = len(text) > RATIONAL_BOUND or abs(int(exponent or 0)) > RATIONAL_BOUND
    except ValueError:  # no exponent Fraction reads: it refuses the text
        big = False
    if big:
        raise OverflowError(f"exceeds the bound on rational strings: at most {RATIONAL_BOUND} "
                            f"characters and an exponent of at most {RATIONAL_BOUND} in size")
    return Fraction(text)


_JSON_TYPES = {"an object": dict, "a list": list, "an integer": int, "a string": str,
               "a rational string": (int, str)}


def _field(value, kind: str, name: str, *args):
    """value (for a rational string, parse_rational's Fraction of its text) if
    it has the JSON kind, else a ValueError naming the field name.format(*args)."""
    if not isinstance(value, bool) and isinstance(value, _JSON_TYPES[kind]):
        try:
            return parse_rational(str(value)) if kind == "a rational string" else value
        except OverflowError as exc:
            raise ValueError(f"{name.format(*args)} {exc}") from None
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

    delta and genus = delta - n + 1 are left out when alg.delta is None.
    The conductor is the one certified_conductor proves; a ring with no
    certificate reports c_i = max(m)+3 on every branch, a value never
    proven, and is not Gorenstein.  R is Gorenstein exactly when len(R/c)
    = delta (Serre, Groupes algebriques et corps de classes, IV 11).
    Lengths add along the normalization Rbar ⊇ R ⊇ c, and Rbar/c =
    prod_i k[t_i]/(t_i^c_i) has length sum(c_i), so len(R/c) = sum(c_i) -
    delta and the test reads sum(c_i) = 2*delta.
    """
    sig, delta = alg.signature, alg.delta
    conductor = alg.certified_conductor or (sig.orders[0] + 3,) * sig.n
    finite = {} if delta is None else {"delta": delta, "genus": delta - sig.n + 1}
    return {
        **finite,
        "gap_sequence": list(gap_sequence(alg)),
        "conductor": list(conductor),
        "gorenstein": delta is not None and sum(conductor) == 2 * delta,
    }
