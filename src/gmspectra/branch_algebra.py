"""Graded subalgebras of a product of polynomial branches.

The ambient ring is a product of n polynomial rings, one per branch,
with the degree of an exponent-e monomial on branch i set to e*a_i.
A homogeneous element of degree k is stored as its coefficient vector
over the branches that can carry degree k (those with a_i | k), and
multiplication is componentwise, so closing a generating set under
products reduces to degree-by-degree linear algebra.  That algebra is
exact and runs on Python ints alone: rational generator coefficients,
membership vectors and dualizing units are scaled once to integer
vectors on the same line, and each graded piece is stored as integer
echelon rows.  Everything downstream (delta, gap sequence, conductor,
section spaces) reads off the graded bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .signature import Signature, derive


@dataclass(frozen=True)
class MonomialVector:
    """A homogeneous combination of one monomial per branch."""

    terms: tuple[tuple[int, int, Fraction], ...]  # (branch, exponent, coefficient)
    degree: int
    name: str = ""

    def __str__(self) -> str:
        parts = []
        for b, e, c in self.terms:
            mono = f"t{b + 1}" + (f"^{e}" if e > 1 else "")
            parts.append(mono if c == 1 else f"({c})*{mono}")
        body = " + ".join(parts) if parts else "0"
        return f"{self.name} = {body}" if self.name else body


def generator(sig: Signature, terms, name: str = "") -> MonomialVector:
    """Validate and package generator terms as (branch, exponent, coeff)."""
    seen = {}
    degree = None
    for branch, exp, coeff in terms:
        coeff = Fraction(coeff)
        if coeff == 0:
            continue
        if not 0 <= branch < sig.n:
            raise ValueError(f"branch {branch} out of range for {sig}")
        if exp < 1:
            raise ValueError(f"exponent {exp} must be at least 1")
        if branch in seen:
            raise ValueError(f"branch {branch} appears twice in one generator")
        d = exp * sig.weights_a[branch]
        if degree is None:
            degree = d
        elif d != degree:
            raise ValueError(
                f"non-homogeneous generator: degree {d} on branch {branch}, "
                f"expected {degree}"
            )
        seen[branch] = (branch, exp, coeff)
    if degree is None:
        raise ValueError("generator has no nonzero terms")
    return MonomialVector(tuple(seen[b] for b in sorted(seen)), degree, name)


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


def _integer_coefficients(g: MonomialVector) -> dict[int, int]:
    """{branch: coefficient} of g scaled once to integers."""
    return dict(zip([b for b, _, _ in g.terms], _integral(c for _, _, c in g.terms)))


def _primitive(r: list[int], lead: int) -> list[int]:
    g = gcd(*r)
    if r[lead] < 0:
        g = -g
    return r if g == 1 else [x // g for x in r]


def _echelon(rows) -> list[tuple[int, list[int]]]:
    """(pivot column, primitive row) pairs spanning the rows; each row is
    zero in the pivot columns of the rows found before it."""
    pivots = []
    for r in rows:
        for col, p in pivots:
            f = r[col]
            if f:
                c = p[col]
                r = [c * x - f * y for x, y in zip(r, p)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is not None:
            pivots.append((lead, _primitive(r, lead)))
    return pivots


def _rref(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical integer echelon basis of the span of integer rows.

    Rows come out in pivot order; each is primitive with a positive pivot
    and zero in every other pivot column, so it is the unique such
    multiple of the matching reduced row echelon row.
    """
    pivots = sorted(_echelon(rows))  # pivot columns are distinct
    for idx in range(len(pivots) - 2, -1, -1):
        col, r = pivots[idx]
        for col2, r2 in pivots[idx + 1 :]:
            f = r[col2]
            if f:
                c = r2[col2]
                r = [c * x - f * y for x, y in zip(r, r2)]
        pivots[idx] = (col, _primitive(r, col))
    return tuple(tuple(r) for _, r in pivots)


def _in_span(rows, vector) -> bool:
    """Whether an integer vector lies in the span of _rref rows."""
    r = vector
    for row in rows:
        lead = next(j for j, x in enumerate(row) if x)
        f = r[lead]
        if f:
            c = row[lead]
            r = [c * x - f * y for x, y in zip(r, row)]
    return not any(r)


@cache
def _identity(s: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(j == p) for j in range(s)) for p in range(s))


def _rank(rows, cols) -> int:
    """Rank of the rows restricted to the given columns."""
    return len(_echelon([[r[j] for j in cols] for r in rows]))


# ----------------------------------------------------------- the algebra


@dataclass(eq=False)
class BranchAlgebra:
    """The ring spanned by the generators; graded_basis holds R_0, R_1, ... so far."""

    signature: Signature
    generators: tuple[MonomialVector, ...]
    graded_basis: dict[int, tuple[tuple[int, ...], ...]]  # _rref rows of R_k over slots(k)
    stable_from: int | None = None  # R_k is full for every k >= stable_from
    _full_from: int | None = field(default=None, repr=False)  # start of the current full run
    _gap_full: tuple[int, ...] | None = field(default=None, repr=False)
    _slots: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)
    # (degree, {branch: coefficient}) per generator, scaled once to integers;
    # a nonzero multiple of a generator spans the same ring
    _integer_generators: tuple[tuple[int, dict[int, int]], ...] = field(init=False, repr=False)

    def __post_init__(self):
        self._integer_generators = tuple(
            (g.degree, _integer_coefficients(g)) for g in self.generators
        )

    @property
    def branches(self) -> int:
        return self.signature.n

    @property
    def degree_cap(self) -> int:
        """The last degree computed so far; read only by perfbench/tracer.py."""
        return len(self.graded_basis) - 1

    def slots(self, k: int) -> tuple[int, ...]:
        """Branches that carry degree k; they depend on k mod ell only."""
        r = k % self.signature.ell
        if r not in self._slots:
            a = self.signature.weights_a
            self._slots[r] = tuple(i for i in range(self.signature.n) if r % a[i] == 0)
        return self._slots[r]

    def _close_to(self, top: int) -> None:
        """Compute R_k degree by degree up to top, stopping for good once certified.

        The closure tracks K, the first degree of the current unbroken run
        of full pieces (a piece with no slots counts as full), and stops as
        soon as the run covers [K, 2K + max_i a_i - 1], recording
        stable_from = K.  Degree 0 never starts a run.

        Proof that R_k is full for every k >= K: take branch i and
        E = ceil(K / a_i).  Every e in [E, 2E) has K <= e*a_i < 2K + a_i, so
        t_i^e lies in R.  Since t_i^e = t_i^E * t_i^(e-E), induction on e puts
        every t_i^e with e >= E in R, and each slot i of a degree k >= K has
        exponent k / a_i >= E.  A ring that is not cofinite never gets a
        certificate, so every degree read is computed.
        """
        if self.stable_from is not None:
            return
        basis = self.graded_basis
        step = max(self.signature.weights_a) - 1
        for k in range(len(basis), top + 1):
            sl = self.slots(k)
            candidates = []
            for d, coeffs in self._integer_generators:
                if d > k:
                    continue
                # a branch the generator touches carries degree d, so it is
                # a slot of k - d whenever it is a slot of k
                prev = self.slots(k - d)
                picks = [(prev.index(i), coeffs[i]) if i in coeffs else (0, 0) for i in sl]
                for v in basis[k - d]:
                    w = [c * v[pos] for pos, c in picks]
                    if any(w):
                        candidates.append(w)
            basis[k] = _rref(candidates)
            if len(basis[k]) < len(sl):
                self._full_from = None
            elif self._full_from is None:
                self._full_from = k
            if self._full_from is not None and k >= 2 * self._full_from + step:
                self.stable_from = self._full_from
                return

    def _stable(self, k: int) -> bool:
        if k >= len(self.graded_basis):
            self._close_to(k)
        return self.stable_from is not None and k >= self.stable_from

    def basis(self, k: int) -> tuple[tuple[int, ...], ...]:
        """Integer echelon rows of R_k over slots(k) (see _rref); identity
        rows of ints once stable."""
        if not self._stable(k):
            return self.graded_basis[k]
        return _identity(len(self.slots(k)))

    def dim(self, k: int) -> int:
        return len(self.slots(k)) if self._stable(k) else len(self.graded_basis[k])

    def contains(self, terms) -> bool:
        """Membership of a homogeneous element given as generator-style terms."""
        element = generator(self.signature, terms)
        k = element.degree
        coeffs = _integer_coefficients(element)  # every branch it touches is a slot of k
        return _in_span(self.basis(k), [coeffs.get(i, 0) for i in self.slots(k)])


def window(sig: Signature) -> int:
    """W = max(2*ell, max_i a_i*(max(m)+2)): levels 1, 2 and the conductor window."""
    return max(2 * sig.ell, max(a * (sig.orders[0] + 2) for a in sig.weights_a))


def close(sig: Signature, generators_in) -> BranchAlgebra:
    """Span all products of the generators up to window(sig), or to a certified
    conductor first (see BranchAlgebra._close_to); a read of any later degree
    extends the same closure."""
    gens = tuple(generator(sig, g.terms, g.name) if isinstance(g, MonomialVector)
                 else generator(sig, g) for g in generators_in)  # revalidate against sig
    alg = BranchAlgebra(sig, gens, {0: ((1,) * sig.n,)})
    alg._close_to(window(sig))
    return alg


def graded_dims(alg: BranchAlgebra, top: int) -> tuple[int, ...]:
    return tuple(alg.dim(k) for k in range(top + 1))


# --------------------------------------------------- singularity numbers


def _gap_sequence_full(alg: BranchAlgebra) -> tuple[int, ...]:
    """Codimensions of the leading-coefficient spaces at orders 1..max(m)+2."""
    if alg._gap_full is not None:
        return alg._gap_full
    sig = alg.signature
    a = sig.weights_a
    n = sig.n
    top = sig.orders[0] + 2
    alphas = []
    for j in range(1, top + 1):
        rank = 0
        for k in sorted({j * a[i] for i in range(n)}):
            # the order-j coefficients of the elements vanishing below order j:
            # their rank is the rank over below + level minus that over below
            sl = alg.slots(k)
            below = [pos for pos, i in enumerate(sl) if k // a[i] < j]
            level = [pos for pos, i in enumerate(sl) if k // a[i] == j]
            rows = alg.basis(k)
            rank += _rank(rows, below + level) - _rank(rows, below)
        alphas.append(n - rank)
    alg._gap_full = tuple(alphas)
    return alg._gap_full


def gap_sequence(alg: BranchAlgebra) -> tuple[int, ...]:
    """Gap sequence (alpha_1, ..., alpha_{max(m)+1}) of the singular point."""
    return _gap_sequence_full(alg)[: alg.signature.orders[0] + 1]


def delta_and_genus(alg: BranchAlgebra) -> tuple[int, int]:
    """(delta, arithmetic genus): delta counts the order-0 piece too.

    The gap sequence is summed over orders 1..max(m)+1 only, so the sum is
    delta only when the conductor is certified
    (``conductor_and_gorenstein(alg).conductor_bound_ok``); a ring that is
    not cofinite has infinite delta yet still gets a finite sum here.
    """
    g = sum(gap_sequence(alg))
    delta = alg.signature.n - 1 + g
    return delta, g


@dataclass(frozen=True)
class ConductorReport:
    conductor: tuple[int, ...]  # per-branch exponents c_i
    quotient_length: int  # dim of R modulo the pure-monomial ideal
    gorenstein: bool
    conductor_bound_ok: bool  # every c_i within the expected window
    delta: int


def conductor_and_gorenstein(alg: BranchAlgebra) -> ConductorReport:
    """Per-branch conductor exponents and the length test len(R/c) = delta.

    c_i is the least exponent from which pure powers of t_i all lie in R
    across the checked window ending at max(m)+2; inputs whose conductor
    ideal genuinely starts beyond that window get c_i = max(m)+3 and are
    reported with conductor_bound_ok = False rather than rejected (the
    length test then reads R past the closure's window, which extends it).
    """
    sig = alg.signature
    a = sig.weights_a
    n = sig.n
    top = sig.orders[0] + 2
    conductor = []
    for i in range(n):
        c = top + 1
        while c > 1 and alg.contains([(i, c - 1, 1)]):
            c -= 1
        conductor.append(c)
    bound_ok = all(c <= top for c in conductor)
    delta, _ = delta_and_genus(alg)
    k_top = max(a[i] * conductor[i] for i in range(n))
    length = 0
    for k in range(k_top + 1):
        sl = alg.slots(k)
        outside = [pos for pos, i in enumerate(sl) if k // a[i] < conductor[i]]
        length += _rank(alg.basis(k), outside)  # dim R_k minus its part in c
    return ConductorReport(
        conductor=tuple(conductor),
        quotient_length=length,
        gorenstein=bound_ok and length == delta,
        conductor_bound_ok=bound_ok,
        delta=delta,
    )


@dataclass(frozen=True)
class SectionSpace:
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
    total = 0
    for k in range(k_top + 1):
        sl = alg.slots(k)
        excluded = [pos for pos, i in enumerate(sl) if k > a[i] * divisor[i]]
        d = alg.dim(k) - _rank(alg.basis(k), excluded)
        if d:
            per.append((k, d))
            total += d
    return SectionSpace(total, tuple(per))


def spin_parity(alg: BranchAlgebra) -> str | None:
    """Parity of the half-canonical sections, or None unless every order is even."""
    orders = alg.signature.orders
    if any(v % 2 for v in orders):
        return None
    half = tuple(v // 2 for v in orders)
    return "odd" if section_space(alg, half).dimension % 2 else "even"


# --------------------------------------------------------- validation


@dataclass(frozen=True)
class GConditionReport:
    no_bare_parameters: bool  # (G1)
    homogeneous: bool  # (G2), structural after close()
    conductor_bound: bool  # (G3)
    dualizing_pairs: bool  # (G4)
    gap_tail: bool  # (G5)
    notes: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.no_bare_parameters
            and self.homogeneous
            and self.conductor_bound
            and self.dualizing_pairs
            and self.gap_tail
        )


def validate_G_conditions(alg: BranchAlgebra, dualizing_units=None) -> GConditionReport:
    """Check the five structural conditions of a dualizing-graded branch ring."""
    sig = alg.signature
    n = sig.n
    notes = []
    if dualizing_units is None:
        units = [1] * n
    else:
        # scaling every unit by one factor keeps each pair on its line
        units = _integral(Fraction(u) for u in dualizing_units)
        if len(units) != n or not all(units):
            raise ValueError("need one nonzero unit per branch")

    g1 = True
    for i in range(n):
        if alg.contains([(i, 1, 1)]):
            g1 = False
            notes.append(f"bare parameter on branch {i} lies in the ring")

    top = sig.orders[0] + 2
    g3 = True
    for i in range(n):
        reach = window(sig) // sig.weights_a[i]
        if alg.stable_from is not None:  # pure powers from there on are proven
            reach = min(reach, (alg.stable_from - 1) // sig.weights_a[i])
        for e in range(top, reach + 1):
            if not alg.contains([(i, e, 1)]):
                g3 = False
                notes.append(f"pure power t{i + 1}^{e} missing from the ring")
                break

    g4 = True
    for i in range(n):
        for j in range(i + 1, n):
            terms = [
                (i, sig.orders[i] + 1, units[j]),
                (j, sig.orders[j] + 1, -units[i]),
            ]
            if not alg.contains(terms):
                g4 = False
                notes.append(f"dualizing pair test fails for branches ({i}, {j})")

    full = _gap_sequence_full(alg)
    maxm = sig.orders[0]
    g5 = full[maxm] == 1 and all(v == 0 for v in full[maxm + 1 :])
    if not g5:
        notes.append(f"gap tail is {full[maxm:]}, expected (1, 0, ...)")

    return GConditionReport(
        no_bare_parameters=g1,
        homogeneous=True,
        conductor_bound=g3,
        dualizing_pairs=g4,
        gap_tail=g5,
        notes=tuple(notes),
    )


# ------------------------------------------------------------- JSON I/O


_JSON_TYPES = {"an object": dict, "a list": list, "an integer": int,
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


def algebra_from_json(doc: dict):
    """Build (algebra, dualizing units) from a plain JSON document."""
    sig, gens, units = generators_from_json(doc)
    return close(sig, [generator(sig, terms, name) for name, terms in gens]), units


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
