"""Graded subalgebras of a product of polynomial branches.

The ambient ring is a product of n polynomial rings, one per branch,
with the degree of an exponent-e monomial on branch i set to e*a_i.
A homogeneous element of degree k is stored as its coefficient vector
over the branches that can carry degree k (those with a_i | k), and
multiplication is componentwise, so closing a generating set under
products reduces to degree-by-degree linear algebra over the
rationals.  Everything downstream (delta, gap sequence, conductor,
section spaces) reads off the graded bases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .signature import Signature, derive

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class MonomialVector:
    """A homogeneous combination of one monomial per branch."""

    terms: tuple[tuple[int, int, Fraction], ...]  # (branch, exponent, coefficient)
    degree: int
    name: str = ""

    def coefficient(self, branch: int) -> Fraction:
        for b, _, c in self.terms:
            if b == branch:
                return c
        return _ZERO

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


def _rref(rows):
    """Reduced row echelon form of rational row vectors, canonical order."""
    pivots: list[tuple[int, list[Fraction]]] = []
    for row in rows:
        r = list(row)
        for col, p in pivots:
            if r[col]:
                f = r[col]
                r = [x - f * y for x, y in zip(r, p)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        inv = r[lead]
        pivots.append((lead, [x / inv for x in r]))
    pivots.sort(key=lambda cp: cp[0])
    for idx in range(len(pivots) - 1, -1, -1):
        col, r = pivots[idx]
        for col2, r2 in pivots[idx + 1 :]:
            if r[col2]:
                f = r[col2]
                r = [x - f * y for x, y in zip(r, r2)]
        pivots[idx] = (col, r)
    return tuple(tuple(r) for _, r in pivots)


def _in_span(rows, vector) -> bool:
    r = list(vector)
    for row in rows:
        lead = next(j for j, x in enumerate(row) if x)
        if r[lead]:
            f = r[lead]
            r = [x - f * y for x, y in zip(r, row)]
    return not any(r)


def _vanishing_subspace(rows, zero_cols):
    """Basis of the subspace of span(rows) vanishing on the given columns."""
    if not rows:
        return ()
    ncols = len(rows[0])
    zero_cols = sorted(set(zero_cols))
    order = zero_cols + [j for j in range(ncols) if j not in zero_cols]
    permuted = _rref([tuple(r[j] for j in order) for r in rows])
    cut = len(zero_cols)
    kept = [r for r in permuted if next(j for j, x in enumerate(r) if x) >= cut]
    inverse = [0] * ncols
    for pos, j in enumerate(order):
        inverse[j] = pos
    return tuple(tuple(r[inverse[j]] for j in range(ncols)) for r in kept)


# ----------------------------------------------------------- the algebra


@dataclass(eq=False)
class BranchAlgebra:
    """The ring spanned by the generators; graded_basis holds R_0, R_1, ... so far."""

    signature: Signature
    generators: tuple[MonomialVector, ...]
    graded_basis: dict[int, tuple[tuple[Fraction, ...], ...]]
    stable_from: int | None = None  # R_k is full for every k >= stable_from
    _full_from: int | None = field(default=None, repr=False)  # start of the current full run
    _gap_full: tuple[int, ...] | None = field(default=None, repr=False)
    _slots: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)

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
            for g in self.generators:
                d = g.degree
                if d > k:
                    continue
                prev_pos = {i: pos for pos, i in enumerate(self.slots(k - d))}
                coeffs = {b: c for b, _, c in g.terms}
                for v in basis[k - d]:
                    w = tuple(
                        coeffs.get(i, _ZERO) * v[prev_pos[i]] if i in prev_pos else _ZERO
                        for i in sl
                    )
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

    def basis(self, k: int) -> tuple[tuple[Fraction, ...], ...]:
        """Canonical rref rows of R_k over slots(k); identity rows once stable."""
        if not self._stable(k):
            return self.graded_basis[k]
        s = len(self.slots(k))
        return tuple(tuple(_ONE if j == p else _ZERO for j in range(s)) for p in range(s))

    def dim(self, k: int) -> int:
        return len(self.slots(k)) if self._stable(k) else len(self.graded_basis[k])

    def contains(self, terms) -> bool:
        """Membership of a homogeneous element given as generator-style terms."""
        element = generator(self.signature, terms)
        k = element.degree
        sl = self.slots(k)
        vec = tuple(element.coefficient(i) for i in sl)
        if any(element.coefficient(i) for i in range(self.signature.n) if i not in sl):
            return False
        return _in_span(self.basis(k), vec)


def window(sig: Signature) -> int:
    """W = max(2*ell, max_i a_i*(max(m)+2)): levels 1, 2 and the conductor window."""
    return max(2 * sig.ell, max(a * (sig.orders[0] + 2) for a in sig.weights_a))


def close(sig: Signature, generators_in) -> BranchAlgebra:
    """Span all products of the generators up to window(sig), or to a certified
    conductor first (see BranchAlgebra._close_to); a read of any later degree
    extends the same closure."""
    gens = tuple(generator(sig, g.terms, g.name) if isinstance(g, MonomialVector)
                 else generator(sig, g) for g in generators_in)  # revalidate against sig
    alg = BranchAlgebra(sig, gens, {0: ((_ONE,) * sig.n,)})
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
            sl = alg.slots(k)
            below = [pos for pos, i in enumerate(sl) if k // a[i] < j]
            level = [pos for pos, i in enumerate(sl) if k // a[i] == j]
            sub = _vanishing_subspace(alg.basis(k), below)
            rank += len(_rref([tuple(r[p] for p in level) for r in sub]))
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
    assert g == delta - alg.signature.n + 1
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
        inside = _vanishing_subspace(alg.basis(k), outside)
        length += alg.dim(k) - len(inside)
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
        d = len(_vanishing_subspace(alg.basis(k), excluded))
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
        units = (_ONE,) * n
    else:
        units = tuple(Fraction(u) for u in dualizing_units)
        if len(units) != n or any(u == 0 for u in units):
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
