"""Shipped singularity catalog.

Each entry records a branch-algebra presentation (generator monomial terms and
dualizing units) together with the frozen invariants it is expected to
reproduce: gap sequence, delta, both characters, alpha, slope, spin parity,
and the ambient weighted-projective weights.  Entries live in
``data/strata.json``; parametric families (A/D series, elliptic multiple
points, monomial curves) are constructed on demand by :func:`family`, and
store a spin parity wherever every zero order is even.  Entries and their
expected invariants are named tuples: immutable, equal to the plain tuple
of their fields, and copied with ``_replace``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from math import lcm
from typing import NamedTuple, Optional, Sequence, Union, get_args, get_origin, get_type_hints

from . import branch_algebra as ba
from . import invariants as inv
from . import semigroup as sg
from .semigroup import NumericalSemigroup
from .signature import derive

Terms = tuple[tuple[int, int, Fraction], ...]


class ExpectedInvariants(NamedTuple):
    gap_sequence: tuple[int, ...]
    delta: int
    chi1_log: int
    chi2_log: int
    alpha: Optional[Fraction]  # None where 13*chi1_log = chi2_log
    slope: Fraction
    spin: Optional[str]
    ambient_weights: tuple[int, ...]


class CatalogEntry(NamedTuple):
    id: str
    aliases: tuple[str, ...]
    signature: tuple[int, ...]
    component: Optional[str]  # hyp / odd / even / nonhyp, or None
    nonvarying: bool
    generators: tuple[tuple[str, Terms], ...]
    dualizing_units: tuple[Fraction, ...]
    expected: ExpectedInvariants
    # (divisor, h0) pinning a special locus inside a varying stratum
    locus_condition: Optional[tuple[tuple[int, ...], int]] = None

    def algebra(self) -> ba.BranchAlgebra:
        return ba.close(derive(self.signature), [terms for _, terms in self.generators])


_EXPECTED_HINTS = get_type_hints(ExpectedInvariants)


def _decode(hint, value):
    """'p/q' (or null) for a Fraction field, a list for a tuple field."""
    if value is not None and Fraction in (hint, *get_args(hint)):
        return Fraction(value)
    return tuple(value) if get_origin(hint) is tuple else value


def _encode(value):
    if isinstance(value, Fraction):
        return str(value)
    return list(value) if isinstance(value, tuple) else value


def _entry_from_doc(doc: dict) -> CatalogEntry:
    exp = doc["expected"]
    expected = ExpectedInvariants(
        **{name: _decode(hint, exp[name]) for name, hint in _EXPECTED_HINTS.items()})
    _sig, generators, units = ba.generators_from_json(doc)
    locus = None
    if doc.get("locus_condition"):
        locus = (tuple(doc["locus_condition"]["divisor"]), doc["locus_condition"]["h0"])
    return CatalogEntry(
        id=doc["id"],
        aliases=tuple(doc.get("aliases", ())),
        signature=tuple(doc["signature"]),
        component=doc.get("component"),
        nonvarying=doc["nonvarying"],
        generators=generators,
        dualizing_units=units,
        expected=expected,
        locus_condition=locus,
    )


_CACHE: Optional[tuple[CatalogEntry, ...]] = None


def entries() -> tuple[CatalogEntry, ...]:
    """All stored entries, in file order."""
    global _CACHE
    if _CACHE is None:
        text = resources.files("gmspectra.data").joinpath("strata.json").read_text()
        _CACHE = tuple(_entry_from_doc(doc) for doc in json.loads(text)["entries"])
    return _CACHE


def get(key: str) -> CatalogEntry:
    """Look up a stored entry by id or alias (case-sensitive)."""
    for entry in entries():
        if key == entry.id or key in entry.aliases:
            return entry
    known = ", ".join(e.id for e in entries())
    raise KeyError(f"no catalog entry {key!r}; known ids: {known}")


def nonvarying_entries() -> tuple[CatalogEntry, ...]:
    return tuple(e for e in entries() if e.nonvarying)


def special_locus_entries() -> tuple[CatalogEntry, ...]:
    """Entries pinned to an h^0 locus inside a varying stratum."""
    return tuple(e for e in entries() if e.locus_condition is not None)


def as_dict(entry: CatalogEntry) -> dict:
    """JSON-ready representation in the ``monomials`` schema that
    ``strata.json``, ``catalog show --json`` and ``invariants --input``
    share (fractions rendered as 'p/q' strings)."""
    doc = {
        "id": entry.id,
        "aliases": list(entry.aliases),
        "signature": list(entry.signature),
        "component": entry.component,
        "nonvarying": entry.nonvarying,
        "generators": [
            {"name": name,
             "monomials": [{"branch": b, "exp": e, "coeff": str(c)} for b, e, c in terms]}
            for name, terms in entry.generators
        ],
        "dualizing_units": [str(u) for u in entry.dualizing_units],
        "expected": {name: _encode(value) for name, value in entry.expected._asdict().items()},
    }
    if entry.locus_condition is not None:
        divisor, h0 = entry.locus_condition
        doc["locus_condition"] = {"divisor": list(divisor), "h0": h0}
    return doc


# --- parametric families -------------------------------------------------

def _expected(sig: Sequence[int], gap: Sequence[int], delta: int, chi1: int,
              chi2_log: int, spin: Optional[str], ambient: Sequence[int]) -> ExpectedInvariants:
    rec = inv.alpha_slope_record(chi1, chi2_log, derive(sig))
    return ExpectedInvariants(
        gap_sequence=tuple(gap),
        delta=delta,
        chi1_log=chi1,
        chi2_log=chi2_log,
        alpha=rec.alpha,
        slope=rec.slope,
        spin=spin,
        ambient_weights=tuple(ambient),
    )


def _hyperelliptic_spin(sig: Sequence[int]) -> Optional[str]:
    """Spin of a hyperelliptic (or genus-one) component: the parity of
    floor((g+1)/2) (Kontsevich-Zorich), or None unless every order is even."""
    if any(v % 2 for v in sig):
        return None
    g = sum(sig) // 2 + 1
    return "odd" if (g + 1) // 2 % 2 else "even"


def _monomial_entry(H: NumericalSemigroup) -> CatalogEntry:
    """k[t^h : h in H]; a stored entry of the same ring (one generator t^h per
    minimal generator h) gives the id, component and nonvarying flag."""
    if not H.symmetric:
        raise ValueError(f"monomial entry needs a symmetric semigroup, got {H}")
    g = H.genus
    sig = (2 * g - 2,)
    gens = tuple((f"x{i+1}", ((0, h, Fraction(1)),)) for i, h in enumerate(H.generators))
    chi1 = sum(H.gaps)
    chi2_log = (2 * g - 1) ** 2 + chi1
    gap = tuple(0 if H.contains(j) else 1 for j in range(1, 2 * g))
    spin = H.spin or _hyperelliptic_spin(sig)
    ident, component, nonvarying = ((f"A{2 * g}", "hyp", True) if H.hyperelliptic
                                    else (f"monomial{H}", spin, False))
    for e in entries():  # on one branch, each stored generator is one term c*t^h
        if e.signature == sig and sorted(t[0][1] for _, t in e.generators) == list(H.generators):
            ident, component, nonvarying = e.id, e.component, e.nonvarying
    return CatalogEntry(
        id=ident,
        aliases=(),
        signature=sig,
        component=component,
        nonvarying=nonvarying,
        generators=gens,
        dualizing_units=(Fraction(1),),
        expected=_expected(sig, gap, g, chi1, chi2_log, spin, (*H.generators, 1)),
    )


def family(name: str, *, g: Optional[int] = None, n: Optional[int] = None,
           H: Union[NumericalSemigroup, Sequence[int], None] = None) -> CatalogEntry:
    """Construct a parametric-family entry.

    Names: ``A`` (one branch, y^2 = x^{2g+1}), ``A-odd`` (two conjugate
    branches, y^2 = x^{2g+2}), ``D-odd`` (x(y^2 - x^{2g-1})), ``D-even``
    (x(y^2 - x^{2g})), ``elliptic`` (n >= 3 concurrent general lines), and
    ``monomial`` (symmetric semigroup H).
    """
    one = Fraction(1)
    if name == "A":
        if g is None or g < 2:
            raise ValueError("family 'A' needs g >= 2")
        return _monomial_entry(sg.from_generators((2, 2 * g + 1)))
    if name == "A-odd":
        if g is None or g < 2:
            raise ValueError("family 'A-odd' needs g >= 2")
        sig = (g - 1, g - 1)
        gens = (
            ("x", ((0, 1, one), (1, 1, one))),
            ("y", ((0, g + 1, one), (1, g + 1, -one))),
        )
        exp = _expected(sig, (1,) * g, g + 1, g * (g + 1) // 2,
                        (5 * g * g + g) // 2, _hyperelliptic_spin(sig), (1, g + 1, 1))
        return CatalogEntry(f"A{2*g+1}", (), sig, "hyp", True, gens,
                            (one, -one), exp)
    if name == "D-odd":
        if g is None or g < 2:
            raise ValueError("family 'D-odd' needs g >= 2")
        sig = (2 * g - 2, 0)
        gens = (
            ("x", ((0, 2, one),)),
            ("y", ((0, 2 * g - 1, one), (1, 1, one))),
        )
        gap = tuple(1 if j % 2 == 1 else 0 for j in range(1, 2 * g))
        exp = _expected(sig, gap, g + 1, g * g, 5 * g * g - 2 * g,
                        _hyperelliptic_spin(sig), (2, 2 * g - 1, 1))
        return CatalogEntry(f"D{2*g+1}", (), sig, "hyp", True, gens,
                            (one, -one), exp)
    if name == "D-even":
        if g is None or g < 2:
            raise ValueError("family 'D-even' needs g >= 2")
        sig = (g - 1, g - 1, 0)
        gens = (
            ("x", ((0, 1, one), (1, 1, one))),
            ("y", ((0, g, one), (1, g, -one), (2, 1, one))),
        )
        exp = _expected(sig, (1,) * g, g + 2, g * (g + 1) // 2,
                        (5 * g * g + 3 * g) // 2, _hyperelliptic_spin(sig), (1, g, 1))
        return CatalogEntry(f"D{2*g+2}", (), sig, "hyp", True, gens,
                            (one, -one, -2 * one), exp)
    if name == "elliptic":
        if n is None or n < 3:
            raise ValueError("family 'elliptic' needs n >= 3")
        sig = (0,) * n
        gens = tuple(
            (f"x{j+1}", tuple((i, 1, Fraction((i + 1) ** j)) for i in range(n)))
            for j in range(n - 1)
        )
        exp = _expected(sig, (1,), n, 1, n + 1, _hyperelliptic_spin(sig), (1,) * n)
        return CatalogEntry(f"elliptic-{n}", (), sig, None, False, gens,
                            tuple(_elliptic_units(n)), exp)
    if name == "monomial":
        if H is None:
            raise ValueError("family 'monomial' needs H")
        semi = H if isinstance(H, NumericalSemigroup) else sg.from_generators(tuple(H))
        return _monomial_entry(semi)
    raise ValueError(f"unknown family {name!r}")


def _elliptic_units(n: int) -> list[Fraction]:
    # residues of t_i^{-1} dt_i pairing: for concurrent lines with slopes
    # v_i = i+1 the dualizing germ weights are the Lagrange denominators
    # u_i = 1 / prod_{j != i} (v_i - v_j), scaled to integers
    vals = [i + 1 for i in range(n)]
    units = []
    for i, v in enumerate(vals):
        prod = 1
        for j, w in enumerate(vals):
            if j != i:
                prod *= v - w
        units.append(Fraction(1, prod))
    scale = lcm(*(u.denominator for u in units))
    return [u * scale for u in units]


def with_ordinary_points(entry: CatalogEntry, k: int) -> CatalogEntry:
    """Append ``k`` ordinary (order-zero) branches to a catalog entry.

    The first character is unchanged, the second grows by k*ell, delta grows
    by k, and the gap sequence and spin are untouched; alpha and slope are
    recomputed from the characters, and the slope comes out unchanged.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sig = entry.signature
    n = len(sig)
    m1 = sig[0]
    ell = derive(sig).ell
    new_sig = (*sig, *(0,) * k)
    one = Fraction(1)
    extra = tuple(
        (f"s{j+1}", ((0, m1 + 1, one), (n + j, 1, one)))
        for j in range(k)
    )
    old = entry.expected
    expected = _expected(new_sig, old.gap_sequence, old.delta + k, old.chi1_log,
                         old.chi2_log + k * ell, old.spin,
                         (*old.ambient_weights[:-1], *(ell,) * k, 1))
    return CatalogEntry(
        id=f"{entry.id}+{k}pt",
        aliases=(),
        signature=new_sig,
        component=entry.component,
        nonvarying=False,
        generators=(*entry.generators, *extra),
        dualizing_units=(*entry.dualizing_units, *(-one,) * k),
        expected=expected,
    )
