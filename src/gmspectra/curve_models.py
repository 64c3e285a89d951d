"""Section-count oracles for divisors supported on marked points.

Each model answers h0(D) for a divisor D given as one integer coefficient
per marked point.  Models are used where no branch algebra is available:
semigroup counts at a single point, tagged hyperelliptic closed forms,
the Clifford-maximal profile, and finite override tables layered on any
base model.  All of them agree with Riemann-Roch once deg D > 2g-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import branch_algebra as ba
from . import semigroup as sg
from .signature import Signature, ladder_columns

Divisor = Sequence[int]


@dataclass(frozen=True)
class AlgebraModel:
    """h0 read off a graded branch algebra via its section spaces."""

    algebra: ba.BranchAlgebra
    kind = "algebra"

    @cached_property
    def genus(self) -> int:
        """The arithmetic genus; a ValueError unless the conductor is certified,
        since the summed gap sequence is delta only then."""
        if not ba.conductor_and_gorenstein(self.algebra).conductor_bound_ok:
            raise ValueError("genus undefined: the ring's conductor is not certified")
        return ba.delta_and_genus(self.algebra)[1]

    def h0(self, divisor: Divisor) -> int:
        return ba.section_space(self.algebra, tuple(divisor)).dimension


@dataclass(frozen=True)
class UnibranchModel:
    """One marked point whose pole orders form the given semigroup."""

    semigroup: sg.NumericalSemigroup
    kind = "unibranch"

    @property
    def genus(self) -> int:
        return self.semigroup.genus

    def h0(self, divisor: Divisor) -> int:
        if any(divisor[1:]):
            raise ValueError(
                "unibranch model only supports divisors on its single point"
            )
        # count_upto is Riemann-Roch from the conductor on, and F <= 2g-1
        return self.semigroup.count_upto(divisor[0])


@dataclass(frozen=True)
class HyperellipticModel:
    """Marked points tagged as Weierstrass, conjugate pairs, or free.

    Tags: ``"w"`` for a Weierstrass point, ``"pair:<id>"`` for one half of
    a conjugate pair (each id exactly twice), ``"free"`` for a point in
    general position.  Below the Riemann-Roch range the dimension is
    1 + (number of extractable copies of the degree-two pencil): floor(c/2)
    from a Weierstrass coefficient c, min(b, c) from a pair, nothing from
    free points.
    """

    genus: int
    tags: tuple[str, ...]
    kind = "hyperelliptic"

    @cached_property
    def _groups(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        weierstrass = []
        pairs: dict[str, list[int]] = {}
        for i, tag in enumerate(self.tags):
            if tag == "w":
                weierstrass.append(i)
            elif tag == "free":
                continue
            elif tag.startswith("pair:"):
                pairs.setdefault(tag[5:], []).append(i)
            else:
                raise ValueError(f"unknown tag {tag!r}")
        for key, members in pairs.items():
            if len(members) != 2:
                raise ValueError(f"pair {key!r} has {len(members)} members, needs 2")
        return tuple(weierstrass), tuple((m[0], m[1]) for m in pairs.values())

    def h0(self, divisor: Divisor) -> int:
        if len(divisor) != len(self.tags):
            raise ValueError(f"divisor needs {len(self.tags)} coefficients")
        g = self.genus
        deg = sum(divisor)
        if deg < 0:
            return 0
        if deg > 2 * g - 2:
            return deg - g + 1
        weierstrass, pairs = self._groups
        pencils = sum(divisor[i] // 2 for i in weierstrass)
        pencils += sum(min(divisor[i], divisor[j]) for i, j in pairs)
        return max(1 + pencils, 0)


@dataclass(frozen=True)
class CliffordMaxModel:
    """The largest h0 profile a nonhyperelliptic curve allows.

    Only the degree matters: 0 below degree zero, 1 at zero, g at the
    canonical degree 2g-2 (the only degree-(2g-2) divisors that occur in
    the filtrations are canonical), ceil(deg/2) strictly in between, and
    Riemann-Roch above.
    """

    genus: int
    kind = "clifford-max"

    def h0(self, divisor: Divisor) -> int:
        g = self.genus
        deg = sum(divisor)
        if deg < 0:
            return 0
        if deg == 0:
            return 1
        if deg == 2 * g - 2:
            return g
        if deg > 2 * g - 2:
            return deg - g + 1
        return (deg + 1) // 2


@dataclass(frozen=True)
class OverrideModel:
    """A base model with finitely many divisors pinned to other values."""

    base: object
    table: tuple[tuple[tuple[int, ...], int], ...]
    kind = "override"

    @property
    def genus(self) -> int:
        return self.base.genus

    def h0(self, divisor: Divisor) -> int:
        key = tuple(divisor)
        for entry, value in self.table:
            if entry == key:
                return value
        return self.base.h0(divisor)


def model_from_spec(doc: dict):
    """Build a model from its JSON description.

    Kinds: {"kind": "unibranch", "generators": [3, 7]},
    {"kind": "hyperelliptic", "genus": g, "tags": ["w", "pair:1", "pair:1"]},
    {"kind": "clifford-max", "genus": g},
    {"kind": "override", "base": {...}, "table": [{"divisor": [...], "h0": k}]}.
    """
    kind = doc["kind"]
    if kind == "unibranch":
        return UnibranchModel(sg.from_generators(doc["generators"]))
    if kind == "hyperelliptic":
        return HyperellipticModel(doc["genus"], tuple(doc["tags"]))
    if kind == "clifford-max":
        return CliffordMaxModel(doc["genus"])
    if kind == "override":
        table = tuple((tuple(e["divisor"]), e["h0"]) for e in doc["table"])
        return OverrideModel(model_from_spec(doc["base"]), table)
    raise ValueError(
        f"unknown model kind {kind!r}; use unibranch, hyperelliptic, "
        "clifford-max or override"
    )


Run = tuple[int, int, int]  # (lam_lo, lam_hi, dim), inclusive bounds


def filtration_dims(model, sig: Signature, m: int = 1) -> tuple[Run, ...]:
    """Weight filtration levels lam = 0..m*ell as runs of equal dimension.

    Level lam holds the m-fold pluricanonical sections vanishing to ladder
    order, so its dimension is h0 of m*(m_i + 1) minus the ladder at lam.
    The lam = 0 value is g-1+n for m = 1 and (2m-1)(g-1) + m*n beyond.

    The ladder only steps at lam = k*a_i + 1, so the divisors are built as
    one column per branch over those run starts (ladder_columns) and h0 is
    read once per start: at most m(2g-2+n) + 1 reads whatever ell is, with
    no other per-level work.  Equal neighbours merge into one run.
    """
    if m < 1:
        raise ValueError("pluricanonical level m must be at least 1")
    if model.genus != sig.genus:
        raise ValueError(
            f"model genus {model.genus} differs from signature genus {sig.genus}"
        )
    top = m * sig.ell
    starts, steps = ladder_columns(sig, 0, top)
    columns = [[m * (order + 1) - s for s in col] for order, col in zip(sig.orders, steps)]
    dims = list(map(model.h0, zip(*columns)))
    runs: list[Run] = []
    run_lo = 0
    for lam, dim, prev in zip(starts[1:], dims[1:], dims):
        if dim != prev:
            runs.append((run_lo, lam - 1, prev))
            run_lo = lam
    runs.append((run_lo, top, dims[-1]))
    return tuple(runs)


def expand_runs(runs) -> tuple[int, ...]:
    """The dense dimension sequence, one entry per level."""
    return tuple(dim for lo, hi, dim in runs for _ in range(hi - lo + 1))


def runs_chi_log(runs) -> int:
    """Sum of the dimensions over the levels lam >= 1, i.e. chi_m^log."""
    return sum((hi - max(lo, 1) + 1) * dim for lo, hi, dim in runs)
