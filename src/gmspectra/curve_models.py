"""Section-count oracles for divisors supported on marked points.

Each model answers h0 for a whole batch of divisors in one call,
``h0_column(columns)``: the batch is one coefficient list per marked point
(row r is the divisor ``(columns[0][r], ..., columns[n-1][r])``), as
``filtration_dims`` builds it from the ladder columns, and the answer is
one dimension per row.  That column read is each model's only h0 formula;
``h0(divisor)`` is the point read, a one-row batch.  Models are used where
no branch algebra is available: semigroup counts at a single point, tagged
hyperelliptic closed forms, the Clifford-maximal profile, and finite
override tables layered on any base model.  All of them agree with
Riemann-Roch once deg D > 2g-2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Sequence

from . import branch_algebra as ba
from . import semigroup as sg
from .signature import Signature, ladder_columns

Divisor = Sequence[int]
Columns = Sequence[Sequence[int]]  # one coefficient list per marked point


class _ColumnRead:
    """The point read of a model that answers whole columns."""

    def h0(self, divisor: Divisor) -> int:
        (dim,) = self.h0_column([[c] for c in divisor])
        return dim


@dataclass(frozen=True)
class AlgebraModel(_ColumnRead):
    """h0 read off a graded branch algebra: one section space per row."""

    algebra: ba.BranchAlgebra
    kind = "algebra"

    @cached_property
    def genus(self) -> int:
        """The arithmetic genus; a ValueError unless the conductor is certified,
        since the summed gap sequence is delta only then."""
        if not ba.conductor_and_gorenstein(self.algebra).conductor_bound_ok:
            raise ValueError("genus undefined: the ring's conductor is not certified")
        return ba.delta_and_genus(self.algebra)[1]

    def h0_column(self, columns: Columns) -> list[int]:
        return [ba.section_space(self.algebra, row).dimension for row in zip(*columns)]


@dataclass(frozen=True)
class UnibranchModel(_ColumnRead):
    """One marked point whose pole orders form the given semigroup.

    h0(c p) is the number of elements in [0, c]: read off the semigroup's
    prefix counts up to F, and c - g + 1 (Riemann-Roch) from F on.  Any
    nonzero coefficient at a second point is a ValueError.
    """

    semigroup: sg.NumericalSemigroup
    kind = "unibranch"

    @property
    def genus(self) -> int:
        return self.semigroup.genus

    def h0_column(self, columns: Columns) -> list[int]:
        if any(map(any, columns[1:])):
            raise ValueError(
                "unibranch model only supports divisors on its single point"
            )
        H = self.semigroup
        F, g, counts = H.frobenius, H.genus, H.prefix_counts()
        return [c - g + 1 if c >= F else counts[c] if c >= 0 else 0 for c in columns[0]]


@dataclass(frozen=True)
class HyperellipticModel(_ColumnRead):
    """Marked points tagged as Weierstrass, conjugate pairs, or free.

    Tags: ``"w"`` for a Weierstrass point, ``"pair:<id>"`` for one half of
    a conjugate pair (each id exactly twice), ``"free"`` for a point in
    general position.  Below the Riemann-Roch range the dimension is
    1 + (number of extractable copies of the degree-two pencil): floor(c/2)
    from a Weierstrass coefficient c, min(b, c) from a pair, nothing from
    free points, clamped at 0.
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

    def h0_column(self, columns: Columns) -> list[int]:
        if len(columns) != len(self.tags):
            raise ValueError(f"divisor needs {len(self.tags)} coefficients")
        g = self.genus
        weierstrass, pairs = self._groups
        parts = [[c // 2 for c in columns[i]] for i in weierstrass]
        parts += [list(map(min, columns[i], columns[j])) for i, j in pairs]
        pencils = map(sum, zip(*parts)) if parts else repeat(0)
        return [0 if deg < 0 else deg - g + 1 if deg > 2 * g - 2 else max(1 + p, 0)
                for deg, p in zip(map(sum, zip(*columns)), pencils)]


@dataclass(frozen=True)
class CliffordMaxModel(_ColumnRead):
    """The largest h0 profile a nonhyperelliptic curve allows.

    Only the degree matters, so the column read works on the row sums: 0
    below degree zero, 1 at zero, g at the canonical degree 2g-2 (the only
    degree-(2g-2) divisors that occur in the filtrations are canonical),
    ceil(deg/2) strictly in between, and Riemann-Roch above.
    """

    genus: int
    kind = "clifford-max"

    def h0_column(self, columns: Columns) -> list[int]:
        g = self.genus
        canonical = 2 * g - 2
        return [0 if deg < 0 else 1 if deg == 0 else g if deg == canonical
                else deg - g + 1 if deg > canonical else (deg + 1) // 2
                for deg in map(sum, zip(*columns))]


@dataclass(frozen=True)
class OverrideModel(_ColumnRead):
    """A base model with finitely many divisors pinned to other values.

    The base column with the table rows patched in; when a divisor is
    listed twice, its first entry wins.
    """

    base: object
    table: tuple[tuple[tuple[int, ...], int], ...]
    kind = "override"

    @property
    def genus(self) -> int:
        return self.base.genus

    def h0_column(self, columns: Columns) -> list[int]:
        table = dict(reversed(self.table))
        return [table.get(row, dim)
                for row, dim in zip(zip(*columns), self.base.h0_column(columns))]


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
    one column per branch over those run starts (ladder_columns) and the
    model answers them in one ``h0_column`` call: at most m(2g-2+n) + 1
    rows whatever ell is, with no per-level call.  Equal neighbours merge
    into one run.
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
    dims = model.h0_column(columns)
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
