"""Section-count oracles for divisors supported on marked points.

Each model answers h0 for a whole batch of divisors in one call,
``h0_frame(frame)``, one dimension per row.  A frame is any object with
``degrees``, the degree of each row, and ``columns``, one coefficient list
per marked point (row r is the divisor ``(columns[0][r], ...,
columns[n-1][r])``).  ``filtration_dims`` reads a :class:`LadderFrame`,
whose degrees are built with it and whose columns only on first read, so a
model that reads the degree alone (Clifford-max) never builds them; a
:class:`Batch` holds rows given outright.  That frame read is each model's
only h0 formula; ``h0(divisor)`` is the point read, a one-row batch.
A filtration is returned as columns, :class:`Runs`, whose bounds are the
frame's own tuples.
Models are used where no branch algebra is available: semigroup counts at
a single point, tagged hyperelliptic closed forms, the Clifford-maximal
profile, and finite override tables layered on any base model.  All of
them agree with Riemann-Roch once deg D > 2g-2.  Each model is a named
tuple: immutable, equal to the plain tuple of its fields, and copied with
``_replace``; none but AlgebraModel, which keeps its genus there, has a
``__dict__``, so nothing can be set on one.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from operator import mul
from typing import NamedTuple, Sequence

from . import branch_algebra as ba
from . import semigroup as sg
from .signature import Signature, ladder_runs

Divisor = Sequence[int]
Columns = Sequence[Sequence[int]]  # one coefficient list per marked point

# a ladder frame has at most m(2g-2+n) + 1 rows whatever ell is; a frame
# that could have more is refused before its runs are built
FRAME_ROW_BOUND = 10**6


class Batch(NamedTuple):
    """A frame of rows given outright."""

    columns: Columns
    degrees: Sequence[int]

    @classmethod
    def of(cls, columns: Columns) -> Batch:
        """The batch whose row r is ``(columns[0][r], ..., columns[n-1][r])``."""
        return cls(columns, [sum(row) for row in zip(*columns)])


class _FrameRead:
    """The point read of a model that answers whole frames."""

    __slots__ = ()

    def h0(self, divisor: Divisor) -> int:
        (dim,) = self.h0_frame(Batch.of([[c] for c in divisor]))
        return dim


class AlgebraModel(namedtuple("AlgebraModel", "algebra"), _FrameRead):
    """h0 read off a graded branch algebra: one section space per row.

    The one model with a ``__dict__``, where its ``genus`` is kept on first
    read; its field is read-only all the same.
    """

    algebra: ba.BranchAlgebra

    @cached_property
    def genus(self) -> int:
        """The arithmetic genus; a ValueError unless the conductor is certified,
        since the summed gap sequence is delta only then."""
        if not ba.conductor_and_gorenstein(self.algebra).conductor_bound_ok:
            raise ValueError("genus undefined: the ring's conductor is not certified")
        return ba.delta_and_genus(self.algebra)[1]

    def h0_frame(self, frame) -> list[int]:
        return [ba.section_space(self.algebra, row).dimension
                for row in zip(*frame.columns)]


class UnibranchModel(namedtuple("UnibranchModel", "semigroup"), _FrameRead):
    """One marked point whose pole orders form the given semigroup.

    h0(c p) is the number of elements in [0, c]: read off the semigroup's
    prefix counts up to F, and c - g + 1 (Riemann-Roch) from F on.  Any
    nonzero coefficient at a second point is a ValueError.
    """

    __slots__ = ()

    semigroup: sg.NumericalSemigroup

    @property
    def genus(self) -> int:
        return self.semigroup.genus

    def h0_frame(self, frame) -> list[int]:
        columns = frame.columns
        if any(map(any, columns[1:])):
            raise ValueError(
                "unibranch model only supports divisors on its single point"
            )
        H = self.semigroup
        F, g, counts = H.frobenius, H.genus, H.prefix_counts()
        return [c - g + 1 if c >= F else counts[c] if c >= 0 else 0 for c in columns[0]]


class HyperellipticModel(namedtuple("HyperellipticModel", "genus tags"), _FrameRead):
    """Marked points tagged as Weierstrass, conjugate pairs, or free.

    Tags: ``"w"`` for a Weierstrass point, ``"pair:<id>"`` for one half of
    a conjugate pair (each id exactly twice), ``"free"`` for a point in
    general position.  Below the Riemann-Roch range the dimension is
    1 + (number of extractable copies of the degree-two pencil): floor(c/2)
    from a Weierstrass coefficient c, min(b, c) from a pair, nothing from
    free points, clamped at 0.
    """

    __slots__ = ()

    genus: int
    tags: tuple[str, ...]

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

    def h0_frame(self, frame) -> list[int]:
        columns = frame.columns
        if len(columns) != len(self.tags):
            raise ValueError(f"divisor needs {len(self.tags)} coefficients, one per tag "
                             f"of the hyperelliptic model, got {len(columns)}")
        g = self.genus
        canonical = 2 * g - 2
        weierstrass, pairs = self._groups()
        parts = [[c // 2 for c in columns[i]] for i in weierstrass]
        parts += [list(map(min, columns[i], columns[j])) for i, j in pairs]
        pencils = map(sum, zip(*parts)) if parts else repeat(0)
        return [0 if deg < 0 else deg - g + 1 if deg > canonical
                else 1 + p if p >= -1 else 0
                for deg, p in zip(frame.degrees, pencils)]


class CliffordMaxModel(namedtuple("CliffordMaxModel", "genus"), _FrameRead):
    """The largest h0 profile a nonhyperelliptic curve allows.

    Only the degree matters, so the frame read works on the row degrees
    and never builds a frame's columns: 0 below degree zero, 1 at zero, g
    at the canonical degree 2g-2 (the only degree-(2g-2) divisors that
    occur in the filtrations are canonical), ceil(deg/2) strictly in
    between, and Riemann-Roch above.  A genus below 0 is a ValueError at
    the read; from genus 0 on the canonical degree is at least -2, so the
    Riemann-Roch range, where most rows of an m >= 2 frame lie, is tested
    first.
    """

    __slots__ = ()

    genus: int

    def h0_frame(self, frame) -> list[int]:
        g = self.genus
        if g < 0:
            raise ValueError(f"clifford-max genus {g} is below 0")
        canonical = 2 * g - 2
        return [deg - g + 1 if deg > canonical else 0 if deg < 0 else 1 if deg == 0
                else g if deg == canonical else (deg + 1) // 2
                for deg in frame.degrees]


class OverrideModel(namedtuple("OverrideModel", "base table"), _FrameRead):
    """A base model with finitely many divisors pinned to other values.

    The base read with the table rows patched in; when a divisor is
    listed twice, its first entry wins.  A row whose divisor has another
    length than the frame has columns is a ValueError naming it.
    """

    __slots__ = ()

    base: object
    table: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def genus(self) -> int:
        return self.base.genus

    def h0_frame(self, frame) -> list[int]:
        columns = frame.columns
        for r, (divisor, _) in enumerate(self.table):
            if len(divisor) != len(columns):
                raise ValueError(
                    f"table[{r}].divisor has {len(divisor)} coefficients, "
                    f"not one per marked point ({len(columns)})"
                )
        table = dict(reversed(self.table))
        return [table.get(row, dim)
                for row, dim in zip(zip(*columns), self.base.h0_frame(frame))]


def _same_genus(model_genus: int, genus: int) -> None:
    if model_genus != genus:
        raise ValueError(f"model genus {model_genus} differs from signature genus {genus}")


def model_from_spec(doc: dict, genus: int):
    """Build a model from its JSON description.

    Kinds: {"kind": "unibranch", "generators": [3, 7]},
    {"kind": "hyperelliptic", "genus": g, "tags": ["w", "pair:1", "pair:1"]},
    {"kind": "clifford-max", "genus": g},
    {"kind": "override", "base": {...}, "table": [{"divisor": [...], "h0": k}]}.
    A field of the wrong JSON type is a ValueError naming it, as in
    branch_algebra.generators_from_json.

    ``genus`` is the genus of the signature the model is read on.  A
    unibranch spec of another genus is refused before its element mask,
    which grows with its own genus, is built: 1, ..., lo-1 are gaps of a
    semigroup whose smallest generator is lo, so lo > genus + 1 is refused
    at once, and otherwise the genus is read off the Apery set of lo
    (semigroup.generated_genus) in O(lo * min(k, lo)) steps for k
    generators, a walk refused past semigroup.APERY_WORK_BOUND steps.
    """
    ba._field(doc, "an object", "the model spec")
    kind = doc["kind"]
    if kind == "unibranch":
        gens = sg.generator_set(ba._entries(doc, "generators", "an integer"))
        if gens[0] > genus + 1:
            raise ValueError(f"model genus at least {gens[0] - 1} differs from "
                             f"signature genus {genus}")
        _same_genus(sg.generated_genus(gens), genus)
        return UnibranchModel(sg.from_generators(gens))
    if kind == "hyperelliptic":
        return HyperellipticModel(ba._field(doc["genus"], "an integer", "genus"),
                                  tuple(ba._entries(doc, "tags", "a string")))
    if kind == "clifford-max":
        return CliffordMaxModel(ba._field(doc["genus"], "an integer", "genus"))
    if kind == "override":
        table = tuple(
            (tuple(ba._entries(e, "divisor", "an integer", f"table[{r}].")),
             ba._field(e["h0"], "an integer", f"table[{r}].h0"))
            for r, e in enumerate(ba._entries(doc, "table", "an object"))
        )
        return OverrideModel(model_from_spec(doc["base"], genus), table)
    raise ValueError(
        f"unknown model kind {kind!r}; use unibranch, hyperelliptic, "
        "clifford-max or override"
    )


class Runs(NamedTuple):
    """A filtration as columns: run r covers the levels starts[r]..ends[r]
    (inclusive), each of dimension dims[r]; lengths[r] = ends[r] - starts[r] + 1.
    Every column but dims is its ladder frame's own tuple."""

    starts: tuple[int, ...]
    ends: tuple[int, ...]
    dims: tuple[int, ...]
    lengths: tuple[int, ...]


class LadderFrame(namedtuple("LadderFrame", "sig m starts ends lengths degrees")):
    """The model-free part of a filtration of (sig, m), degree first.

    The runs of [0, m*ell] (ladder_runs), their lengths and, per run, the
    degree of the divisor m*(m_i + 1) - ceil(lam/a_i) at its start:
    m(2g-2+n) less the running count of branch steps.  The per-branch
    ``columns`` of those divisors are built on first read, one pass per
    branch, and kept; a model that reads only the degree never builds them.
    Read-only fields and tuples throughout, so no model can alter it for
    the next reader; a named tuple, which costs far less at import than a
    dataclass.
    """

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        starts, sig = self.starts, self.sig
        tops = [self.m * (order + 1) for order in sig.orders]
        # lam // -a is -ceil(lam/a)
        return tuple(tuple([top + lam // -a for lam in starts])
                     for top, a in zip(tops, sig.weights_a))


def frame_top(sig: Signature, m: int) -> int:
    """m(2g-2+n), the degree at lam = 0 of the frame of (sig, m), which has
    at most that plus one rows; more than FRAME_ROW_BOUND is a ValueError,
    raised before any run is built."""
    top = m * (2 * sig.genus - 2 + sig.n)
    if top + 1 > FRAME_ROW_BOUND:
        raise ValueError(f"the ladder frame of {sig} at m = {m} has up to {top + 1} rows, "
                         f"beyond the frame row bound {FRAME_ROW_BOUND}")
    return top


@lru_cache(maxsize=1)
def _ladder_frame(sig: Signature, m: int) -> LadderFrame:
    """The frame of (sig, m).  Only the last frame is kept, so consecutive
    reads of one (signature, m) share it, its columns included, and a
    change of either rebuilds it.  More than FRAME_ROW_BOUND possible rows
    is a ValueError (frame_top)."""
    top = frame_top(sig, m)
    starts, ends, steps = ladder_runs(sig, 0, m * sig.ell)
    return LadderFrame(sig, m, tuple(starts), tuple(ends),
                       tuple([hi - lo + 1 for lo, hi in zip(starts, ends)]),
                       tuple([top - s for s in accumulate(steps)]))


def filtration_dims(model, sig: Signature, m: int = 1) -> Runs:
    """Weight filtration levels lam = 0..m*ell as the ladder's runs, in columns.

    Level lam holds the m-fold pluricanonical sections vanishing to ladder
    order, so its dimension is h0 of m*(m_i + 1) minus the ladder at lam.
    The lam = 0 value is g-1+n for m = 1 and (2m-1)(g-1) + m*n beyond.

    The ladder only steps at lam = k*a_i + 1, so the divisors are the rows
    of a frame over those run starts that depends on (sig, m) alone: it is
    built once per (signature, m) and reused by consecutive reads, so a
    semigroup search of one genus builds it once.  The model answers the
    frame in one ``h0_frame`` call: at most m(2g-2+n) + 1 rows whatever
    ell is, with no per-level call.  The result's starts, ends and lengths
    are the frame's own tuples, not copies, and its dims one tuple of the
    model's answers: the runs are the ladder's, unmerged, the first at
    lam = 0.  A level whose h0 exceeds the one before is a ValueError
    naming it.
    """
    if m < 1:
        raise ValueError("pluricanonical level m must be at least 1")
    _same_genus(model.genus, sig.genus)
    frame = _ladder_frame(sig, m)
    starts, ends = frame.starts, frame.ends
    dims = model.h0_frame(frame)
    if dims != sorted(dims, reverse=True):
        r = next(r for r in range(1, len(dims)) if dims[r] > dims[r - 1])
        raise ValueError(f"filtration dimensions are not non-increasing: {dims[r]} at "
                         f"lam = {starts[r]} exceeds {dims[r - 1]} at lam = {ends[r - 1]}")
    return Runs(starts, ends, tuple(dims), frame.lengths)


def expand_runs(runs: Runs) -> tuple[int, ...]:
    """The dense dimension sequence, one entry per level: each run's
    dimension repeated over its length."""
    return tuple(chain.from_iterable(map(repeat, runs.dims, runs.lengths)))


def runs_chi_log(runs: Runs) -> int:
    """Sum of the dimensions over the levels lam >= 1, i.e. chi_m^log.

    The runs of filtration_dims start at lam = 0, so this is the sum of
    length times dimension over the runs, one C-level reduction, less the
    lam = 0 dimension, which is that of the first run.
    """
    return sum(map(mul, runs.lengths, runs.dims)) - runs.dims[0]
