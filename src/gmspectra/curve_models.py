"""Section-count oracles for divisors supported on marked points.

Each model answers h0 for a whole batch of divisors in one call,
``h0_frame(frame)``, one dimension per row.  A frame is any object with
``degrees``, the degree of each row, and ``columns``, one coefficient list
per marked point (row r is the divisor ``(columns[0][r], ...,
columns[n-1][r])``).  ``filtration_dims`` reads a :class:`LadderFrame`,
whose degrees are built with it and whose columns only on first read, so a
model that reads the degree alone (Clifford-max) never builds them; a
:class:`Batch` holds rows given outright.  That frame read is each model's
only h0 formula and refuses nothing: ``model_from_spec`` checks a spec
against its signature once, before any frame is built, and a model built
directly is trusted.  ``h0(divisor)`` is the point read, a one-row batch.
A filtration is returned as columns, :class:`Runs`, whose bounds are the
frame's own tuples.
Models stand in where no ring is given (a ring's filtration is its graded
dimensions, invariants.weight_spectrum): semigroup counts at one point,
tagged hyperelliptic closed forms, the Clifford-maximal profile, and
finite override tables layered on any base model.  All of
them agree with Riemann-Roch once deg D > 2g-2.  Each model is a named
tuple: immutable, equal to the plain tuple of its fields, and copied with
``_replace``; none has a ``__dict__``, so nothing can be set on one.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
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


class UnibranchModel(namedtuple("UnibranchModel", "semigroup"), _FrameRead):
    """One marked point whose pole orders form the given semigroup.

    h0(c p) is the number of elements in [0, c]: read off the semigroup's
    prefix counts up to F, and c - g + 1 (Riemann-Roch) from F on.  Only
    the first column is read.
    """

    __slots__ = ()

    semigroup: sg.NumericalSemigroup

    @property
    def genus(self) -> int:
        return self.semigroup.genus

    def h0_frame(self, frame) -> list[int]:
        H = self.semigroup
        F, g, counts = H.frobenius, H.genus, H.prefix_counts()
        return [c - g + 1 if c >= F else counts[c] if c >= 0 else 0 for c in frame.columns[0]]


class HyperellipticModel(namedtuple("HyperellipticModel",
                                    "genus weierstrass_points pair_points"), _FrameRead):
    """Marked points at Weierstrass points, in conjugate pairs, or free.

    ``weierstrass_points`` holds the column index of each Weierstrass
    point, ``pair_points`` the ``(i, j)`` indices of each conjugate pair;
    every other column is a free point in general position.  Below the
    Riemann-Roch range the dimension is 1 + (number of extractable copies
    of the degree-two pencil): floor(c/2) from a Weierstrass coefficient c,
    min(b, c) from a pair, nothing from free points, clamped at 0.
    """

    __slots__ = ()

    genus: int
    weierstrass_points: tuple[int, ...]
    pair_points: tuple[tuple[int, int], ...]

    def h0_frame(self, frame) -> list[int]:
        columns = frame.columns
        g = self.genus
        canonical = 2 * g - 2
        parts = [[c // 2 for c in columns[i]] for i in self.weierstrass_points]
        parts += [list(map(min, columns[i], columns[j])) for i, j in self.pair_points]
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
    between, and Riemann-Roch above.  The Riemann-Roch range, where most
    rows of an m >= 2 frame lie, is tested first.
    """

    __slots__ = ()

    genus: int

    def h0_frame(self, frame) -> list[int]:
        g = self.genus
        canonical = 2 * g - 2
        return [deg - g + 1 if deg > canonical else 0 if deg < 0 else 1 if deg == 0
                else g if deg == canonical else (deg + 1) // 2
                for deg in frame.degrees]


class OverrideModel(namedtuple("OverrideModel", "base table"), _FrameRead):
    """A base model with finitely many divisors pinned to other values.

    The base read with the table rows patched in; when a divisor is
    listed twice, its first entry wins.
    """

    __slots__ = ()

    base: object
    table: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def genus(self) -> int:
        return self.base.genus

    def h0_frame(self, frame) -> list[int]:
        table = dict(reversed(self.table))
        return [table.get(row, dim)
                for row, dim in zip(zip(*frame.columns), self.base.h0_frame(frame))]


def _same_genus(model_genus: int, genus: int) -> None:
    if model_genus != genus:
        raise ValueError(f"model genus {model_genus} differs from signature genus {genus}")


def _hyperelliptic_model(genus: int, tags: Sequence[str],
                         orders: tuple[int, ...]) -> HyperellipticModel:
    """The model of per-point tags: ``"w"`` for a Weierstrass point,
    ``"pair:<id>"`` for one half of a conjugate pair, ``"free"`` for a
    point in general position.  A ValueError names the first fault:
    another tag count than orders, then the first unknown tag, then the
    first pair id seen other than twice, then, in point order, a tag that
    no hyperelliptic differential carries on its zero: ``w`` on an odd
    order, ``free`` on a nonzero order, or a pair whose second half has
    another order than its first."""
    if len(tags) != len(orders):
        raise ValueError(f"hyperelliptic model has {len(tags)} tag{'s' * (len(tags) != 1)}, "
                         f"not one per marked point ({len(orders)})")
    points: dict[str, list[int]] = {}  # tag -> the indices of its points
    for i, tag in enumerate(tags):
        if tag not in ("w", "free") and not tag.startswith("pair:"):
            raise ValueError(f"unknown tag {tag!r}")
        points.setdefault(tag, []).append(i)
    pairs = [(tag, members) for tag, members in points.items() if tag.startswith("pair:")]
    for tag, members in pairs:
        if (k := len(members)) != 2:
            raise ValueError(f"pair {tag[5:]!r} has {k} member{'s' * (k != 1)}, needs 2")
    for tag, v in zip(tags, orders):
        if tag == "w" and v % 2:
            raise ValueError(f"tag 'w' on a zero of odd order {v}: "
                             "a Weierstrass zero has even order")
        if tag == "free" and v:
            raise ValueError(f"tag 'free' on a zero of order {v}: a free point has order 0")
        if tag.startswith("pair:") and (u := orders[points[tag][0]]) != v:
            raise ValueError(f"pair {tag[5:]!r} joins zeros of orders {u} and "
                             f"{v}: conjugate zeros have equal order")
    return HyperellipticModel(genus, tuple(points.get("w", ())),
                              tuple(tuple(members) for _, members in pairs))


def model_from_spec(doc: dict, sig: Signature):
    """Build a model from its JSON description.

    Kinds: {"kind": "unibranch", "generators": [3, 7]},
    {"kind": "hyperelliptic", "genus": g, "tags": ["w", "pair:1", "pair:1"]},
    {"kind": "clifford-max", "genus": g},
    {"kind": "override", "base": {...}, "table": [{"divisor": [...], "h0": k}]}.
    A field of the wrong JSON type is a ValueError naming it, as in
    branch_algebra.generators_from_json.

    ``sig`` is the signature the model is read on; every fault of the spec
    against it is refused here.  A hyperelliptic or clifford-max ``genus``
    other than sig.genus is refused as soon as it is read, before any tag;
    so an override whose base has another genus names the base, not a bad
    row.  Hyperelliptic tags, also an override's base's, are read by
    _hyperelliptic_model.  An override row whose
    divisor has another length than sig.n, or whose h0 is below 0, is
    refused after the table's JSON types and the base's refusals.  A
    unibranch spec of another genus, or on more than one point, is refused
    before its element mask, which grows with its own genus, is built:
    1, ..., lo-1 are gaps of a semigroup whose smallest generator is lo, so
    lo > genus + 1 is refused at once, and otherwise the genus is read off
    the Apery set of lo (semigroup.generated_genus) in O(lo * min(k, lo))
    steps for k generators, a walk refused past semigroup.APERY_WORK_BOUND
    steps.
    """
    ba._field(doc, "an object", "the model spec")
    kind = doc["kind"]
    if kind == "unibranch":
        gens = sg.generator_set(ba._entries(doc, "generators", "an integer"))
        if gens[0] > sig.genus + 1:
            raise ValueError(f"model genus at least {gens[0] - 1} differs from "
                             f"signature genus {sig.genus}")
        _same_genus(sg.generated_genus(gens), sig.genus)
        if sig.n != 1:
            raise ValueError("unibranch model only supports divisors on its single point")
        return UnibranchModel(sg.from_generators(gens))
    if kind in ("hyperelliptic", "clifford-max"):
        genus = ba._field(doc["genus"], "an integer", "genus")
        _same_genus(genus, sig.genus)
        if kind == "clifford-max":
            return CliffordMaxModel(genus)
        return _hyperelliptic_model(genus, ba._entries(doc, "tags", "a string"), sig.orders)
    if kind == "override":
        table = tuple(
            (tuple(ba._entries(e, "divisor", "an integer", f"table[{r}].")),
             ba._field(e["h0"], "an integer", f"table[{r}].h0"))
            for r, e in enumerate(ba._entries(doc, "table", "an object"))
        )
        base = model_from_spec(doc["base"], sig)
        for r, (divisor, h0) in enumerate(table):
            if len(divisor) != sig.n:
                raise ValueError(f"table[{r}].divisor has {len(divisor)} "
                                 f"coefficient{'s' * (len(divisor) != 1)}, "
                                 f"not one per marked point ({sig.n})")
            if h0 < 0:
                raise ValueError(f"table[{r}].h0 is {h0}, below 0")
        return OverrideModel(base, table)
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
    starts, ends, steps = ladder_runs(sig, m * sig.ell)
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


def runs_chi_log(runs: Runs) -> int:
    """Sum of the dimensions over the levels lam >= 1, i.e. chi_m^log.

    The runs of filtration_dims start at lam = 0, so this is the sum of
    length times dimension over the runs, one C-level reduction, less the
    lam = 0 dimension, which is that of the first run.
    """
    return sum(map(mul, runs.lengths, runs.dims)) - runs.dims[0]
