"""Threshold searches for level-one characters over strata and models.

Everything here decides one inequality: a model passes a cutoff tau when
its level-one character chi1_log reaches c*X, where
X = (2g-2+n)*ell - sum of a_i over the dangling branches and
c = (2-tau)/(11-12tau) = p/q, the exact condition for the alpha-invariant
to be at least tau.  Both chi1_log and X are integers, so the test is
q*chi1_log >= p*X on Python ints (_margin); X comes from one function,
_threshold_x.  The Clifford-cap prune, the nonhyperelliptic screen, the
semigroup walk, the ordinary-point budget (_budget) and every candidate
decide it that way.  A Fraction c*X is built only for the threshold_rhs
field of an emitted Candidate and for the message of an
UnresolvedSignatureError.  The search enumerates signatures (at most
four branches survive the Clifford cap), runs every admissible
hyperelliptic tagging, resolves the nonhyperelliptic side through the
Clifford profile, the shipped catalog, explicit exclusion rules and the
special-locus overrides, walks the symmetric semigroups within an
element-sum bound when there is a single zero, appends ordinary marked
points up to the budget, and optionally re-scores every record for
dangling branch subsets.
"""

from __future__ import annotations

import itertools
import logging
import time
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence

from . import catalog as cat
from . import curve_models as cm
from . import invariants as inv
from . import semigroup as sg
from .signature import Signature, derive, enumerate_signatures, n_plus

DEFAULT_THRESHOLD = Fraction(3, 8)
GENUS_BOUND = 8  # desk-scale searches; raise explicitly for more

log = logging.getLogger("gmspectra")

__all__ = [
    "Candidate",
    "EXCLUSIONS",
    "RegressionCheck",
    "RegressionReport",
    "SemigroupRecord",
    "Tagging",
    "UnresolvedSignatureError",
    "alpha_search",
    "clifford_profile_chi1",
    "hyperelliptic_chi1",
    "hyperelliptic_taggings",
    "nonvarying_regression",
    "semigroup_search",
    "threshold_coefficient",
]


def threshold_coefficient(threshold) -> Fraction:
    """Coefficient c with "alpha >= tau iff chi1_log >= c*(2g-2+n)*ell".

    c = (2-tau)/(11-12tau); tau = 3/8 gives 1/4 and tau = 5/9 gives 1/3.
    """
    tau = Fraction(threshold)
    if not 0 <= tau < Fraction(11, 12):
        raise ValueError(f"threshold must lie in [0, 11/12), got {tau}")
    return (2 - tau) / (11 - 12 * tau)


# ---------------------------------------------------------------------------
# candidates


@dataclass(frozen=True)
class Candidate:
    """One (signature, model) pair scored against the threshold."""

    signature: tuple[int, ...]
    model: str
    chi1_log: int
    threshold_rhs: Fraction
    passed: bool
    item: str  # genus-one | hyperelliptic | stratum | locus
    component: Optional[str] = None
    dangling: tuple[int, ...] = ()

    def sort_key(self):
        return (self.signature, self.model, self.dangling)


def _threshold_x(sig: Signature, dangling=()) -> int:
    """X = (2g-2+n)*ell - sum_{i in Q} a_i, the integer the cutoff is c*X of.

    With chi2_log = chi1_log + (2g-2+n)*ell (the level-two identity), alpha
    = (13x1 - 2x2)/(13x1 - x2) >= tau is chi1_log >= c*(2g-2+n)*ell.  A
    dangling branch i in Q drops its weight a_i from chi2_log first, which
    lowers the cutoff by c*a_i.
    """
    return (2 * sig.genus - 2 + sig.n) * sig.ell - sum(map(sig.weights_a.__getitem__, dangling))


def _margin(coeff: Fraction, value: int, x: int) -> int:
    """q*value - p*x for c = p/q: value >= c*x exactly when it is >= 0."""
    return coeff.denominator * value - coeff.numerator * x


def _budget(coeff: Fraction, chi1_log: int, x: int, ell: int) -> int:
    """floor((q*chi1_log - p*x)/(p*ell)): the largest k with chi1_log >= c*(x + k*ell)."""
    return _margin(coeff, chi1_log, x) // (coeff.numerator * ell)


# ---------------------------------------------------------------------------
# hyperelliptic taggings


@dataclass(frozen=True)
class Tagging:
    """A hyperelliptic placement of the zeros: Weierstrass, pairs, free.

    ``weierstrass`` lists the order of each zero at a Weierstrass point
    (those orders must be even), ``pairs`` the common order of each
    conjugate pair (one entry per pair), ``free`` the number of ordinary
    marked points.
    """

    weierstrass: tuple[int, ...]
    pairs: tuple[int, ...]
    free: int = 0

    @property
    def label(self) -> str:
        parts = sorted(
            [(v, "p") for v in self.pairs] + [(v, "w") for v in self.weierstrass],
            key=lambda t: (-t[0], t[1]),
        )
        rendered = [f"{kind}{v}" for v, kind in parts] + ["o"] * self.free
        return "hyperelliptic(" + ",".join(rendered) + ")"

    def with_free(self, extra: int) -> "Tagging":
        return Tagging(self.weierstrass, self.pairs, self.free + extra)

    def model_tags(self, sig: Signature) -> tuple[str, ...]:
        # spread the descriptor back over the concrete (sorted) orders
        by_value: dict[int, list[int]] = {}
        for i, v in enumerate(sig.orders):
            by_value.setdefault(v, []).append(i)
        tags: list[Optional[str]] = [None] * sig.n
        pair_id = 0
        for v, idxs in by_value.items():
            if v == 0:
                for i in idxs:
                    tags[i] = "free"
                continue
            p = self.pairs.count(v)
            for k in range(p):
                tags[idxs[2 * k]] = f"pair:{pair_id}"
                tags[idxs[2 * k + 1]] = f"pair:{pair_id}"
                pair_id += 1
            for i in idxs[2 * p :]:
                tags[i] = "w"
        return tuple(tags)  # type: ignore[return-value]


def hyperelliptic_taggings(sig: Signature) -> tuple[Tagging, ...]:
    """Every admissible tagging of the signature, canonically deduplicated.

    Zeros of odd order must sit in conjugate pairs of equal order, so an
    odd value occurring an odd number of times admits no tagging at all.
    Even values choose how many of their occurrences pair up; the rest go
    to Weierstrass points.  Order-0 entries are always free.
    """
    counts = Counter(v for v in sig.orders if v > 0)
    free = sum(1 for v in sig.orders if v == 0)
    per_value: list[list[tuple[int, int]]] = []
    for v, c in sorted(counts.items(), reverse=True):
        if v % 2:
            if c % 2:
                return ()
            per_value.append([(v, c // 2)])
        else:
            per_value.append([(v, p) for p in range(c // 2 + 1)])
    out = []
    for combo in itertools.product(*per_value):
        w: list[int] = []
        pairs: list[int] = []
        for v, p in combo:
            pairs.extend([v] * p)
            w.extend([v] * (counts[v] - 2 * p))
        out.append(
            Tagging(
                tuple(sorted(w, reverse=True)),
                tuple(sorted(pairs, reverse=True)),
                free,
            )
        )
    return tuple(out)


def hyperelliptic_chi1(sig: Signature, tagging: Tagging) -> int:
    """chi1_log of a tagging: the summed model filtration, checked by a closed form.

    The closed form is (g+1)*ell/2 minus half the correction (ell - a_i)/2
    per Weierstrass zero; pairs and free points contribute no correction.
    """
    model = cm.HyperellipticModel(sig.genus, tagging.model_tags(sig))
    summed = cm.runs_chi_log(cm.filtration_dims(model, sig, 1))
    shortcut = 2 * (sig.genus + 1) * sig.ell - sum(
        sig.ell - sig.ell // (v + 1) for v in tagging.weierstrass
    )  # four times the closed form
    if 4 * summed != shortcut:
        raise RuntimeError(
            f"hyperelliptic chi1 routes disagree on {sig} {tagging.label}: "
            f"model {summed}, closed form {Fraction(shortcut, 4)}"
        )
    return summed


# ---------------------------------------------------------------------------
# nonhyperelliptic resolution


class UnresolvedSignatureError(RuntimeError):
    """The Clifford screen passed but no exact value or rule applies."""


# Signatures whose nonhyperelliptic screen passes but where a geometric
# construction rules the component out; these facts are not derivable from
# section-count arithmetic alone, so they are shipped as explicit rules.
EXCLUSIONS: dict[tuple[tuple[int, ...], Optional[str]], str] = {
    ((7, 5), None): (
        "keeping every level at the nonhyperelliptic Clifford maximum forces "
        "h0(3p1+2p2) = 3, but that degree-5 net maps the curve onto a plane "
        "quintic of arithmetic genus 6, below its geometric genus 7"
    ),
    ((6, 4), "odd"): (
        "odd parity forces h0(3p1+2p2) = 3, embedding the curve as a plane "
        "quintic; projecting from p1 yields a base-point-free degree-4 pencil "
        "whose fiber 2p1+2p2 contradicts h0(2p1+p2) = 2 forcing p2 as a base "
        "point"
    ),
    ((6, 4), "even"): (
        "even parity caps h0(3p1+2p2) at 2, one below the Clifford maximum, "
        "and that divisor class occurs at five filtration levels, dropping "
        "chi1_log below the bound"
    ),
    ((6, 2), "even"): (
        "even parity with every level at the Clifford maximum forces "
        "h0(4p1+p2) = 3, realizing the curve as a plane quintic with a cusp "
        "at p1 whose tangent line would meet the branch with multiplicity "
        "above 3"
    ),
}


def clifford_profile_chi1(sig: Signature) -> int:
    """chi1_log if every filtration level sat at the Clifford maximum.

    Cross-checked against the parity-count identity
    chi1 = (g*ell - N+)/2 + a_1 before returning.
    """
    runs = cm.filtration_dims(cm.CliffordMaxModel(sig.genus), sig, 1)
    total = cm.runs_chi_log(runs)
    a1 = sig.weights_a[0]
    nplus = n_plus(sig, a1 + 1, sig.ell - a1)
    if 2 * total != sig.genus * sig.ell - nplus + 2 * a1:
        raise RuntimeError(f"Clifford profile identity failed on {sig}")
    return total


def _nonhyp_components(sig: Signature) -> list[Optional[str]]:
    # spin components exist once all orders are even; an equal odd pair
    # (g-1, g-1) carries a single nonhyperelliptic component; genus three
    # splits off hyperelliptic pieces only for (4) and (2,2)
    orders = sig.orders
    g = sig.genus
    if g < 3:
        return []
    if g == 3:
        return ["odd"] if orders in ((4,), (2, 2)) else [None]
    if all(v % 2 == 0 for v in orders):
        return ["odd", "even"]
    if sig.n == 2 and orders[0] == orders[1]:
        return ["nonhyp"]
    return [None]


def _divisor_condition_label(divisor: Sequence[int], h0: int) -> str:
    terms = []
    for i, c in enumerate(divisor):
        if c == 1:
            terms.append(f"p{i + 1}")
        elif c > 1:
            terms.append(f"{c}p{i + 1}")
    return f"override[h0({'+'.join(terms)})={h0}]"


def _nonhyp_records(sig, coeff, x, entries, stats: Counter):
    """(model, chi1, item, component) rows for the nonhyperelliptic side.

    Counts each stage it reaches in ``stats``: Clifford screens and those
    screened out, exact profiles, override and catalog resolutions and
    exclusions.
    """
    g = sig.genus
    if g < 3:
        return []
    stats["screens"] += 1
    cap_total = clifford_profile_chi1(sig)
    if _margin(coeff, cap_total, x) < 0:
        stats["screened_out"] += 1
        return []
    if sig.orders[0] == 1:
        # every level is canonical or trivial, so the profile is exact for
        # any nonhyperelliptic curve
        stats["profile"] += 1
        return [("clifford-max", cap_total, "stratum", None)]
    specials = [
        e for e in entries if e.signature == sig.orders and e.locus_condition
    ]
    if specials:
        out = []
        for e in specials:
            divisor, h0 = e.locus_condition
            model = cm.OverrideModel(
                cm.CliffordMaxModel(g), ((tuple(divisor), h0),)
            )
            chi1 = cm.runs_chi_log(cm.filtration_dims(model, sig, 1))
            if chi1 != e.expected.chi1_log:
                raise RuntimeError(
                    f"{e.id}: override filtration gives {chi1}, "
                    f"stored {e.expected.chi1_log}"
                )
            out.append(
                (_divisor_condition_label(divisor, h0), chi1, "locus", e.component)
            )
        stats["override"] += len(out)
        return out
    out = []
    for comp in _nonhyp_components(sig):
        matches = [
            e
            for e in entries
            if e.signature == sig.orders
            and e.locus_condition is None
            and e.component == comp
        ]
        if matches:
            values = {e.expected.chi1_log for e in matches}
            if len(values) != 1:
                raise RuntimeError(
                    f"catalog disagrees on chi1_log for {sig.orders} {comp}"
                )
            label = "catalog[" + "|".join(sorted(e.id for e in matches)) + "]"
            out.append((label, values.pop(), "stratum", comp))
            stats["catalog"] += 1
        elif (sig.orders, comp) in EXCLUSIONS:
            stats["excluded"] += 1
            continue
        else:
            raise UnresolvedSignatureError(
                f"{sig.orders} component {comp}: Clifford screen passes "
                f"({cap_total} >= {coeff * x}) but no catalog value, exclusion "
                f"rule or exact profile applies"
            )
    return out


# ---------------------------------------------------------------------------
# symmetric semigroups at a single zero


@dataclass(frozen=True)
class SemigroupRecord:
    """A symmetric semigroup scored against the single-zero threshold."""

    semigroup: sg.NumericalSemigroup
    chi1_log: int
    element_sum: int  # the g smallest elements
    hyperelliptic: bool
    spin: Optional[str]
    passed: bool


def _semigroup_record(H: sg.NumericalSemigroup, sig: Signature, coeff: Fraction,
                      x: int) -> SemigroupRecord:
    """H scored against c*x on the single-zero signature sig.

    chi1_log = g(2g-1) - sum of the g smallest elements, cross-checked by
    summing the section-count filtration of H before it is returned: one
    h0 frame read of the genus's shared ladder frame and one reduction over
    its columns (runs_chi_log), with no per-run tuple built.
    """
    g = sig.genus
    total = H.element_sum
    chi1 = g * (2 * g - 1) - total
    if cm.runs_chi_log(cm.filtration_dims(cm.UnibranchModel(H), sig, 1)) != chi1:
        raise RuntimeError(f"unibranch chi1 routes disagree for {H}")
    return SemigroupRecord(H, chi1, total, H.hyperelliptic, H.spin,
                           _margin(coeff, chi1, x) >= 0)


def semigroup_search(g: int, threshold=DEFAULT_THRESHOLD) -> tuple[SemigroupRecord, ...]:
    """Score every symmetric semigroup of genus g for the (2g-2) stratum.

    Each record is checked by _semigroup_record; at tau = 3/8 passing is
    the element-sum bound sum <= g^2 - 1.
    """
    if g < 2:
        raise ValueError("single-zero strata need genus at least 2")
    sig = derive((2 * g - 2,))
    coeff, x = threshold_coefficient(threshold), _threshold_x(sig)
    start = time.perf_counter()
    semigroups = sg.enumerate_symmetric(g)
    enumerated = time.perf_counter()
    out = tuple([_semigroup_record(H, sig, coeff, x) for H in semigroups])
    log.debug(
        "semigroup_search g=%d enumerated=%d passed=%d enumerate_s=%.6f score_s=%.6f",
        g, len(out), sum(r.passed for r in out),
        enumerated - start, time.perf_counter() - enumerated,
    )
    return out


def _unibranch_records(sig: Signature, coeff: Fraction,
                       stats: Counter) -> list[tuple[str, int, str, Optional[str]]]:
    """Nonhyperelliptic semigroup rows of the single-zero signature sig.

    Hyperelliptic semigroups are taggings.  A row that the search can emit
    meets c*X_Q for some dangling set Q and some number of appended
    ordinary points; each point raises X_Q by ell and X_Q is least at
    Q = (0,), so the row meets c*X_(0,).  With chi1 = g(2g-1) - S for the
    element sum S, that is q*S <= q*g(2g-1) - p*X_(0,), i.e. S <= S* for
    the floor S* of (q*g(2g-1) - p*X_(0,))/q, and the symmetric walk
    bounded by S* yields every such row.  Without dangling branches the
    cutoff c*X is higher still, so the same rows serve both searches.

    A passing row is a full stratum when every nonhyperelliptic symmetric
    semigroup of its spin meets the strict cutoff c*X, and only a locus
    otherwise.  A row that misses c*X settles its own spin; for each other
    spin of a row the unbounded walk is read lazily up to a
    nonhyperelliptic semigroup of that spin missing c*X, and stops once
    every such spin has one.  That witness is a row too: it misses c*X_(0,)
    as well (it is not among the bounded rows, which all meet c*X in its
    spin), so it emits nothing.  Every row passes _semigroup_record's
    cross-check.  Counts the rows as ``semigroups`` and the leaves both
    walks built as ``leaves`` in ``stats``.
    """
    g = sig.genus
    x = _threshold_x(sig)
    p, q = coeff.numerator, coeff.denominator
    bounded = sg.enumerate_symmetric(g, (q * g * (2 * g - 1) - p * _threshold_x(sig, (0,))) // q)
    records = [_semigroup_record(H, sig, coeff, x) for H in bounded if not H.hyperelliptic]
    failing = {r.spin for r in records if not r.passed}
    need = {r.spin for r in records} - failing
    leaves = len(bounded)
    if need:
        for H in sg.walk_symmetric(g):
            leaves += 1
            if H.spin in need and _margin(coeff, g * (2 * g - 1) - H.element_sum, x) < 0:
                records.append(_semigroup_record(H, sig, coeff, x))
                failing.add(H.spin)
                need.discard(H.spin)
                if not need:
                    break
    stats["semigroups"] += len(records)
    stats["leaves"] += leaves
    return [(f"unibranch({r.semigroup})", r.chi1_log,
             "locus" if r.spin in failing else "stratum", r.spin) for r in records]


# ---------------------------------------------------------------------------
# the search

# the stages alpha_search counts, in the order of its DEBUG line
_STAGES = ("signatures", "pruned", "taggings", "screens", "screened_out", "profile",
           "catalog", "override", "excluded", "semigroups", "leaves")
_SEARCH_LOG = ("alpha_search g=%d tau=%s " + " ".join(f"{k}=%d" for k in _STAGES)
               + " candidates=%d score_s=%.6f emit_s=%.6f")


def alpha_search(
    g: int,
    catalog=None,
    threshold=DEFAULT_THRESHOLD,
    *,
    dangling: bool = False,
    genus_bound: int = GENUS_BOUND,
) -> tuple[Candidate, ...]:
    """All models at genus g whose alpha-invariant clears the threshold.

    Emits passing candidates only.  With ``dangling`` each scored record
    is re-evaluated for every subset Q of its core branches with the
    right-hand side lowered by sum of a_i over Q, which can admit models
    the plain search rejects; appended ordinary points never dangle.
    Signatures have at most four branches (see the Clifford-cap prune).
    A genus above genus_bound is a ValueError; pass genus_bound explicitly
    to go further.  Logs one DEBUG line with the count of each stage and
    the scoring and emission times.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    if g > genus_bound:
        raise ValueError(f"genus {g} beyond the search bound {genus_bound}")
    entries = list(catalog) if catalog is not None else list(cat.entries())
    coeff = threshold_coefficient(threshold)
    start = time.perf_counter()
    stats: Counter = Counter()

    # (sig, model label, chi1, item, component, tagging-or-None)
    rows: list[tuple[Signature, str, int, str, Optional[str], Optional[Tagging]]] = []
    if g == 1:
        rows.append((derive((0,)), "elliptic", 1, "genus-one", None, None))
    else:
        signatures = enumerate_signatures(g, 4)
        stats["signatures"] = len(signatures)
        for sig in signatures:
            x = _threshold_x(sig)
            # the Clifford cap: no model has chi1_log above (g+1)*ell/2, so a
            # signature whose cap misses c*x goes (doubled to stay on ints).
            # At tau = 3/8 (c = 1/4) it misses exactly when n > 4, and a higher
            # tau raises c, so enumerating at most four branches loses nothing
            if _margin(coeff, (sig.genus + 1) * sig.ell, 2 * x) < 0:
                stats["pruned"] += 1
                continue
            for tagging in hyperelliptic_taggings(sig):
                chi1 = hyperelliptic_chi1(sig, tagging)
                rows.append(
                    (sig, tagging.label, chi1, "hyperelliptic", "hyp", tagging)
                )
                stats["taggings"] += 1
            records = (_unibranch_records(sig, coeff, stats) if sig.n == 1
                       else _nonhyp_records(sig, coeff, x, entries, stats))
            for label, chi1, item, comp in records:
                rows.append((sig, label, chi1, item, comp, None))
    scored = time.perf_counter()

    found: dict[tuple, Candidate] = {}
    for sig, label, chi1, item, comp, tagging in rows:
        subsets: list[tuple[int, ...]] = [()]
        if dangling:
            subsets = [
                Q
                for r in range(sig.n + 1)
                for Q in itertools.combinations(range(sig.n), r)
            ]
        for Q in subsets:
            x = _threshold_x(sig, Q)
            # k appended zeros keep g, ell and the core a_i, so X grows by
            # ell per point; a negative budget is a failing row
            for k in range(_budget(coeff, chi1, x, sig.ell) + 1):
                orders = sig.orders + (0,) * k
                ext_label = tagging.with_free(k).label if tagging and k else label
                if (orders, ext_label, Q) not in found:
                    found[orders, ext_label, Q] = Candidate(
                        orders, ext_label, chi1, coeff * (x + k * sig.ell), True, item, comp, Q)

    log.debug(_SEARCH_LOG, g, threshold, *(stats[k] for k in _STAGES), len(found),
              scored - start, time.perf_counter() - scored)
    return tuple(sorted(found.values(), key=Candidate.sort_key))


# ---------------------------------------------------------------------------
# nonvarying regression


@dataclass(frozen=True)
class RegressionCheck:
    entry_id: str
    field: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class RegressionReport:
    checks: tuple[RegressionCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[RegressionCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)


# genus and the Gorenstein test follow delta and spin precedes the
# characters; the other checks keep the order of the expected fields
_LEADING_CHECKS = ("gap_sequence", "delta", "genus", "gorenstein", "spin")


def nonvarying_regression(entries=None) -> RegressionReport:
    """Recompute every shipped invariant of the nonvarying catalog entries.

    Each entry's invariants.algebra_report is compared with its
    ExpectedInvariants field by field, a list read as a tuple and a key
    the report leaves out (delta, genus, alpha or slope) as None; then the
    genus must be the signature's, the ring Gorenstein, and the sorted
    ambient weights the sorted generator degrees with 1 appended.  Each
    mismatch is a failure naming the entry, the field and both values.
    """
    if entries is None:
        entries = cat.nonvarying_entries()
    checks: list[RegressionCheck] = []
    for e in entries:
        alg = e.algebra()
        report = inv.algebra_report(alg)
        got = {k: tuple(v) if isinstance(v, list) else v for k, v in report.items()}
        got["ambient_weights"] = sorted([d for d, _ in alg.generators] + [1])
        exp = {f.name: getattr(e.expected, f.name) for f in fields(e.expected)}
        exp |= {"genus": derive(e.signature).genus, "gorenstein": True,
                "ambient_weights": sorted(exp["ambient_weights"])}
        order = sorted(exp, key=lambda k: (*_LEADING_CHECKS, k).index(k))
        checks += [RegressionCheck(e.id, k, exp[k], got.get(k)) for k in order]
    return RegressionReport(tuple(checks))
