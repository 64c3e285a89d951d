"""Threshold searches for level-one characters over strata and models.

Everything here decides one inequality: a model passes a cutoff tau when
its level-one character chi1_log reaches c*X, where
X = (2g-2+n)*ell - sum of a_i over the dangling branches and
c = (2-tau)/(11-12tau) = p/q, the exact condition for the alpha-invariant
to be at least tau.  Both chi1_log and X are integers, so the test is
q*chi1_log >= p*X on Python ints (_margin); X comes from one function,
_threshold_x.  The nonhyperelliptic screen, the semigroup walk, the
ordinary-point budget (_budget) and every candidate decide it that way;
the Clifford-cap prune decides it with ell cancelled, as a largest branch
count (_branch_cap).  A Fraction c*X is built only for the threshold_rhs
field of an emitted Candidate and for the message of an
UnresolvedSignatureError.  The search decides the Clifford cap once per
branch count, builds only the signatures it keeps, runs every admissible
hyperelliptic tagging, resolves the nonhyperelliptic side through the
Clifford profile, the shipped catalog, explicit exclusion rules and the
special-locus overrides, walks the symmetric semigroups within an
element-sum bound when there is a single zero, appends ordinary marked
points up to the budget, and optionally re-scores every record for
dangling branch subsets.  Candidates, taggings and the other records are
named tuples: immutable, equal to the plain tuple of their fields, and
copied with ``_replace``.
"""

from __future__ import annotations

import itertools
import logging
import time
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

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


class Candidate(NamedTuple):
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


class Tagging(NamedTuple):
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
        # largest order first, a pair before a Weierstrass zero of its order
        parts = sorted([(-v, "p") for v in self.pairs] + [(-v, "w") for v in self.weierstrass])
        rendered = [f"{kind}{-v}" for v, kind in parts] + ["o"] * self.free
        return "hyperelliptic(" + ",".join(rendered) + ")"

    def with_free(self, extra: int) -> "Tagging":
        return Tagging(self.weierstrass, self.pairs, self.free + extra)

    def model_tags(self, sig: Signature) -> tuple[str, ...]:
        # spread the descriptor back over the concrete orders: they are
        # non-increasing, so each value is one run whose first 2p places
        # hold its p pairs
        tags: list[str] = []
        pair_id = 0
        for v, run in itertools.groupby(sig.orders):
            c = len(list(run))
            if v == 0:
                tags += ["free"] * c
                continue
            p = self.pairs.count(v)
            tags += [f"pair:{pair_id + k // 2}" for k in range(2 * p)] + ["w"] * (c - 2 * p)
            pair_id += p
        return tuple(tags)


def hyperelliptic_taggings(sig: Signature) -> tuple[Tagging, ...]:
    """Every admissible tagging of the signature, canonically deduplicated.

    Zeros of odd order must sit in conjugate pairs of equal order, so an
    odd value occurring an odd number of times admits no tagging at all.
    Even values choose how many of their occurrences pair up; the rest go
    to Weierstrass points.  Order-0 entries are always free.  The orders
    are non-increasing, so each value is one run and every descriptor's
    ``weierstrass`` and ``pairs`` come out non-increasing.
    """
    free = 0
    per_value: list[list[tuple[int, int, int]]] = []  # (value, pairs, Weierstrass zeros)
    for v, run in itertools.groupby(sig.orders):
        c = len(list(run))
        if v == 0:
            free = c
        elif v % 2:
            if c % 2:
                return ()
            per_value.append([(v, c // 2, 0)])
        else:
            per_value.append([(v, p, c - 2 * p) for p in range(c // 2 + 1)])
    out = []
    for combo in itertools.product(*per_value):
        w: list[int] = []
        pairs: list[int] = []
        for v, p, left in combo:
            pairs += [v] * p
            w += [v] * left
        out.append(Tagging(tuple(w), tuple(pairs), free))
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


class SemigroupRecord(NamedTuple):
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

# the branch cap and the stages alpha_search counts, in the order of its DEBUG line
_STAGES = ("branch_cap", "signatures", "taggings", "screens", "screened_out", "profile",
           "catalog", "override", "excluded", "semigroups", "leaves")
_SEARCH_LOG = ("alpha_search g=%d tau=%s " + " ".join(f"{k}=%d" for k in _STAGES)
               + " candidates=%d score_s=%.6f emit_s=%.6f")


def _branch_cap(g: int, coeff: Fraction) -> int:
    """The most branches a genus-g signature can have and survive the Clifford cap.

    No model has chi1_log above the cap (g+1)*ell/2, so a signature goes
    when the cap misses c*X = c*(2g-2+n)*ell, i.e. when
    q*(g+1) < 2p*(2g-2+n) for c = p/q: ell cancels, and the signature stays
    exactly when n is at most the floor of (q*(g+1) - 2p*(2g-2))/(2p).  That
    is 4 at tau = 3/8 (c = 1/4) for every g, below 4 above it, and below 1
    at tau = 5/9 (c = 1/3) from g = 6 on.
    """
    p, q = coeff.numerator, coeff.denominator
    return (q * (g + 1) - 2 * p * (2 * g - 2)) // (2 * p)


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
    Signatures are built only up to the Clifford cap's branch count
    (_branch_cap).  A genus above genus_bound is a ValueError; pass
    genus_bound explicitly to go further.  Logs one DEBUG line with that
    ``branch_cap``, the count of each stage (``signatures`` those built)
    and the scoring and emission times.
    """
    if g < 1:
        raise ValueError("genus must be at least 1")
    if g > genus_bound:
        raise ValueError(f"genus {g} beyond the search bound {genus_bound}")
    entries = list(catalog) if catalog is not None else list(cat.entries())
    coeff = threshold_coefficient(threshold)
    start = time.perf_counter()
    n_cap = _branch_cap(g, coeff)
    stats: Counter = Counter(branch_cap=n_cap)

    # per signature, its (model label, chi1, item, component, tagging-or-None) rows
    rows: list[tuple[Signature, list[tuple]]] = []
    if g == 1:
        rows.append((derive((0,)), [("elliptic", 1, "genus-one", None, None)]))
    else:
        sigs = enumerate_signatures(g, n_cap) if n_cap >= 1 else []
        stats["signatures"] = len(sigs)
        for sig in sigs:
            sig_rows = []
            for tagging in hyperelliptic_taggings(sig):
                chi1 = hyperelliptic_chi1(sig, tagging)
                sig_rows.append((tagging.label, chi1, "hyperelliptic", "hyp", tagging))
                stats["taggings"] += 1
            records = (_unibranch_records(sig, coeff, stats) if sig.n == 1
                       else _nonhyp_records(sig, coeff, _threshold_x(sig), entries, stats))
            sig_rows += [(label, chi1, item, comp, None) for label, chi1, item, comp in records]
            if sig_rows:
                rows.append((sig, sig_rows))
    scored = time.perf_counter()

    found: dict[tuple, Candidate] = {}
    for sig, sig_rows in rows:
        subsets = ([Q for r in range(sig.n + 1) for Q in itertools.combinations(range(sig.n), r)]
                   if dangling else [()])
        cutoffs = [(Q, _threshold_x(sig, Q)) for Q in subsets]
        for label, chi1, item, comp, tagging in sig_rows:
            for Q, x in cutoffs:
                # k appended zeros keep g, ell and the core a_i, so X grows by
                # ell per point; a negative budget is a failing row
                for k in range(_budget(coeff, chi1, x, sig.ell) + 1):
                    orders = sig.orders + (0,) * k
                    ext_label = tagging.with_free(k).label if tagging and k else label
                    if (orders, ext_label, Q) not in found:
                        found[orders, ext_label, Q] = Candidate(
                            orders, ext_label, chi1, coeff * (x + k * sig.ell), True, item,
                            comp, Q)

    log.debug(_SEARCH_LOG, g, threshold, *(stats[k] for k in _STAGES), len(found),
              scored - start, time.perf_counter() - scored)
    return tuple(sorted(found.values(), key=Candidate.sort_key))


# ---------------------------------------------------------------------------
# nonvarying regression


class RegressionCheck(NamedTuple):
    entry_id: str
    field: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class RegressionReport(NamedTuple):
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
        exp = e.expected._asdict()
        exp |= {"genus": derive(e.signature).genus, "gorenstein": True,
                "ambient_weights": sorted(exp["ambient_weights"])}
        order = sorted(exp, key=lambda k: (*_LEADING_CHECKS, k).index(k))
        checks += [RegressionCheck(e.id, k, exp[k], got.get(k)) for k in order]
    return RegressionReport(tuple(checks))
