"""Spans around gmspectra's public functions, installed from outside the package.

``Tracer.install`` replaces every module attribute that refers to a traced
function, including names bound by ``from ... import`` such as
``invariants.filtration_dims`` and ``classifier.n_plus``, with a wrapper that
records a span (name, start, end, parent) and the counts the benchmark
reports.  The hot helpers ``ladder``, ``h0`` and ``count_upto`` are left
alone; their cost shows as self time of their callers.  ``uninstall`` puts
the original functions back, so untraced passes run the unmodified library.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import wraps

# module -> functions wrapped in it
TRACED = {
    "classifier": ("alpha_search", "semigroup_search", "clifford_profile_chi1",
                   "hyperelliptic_chi1"),
    "signature": ("enumerate_signatures", "n_plus"),
    "curve_models": ("filtration_dims",),
    "semigroup": ("enumerate_symmetric", "from_generators"),
    "branch_algebra": ("close", "algebra_summary", "section_space",
                       "validate_G_conditions"),
    "invariants": ("weight_spectrum", "alpha_slope_record", "slope",
                   "verify_weight_identities"),
    "catalog": ("family",),
}
MODULES = ("classifier", "signature", "curve_models", "semigroup",
           "branch_algebra", "invariants", "catalog", "cli")


def _runs(values) -> int:
    """Number of maximal runs of equal consecutive values."""
    return 1 + sum(1 for a, b in zip(values, values[1:]) if a != b) if values else 0


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Counts taken from a traced call's arguments and result, outside its span.
def _count_alpha_search(counts, args, kwargs, result):
    counts["classifier.emitted"] += len(result)


def _count_enumerate_signatures(counts, args, kwargs, result):
    counts["signature.enumerate_signatures.count"] += len(result)


def _count_n_plus(counts, args, kwargs, result):
    lo, hi = _arg(args, kwargs, 1, "lam_lo"), _arg(args, kwargs, 2, "lam_hi")
    counts["signature.n_plus.levels"] += max(0, hi - lo + 1)


def _count_filtration_dims(counts, args, kwargs, result):
    counts["curve_models.filtration_dims.levels"] += len(result)  # m*ell + 1
    counts["curve_models.runs"] += _runs(result)


def _count_enumerate_symmetric(counts, args, kwargs, result):
    counts["semigroup.enumerate_symmetric.found"] += len(result)


def _count_close(counts, args, kwargs, result):
    counts["branch_algebra.close.degrees"] += result.degree_cap
    counts["branch_algebra.close.basis_rows"] += sum(
        len(rows) for rows in result.graded_basis.values()
    )


def _count_algebra_summary(counts, args, kwargs, result):
    alg = _arg(args, kwargs, 0, "alg")
    sig = alg.signature
    needed = max(
        2 * sig.ell,
        max(a * c for a, c in zip(sig.weights_a, result["conductor"])),
    )
    counts["branch_algebra.cap"] += alg.degree_cap
    counts["branch_algebra.needed"] += needed


def _count_weight_spectrum(counts, args, kwargs, result):
    source = _arg(args, kwargs, 0, "source")
    m = _arg(args, kwargs, 1, "m", 1)
    sig = _arg(args, kwargs, 2, "sig") or source.signature
    counts["invariants.weight_spectrum.levels"] += m * sig.ell + 1


COUNTERS = {
    "classifier.alpha_search": _count_alpha_search,
    "signature.enumerate_signatures": _count_enumerate_signatures,
    "signature.n_plus": _count_n_plus,
    "curve_models.filtration_dims": _count_filtration_dims,
    "semigroup.enumerate_symmetric": _count_enumerate_symmetric,
    "branch_algebra.close": _count_close,
    "branch_algebra.algebra_summary": _count_algebra_summary,
    "invariants.weight_spectrum": _count_weight_spectrum,
}


class Tracer:
    """Spans kept in memory as parallel lists, one index per span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module: str, name: str, fn):
        qualname = f"{module}.{name}"
        count = COUNTERS.get(qualname)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(qualname)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an error once, in the innermost traced function
                if not getattr(exc, "_perfbench_counted", False):
                    tracer.counts[f"{module}.errors"] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                tracer.close(i)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("gmspectra.")]
        for module, names in TRACED.items():
            home = sys.modules[f"gmspectra.{module}"]
            for name in names:
                fn = getattr(home, name)
                wrapper = self._wrap(module, name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._originals.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._originals):
            setattr(m, attr, fn)
        self._originals.clear()

    def layer_times(self, first: int, last: int) -> dict:
        """calls, total and self seconds per traced name over spans [first, last)."""
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parents[i]
            if p >= first:
                child[p - first] += self.ends[i] - self.starts[i]
        stats: dict[str, list] = {}
        for i in range(first, last):
            dur = self.ends[i] - self.starts[i]
            s = stats.setdefault(self.names[i], [0, 0.0, 0.0])
            s[0] += 1
            s[1] += dur
            s[2] += dur - child[i - first]
        return stats

    def dump(self) -> dict:
        """Spans as [name index, start, end, parent index], names tabulated."""
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        return {
            "names": table,
            "spans": [
                [index[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }


def layer_metrics(stats: dict, counts: Counter, scale: float) -> dict:
    """Per-layer metrics of one traced pass, by the names in BENCHMARK.json.

    Span seconds are multiplied by `scale`, the pass's reference-speed factor.
    """

    def stat(name, k):
        value = stats.get(name, (0, 0.0, 0.0))[k]
        return value if k == 0 else value * scale

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("classifier.alpha_search", "classifier.semigroup_search",
                 "curve_models.filtration_dims"):
        out[f"{name}.calls"] = stat(name, 0)
        out[f"{name}.s"] = stat(name, 1)
        out[f"{name}.self_s"] = stat(name, 2)
    for name in ("classifier.clifford_profile_chi1", "classifier.hyperelliptic_chi1",
                 "signature.enumerate_signatures", "signature.n_plus",
                 "semigroup.enumerate_symmetric", "semigroup.from_generators",
                 "branch_algebra.close", "branch_algebra.algebra_summary",
                 "branch_algebra.section_space", "branch_algebra.validate_G_conditions",
                 "invariants.weight_spectrum", "invariants.alpha_slope_record",
                 "invariants.slope", "invariants.verify_weight_identities",
                 "catalog.family"):
        out[f"{name}.s"] = stat(name, 1)
    out["branch_algebra.close.calls"] = stat("branch_algebra.close", 0)
    # enumerate_signatures is called only by alpha_search, and every
    # signature it returns is scored against the Clifford cap
    scored = counts["signature.enumerate_signatures.count"]
    out["classifier.signatures_scored"] = scored
    out["classifier.emit_ratio"] = ratio(counts["classifier.emitted"], scored)
    out["curve_models.levels_per_run"] = ratio(
        counts["curve_models.filtration_dims.levels"], counts["curve_models.runs"]
    )
    out["branch_algebra.cap_over_needed"] = ratio(
        counts["branch_algebra.cap"], counts["branch_algebra.needed"]
    )
    for key in ("signature.enumerate_signatures.count", "signature.n_plus.levels",
                "curve_models.filtration_dims.levels",
                "semigroup.enumerate_symmetric.found",
                "branch_algebra.close.degrees", "branch_algebra.close.basis_rows",
                "invariants.weight_spectrum.levels"):
        out[key] = counts[key]
    for module in MODULES:
        out[f"{module}.errors"] = counts[f"{module}.errors"]
    return out
