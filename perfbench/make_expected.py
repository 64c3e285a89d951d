"""Write perfbench/expected.json: the expected output of every input a seed can draw.

    python3 perfbench/make_expected.py

Values come from references independent of the code under test wherever
one exists; the rest are recorded from the library, and ``SOURCES`` (also
written into the file) says which are which.  Rerun only when the domain in
``workloads.py`` changes, and review the diff: a changed value is a changed
result, not a refresh.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from gmspectra import classifier  # noqa: E402

# Symmetric numerical semigroups of genus g (Frobenius number 2g-1), OEIS A158206.
A158206 = {20: 227, 21: 420, 22: 546, 23: 498, 24: 926, 25: 1182, 26: 1121,
           27: 2015, 28: 2496}

# Candidate counts of `gmspectra verify` at tau = 3/8, no dangling.
SEARCH_SIZES = {6: 16}

SOURCES = {
    "search": (
        "count for g=6, tau=3/8, no dangling: SEARCH_SIZES of the paper's "
        "classification (16). Every other count and every sha256 of the "
        "candidate list: recorded from the library."
    ),
    "semigroups": (
        "symmetric: OEIS A158206. passed, bound and both sha256: recorded "
        "from the library."
    ),
    "large_ell": (
        "clifford_chi1 and chi1_log: parity identity chi1 = (g*ell - N+)/2 + a_1, "
        "N+ counted here. hyperelliptic_chi1: closed form (g+1)*ell/2 - "
        "sum over Weierstrass zeros of (ell - a_i)/4; tagging labels from the "
        "library. chi2_log: (2g-2+n)*ell + chi1. multiplicity1: g-1+n, "
        "multiplicity2: 3(g-1)+2n. slope: 12 - ((2g-2+n)*ell - sum a_i)/chi1."
    ),
    "algebra": (
        "gap_sequence, delta, chi1_log, chi2_log, alpha, slope: the catalog's "
        "stored invariants and the closed forms of catalog.family and "
        "with_ordinary_points. genus: sum(orders)/2 + 1. gorenstein, "
        "g_conditions, weight_identities: true. spin: the stored parity where "
        "the entry has one; for hyperelliptic and elliptic entries, which "
        "store none, recorded from the library."
    ),
}


def search() -> dict:
    out = {}
    catalog = None  # the shipped catalog, in file order
    for g in wl.SEARCH_GENERA:
        for tau in wl.THRESHOLDS:
            for dangling in (False, True):
                value = wl.summarize_search(wl.run_search(g, tau, dangling, catalog))
                if tau == wl.THRESHOLDS[0] and not dangling and g in SEARCH_SIZES:
                    value["count"] = SEARCH_SIZES[g]
                out[wl.search_key(g, tau, dangling)] = value
    return out


def semigroups() -> dict:
    out = {}
    for g in wl.SEMIGROUP_GENERA:
        for tau in wl.THRESHOLDS:
            value = wl.summarize_semigroups(wl.run_semigroups(g, tau))
            value["symmetric"] = A158206[g]
            out[wl.semigroup_key(g, tau)] = value
    return out


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def large_ell() -> dict:
    out = {}
    for ell, n, size, _ in wl.LARGE_ELL_TIERS:
        for orders in wl.large_ell_pool(ell, n, size):
            g = sum(orders) // 2 + 1
            a = [ell // (m + 1) for m in orders]
            a1 = a[0]
            n_plus = sum(
                1 for lam in range(a1 + 1, ell - a1 + 1)
                if (sum(_ceil_div(lam, ai) for ai in a) - n) % 2 == 0
            )
            twice = g * ell - n_plus + 2 * a1
            assert twice % 2 == 0
            chi1 = twice // 2
            hyperelliptic = {}
            for tagging in classifier.hyperelliptic_taggings(wl.derive(orders)):
                value = Fraction((g + 1) * ell, 2) - sum(
                    Fraction(ell - ell // (v + 1), 4) for v in tagging.weierstrass
                )
                assert value.denominator == 1
                hyperelliptic[tagging.label] = int(value)
            deficit = (2 * g - 2 + n) * ell - sum(a)
            out[wl.large_ell_key(orders)] = {
                "clifford_chi1": chi1,
                "hyperelliptic_chi1": hyperelliptic,
                "chi1_log": chi1,
                "chi2_log": (2 * g - 2 + n) * ell + chi1,
                "multiplicity1": g - 1 + n,
                "multiplicity2": 3 * (g - 1) + 2 * n,
                "slope": wl.rational(12 - Fraction(deficit, chi1)),
            }
    return out


def algebra() -> dict:
    out = {}
    for key in wl.algebra_keys():
        entry = wl.algebra_entry(key)
        exp = entry.expected
        spin = exp.spin
        if spin is None and all(v % 2 == 0 for v in entry.signature):
            spin = wl.run_algebra(key)[2]
        out[key] = {
            "gap_sequence": list(exp.gap_sequence),
            "delta": exp.delta,
            "genus": sum(entry.signature) // 2 + 1,
            "gorenstein": True,
            "chi1_log": exp.chi1_log,
            "chi2_log": exp.chi2_log,
            "alpha": wl.rational(exp.alpha),
            "slope": wl.rational(exp.slope),
            "spin": spin,
            "g_conditions": True,
            "weight_identities": True,
        }
    return out


def main() -> None:
    doc = {
        "sources": SOURCES,
        "search": search(),
        "large_ell": large_ell(),
        "semigroups": semigroups(),
        "algebra": algebra(),
    }
    (BENCH / "expected.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
