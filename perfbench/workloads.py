"""Seeded inputs, timed operations and output summaries of the four workloads.

Every workload draws its inputs from a fixed grid of strata, so that two
seeds ask for about the same amount of work.  The seed picks the cheap
choices and the order of the operations.  The cheap choices are dangling
flags, thresholds where they do not change the cost, members of equal-cost
pools, and one member of each stratum of the cheap families.  The grids, pools and exclusions below are also the domain that
``make_expected.py`` covers, so every input a seed can draw has an entry in
``expected.json``.

An operation is one call sequence into the library's public API.  Only
``Op.run`` is timed; ``Op.summarize`` turns its result into the plain JSON
value that must equal the expected-results entry named by ``Op.key``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import lcm
from typing import Callable

from gmspectra import branch_algebra as ba
from gmspectra import catalog as cat
from gmspectra import classifier
from gmspectra import curve_models as cm
from gmspectra import invariants as inv
from gmspectra import semigroup as sg
from gmspectra.signature import derive

NAMES = ("search", "large_ell", "semigroups", "algebra")

# The two cutoffs the paper certifies.  Thresholds below 3/8 are not drawn:
# at large genus alpha_search raises UnresolvedSignatureError there by design.
THRESHOLDS = (Fraction(3, 8), Fraction(5, 9))

SEARCH_GENERA = range(6, 17)
SEMIGROUP_GENERA = range(20, 29)

# (ell, branches, pool size, draws per pass).  A pool holds signatures of
# equal ell and n, all orders even and distinct (one hyperelliptic tagging
# each), so that its members cost about the same.  The top tier, half of a
# pass, is one fixed signature: its members' costs still differ by 15%.
LARGE_ELL_TIERS = ((5005, 4, 16, 7), (15015, 5, 8, 3), (85085, 5, 1, 1))
LARGE_ELL_MAX_DIVISOR = 250

# (family, parameter, strata).  One draw per stratum and pass.  The D
# strata are single genera: close() costs grow like g^2 and the D ops hold
# the tail percentile, which a one-genus offset already moves by 5%.
# Elliptic n = 12 is excluded: 13*chi1 = chi2_log there, so alpha is
# undefined and catalog.family raises ValueError by design.
ALGEBRA_FAMILIES = (
    ("D-odd", "g", ((20, 20), (32, 32), (44, 44), (56, 56), (68, 68), (80, 80))),
    ("D-even", "g", ((20, 20), (40, 40), (60, 60))),
    ("A", "g", ((2, 13), (14, 27), (28, 40))),
    ("A-odd", "g", ((2, 20), (21, 40))),
    ("elliptic", "n", ((6, 8), (9, 11), (13, 15), (18, 20))),
)
ELLIPTIC_EXCLUDED = (12,)
MONOMIAL_GENERA = range(3, 8)  # symmetric semigroups drawn for `monomial`
MONOMIAL_DRAWS = 4
ORDINARY_POINTS = range(1, 4)  # k for with_ordinary_points
ORDINARY_DRAWS = 4

# Percentile reported as op_tail_s, and the fewest operations a run times
# so that at least ten lie beyond it.  The number of ops in a pass and the
# percentile are chosen so that the median and this percentile fall in the
# middle of a group of equal-cost ops, not at its edge: 33 ops for search,
# 11 for large_ell, 45 for algebra.  In semigroups (9 ops) g = 25 and 26
# cost the same and fill (5/9, 7/9] of the ranks, hence p67.
TAIL = {"search": 90, "large_ell": 75, "semigroups": 67, "algebra": 90}


def min_ops(workload: str) -> int:
    pct = TAIL[workload]
    return -(-10 * 100 // (100 - pct))


@dataclass(frozen=True)
class Op:
    key: str  # entry of expected.json
    size: dict  # input size: g, and ell and n where one signature is given
    run: Callable[[], object]
    summarize: Callable[[object], object]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def rational(value: Fraction) -> str:
    return str(Fraction(value))


# ------------------------------------------------------------------ search


def search_key(g: int, tau: Fraction, dangling: bool) -> str:
    return f"{g}|{tau}|{int(dangling)}"


def run_search(g, tau, dangling, catalog):
    return classifier.alpha_search(
        g, catalog, threshold=tau, dangling=dangling, genus_bound=max(SEARCH_GENERA)
    )


def summarize_search(candidates) -> dict:
    lines = [
        "|".join(
            str(x)
            for x in (c.signature, c.model, c.chi1_log, c.threshold_rhs, c.passed,
                      c.item, c.component, c.dangling)
        )
        for c in candidates
    ]
    return {"count": len(candidates), "sha256": digest(lines)}


def search_ops(rng: random.Random) -> list[Op]:
    # Every genus at 3/8 with dangling off and on: these carry the cost.
    # 5/9 prunes almost everything, so its dangling flag is drawn.
    catalog = list(cat.entries())
    rng.shuffle(catalog)
    low, high = THRESHOLDS
    specs = [(g, low, d) for g in SEARCH_GENERA for d in (False, True)]
    specs += [(g, high, rng.random() < 0.5) for g in SEARCH_GENERA]
    return [
        Op(search_key(g, tau, d), {"g": g},
           partial(run_search, g, tau, d, catalog), summarize_search)
        for g, tau, d in specs
    ]


# -------------------------------------------------------------- semigroups


def semigroup_key(g: int, tau: Fraction) -> str:
    return f"{g}|{tau}"


def run_semigroups(g, tau):
    records = classifier.semigroup_search(g, threshold=tau)
    return records, sg.element_sum_bound_filter(g, [r.semigroup for r in records])


def summarize_semigroups(result) -> dict:
    records, bound = result
    return {
        "symmetric": len(records),
        "passed": sum(r.passed for r in records),
        "records_sha256": digest(
            f"{r.semigroup}|{r.chi1_log}|{r.element_sum}|{r.hyperelliptic}|{r.spin}|{r.passed}"
            for r in records
        ),
        "bound": len(bound),
        "bound_sha256": digest(f"{b.semigroup}|{b.element_sum}|{b.slack}" for b in bound),
    }


def semigroup_ops(rng: random.Random) -> list[Op]:
    ops = []
    for g in SEMIGROUP_GENERA:
        tau = rng.choice(THRESHOLDS)
        ops.append(Op(semigroup_key(g, tau), {"g": g, "ell": 2 * g - 1, "n": 1},
                      partial(run_semigroups, g, tau), summarize_semigroups))
    return ops


# --------------------------------------------------------------- large_ell


def large_ell_pool(ell: int, n: int, size: int) -> list[tuple[int, ...]]:
    """The `size` lowest-genus order tuples with n distinct even orders and lcm(m+1) = ell."""
    divisors = [d for d in range(3, LARGE_ELL_MAX_DIVISOR + 1) if ell % d == 0 and d % 2]
    tuples = [
        tuple(d - 1 for d in reversed(c))
        for c in combinations(divisors, n)
        if lcm(*c) == ell
    ]
    tuples.sort(key=lambda t: (sum(t), t))
    return tuples[:size]


def large_ell_key(orders) -> str:
    return ",".join(map(str, orders))


def run_large_ell(orders):
    sig = derive(orders)
    clifford = classifier.clifford_profile_chi1(sig)
    hyperelliptic = [
        (t.label, classifier.hyperelliptic_chi1(sig, t))
        for t in classifier.hyperelliptic_taggings(sig)
    ]
    model = cm.CliffordMaxModel(sig.genus)
    w1 = inv.weight_spectrum(model, 1, sig)
    w2 = inv.weight_spectrum(model, 2, sig)
    return clifford, hyperelliptic, w1, w2, inv.slope(w1.chi_log, w2.chi_log, sig)


def summarize_large_ell(result) -> dict:
    clifford, hyperelliptic, w1, w2, slope = result
    return {
        "clifford_chi1": clifford,
        "hyperelliptic_chi1": dict(hyperelliptic),
        "chi1_log": w1.chi_log,
        "chi2_log": w2.chi_log,
        "multiplicity1": w1.total_multiplicity,
        "multiplicity2": w2.total_multiplicity,
        "slope": rational(slope),
    }


def large_ell_ops(rng: random.Random) -> list[Op]:
    ops = []
    for ell, n, size, draws in LARGE_ELL_TIERS:
        for orders in rng.sample(large_ell_pool(ell, n, size), draws):
            g = sum(orders) // 2 + 1
            ops.append(Op(large_ell_key(orders), {"g": g, "ell": ell, "n": n},
                          partial(run_large_ell, orders), summarize_large_ell))
    return ops


# ----------------------------------------------------------------- algebra


def monomial_keys() -> list[str]:
    return ["monomial:" + ",".join(map(str, H.generators))
            for g in MONOMIAL_GENERA for H in sg.enumerate_symmetric(g)]


def stratum(family: str, lo: int, hi: int) -> list[int]:
    return [v for v in range(lo, hi + 1)
            if not (family == "elliptic" and v in ELLIPTIC_EXCLUDED)]


def algebra_entry(key: str):
    """Build the catalog entry an algebra key names (part of the timed op)."""
    kind, _, arg = key.partition(":")
    if kind == "catalog":
        return cat.get(arg)
    if kind == "monomial":
        return cat.family("monomial", H=tuple(int(h) for h in arg.split(",")))
    if kind == "points":
        entry_id, _, k = arg.rpartition(":")
        return cat.with_ordinary_points(cat.get(entry_id), int(k))
    family = {name: param for name, param, _ in ALGEBRA_FAMILIES}[kind]
    return cat.family(kind, **{family: int(arg)})


def algebra_keys() -> list[str]:
    """Every key an algebra run can draw."""
    keys = [f"catalog:{e.id}" for e in cat.entries()]
    for name, _, strata in ALGEBRA_FAMILIES:
        for lo, hi in strata:
            keys += [f"{name}:{v}" for v in stratum(name, lo, hi)]
    keys += monomial_keys()
    keys += [f"points:{e.id}:{k}" for e in cat.entries() for k in ORDINARY_POINTS]
    return keys


def run_algebra(key):
    entry = algebra_entry(key)
    sig = derive(entry.signature)
    alg = entry.algebra()
    summary = ba.algebra_summary(alg)
    w1 = inv.weight_spectrum(alg, 1)
    w2 = inv.weight_spectrum(alg, 2)
    record = inv.alpha_slope_record(w1.chi_log, w2.chi_log, sig)
    spin = None
    if all(v % 2 == 0 for v in sig.orders):
        half = tuple(v // 2 for v in sig.orders)
        spin = "odd" if ba.section_space(alg, half).dimension % 2 else "even"
    conditions = ba.validate_G_conditions(alg, entry.dualizing_units)
    identities = inv.verify_weight_identities(w2, w1, sig)
    return summary, record, spin, conditions, identities


def summarize_algebra(result) -> dict:
    summary, record, spin, conditions, identities = result
    return {
        "gap_sequence": summary["gap_sequence"],
        "delta": summary["delta"],
        "genus": summary["genus"],
        "gorenstein": summary["gorenstein"],
        "chi1_log": record.chi1_log,
        "chi2_log": record.chi2_log,
        "alpha": rational(record.alpha),
        "slope": rational(record.slope),
        "spin": spin,
        "g_conditions": conditions.all_pass,
        "weight_identities": identities.all_pass,
    }


def algebra_size(key: str) -> dict:
    sig = derive(algebra_entry(key).signature)
    return {"g": sig.genus, "ell": sig.ell, "n": sig.n}


def algebra_ops(rng: random.Random) -> list[Op]:
    keys = [f"catalog:{e.id}" for e in cat.entries()]
    for name, _, strata in ALGEBRA_FAMILIES:
        for lo, hi in strata:
            keys.append(f"{name}:{rng.choice(stratum(name, lo, hi))}")
    keys += rng.sample(monomial_keys(), MONOMIAL_DRAWS)
    ids = [e.id for e in cat.entries()]
    keys += [f"points:{rng.choice(ids)}:{rng.choice(ORDINARY_POINTS)}"
             for _ in range(ORDINARY_DRAWS)]
    return [Op(k, algebra_size(k), partial(run_algebra, k), summarize_algebra)
            for k in keys]


BUILDERS = {
    "search": search_ops,
    "large_ell": large_ell_ops,
    "semigroups": semigroup_ops,
    "algebra": algebra_ops,
}


def build(workload: str, seed: int) -> list[Op]:
    """The seeded input set of one workload, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = BUILDERS[workload](rng)
    rng.shuffle(ops)
    return ops
