"""Benchmark harness for gmspectra.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

One process, one client, a closed loop: each operation starts when the
previous one has returned.  The harness builds the workload's seeded input
set, runs it once to warm up, then runs it pass after pass for about
``--seconds`` seconds, and longer if the tail percentile has fewer than ten
operations beyond it.  Every operation's output is compared with
``perfbench/expected.json``; one that raises or differs counts as failed.

Times are reported in reference-speed seconds.  The CPU speed of the shared
machine the bounds were set on drifts by 15-20% within minutes, so a fixed
pure-Python kernel is timed between every two operations and each
operation's time is scaled by REFERENCE_SECONDS over the kernel's mean time
around it.  The raw seconds are printed too.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` untraced and traced passes alternate,
the object holds the per-layer metrics, and the spans and per-operation rows
are written to ``perfbench/out/``.  Exits with code 2 if the checkout has no
``src/gmspectra``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

# Typical time of reference() on the 2.1 GHz Xeon vCPU the bounds were set on.
REFERENCE_SECONDS = 0.005

# Fresh interpreter: import the CLI module, load the catalog once, then time
# the reference kernel three times in the same process.
PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import gmspectra.cli
t1 = time.perf_counter()
gmspectra.catalog.entries()
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from run import reference
refs = sorted(reference() for _ in range(3))
print(json.dumps([t1 - t0, t2 - t1, refs[1], gmspectra.__file__]))
"""

# A reference sample is taken before a pass, after it, and after any op that
# ends at least SAMPLE_EVERY seconds after the last sample.  An op's scale
# uses the median of the samples within WINDOW seconds of it.
SAMPLE_EVERY = 0.25
WINDOW = 1.0


def reference() -> float:
    """Seconds for a fixed pure-Python kernel: a probe of the machine's current speed."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for lam in range(1500):
        steps = tuple(-(-lam // a) for a in (3, 5, 7, 11, 13))
        total += Fraction(sum(steps), 7)
    return time.perf_counter() - t0


def setup_probe() -> tuple[float, float]:
    """Scaled (import, first catalog.entries()) seconds in a fresh subprocess."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC), str(BENCH)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        sys.exit(f"set-up probe failed:\n{done.stderr}")
    import_s, entries_s, ref, origin = json.loads(done.stdout.splitlines()[-1])
    if not Path(origin).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"gmspectra imported from {origin}, not from {SRC}")
    k = REFERENCE_SECONDS / ref
    return import_s * k, entries_s * k


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Run:
    """Timed passes over one input set, with the output of every op checked."""

    def __init__(self, ops, expected: dict):
        self.ops = ops
        self.expected = expected
        self.op_seconds: list[float] = []  # scaled, untraced passes after warm-up
        self.rows: list[list] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.passes = 0

    def one_pass(self, tracer=None) -> tuple[float, float, float]:
        """Run every op once, each after a full garbage collection.

        Returns the raw and the scaled seconds spent inside the library, and
        the median reference-kernel time of the pass.
        """
        self.passes += 1
        samples = [(time.perf_counter(), reference())]
        timed = []
        for op in self.ops:
            gc.collect()
            span = tracer.open("op") if tracer else None
            t0 = time.perf_counter()
            try:
                result = op.run()
                error = None
            except Exception as exc:  # a raising op counts as failed
                result = None
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer:
                tracer.close(span)
            if error is None:
                got = op.summarize(result)
                if got != self.expected.get(op.key):
                    error = f"output {got!r} differs from expected {self.expected.get(op.key)!r}"
            # free the result now, so that it does not add to the next op's
            # peak memory
            result = None
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{op.key}: {error}")
            timed.append((op, t0, dt, error is None))
            if time.perf_counter() - samples[-1][0] >= SAMPLE_EVERY:
                samples.append((time.perf_counter(), reference()))
        samples.append((time.perf_counter(), reference()))

        raw = scaled = 0.0
        for op, t0, dt, ok in timed:
            near = [r for t, r in samples if t0 - WINDOW <= t <= t0 + dt + WINDOW]
            op_scaled = dt * REFERENCE_SECONDS / statistics.median(near)
            raw += dt
            scaled += op_scaled
            if tracer is None:
                self.op_seconds.append(op_scaled)
            self.rows.append([self.passes, tracer is not None, op.key, op.size.get("g"),
                              op.size.get("ell"), op.size.get("n"), dt, op_scaled, ok])
        return raw, scaled, statistics.median(r for _, r in samples)


def measure(ops, expected: dict, seconds: float, trace: bool, min_ops: int):
    """Run passes until the time is used and at least `min_ops` untraced ops are timed.

    Returns the Run, the (raw, scaled, reference) triple of every untraced
    and every traced pass, the per-layer metrics of each traced pass, and
    the tracer (None when not tracing).
    """
    run = Run(ops, expected)
    run.one_pass()  # warm-up: checked, not timed
    run.op_seconds.clear()
    tracer = Tracer() if trace else None
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(run.one_pass())
        if trace:
            first = len(tracer.names)
            tracer.counts.clear()
            tracer.install()
            try:
                traced.append(run.one_pass(tracer))
            finally:
                tracer.uninstall()
            stats = tracer.layer_times(first, len(tracer.names))
            scale = REFERENCE_SECONDS / traced[-1][2]
            layers.append(layer_metrics(stats, tracer.counts, scale))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if len(run.op_seconds) >= min_ops and elapsed + per_round > seconds:
            return run, plain, traced, layers, tracer


def end_to_end(run: Run, plain, setups, tail: int) -> dict:
    return {
        "wall_s": statistics.median(s for _, s, _ in plain),
        "op_p50_s": percentile(run.op_seconds, 50),
        "op_tail_s": percentile(run.op_seconds, tail),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(i + e for i, e in setups),
    }


def per_layer(run: Run, plain, traced, layers, setups) -> dict:
    out = {name: statistics.median(layer[name] for layer in layers)
           for name in layers[0]}
    out["catalog.entries.s"] = statistics.median(e for _, e in setups)
    out["cli.import_s"] = statistics.median(i for i, _ in setups)
    out["trace.overhead_s"] = (statistics.median(s for _, s, _ in traced)
                               - statistics.median(s for _, s, _ in plain))
    out["error_rate"] = len(run.failures) / run.attempted
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gmspectra" / "__init__.py").is_file():
        print(f"no gmspectra sources under {SRC}", file=sys.stderr)
        return 2
    setup_probe()  # writes bytecode; not counted
    setups = [setup_probe() for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    expected = json.loads((BENCH / "expected.json").read_text())[args.workload]
    ops = workloads.build(args.workload, args.seed)
    tail = workloads.TAIL[args.workload]
    # a traced run reports no tail percentile, so needs no minimum op count
    min_ops = 0 if args.trace else workloads.min_ops(args.workload)
    run, plain, traced, layers, tracer = measure(
        ops, expected, args.seconds, bool(args.trace), min_ops
    )

    for line in run.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    n = len(run.op_seconds)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced passes of "
          f"{len(ops)} ops after one warm-up pass; {run.attempted} ops attempted, "
          f"{len(run.failures)} failed, error_rate {len(run.failures) / run.attempted:.6g}; "
          f"python {sys.version.split()[0]}")
    print("untraced passes, raw s: " + " ".join(f"{r:.4f}" for r, _, _ in plain))
    print("untraced passes, scaled s: " + " ".join(f"{s:.4f}" for _, s, _ in plain))
    print(f"reference kernel, median ms: "
          + " ".join(f"{k * 1000:.3f}" for _, _, k in plain)
          + f" (scaled to {REFERENCE_SECONDS * 1000:g})")
    if args.trace:
        metrics = per_layer(run, plain, traced, layers, setups)
        out = BENCH / "out" / f"trace-{args.workload}-{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "ops": {"columns": ["pass (1 = warm-up)", "traced", "key", "g", "ell", "n",
                                "raw_s", "scaled_s", "ok"],
                    "rows": run.rows},
            **tracer.dump(),
        }))
        print(f"{len(tracer.names)} spans written to {out.relative_to(ROOT)}; "
              "cap_over_needed = sum(degree_cap) / sum(max(2*ell, max_i a_i*c_i)) "
              "over algebra_summary calls")
    else:
        print(f"op_tail_s is the p{tail} of {n} untraced ops "
              f"({n - math.ceil(tail / 100 * n)} beyond it)")
        metrics = end_to_end(run, plain, setups, tail)
    specs = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in specs}:
        sys.exit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    for m in specs:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
