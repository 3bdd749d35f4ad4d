"""arc-cpd benchmark: closed-loop workloads, checked outputs, layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload scan_long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

With --trace 0 the last line of standard output is one JSON object holding
every end-to-end metric; with --trace 1 it holds every per-layer metric
instead. Lines before it start with '#' and carry the provenance stamp, the
sample counts and the failure ratio. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

E2E_UNITS = {"setup_s": "s", "op_p50_ref": "ref", "op_tail_ref": "ref",
             "ops_per_ref": "1/ref", "peak_rss_mib": "MiB"}

# The host's speed moves by tens of percent from one second to the next, so
# operation times are reported in units of a reference kernel. The kernel
# runs once before the first operation and, after each operation, for
# REF_SHARE of that operation's time (at least once). Each operation is
# divided by its own reference: the median kernel time over the calls just
# before and just after it (`Phase.ratios`).
REF_SHARE = 0.1

# candidate tail percentiles; the highest one with >= 10 samples beyond wins
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import arc_cpd
dt = time.perf_counter() - t
if not arc_cpd.__file__.startswith(sys.argv[1]):
    raise SystemExit("arc_cpd imported from " + arc_cpd.__file__)
print(dt)
"""


def import_seconds() -> float:
    """Time to import arc_cpd in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def stamp(workload: str, seed: int) -> dict:
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        rev = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "git_rev": rev, "src_sha256": digest.hexdigest()}


def tail(times):
    """(percentile, value): the highest ladder percentile with >= 10 samples
    beyond it, by nearest rank. With too few samples for any of them there
    is no tail to measure, and the median stands in: (None, median)."""
    ordered = sorted(times)
    n = len(ordered)
    for q in reversed(TAIL_LADDER):
        if n * (1.0 - q / 100.0) >= 10:
            return q, ordered[math.ceil(q / 100.0 * n) - 1]
    return None, median(ordered)


def interpreter_kernel() -> float:
    """Fixed interpreter and small-array numpy work, independent of arc_cpd."""
    x = np.arange(340, dtype=np.float64)
    acc = 0.0
    for i in range(150):
        g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(i)))
        acc += float(np.sort(x[g.permutation(340)])[:170].sum())
        acc += sum(j * 0.5 for j in range(40))
    return acc


_ROWS = np.random.default_rng(0).random((600, 340))


def array_kernel() -> float:
    """Fixed numpy work on a 1.6 MB array, independent of arc_cpd."""
    return float(np.sort(_ROWS, axis=1)[:, :170].sum())


# The kernel each workload is timed against: the one whose time tracked the
# workload's own best over runs on a shared 2-vCPU host (perfbench/README.md).
KERNELS = {"scan_long": array_kernel, "tune_select": interpreter_kernel,
           "grid_mc": array_kernel}


def reference_burst(kernel, budget: float) -> list:
    """Times of `kernel` over a burst of at least `budget` seconds, and of
    at least one call."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < budget:
        t = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t)
    return times


def local_ratios(times, bursts):
    """Operation i's time over the median of bursts[i] and bursts[i + 1],
    the reference-kernel times just before and just after it."""
    return [t / median(bursts[i] + bursts[i + 1]) for i, t in enumerate(times)]


@dataclass
class Phase:
    times: list = field(default_factory=list)
    # reference-kernel times: a burst before the first op and after each
    bursts: list = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0  # loop time without the reference bursts
    digests: dict = field(default_factory=dict)

    @property
    def ref(self) -> float:
        return median(t for b in self.bursts for t in b)

    @property
    def ratios(self) -> list:
        """Operation times in ref units."""
        return local_ratios(self.times, self.bursts)

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / self.wall

    @property
    def ops_per_ref(self) -> float:
        """ops_per_s times the reference, weighted by operation time."""
        return self.ops_per_s * sum(self.times) / sum(self.ratios)


def run_op(wl, i: int, phase: Phase) -> None:
    t = time.perf_counter()
    try:
        out = wl.op(i)
        phase.times.append(time.perf_counter() - t)
        problem = wl.check(out)
    except Exception:  # an operation that raises counts as failed
        phase.times.append(time.perf_counter() - t)
        problem = traceback.format_exc()
    if problem is None:
        phase.digests[i] = wl.digest(out)
    else:
        phase.failed += 1
        print(f"# op {i} failed: {problem}", file=sys.stderr)


def measure(wl, kernel, seconds: float, first: int) -> Phase:
    """Closed loop: operations first, first+1, ... until `seconds` pass,
    with a reference burst before the first and after each."""
    phase = Phase()
    start = time.perf_counter()
    spent = 0.0

    def burst(budget: float) -> None:
        nonlocal spent
        t = time.perf_counter()
        phase.bursts.append(reference_burst(kernel, budget))
        spent += time.perf_counter() - t

    burst(0.0)
    i = first
    while time.perf_counter() - start < seconds:
        run_op(wl, i, phase)
        burst(REF_SHARE * phase.times[-1])
        i += 1
    phase.wall = time.perf_counter() - start - spent
    return phase


def rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes):
    """One benchmark run; returns (result JSON object, notes for humans)."""
    from workloads import WORKLOADS

    imports = [import_seconds() for _ in range(sizes.import_probes)]
    t = time.perf_counter()
    wl = WORKLOADS[name](seed, sizes)
    warm = Phase()
    run_op(wl, 0, warm)
    setup_s = median(imports) + time.perf_counter() - t
    notes = [f"setup: import {median(imports):.4f} s (median of "
             f"{len(imports)} fresh interpreters), inputs and warm-up "
             f"{setup_s - median(imports):.4f} s"]

    if not trace:
        main = measure(wl, KERNELS[name], seconds, 1)
        _, tail_s = tail(main.times)
        ratios = main.ratios
        q, tail_ref = tail(ratios)
        metrics = {"setup_s": setup_s, "op_p50_ref": median(ratios),
                   "op_tail_ref": tail_ref,
                   "ops_per_ref": main.ops_per_ref, "peak_rss_mib": rss_mib()}
        units = E2E_UNITS
        phases = (warm, main)
        notes.append(f"{len(main.times)} op samples; " + (
            f"op_tail is p{q:g}" if q is not None else
            "too few for a tail percentile, op_tail is the median"))
        notes.append(f"in seconds: op_p50_s {median(main.times):.6g} s, "
                     f"op_tail_s {tail_s:.6g} s, ops_per_s "
                     f"{main.ops_per_s:.6g} 1/s; {KERNELS[name].__name__} "
                     f"{main.ref:.6g} s (median of "
                     f"{sum(len(b) for b in main.bursts)})")
    else:
        from tracer import Tracer, layer_metrics, traced
        # untraced half first, then the same operations again under the trace
        plain = measure(wl, KERNELS[name], seconds / 2, 1)
        speedups = list(getattr(wl, "speedups", ()))
        tracer = Tracer()
        with traced(tracer):
            wl.mark = lambda tag: setattr(tracer, "tag", tag)
            traced_phase = measure(wl, KERNELS[name], seconds / 2, 0)
        error = tracer.self_time_error()
        if error > 1e-6:
            raise RuntimeError(f"self-time arithmetic off by {error:g} s")
        known = {**warm.digests, **plain.digests}
        mismatches = sum(1 for i, d in traced_phase.digests.items()
                         if i in known and known[i] != d)
        compared = sum(1 for i in traced_phase.digests if i in known)
        traced_phase.failed += mismatches + int(
            tracer.counts.get("trace.maximizer_mismatch", 0))
        layers = layer_metrics(tracer, len(traced_phase.times))
        # from the untraced half: the wrappers hold the interpreter lock
        layers["bench.thread_speedup"] = (
            median(speedups) if speedups else 0.0, "ratio")
        layers["trace.overhead_frac"] = (
            1.0 - traced_phase.ops_per_ref / plain.ops_per_ref, "frac")
        metrics = {k: v for k, (v, _) in layers.items()}
        units = {k: u for k, (_, u) in layers.items()}
        phases = (warm, plain, traced_phase)
        notes.append(f"traced {len(traced_phase.times)} ops at "
                     f"{traced_phase.ops_per_ref:.4g}/ref against "
                     f"{plain.ops_per_ref:.4g}/ref untraced; {compared} traced "
                     f"outputs compared with untraced ones, {mismatches} "
                     f"differ; self-time arithmetic error {error:.2g} s")

    notes += wl.notes()
    attempted = sum(len(p.times) for p in phases)
    failed = sum(p.failed for p in phases)
    notes.append(f"failed_frac {failed}/{attempted} = "
                 f"{failed / attempted:g}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()}}
    return result, notes


def smoke() -> int:
    """Every workload at tiny sizes, traced and untraced: names, units, exact
    counts and the self-time arithmetic are checked."""
    from workloads import SMOKE, WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:  # scan_long too, though BENCHMARK.json omits it
        for trace in (0, 1):
            result, _ = run_workload(name, 1, 0.3, bool(trace), SMOKE)
            declared = {m["name"]: m["unit"]
                        for m in spec["per_layer" if trace else "end_to_end"]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            where = f"{name} --trace {trace}"
            if got != declared:
                problems.append(f"{where}: metrics {got} != {declared}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed ops")
            if trace and name == "scan_long":
                n, h = SMOKE.scan_n, SMOKE.scan_h
                streams = result["metrics"]["core.rng_streams"]["value"]
                if streams != 2 * (n - 4 * h + 1):
                    problems.append(f"{where}: core.rng_streams {streams} "
                                    f"!= 2(n-4h+1) = {2 * (n - 4 * h + 1)}")
    for p in problems:
        print(f"# smoke: {p}")
    print(f"# smoke: {'ok' if not problems else 'FAILED'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scan_long", "tune_select",
                                               "grid_mc"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and check "
                             "the emitted metrics")
    args = parser.parse_args(argv)
    if not (SRC / "arc_cpd" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import arc_cpd
    if not arc_cpd.__file__.startswith(str(SRC)):
        print(f"arc_cpd imported from {arc_cpd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    from workloads import FULL
    result, notes = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), FULL)
    print("# stamp " + json.dumps(stamp(args.workload, args.seed)))
    for note in notes:
        print("# " + note)
    for k, m in result["metrics"].items():
        print(f"# {k:<28} {m['value']:<24.10g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
