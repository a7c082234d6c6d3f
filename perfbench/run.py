"""Benchmark of the gsp package.

    python3 perfbench/run.py --workload scale --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
workload's inputs are made from the seed with ``make_instance`` before any
timing.  The load is a closed loop: one caller, one solve at a time, in one
process.  Passes over the workload's fixed job list repeat until
``--seconds`` have passed; every output is checked, and every job's output
must repeat exactly in each pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones.  With ``--trace 1`` untraced and traced passes
alternate; the metrics are per-layer numbers per traced pass, plus the
tracing overhead (traced minus untraced pass time).  Lines before the JSON
give the metadata, the query count, the failure fraction and the digest.
``setup_s`` is the time to import the package plus the median time to build
the inputs and warm up on a tiny variant of the workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPS = 5

# On a shared 2-vCPU x86_64 VM the speed of a fixed loop drifted by +-20%
# within seconds while wall and CPU time stayed equal, far more than a
# regression bound.  So every timed call is rescaled by a CPU-speed probe
# taken before and after it: reported times are seconds at the speed where
# the probe takes REF_PROBE_S.  The probe does what the package's hot loops
# do (tuple arithmetic mod p, dict updates) without calling the package.
# Raw seconds are printed alongside.
PROBE_ITERS = 1500
PROBE_STEP = (1, 2, 0, 1, 2, 0, 1, 2)
REF_PROBE_S = 0.003
SEGMENT_S = 0.25  # probe at least this often, in seconds of timed calls


def load_package() -> None:
    """Import numpy and gsp from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "gsp" / "__init__.py").is_file():
        raise SystemExit(f"error: no gsp package under {src}")
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = BLAS_THREADS
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import gsp  # noqa: F401


def probe() -> float:
    """Median of three timings of a fixed loop that does not call the package."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        seen: dict[tuple[int, ...], int] = {}
        v = (0,) * len(PROBE_STEP)
        for _ in range(PROBE_ITERS):
            v = tuple((a + b) % 3 for a, b in zip(v, PROBE_STEP))
            seen[v] = seen.get(v, 0) + 1
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Pass:
    raw_s: list[float] = field(default_factory=list)
    solve_s: list[float] = field(default_factory=list)  # rescaled by the probe
    queries: int = 0
    bound_exceeded: int = 0
    records: list[str] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    digest: str
    notes: list[str]


def run_pass(jobs, tracer=None) -> Pass:
    """Every job once; only the calls into the package are timed (and traced)."""
    import workloads

    gc.collect()
    result = Pass()
    before = probe()
    segment: list[float] = []
    for i, job in enumerate(jobs):
        inst = workloads.prepare(job)
        if tracer is not None:
            tracer.on = True
        start = time.perf_counter()
        try:
            out = workloads.call(job, inst)
            error = None
        except Exception as exc:  # a failed solve is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.on = False
        if error is None:
            outcome = workloads.check(job, inst, out)
        else:
            traceback.print_exception(error, file=sys.stderr)
            outcome = workloads.Outcome(False, f"error {type(error).__name__}: {error}\n")
        result.raw_s.append(elapsed)
        segment.append(elapsed)
        if sum(segment) >= SEGMENT_S or i == len(jobs) - 1:
            after = probe()
            scale = 2 * REF_PROBE_S / (before + after)
            result.solve_s += [t * scale for t in segment]
            segment, before = [], after
        result.queries += outcome.queries
        result.bound_exceeded += outcome.bound_exceeded
        result.records.append(outcome.record)
        result.ok.append(outcome.ok)
    return result


def rescaled(fn):
    """Call fn(); returns its result and its time rescaled by probes before and after."""
    before = probe()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed * 2 * REF_PROBE_S / (before + probe())


def set_up(name: str, seed: int) -> list:
    """Build the workload's inputs and warm up on its tiny variant."""
    import workloads

    jobs = workloads.build(name, seed)
    run_pass(workloads.build(name, seed, tiny=True))
    return jobs


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, import_s: float = 0.0) -> Report:
    import tracer as tracing
    import workloads

    builds = [rescaled(lambda: set_up(name, seed)) for _ in range(SETUP_REPS)]
    setup_s = import_s + statistics.median(t for _, t in builds)
    jobs = workloads.build(name, seed, tiny=True) if tiny else builds[-1][0]

    tracer = tracing.Tracer() if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while not plain or (trace and not traced) or time.perf_counter() < deadline:
        if trace and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(run_pass(jobs, tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_pass(jobs))

    reference = plain[0].records
    attempted = failed = 0
    for p in plain + traced:
        attempted += len(p.ok)
        failed += sum(1 for ok, rec, ref in zip(p.ok, p.records, reference) if not ok or rec != ref)
    # under tracing, the digest is of a traced pass: equal digests show tracing changed nothing
    digest = hashlib.sha256("".join((traced or plain)[0].records).encode()).hexdigest()
    # each job's typical time is its median over the untraced passes
    job_s = [statistics.median(times) for times in zip(*(p.solve_s for p in plain))]
    raw_walls = [sum(p.raw_s) for p in plain]
    samples = sorted(s for p in plain for s in p.solve_s)
    p90 = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    beyond_p90 = sum(1 for s in samples if s > p90)
    notes = [
        f"workload={name} seed={seed} passes={len(plain)} traced_passes={len(traced)} "
        f"jobs={len(jobs)} solves={len(samples)} solve_ms.p90="
        + (f"{p90 * 1e3:.6g}" if beyond_p90 >= 10 else "n/a") + f" (beyond_p90={beyond_p90})",
        f"queries={plain[0].queries} bound_exceeded={plain[0].bound_exceeded} "
        f"failed_frac={failed / attempted:.6f} ({failed}/{attempted})",
        f"digest={digest}",
        f"raw_wall_s={statistics.median(raw_walls):.6g}",
    ]
    if trace:
        metrics = tracer.metrics(len(traced))
        metrics["queries"] = (float(plain[0].queries), "count")
        metrics["solvers.bound_exceeded.count"] = (float(plain[0].bound_exceeded), "count")
        overhead = statistics.median(sum(p.raw_s) for p in traced) - statistics.median(raw_walls)
        metrics["trace.overhead_s"] = (overhead, "s")
        spans = OUT_DIR / f"spans-{name}-{seed}.tsv"
        tracer.write(spans)
        notes.append(f"spans={spans} kept={len(tracer.spans)} dropped={tracer.dropped}")
        notes.append("layer self_s: " + " ".join(
            f"{layer}={metrics[layer + '.self_s'][0]:.4f}" for layer in tracing.LAYERS))
    else:
        metrics = {
            "wall_s": (sum(job_s), "s"),
            "solve_ms.p50": (statistics.median(job_s) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return Report(metrics, attempted, failed, digest, notes)


def git_sha() -> str:
    """HEAD of the checkout's own .git, or "unknown" (no search above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def metadata(name: str, seed: int) -> dict:
    """Where and on what the numbers were taken; recorded, not measured."""
    import numpy

    src_lines = sum(len(f.read_text().splitlines()) for f in sorted((ROOT / "src" / "gsp").glob("*.py")))
    return {
        "workload": name, "seed": seed, "platform": platform.platform(), "machine": platform.machine(),
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS, "git_sha": git_sha(), "src_gsp_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scale", "sweep", "quantum", "census"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _, import_s = rescaled(load_package)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s)
    print("meta " + json.dumps(metadata(args.workload, args.seed)))
    for line in report.notes:
        print(line)
    for metric, (value, unit) in report.metrics.items():
        print(f"metric {args.workload} {metric} {value:.6g} {unit}")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
