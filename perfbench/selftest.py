"""Self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

For each workload: every metric named in BENCHMARK.json is reported,
nothing fails, the digest repeats in a second run and with tracing on.
Also checks that a repeated solve of an equal instance is not served work
cached by an earlier one.
"""

from __future__ import annotations

import json
import sys

import run

run.load_package()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = 7


class SelfTestError(AssertionError):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:  # an explicit check, so it also holds under python -O
        raise SelfTestError(message)


def check_workload(name: str) -> None:
    first = run.run_workload(name, SEED, 0, trace=False, tiny=True)
    second = run.run_workload(name, SEED, 0, trace=False, tiny=True)
    traced = run.run_workload(name, SEED, 0, trace=True, tiny=True)
    for report, kind in ((first, "end_to_end"), (traced, "per_layer")):
        expected = {m["name"] for m in SPEC[kind]}
        expect(set(report.metrics) == expected,
               f"{name}: {kind} metrics differ: {sorted(set(report.metrics) ^ expected)}")
        expect(report.failed == 0 and report.attempted > 0,
               f"{name}: {report.failed}/{report.attempted} failed")
    expect(first.digest == second.digest, f"{name}: digest changed between runs")
    expect(first.digest == traced.digest, f"{name}: digest changed under tracing")


def test_scale():
    check_workload("scale")


def test_sweep():
    check_workload("sweep")


def test_quantum():
    check_workload("quantum")


def test_census():
    check_workload("census")


def test_repeated_solves_do_the_same_work():
    job = workloads.build("quantum", SEED, tiny=True)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        evaluations = []
        for _ in range(10):
            before = tracer.count["oracle.evaluate"]
            run.run_pass([job], tracer)
            evaluations.append(tracer.count["oracle.evaluate"] - before)
    finally:
        tracer.uninstall()
    # the label table evaluates every element of Z_p^n; a cached table would skip that
    p, n = job.inst.p, job.inst.n
    expect(evaluations == [p**n] * 10, f"label-table evaluations per solve: {evaluations}")

    solve = workloads.build("scale", SEED, tiny=True)[0]
    inst = workloads.prepare(solve)
    workloads.call(solve, inst)
    expect("_bijection" in vars(inst), "the solve did not fill the instance's bijection cache")
    expect("_bijection" not in vars(workloads.prepare(solve)), "a prepared instance kept a cached bijection")


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failures = 0
    for test_name, test in tests:
        try:
            test()
            print(f"PASS {test_name}")
        except SelfTestError as exc:
            failures += 1
            print(f"FAIL {test_name}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
