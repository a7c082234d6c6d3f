"""The benchmark's four workloads: inputs drawn from a seed, the timed call, its check.

Each workload is a fixed list of jobs. A job is one call into the package's
public API; its check compares the output with the instance's secret (or the
census invariants) and returns the text the determinism digest covers.

Which layer each workload stresses:

* ``scale``: ``find_s`` on obfuscated p=2 instances with n in 14..16 and
  k about n/4. ``algebra`` does the work (``coset_reduce`` in the lex scan,
  ``VectorP`` validation); ``oracle`` does little.
* ``sweep``: the acceptance grid, built the way ``gsp bench`` builds it:
  ``find_s`` at every d, ``brute_force_solve`` and ``birthday_solve``.
  Thousands of millisecond solves; ``oracle.evaluate`` misses from the
  brute-force solver are a large share.
* ``quantum``: ``quantum_find_s`` up to ``DEFAULT_SIM_CAP``; ``qsim`` does
  all the work.
* ``census``: ``gsp verify-bounds`` run in-process plus seeded
  ``evading_subgroup`` witness searches; the only workload that runs
  ``bounds`` and ``cli``, and where ``algebra`` work is subgroup
  construction and membership rather than a solver loop.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from dataclasses import dataclass
from typing import Any

from gsp import algebra, bounds, cli, oracle, qsim, solvers

# n in 14..16 with k = floor(n/4) and floor(n/4)+1.
SCALE_CELLS = [(2, n, k) for n in (14, 15, 16) for k in (n // 4, n // 4 + 1)]

# The acceptance grid of tests/test_acceptance.py.
SWEEP_GRID = [
    (p, n, k)
    for p in (2, 3, 5)
    for n in range(2, 7)
    if p**n <= 4096
    for k in range(1, n)
]

# Every cell has p^n <= DEFAULT_SIM_CAP = 512.
QUANTUM_CELLS = [
    (2, 6, 2), (2, 7, 3), (2, 8, 3), (2, 8, 4), (2, 8, 5),
    (3, 5, 2), (3, 5, 3), (5, 3, 1), (5, 3, 2), (7, 3, 1),
]

# One ``verify-bounds`` call per (p, n, k).
CENSUS_BOUNDS = [
    (p, n, k)
    for p, n_max in ((2, 7), (3, 6), (5, 5))
    for n in range(2, n_max + 1)
    for k in range(1, n)
]
# Spaces of the witness searches, each searched at every k and d in {1, 2}.
CENSUS_WITNESS = [(2, 6), (2, 7), (3, 4), (5, 3)]
WITNESS_ROUNDS = 4


@dataclass(frozen=True)
class Job:
    """One timed call into the package.

    ``kind`` is ``find_s``, ``brute``, ``birthday``, ``quantum``,
    ``verify-bounds`` or ``evading``; ``arg`` is the split d, the sample
    seed, the argv, or ``(p, n, searches)`` with one ``(d_set, k, d)`` per
    witness search, respectively.
    """

    kind: str
    inst: oracle.HiddenInstance | None = None
    arg: Any = None


@dataclass(frozen=True)
class Outcome:
    ok: bool
    record: str
    queries: int = 0
    bound_exceeded: bool = False


def build(name: str, seed: int, tiny: bool = False) -> list[Job]:
    """The workload's job list; the same seed gives the same jobs."""
    rng = random.Random(f"{name}/{seed}")
    if name == "scale":
        return _scale(rng, tiny)
    if name == "sweep":
        return _sweep(rng, tiny)
    if name == "quantum":
        return _quantum(rng, tiny)
    if name == "census":
        return _census(rng, tiny)
    raise ValueError(f"unknown workload {name!r}")


def _scale(rng: random.Random, tiny: bool) -> list[Job]:
    # The secret is fixed (subgroup seed 0) and the seed draws the label
    # bijections. find_s cost differs up to 20x between secrets of one
    # cell, so a pass over seed-drawn secrets would need hundreds of solves
    # to keep wall_s steady across seeds; find_s only compares labels, so
    # its work does not depend on the bijection.
    cells = [(2, 8, 2)] if tiny else SCALE_CELLS
    return [
        Job("find_s", oracle.make_instance(p, n, k, 0, rng.getrandbits(64), True), solvers.choose_d(p, n, k))
        for p, n, k in cells
    ]


def _sweep(rng: random.Random, tiny: bool) -> list[Job]:
    grid = [c for c in SWEEP_GRID if c[1] <= 3 and c[0] <= 3] if tiny else SWEEP_GRID
    jobs = []
    for p, n, k in grid:
        for obfuscate in (False, True):
            s = rng.getrandbits(32)
            # as cli._bench_cell: subgroup seed = label seed = sample seed
            inst = oracle.make_instance(p, n, k, s, s, obfuscate)
            jobs += [Job("find_s", inst, d) for d in range(n - k + 1)]
            jobs += [Job("brute", inst), Job("birthday", inst, s)]
    return jobs


def _quantum(rng: random.Random, tiny: bool) -> list[Job]:
    cells = [(2, 4, 2), (3, 3, 1)] if tiny else QUANTUM_CELLS
    return [
        Job("quantum", oracle.make_instance(p, n, k, rng.getrandbits(32), rng.getrandbits(64), True))
        for p, n, k in cells
    ]


def _census(rng: random.Random, tiny: bool) -> list[Job]:
    cells = [(2, 4, 2)] if tiny else CENSUS_BOUNDS
    jobs = [
        Job("verify-bounds", arg=("verify-bounds", "--p", str(p), "--n", str(n), "--k", str(k)))
        for p, n, k in cells
    ]
    for p, n in [(2, 4)] if tiny else CENSUS_WITNESS:
        nonzero = [algebra.VectorP.from_index(p, n, i) for i in range(1, p**n)]
        searches = []
        for _ in range(1 if tiny else WITNESS_ROUNDS):
            for k in range(1, n):
                for d in (1, 2):
                    # |D| < d(p^n-1)/(p^k-1), so a witness exists (criterion 5)
                    limit = d * (p**n - 1) // (p**k - 1)
                    size = rng.randrange(0, min(limit - 1, len(nonzero)) + 1)
                    searches.append((tuple(rng.sample(nonzero, size)), k, d))
        # one job per space: a single search takes well under a millisecond
        jobs.append(Job("evading", arg=(p, n, tuple(searches))))
    return jobs


def prepare(job: Job) -> oracle.HiddenInstance | None:
    """A fresh copy of the job's instance, with the simulator caches emptied.

    ``HiddenInstance._bijection`` is a cached property, and qsim's label
    table and Fourier matrices are process-wide caches keyed by value, so
    without this a repeated solve of an equal instance would skip work the
    first one did.
    """
    qsim._label_index_table.cache_clear()
    qsim._fourier_matrix.cache_clear()
    return None if job.inst is None else dataclasses.replace(job.inst)


def call(job: Job, inst: oracle.HiddenInstance | None) -> Any:
    """The timed call. Functions are looked up on their modules at call time."""
    if job.kind == "find_s":
        return solvers.find_s(oracle.QueryLog(inst), job.arg)
    if job.kind == "brute":
        return solvers.brute_force_solve(oracle.QueryLog(inst))
    if job.kind == "birthday":
        return solvers.birthday_solve(oracle.QueryLog(inst), job.arg)
    if job.kind == "quantum":
        return qsim.quantum_find_s(inst, qsim.QCounter(), return_final_state=True)
    if job.kind == "verify-bounds":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(job.arg))
        return code, out.getvalue()
    if job.kind == "evading":
        p, n, searches = job.arg
        return [bounds.evading_subgroup(p, n, d_set, k, d) for d_set, k, d in searches]
    raise ValueError(f"unknown job kind {job.kind!r}")


def check(job: Job, inst: oracle.HiddenInstance | None, out: Any) -> Outcome:
    """Whether the output is right, and the text the digest covers."""
    if job.kind in ("find_s", "brute", "birthday"):
        head = f"{job.kind} p={inst.p} n={inst.n} k={inst.k} arg={job.arg} queries={out.queries} {out.recovered}\n"
        trace = "".join(f"{x.digits()} {y.digits()}\n" for x, y in out.trace) if job.kind == "find_s" else ""
        exceeded = job.kind == "find_s" and out.queries > bounds.det_query_bound(inst.p, inst.n, inst.k, job.arg)
        return Outcome(out.recovered == inst.secret, head + trace, out.queries, exceeded)
    if job.kind == "quantum":
        result, state = out
        head = f"quantum p={inst.p} n={inst.n} k={inst.k} calls={result.queries} {result.recovered}\n"
        return Outcome(result.recovered == inst.secret, head + qsim.dump_state_text(state), result.queries)
    if job.kind == "verify-bounds":
        code, text = out
        return Outcome(code == 0 and "FAIL" not in text, text)
    if job.kind == "evading":
        p, n, searches = job.arg
        ok = all(
            h is not None and h.rank == k and sum(1 for v in d_set if h.contains(v)) < d
            for h, (d_set, k, d) in zip(out, searches)
        )
        record = "".join(f"evading k={k} d={d} |D|={len(d_set)} {h}\n" for h, (d_set, k, d) in zip(out, searches))
        return Outcome(ok, record)
    raise ValueError(f"unknown job kind {job.kind!r}")
