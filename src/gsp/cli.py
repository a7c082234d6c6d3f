"""Command-line harness: instance generation, solving, and benchmarking.

Subcommands: ``gen``, ``solve``, ``qsolve``, ``brute``, ``birthday``,
``bench``, ``verify-bounds``.  All outputs are plain text; ``bench`` writes
one CSV row per (grid cell, seed, solver).  ``bench``, ``solve``, ``brute``
and ``birthday`` run their solver through ``_run``; every printed query bound
is the solver result's ``bound``.  Exit codes: 0 success, 1 parameter error,
2 promise violation, 3 resource cap exceeded.  ``main`` is re-entrant: every
call in a process parses with one shared parser, built on the first call.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .algebra import _check_digits, _check_prime, _check_space, _rref_bases, lanes
from .bounds import _check_split, bound_report
from .errors import GspError, ParameterError, PromiseViolationError, ResourceCapError
from .oracle import HiddenInstance, QueryLog, make_instance, read_instance, write_instance
from .qsim import dump_state_text, quantum_find_s
from .solvers import SolverResult, _birthday_budget, birthday_solve, brute_force_solve, choose_d, find_s

_SOLVER_ORDER = ("det", "brute", "birthday", "quantum")
_CSV_HEADER = ("p", "n", "k", "d", "solver", "seed", "queries", "recovered_ok", "bound", "wall_ms")

# verify-bounds enumerates a cell only when t1 <= _ENUM_MAX_T1.  For 1 <= k < n, t1 >=
# (p^n - 1)/(p - 1) > p^(n-1), so the cells it enumerates have p^(n-1) < 20000.
_ENUM_MAX_T1 = 20000


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def _add_instance_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--in", dest="infile", help="instance file to read")
    sub.add_argument("--p", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--k", type=int)
    sub.add_argument("--seed", type=int, default=0, help="subgroup seed")
    sub.add_argument("--label-seed", type=int, default=None, help="(default: --seed)")
    sub.add_argument("--obfuscate", type=int, choices=(0, 1), default=0)


def _make_instance(args: argparse.Namespace) -> HiddenInstance:
    """The instance named by --p/--n/--k/--seed; the label seed defaults to --seed."""
    label_seed = args.seed if args.label_seed is None else args.label_seed
    return make_instance(args.p, args.n, args.k, args.seed, label_seed, bool(args.obfuscate))


def _load_instance(args: argparse.Namespace) -> HiddenInstance:
    if not args.infile and None in (args.p, args.n, args.k):
        raise ParameterError("provide --in FILE or --p/--n/--k/--seed")
    inst = read_instance(args.infile) if args.infile else _make_instance(args)
    _check_digits(inst.p)  # before any work: the recovered subgroup is printed in digits
    return inst


def _check_out_path(option: str, path: str | None) -> None:
    """Refuse, before any work, a path that cannot be written: an empty one, a
    directory, or a file in a directory that does not exist.  The file itself
    is opened only after the work, so a failure on the way leaves an existing
    file as it was."""
    if path is None:
        return
    if not path:
        raise ParameterError(f"{option} needs a file name")
    if os.path.isdir(path):
        raise ParameterError(f"{option} {path} is a directory")
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ParameterError(f"{option} {path}: no directory {folder}")


def _run(
    solver: str, inst: HiddenInstance, d: int | None, seed: int | None, multiplier: float | None
) -> SolverResult:
    """Run the ``bench --solver`` named ``solver``, looked up as a module global at call time.

    ``d`` (None for ``choose_d``) is read by ``det``; ``seed`` and ``multiplier`` by ``birthday``.
    """
    if solver == "det":
        return find_s(QueryLog(inst), choose_d(inst.p, inst.n, inst.k) if d is None else d)
    if solver == "brute":
        return brute_force_solve(QueryLog(inst))
    if solver == "birthday":
        return birthday_solve(QueryLog(inst), seed, multiplier)
    return quantum_find_s(inst)


def _report(
    result: SolverResult, inst: HiddenInstance, check: bool, counted: str = "queries", short: str = "queries"
) -> int:
    print(f"recovered {result.recovered.to_text()}")
    if result.d_used is not None:
        print(f"d={result.d_used}")
    verdict = "PASS" if result.queries <= result.bound else "FAIL"
    print(f"{counted}={result.queries} bound={result.bound} {short}<=bound {verdict}")
    if check:
        ok = result.recovered == inst.secret
        print(f"check {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    inst = _make_instance(args)
    write_instance(inst, args.out)
    if args.reveal:
        print(f"secret {inst.secret.to_text()}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    _check_out_path("--trace", args.trace)
    inst = _load_instance(args)
    result = _run("det", inst, args.d, None, None)
    if args.trace:
        with open(args.trace, "w", encoding="ascii") as fh:
            for element, label in result.trace:
                fh.write(f"{element.digits()} {label.digits()}\n")
    return _report(result, inst, args.check)


def _cmd_qsolve(args: argparse.Namespace) -> int:
    _check_out_path("--dump-state", args.dump_state)
    inst = _load_instance(args)
    if not args.dump_state:  # the full final state is rebuilt only to be written
        return _report(quantum_find_s(inst), inst, args.check, "oracle_calls", "calls")
    result, final_state = quantum_find_s(inst, return_final_state=True)
    with open(args.dump_state, "w", encoding="ascii") as fh:
        fh.write(dump_state_text(final_state))
    return _report(result, inst, args.check, "oracle_calls", "calls")


def _cmd_brute(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    return _report(_run("brute", inst, None, None, None), inst, args.check)


def _cmd_birthday(args: argparse.Namespace) -> int:
    inst = _load_instance(args)
    result = _run("birthday", inst, None, args.sample_seed, args.multiplier)
    success = result.recovered.rank == inst.k
    print(f"recovered {result.recovered.to_text()}")
    print(f"queries={result.queries} {'success' if success else 'failure'}")
    return 0


def _parse_int_list(text: str) -> list[int]:
    """Comma list and/or a..b ranges: "3,5" or "3..8" or "2,4..6"."""
    out: list[int] = []
    try:
        for tok in text.split(","):
            tok = tok.strip()
            if ".." in tok:
                lo, hi = tok.split("..")
                out.extend(range(int(lo), int(hi) + 1))
            elif tok:
                out.append(int(tok))
    except ValueError as exc:
        raise ParameterError(f"bad integer list {text!r}") from exc
    return out


def _bench_cell(task: tuple) -> tuple[list[tuple], list[str]]:
    """CSV rows and skip warnings for one (p, n, k, seed); runs in a worker process."""
    p, n, k, seed, solvers, d, obfuscate, multiplier = task
    inst = make_instance(p, n, k, seed, seed, obfuscate)
    rows, warnings = [], []
    for solver in solvers:
        t0 = time.perf_counter()
        try:
            result = _run(solver, inst, d, seed, multiplier)
        except ResourceCapError as exc:
            warnings.append(f"warning: skipped p={p} n={n} k={k} solver={solver} seed={seed}: {exc}")
            continue
        wall_ms = (time.perf_counter() - t0) * 1e3
        d_used = "" if result.d_used is None else result.d_used
        ok = result.recovered == inst.secret
        rows.append((p, n, k, d_used, solver, seed, result.queries, ok, result.bound, f"{wall_ms:.3f}"))
    return rows, warnings


def _grid(args: argparse.Namespace) -> list[tuple[int, int, int]]:
    """The (p, n, k) cells of --p/--n/--k with 1 <= k < n; every p must be
    prime, and a grid with no such cell is an error, not an empty table."""
    ps, ns = _parse_int_list(args.p), _parse_int_list(args.n)
    ks = None if args.k == "all" else _parse_int_list(args.k)
    for p in ps:
        _check_prime(p)
    cells = [(p, n, k) for p in ps for n in ns for k in (range(1, n) if ks is None else ks) if 1 <= k < n]
    if not cells:
        raise ParameterError(f"no cell with 1 <= k < n in --p {args.p!r} --n {args.n!r} --k {args.k!r}")
    return cells


def _cmd_bench(args: argparse.Namespace) -> int:
    for option, value in (("--seeds", args.seeds), ("--jobs", args.jobs)):
        if value < 1:
            raise ParameterError(f"{option} must be at least 1, got {value}")
    _check_out_path("--out", args.out)
    solvers = tuple(_SOLVER_ORDER) if args.solver == "all" else (args.solver,)
    cells = _grid(args)
    # refuse before the first solve what a solver would refuse partway through the grid
    for p, n, k in cells:
        _check_space(p, n)
        if args.d is not None and "det" in solvers:
            _check_split(n, k, args.d)
        if "birthday" in solvers:
            _birthday_budget(p, n, k, args.multiplier)
    tasks = [
        (p, n, k, seed, solvers, args.d, bool(args.obfuscate), args.multiplier)
        for p, n, k in cells
        for seed in range(args.seeds)
    ]
    # the pool starts every worker it is given at once, so ask for no more
    # than there are tasks or cores
    jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_bench_cell, tasks))
    else:
        results = [_bench_cell(t) for t in tasks]

    per_cell: dict[tuple, list[tuple[int, int]]] = {}
    with open(args.out, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for rows, warnings in results:
            for warning in warnings:
                print(warning, file=sys.stderr)
            for row in rows:
                writer.writerow(row)
                p, n, k, _, solver, _, queries, _, bound, _ = row
                per_cell.setdefault((p, n, k, solver), []).append((queries, bound))
    for (p, n, k, solver), samples in per_cell.items():
        qs = [q for q, _ in samples]
        ratio = max(q / b for q, b in samples)
        print(
            f"cell p={p} n={n} k={k} solver={solver}: "
            f"max_queries={max(qs)} mean_queries={statistics.fmean(qs):.2f} "
            f"max(queries)/bound={ratio:.3f}"
        )
    return 0


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    if args.enum_cap < 0:
        raise ParameterError(f"--enum-cap must be at least 0, got {args.enum_cap}")
    cells = _grid(args)
    print("p n k t1 t2 lower_adaptive lower_nonadaptive upper_det check")
    failed = False
    for p, n, k in cells:
        rep = bound_report(p, n, k)
        identity_ok = rep.t1 * (p**k - 1) == rep.t2 * (p**n - 1)
        if p**n <= args.enum_cap and rep.t1 <= _ENUM_MAX_T1:
            # x = 1 is packed e_{n-1}, the unit vector in the bottom lane for every p.  It is 0 at
            # every pivot but n-1, and the RREF row at pivot n-1 is e_{n-1} itself, so every basis
            # of a pattern leaves the same residue, and the first basis's counts for all of them
            lay, size, zeros = lanes(p, n), 0, 0
            for pivots, rows in _rref_bases(p, n, k, args.enum_cap):
                bases = math.prod(map(len, rows))
                size += bases
                if lay.residue(pivots, [row[0] for row in rows], 1) == 0:
                    zeros += bases
            enum_ok = size == rep.t1 and zeros == rep.t2
            verdict = "pass" if (identity_ok and enum_ok) else "FAIL"
        else:
            verdict = "pass(identity-only)" if identity_ok else "FAIL"
        failed = failed or verdict == "FAIL"
        print(
            f"{p} {n} {k} {rep.t1} {rep.t2} "
            f"{rep.lower_adaptive:.3f} {rep.lower_nonadaptive:.3f} "
            f"{rep.upper_det} {verdict}"
        )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    """A freshly built parser for every subcommand."""
    parser = _Parser(prog="gsp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--label-seed", type=int, default=None, help="(default: --seed)")
    gen.add_argument("--obfuscate", type=int, choices=(0, 1), default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--reveal", action="store_true", help="print the secret")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run the deterministic solver")
    _add_instance_source(solve)
    solve.add_argument("--d", type=int, default=None, help="override the default split")
    solve.add_argument("--check", action="store_true")
    solve.add_argument("--trace", help="write the query trace to a file")
    solve.set_defaults(func=_cmd_solve)

    qsolve = sub.add_parser("qsolve", help="run the exact quantum solver")
    _add_instance_source(qsolve)
    qsolve.add_argument("--check", action="store_true")
    qsolve.add_argument("--dump-state", help="write the final pre-measurement state")
    qsolve.set_defaults(func=_cmd_qsolve)

    brute = sub.add_parser("brute", help="query everything (correctness oracle)")
    _add_instance_source(brute)
    brute.add_argument("--check", action="store_true")
    brute.set_defaults(func=_cmd_brute)

    birthday = sub.add_parser("birthday", help="randomized collision baseline")
    _add_instance_source(birthday)
    birthday.add_argument("--sample-seed", type=int, default=0)
    birthday.add_argument("--multiplier", type=float, default=8.0)
    birthday.set_defaults(func=_cmd_birthday)

    bench = sub.add_parser("bench", help="grid benchmark to CSV")
    bench.add_argument("--p", required=True, help="e.g. 2,3")
    bench.add_argument("--n", required=True, help="e.g. 3..8")
    bench.add_argument("--k", default="all", help="comma list or 'all'")
    bench.add_argument("--d", type=int, default=None)
    bench.add_argument("--solver", choices=_SOLVER_ORDER + ("all",), default="det")
    bench.add_argument("--seeds", type=int, default=20)
    bench.add_argument("--obfuscate", type=int, choices=(0, 1), default=0)
    bench.add_argument("--multiplier", type=float, default=8.0)
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out", required=True)
    bench.set_defaults(func=_cmd_bench)

    verify = sub.add_parser("verify-bounds", help="counting formulas vs enumeration")
    verify.add_argument("--p", required=True)
    verify.add_argument("--n", required=True)
    verify.add_argument("--k", default="all")
    verify.add_argument("--enum-cap", type=int, default=4096)
    verify.set_defaults(func=_cmd_verify_bounds)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except PromiseViolationError as exc:
        print(f"promise violation: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (GspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
