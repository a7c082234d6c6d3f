"""End-to-end CLI behavior: formats, determinism, exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsp.cli as cli
import gsp.qsim as qsim
from gsp import PromiseViolationError, write_instance


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fixture_file(tmp_path, ref_instance):
    path = tmp_path / "ref.txt"
    write_instance(ref_instance, str(path))
    return str(path)


class TestGen:
    def test_format_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        code, _, _ = run(capsys, "gen", "--p", "2", "--n", "4", "--k", "2",
                         "--seed", "7", "--out", str(out1))
        assert code == 0
        run(capsys, "gen", "--p", "2", "--n", "4", "--k", "2",
            "--seed", "7", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("gsp-instance v1\n")

    def test_reveal(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--p", "2", "--n", "4", "--k", "2",
                           "--seed", "7", "--out", str(tmp_path / "i.txt"), "--reveal")
        assert code == 0 and out.startswith("secret p=2 n=4 rows=")

    def test_nonprime_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--p", "4", "--n", "4", "--k", "2",
                           "--out", str(tmp_path / "i.txt"))
        assert code == 1 and "prime" in err


class TestDigitLimit:
    """A subcommand that prints a subgroup refuses a p past the digit alphabet before any work."""

    ERROR = "error: digit serialization supports p <= 36\n"

    def test_gen_keeps_out_file(self, capsys, tmp_path):
        out = tmp_path / "keep.inst"
        out.write_text("precious\n")
        code, stdout, err = run(capsys, "gen", "--p", "37", "--n", "2", "--k", "1", "--out", str(out))
        assert (code, stdout, err) == (1, "", self.ERROR)
        assert out.read_text() == "precious\n"

    @pytest.mark.parametrize("command", ["solve", "qsolve", "brute", "birthday"])
    def test_solvers_refuse_before_solving(self, capsys, tmp_path, monkeypatch, command):
        def solver_ran(*args, **kwargs):
            raise AssertionError(f"{command} ran its solver")

        monkeypatch.setattr(cli, "_run", solver_ran)
        monkeypatch.setattr(cli, "quantum_find_s", solver_ran)
        # a file can hold p = 37 when the secret's digits all lie below 36
        infile = tmp_path / "p37.inst"
        infile.write_text("gsp-instance v1\np=37\nn=3\nk=1\nsecret=p=37 n=3 rows=100\nlabel_seed=0\nobfuscate=0\n")
        for source in (("--p", "37", "--n", "3", "--k", "1"), ("--in", str(infile))):
            assert run(capsys, command, *source) == (1, "", self.ERROR), source

    def test_bench_and_verify_bounds_accept_it(self, capsys, tmp_path):
        code, _, err = run(capsys, "bench", "--p", "37", "--n", "2", "--k", "1", "--seeds", "1",
                           "--out", str(tmp_path / "p37.csv"))
        assert code == 0 and err == ""
        code, out, _ = run(capsys, "verify-bounds", "--p", "37", "--n", "2")
        assert code == 0 and out.splitlines()[1].startswith("37 2 1 38 1 ")


class TestOutputPaths:
    """An output path that cannot be written is refused before the solver
    runs; one that can is opened only after it, so a failure keeps the file."""

    ARGV = {
        "--trace": ("solve", "--p", "2", "--n", "4", "--k", "2", "--trace"),
        "--dump-state": ("qsolve", "--p", "2", "--n", "4", "--k", "2", "--dump-state"),
        "--out": ("bench", "--p", "2", "--n", "4", "--seeds", "1", "--out"),
    }

    @staticmethod
    def _solvers_raise(monkeypatch, exc):
        def solver(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "_run", solver)
        monkeypatch.setattr(cli, "quantum_find_s", solver)

    @pytest.mark.parametrize("option", ARGV)
    @pytest.mark.parametrize("kind", ["missing directory", "directory", "empty"])
    def test_unwritable_path_refused(self, capsys, tmp_path, monkeypatch, option, kind):
        self._solvers_raise(monkeypatch, AssertionError(f"solved with a bad {option}"))
        missing = tmp_path / "missing"
        path, reason = {
            "missing directory": (str(missing / "out.txt"), f"{missing / 'out.txt'}: no directory {missing}"),
            "directory": (str(tmp_path), f"{tmp_path} is a directory"),
            "empty": ("", "needs a file name"),
        }[kind]
        code, out, err = run(capsys, *self.ARGV[option], path)
        assert (code, out, err) == (1, "", f"error: {option} {reason}\n")
        assert not missing.exists()

    @pytest.mark.parametrize("option", ARGV)
    def test_failed_solve_keeps_file(self, capsys, tmp_path, monkeypatch, option):
        self._solvers_raise(monkeypatch, PromiseViolationError("inconsistent labels"))
        path = tmp_path / "keep.txt"
        path.write_text("precious\n")
        code, _, err = run(capsys, *self.ARGV[option], str(path))
        assert code == 2 and err == "promise violation: inconsistent labels\n"
        assert path.read_text() == "precious\n"


class TestSolve:
    def test_reference_fixture(self, capsys, fixture_file):
        code, out, _ = run(capsys, "solve", "--in", fixture_file, "--check")
        assert code == 0
        assert "recovered p=2 n=4 rows=0101;0011" in out
        assert "bound=7 queries<=bound PASS" in out
        assert "check PASS" in out

    def test_d_override_and_trace(self, capsys, fixture_file, tmp_path):
        trace = tmp_path / "trace.txt"
        code, out, _ = run(capsys, "solve", "--in", fixture_file,
                           "--d", "2", "--trace", str(trace))
        assert code == 0 and "d=2" in out
        queries = int(next(line for line in out.splitlines() if line.startswith("queries="))
                      .split()[0].split("=")[1])
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == queries
        assert all(len(line.split()) == 2 for line in lines)

    def test_negative_seed_shows_label_seed_range(self, capsys):
        # a negative --seed is refused as the subgroup seed, before --label-seed takes its default;
        # a negative --label-seed gets a message that names the range and the value it got
        code, out, err = run(capsys, "solve", "--p", "2", "--n", "4", "--k", "2", "--seed", "-1")
        assert (code, out, err) == (1, "", "error: subgroup seed must be non-negative, got -1\n")
        code, out, err = run(capsys, "solve", "--p", "2", "--n", "4", "--k", "2", "--label-seed", "-1")
        assert (code, out, err) == (1, "", "error: label_seed must lie in [0, 2^64), got -1\n")

    def test_negative_subgroup_seed_refused(self, capsys):
        # random.Random(-3) seeds like Random(3): seed -3 must not solve seed 3's instance
        argv = ("solve", "--p", "2", "--n", "6", "--k", "2", "--label-seed", "0", "--seed")
        code, out, _ = run(capsys, *argv, "3")
        assert code == 0 and "recovered" in out
        code, out, err = run(capsys, *argv, "-3")
        assert (code, out, err) == (1, "", "error: subgroup seed must be non-negative, got -3\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--in", "/nonexistent/i.txt")
        assert code == 1 and err

    def test_non_integer_field(self, capsys, fixture_file, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(Path(fixture_file).read_text().replace("p=2\n", "p=abc\n", 1))
        code, _, err = run(capsys, "solve", "--in", str(path))
        assert code == 1 and err.startswith("error:") and "abc" in err

    def test_non_ascii_file(self, capsys, fixture_file, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(Path(fixture_file).read_bytes() + "# caf\u00e9\n".encode("utf-8"))
        code, _, err = run(capsys, "solve", "--in", str(path))
        assert code == 1 and err.startswith("error:") and "not ASCII" in err

    def test_promise_violation_exit_code(self, capsys, fixture_file, monkeypatch):
        def boom(*args, **kwargs):
            raise PromiseViolationError("inconsistent labels")

        monkeypatch.setattr(cli, "find_s", boom)
        code, _, err = run(capsys, "solve", "--in", fixture_file)
        assert code == 2 and "promise violation" in err


class TestQsolve:
    def test_reference_fixture(self, capsys, fixture_file, tmp_path):
        dump = tmp_path / "state.txt"
        code, out, _ = run(capsys, "qsolve", "--in", fixture_file, "--check",
                           "--dump-state", str(dump))
        assert code == 0
        assert "recovered p=2 n=4 rows=0101;0011" in out
        assert "oracle_calls=6" in out and "PASS" in out
        for line in dump.read_text().strip().splitlines():
            idx, re_part, im_part = line.split()
            int(idx), float(re_part), float(im_part)

    def test_direct_flags(self, capsys):
        code, out, _ = run(capsys, "qsolve", "--p", "2", "--n", "4", "--k", "2",
                           "--seed", "7", "--check")
        assert code == 0 and "check PASS" in out

    def test_full_state_rebuilt_only_for_dump(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the full final state was rebuilt")

        monkeypatch.setattr(qsim, "_all_branches", refuse)
        code, out, _ = run(capsys, "qsolve", "--p", "2", "--n", "4", "--k", "2",
                           "--seed", "7", "--check")
        assert code == 0 and "check PASS" in out

    def test_resource_cap_exit_code(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        run(capsys, "gen", "--p", "2", "--n", "21", "--k", "2", "--out", str(path))
        code, _, err = run(capsys, "qsolve", "--in", str(path))
        assert code == 3 and err == "resource cap: p^n = 2097152 exceeds enumeration cap 1048576\n"


class TestBruteAndBirthday:
    def test_brute(self, capsys, fixture_file):
        code, out, _ = run(capsys, "brute", "--in", fixture_file, "--check")
        assert code == 0 and "queries=16 bound=16 queries<=bound PASS" in out and "check PASS" in out

    def test_birthday(self, capsys, fixture_file):
        code, out, _ = run(capsys, "birthday", "--in", fixture_file,
                           "--sample-seed", "3")
        assert code == 0 and ("success" in out or "failure" in out)

    def test_birthday_negative_sample_seed(self, capsys):
        code, out, err = run(capsys, "birthday", "--p", "2", "--n", "4", "--k", "2", "--sample-seed", "-1")
        assert code == 1 and out == ""
        assert err == "error: sample seed must be non-negative, got -1\n"


class TestBench:
    def test_rows_and_determinism(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--p", "2", "--n", "3..4", "--k", "all",
                "--solver", "all", "--seeds", "2"]
        code, stdout, _ = run(capsys, *args, "--out", str(out1))
        assert code == 0
        run(capsys, *args, "--out", str(out2))

        def stable(path):
            with open(path) as fh:
                return [row[:-1] for row in csv.reader(fh)]  # drop wall_ms

        assert stable(out1) == stable(out2)
        rows = stable(out1)
        assert rows[0] == list(cli._CSV_HEADER)[:-1]
        # 5 cells x 2 seeds x 4 solvers
        assert len(rows) - 1 == 5 * 2 * 4
        per_seed = [r for r in rows[1:] if r[:3] == ["2", "3", "1"] and r[5] == "0"]
        assert [r[4] for r in per_seed] == ["det", "brute", "birthday", "quantum"]
        assert all(r[7] == "True" for r in rows[1:])
        assert "cell p=2 n=3 k=1 solver=det" in stdout

    def test_jobs_capped_by_tasks_and_cpus(self, capsys, tmp_path, monkeypatch):
        # a stand-in pool that records the workers asked for and starts none
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        one_task = ["bench", "--p", "2", "--n", "3", "--k", "1", "--seeds", "1"]
        assert run(capsys, *one_task, "--jobs", "64", "--out", str(tmp_path / "a.csv"))[0] == 0
        assert max(asked, default=0) <= 1
        three_tasks = ["bench", "--p", "2", "--n", "3", "--k", "1", "--seeds", "3"]
        assert run(capsys, *three_tasks, "--jobs", "64", "--out", str(tmp_path / "b.csv"))[0] == 0
        assert asked[-1:] == [2]

    def test_parallel_rows_match_serial(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so the pool runs on a one-core host too
        args = ["bench", "--p", "2", "--n", "3..4", "--solver", "all", "--seeds", "2"]

        def rows(jobs):
            out = tmp_path / f"jobs{jobs}.csv"
            assert run(capsys, *args, "--jobs", str(jobs), "--out", str(out))[0] == 0
            with open(out) as fh:
                return [row[:-1] for row in csv.reader(fh)]  # drop wall_ms

        assert rows(2) == rows(1)

    def test_det_rows_within_bound(self, tmp_path, capsys):
        # every solver's rows, not only det's, stay within their bound column
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "bench", "--p", "2,3", "--n", "3..4",
                         "--solver", "all", "--seeds", "3", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {row["solver"] for row in rows} == set(cli._SOLVER_ORDER)
        for row in rows:
            assert int(row["queries"]) <= int(row["bound"]), row
            assert row["recovered_ok"] == "True", row

    def test_empty_grid(self, capsys, tmp_path):
        # a grid with no cell 1 <= k < n is an error, not a header-only CSV
        out = tmp_path / "empty.csv"
        for grid in (("--n", "3", "--k", "7"), ("--n", "5..3"), ("--n", ""), ("--n", "3", "--k", "")):
            code, stdout, err = run(capsys, "bench", "--p", "2", *grid, "--out", str(out))
            assert code == 1 and stdout == "", grid
            assert err.startswith("error: no cell with 1 <= k < n") and len(err.splitlines()) == 1, grid
            assert not out.exists()

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_seeds_below_one(self, capsys, tmp_path, seeds):
        # no seed to run is an error, not a header-only CSV
        out = tmp_path / "noseeds.csv"
        code, stdout, err = run(capsys, "bench", "--p", "2", "--n", "4", "--seeds", seeds, "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: --seeds must be at least 1, got {seeds}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one(self, capsys, tmp_path, jobs):
        # no worker to run on is an error, not a silent serial run
        out = tmp_path / "nojobs.csv"
        code, stdout, err = run(capsys, "bench", "--p", "2", "--n", "4", "--jobs", jobs, "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("argv,message", [
        pytest.param(["--n", "3..4", "--d", "2"], "need 0 <= d <= n-k, got d=2", id="d"),
        pytest.param(["--n", "3,65"], "n must be in [0, 64], got 65", id="n"),
        pytest.param(["--p", "2,65537", "--n", "3"], "p must be a prime in [2, 65536), got 65537", id="p"),
        pytest.param(["--n", "3", "--solver", "birthday", "--multiplier", "-1"],
                     "budget multiplier must be positive and finite", id="multiplier"),
    ])
    def test_refused_before_the_first_solve(self, capsys, tmp_path, monkeypatch, argv, message, jobs):
        # a cell or option some solver would refuse stops the run before any
        # cell is solved, serial or in workers
        solved, pools = [], []
        monkeypatch.setattr(cli, "_bench_cell", lambda task: solved.append(task) or ([], []))
        monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: pools.append(max_workers))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "b.csv"
        argv = argv if "--p" in argv else ["--p", "2", *argv]
        code, stdout, err = run(capsys, "bench", *argv, "--seeds", "1", "--jobs", jobs, "--out", str(out))
        assert code == 1 and stdout == ""
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
        assert not out.exists()
        assert solved == [] and pools == []

    def test_verify_bounds_takes_any_prime(self, capsys):
        # bench refuses p past MAX_PRIME; verify-bounds, which shares the grid, does not
        code, out, _ = run(capsys, "verify-bounds", "--p", "65537", "--n", "2")
        assert code == 0 and out.splitlines()[1].startswith("65537 2 1 ")

    def test_partial_grid_skips_invalid_cells(self, capsys, tmp_path):
        out = tmp_path / "partial.csv"
        code, _, _ = run(capsys, "bench", "--p", "2", "--n", "3..6", "--k", "3",
                         "--seeds", "1", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            assert [(r["n"], r["k"]) for r in csv.DictReader(fh)] == [("4", "3"), ("5", "3"), ("6", "3")]

    def test_det_past_enumeration_cap(self, capsys, tmp_path):
        # find_s never enumerates Z_p^n, so p^n > 2^20 is no reason to skip
        out = tmp_path / "det.csv"
        code, _, err = run(capsys, "bench", "--p", "2", "--n", "21", "--k", "19",
                           "--solver", "det", "--seeds", "1", "--out", str(out))
        assert code == 0 and err == ""
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and rows[0]["recovered_ok"] == "True"

    @pytest.mark.parametrize("solver,n,k", [("quantum", 21, 2), ("det", 60, 1)])
    def test_over_cap_cell_skipped_with_warning(self, capsys, tmp_path, solver, n, k):
        out = tmp_path / "cap.csv"
        code, _, err = run(capsys, "bench", "--p", "2", "--n", str(n), "--k", str(k),
                           "--solver", solver, "--seeds", "1", "--out", str(out))
        assert code == 0
        assert f"warning: skipped p=2 n={n} k={k} solver={solver}" in err
        assert out.read_text().strip() == ",".join(cli._CSV_HEADER)


class TestVerifyBounds:
    def test_table(self, capsys):
        # every cell enumerated (" pass", not " pass(identity-only)") at p = 2, 3 and 5
        cells = []
        for primes, dims in (("2,3", "2..4"), ("5", "2..4"), ("2,3", "5")):
            code, out, _ = run(capsys, "verify-bounds", "--p", primes, "--n", dims)
            assert code == 0
            lines = out.strip().splitlines()
            assert lines[0].startswith("p n k t1 t2")
            assert all(line.endswith(" pass") for line in lines[1:])
            cells += lines[1:]
        assert any(line.startswith("2 4 2 35 7 ") for line in cells)

    @pytest.mark.parametrize("broken", ["unreduced", "last_pattern_dropped"])
    def test_enumeration_can_fail(self, capsys, monkeypatch, broken):
        # a reduction that leaves x as it is misses every T2 count, and a lost pivot pattern
        # every T1 count: each enumerated row prints FAIL and the exit code is 1, while the
        # identity-only rows (p^n = 32 above --enum-cap 16) print as before
        argv = ("verify-bounds", "--p", "2", "--n", "3..5", "--enum-cap", "16")
        code, honest, _ = run(capsys, *argv)
        assert code == 0
        if broken == "unreduced":
            for n in range(3, 6):  # the layouts the CLI reads from the lanes cache
                monkeypatch.setattr(cli.lanes(2, n), "residue", lambda pivots, rows, x: x)
        else:
            rref_bases = cli._rref_bases
            monkeypatch.setattr(cli, "_rref_bases", lambda *args: list(rref_bases(*args))[:-1])
        code, out, _ = run(capsys, *argv)
        assert code == 1
        honest, out = honest.splitlines(), out.splitlines()
        assert out[0] == honest[0] and len(out) == len(honest) == 1 + 2 + 3 + 4
        for before, after in zip(honest[1:], out[1:]):
            if before.split()[1] == "5":
                assert after == before and after.endswith(" pass(identity-only)")
            else:
                assert after == before.removesuffix(" pass") + " FAIL"

    def test_enum_cap_reaches_the_enumerator(self, capsys):
        # p^n = 1062961 is above the enumerator's default cap of 2^20
        code, out, err = run(capsys, "verify-bounds", "--p", "1031", "--n", "2", "--k", "1",
                             "--enum-cap", "2000000")
        assert code == 0 and not err
        assert out.splitlines()[1].startswith("1031 2 1 1032 1 ")
        assert out.splitlines()[1].endswith(" pass")
        # a negative cap is an error, not a silent identity-only run; a cap of 0 stays legal
        code, out, err = run(capsys, "verify-bounds", "--p", "2", "--n", "3", "--enum-cap", "-5")
        assert code == 1 and out == ""
        assert err == "error: --enum-cap must be at least 0, got -5\n"
        code, out, _ = run(capsys, "verify-bounds", "--p", "2", "--n", "3", "--enum-cap", "0")
        assert code == 0 and all(line.endswith(" pass(identity-only)") for line in out.splitlines()[1:])

    def test_enumeration_limit_on_subgroup_count(self, capsys):
        # p^n = 729 is within the default --enum-cap, but t1 = 33880 rank-3 subgroups exceed 20000
        code, out, _ = run(capsys, "verify-bounds", "--p", "3", "--n", "6", "--k", "3")
        assert code == 0
        line = out.splitlines()[1]
        assert line.startswith("3 6 3 33880 1210 ") and line.endswith(" pass(identity-only)")
        code, out, _ = run(capsys, "verify-bounds", "--p", "2", "--n", "7", "--k", "3")
        assert code == 0
        line = out.splitlines()[1]
        assert line.startswith("2 7 3 11811 ") and line.endswith(" pass")

    def test_float_range(self, capsys):
        # sqrt(p^(n-k)) fits a float at n = 70; past 2^1024 it is an error, not an OverflowError
        code, out, _ = run(capsys, "verify-bounds", "--p", "2", "--n", "70", "--k", "1")
        assert code == 0
        assert out.splitlines()[1] == (
            "2 70 1 1180591620717411303423 1 24296003999.808 24296003999.808 "
            "68719476736 pass(identity-only)"
        )
        code, _, err = run(capsys, "verify-bounds", "--p", "2", "--n", "1100", "--k", "1")
        assert code == 1
        assert err.startswith("error: p^(n-k) = 2^1099 is too large")
        # an exact count past Python's int-to-str digit limit is an error, not a ValueError traceback
        for p, n, k in (("2", "240", "120"), ("65521", "64", "32")):
            code, out, err = run(capsys, "verify-bounds", "--p", p, "--n", n, "--k", k)
            assert code == 1 and len(out.splitlines()) == 1
            assert err.startswith("error: t1 has more than") and len(err.splitlines()) == 1
        code, out, _ = run(capsys, "verify-bounds", "--p", "2", "--n", "64", "--k", "32")
        assert code == 0 and len(out.splitlines()[1].split()[3]) == 309

    def test_empty_grid(self, capsys):
        # no header line either: the grid is checked before the table starts
        for grid in (("--n", ""), ("--n", "4", "--k", "7"), ("--n", "5..3"), ("--n", "3", "--k", "")):
            code, out, err = run(capsys, "verify-bounds", "--p", "2", *grid)
            assert code == 1 and out == "", grid
            assert err.startswith("error: no cell with 1 <= k < n") and len(err.splitlines()) == 1, grid

    def test_partial_grid_skips_invalid_cells(self, capsys):
        code, out, _ = run(capsys, "verify-bounds", "--p", "2", "--n", "3..6", "--k", "3")
        assert code == 0
        assert [line.split()[:3] for line in out.splitlines()[1:]] == [["2", n, "3"] for n in "456"]


class TestReentrancy:
    ARGVS = [
        ["solve", "--p", "3", "--n", "4", "--k", "x"],  # a usage error
        ["solve", "--p", "3", "--n", "4", "--k", "2", "--seed", "3",
         "--label-seed", "5", "--obfuscate", "1", "--check"],
        ["solve", "--p", "3", "--n", "4", "--k", "2", "--seed", "3"],
    ]

    def test_shared_parser_matches_fresh_parser(self, capsys, monkeypatch):
        # no flag or default of an earlier call leaks into a later one
        monkeypatch.setattr(cli, "_parser", None)
        shared = [run(capsys, *argv) for argv in self.ARGVS]
        fresh = []
        for argv in self.ARGVS:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [1, 0, 0]
        assert "invalid int value" in shared[0][2]
        assert "check PASS" in shared[1][1] and "check" not in shared[2][1]
        argv = self.ARGVS[2]
        assert vars(cli._parser.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    def test_one_parser_per_process(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        monkeypatch.setattr(cli, "_parser", None)
        for argv in self.ARGVS + [["verify-bounds", "--p", "2", "--n", "3"]]:
            run(capsys, *argv)
        assert len(built) == 1


def _run_cli(argv, tmp_path):
    """Run ``python -m gsp.cli`` in a subprocess; bench writes its CSV under tmp_path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if argv[0] == "bench":
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    return subprocess.run(
        [sys.executable, "-m", "gsp.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("argv", [
    ["bench", "--p", "x", "--n", "3"],
    ["bench", "--p", "2", "--n", "3..a"],
    ["bench", "--p", "2", "--n", "3", "--k", "1,x"],
    ["verify-bounds", "--p", "2", "--n", "x"],
])
def test_bad_integer_list(argv, tmp_path):
    # a malformed list exits 1 with an error line, not a traceback
    proc = _run_cli(argv, tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: bad integer list")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["birthday", "--p", "2", "--n", "6", "--k", "2", "--multiplier", "nan"],
    ["birthday", "--p", "2", "--n", "6", "--k", "2", "--multiplier", "inf"],
    ["birthday", "--p", "2", "--n", "6", "--k", "2", "--multiplier", "-3"],
    ["bench", "--p", "2", "--n", "4", "--k", "2", "--solver", "birthday", "--multiplier", "0", "--seeds", "1"],
    ["birthday", "--p", "2", "--n", "4", "--k", "1", "--multiplier", "1e308"],
    ["bench", "--p", "2", "--n", "4", "--k", "1", "--solver", "birthday", "--multiplier", "1e308", "--seeds", "1"],
])
def test_bad_multiplier(argv, tmp_path):
    # a multiplier that is not positive and finite, or whose budget overflows,
    # exits 1, not with a traceback or a zero budget
    proc = _run_cli(argv, tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: budget multiplier must be positive and finite")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv,reason", [
    pytest.param(["birthday", "--p", "2", "--n", "2", "--k", "1", "--multiplier", "1e300"],
                 "sample budget", id="birthday"),
    pytest.param(["solve", "--p", "2", "--n", "64", "--k", "1"], "query bound", id="solve"),
    pytest.param(["solve", "--p", "2", "--n", "22", "--k", "1", "--d", "0"], "query bound 2097154",
                 id="solve-d0"),
])
def test_budget_over_cap(argv, reason, tmp_path):
    # a finite budget or query bound past the enumeration cap is refused
    # before any query
    proc = _run_cli(argv, tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"resource cap: {reason}")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
