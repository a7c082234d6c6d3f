"""The benchmark recorder: one ``perfbench/run.py`` run becomes one appended record."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
record_module = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(record_module)


def test_recorder_appends_one_census_record(tmp_path):
    argv = [sys.executable, str(ROOT / "bench" / "record.py"), "--workloads", "census", "--seeds", "1",
            "--seconds", "0", "--out-dir", str(tmp_path)]
    (tmp_path / "BENCH_census.json").write_text('[{"workload": "census"}]')
    subprocess.run(argv, cwd=tmp_path, check=True, capture_output=True, timeout=300)
    prior, record = json.loads((tmp_path / "BENCH_census.json").read_text())  # appended to the list
    assert prior == {"workload": "census"} and record["workload"] == "census"
    assert set(record["metrics"]) == {"wall_s", "solve_ms.p50", "setup_s", "peak_rss_mb"}
    assert all(value > 0 for value in record["metrics"].values())
    assert (record["seed"], record["queries"], record["correct"], record["failed"]) == (1, 0, True, 0)
    assert record["attempted"] > 0 and len(record["digest"]) == 64
    src_lines = sum(len(f.read_text().splitlines()) for f in (ROOT / "src" / "gsp").glob("*.py"))
    assert record["src_gsp_lines"] == src_lines
    assert record["python"].count(".") == 2 and record["numpy"] and record["date"].endswith("+00:00")
    assert record["git_sha"] and record["dirty"] in (True, False, None)
    if record["dirty"]:  # the uncommitted tree that was measured
        assert record["diff_sha256"] == hashlib.sha256(record_module.diff(ROOT)).hexdigest()
    else:
        assert "diff_sha256" not in record
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCH_census.json"]


def test_diff_tells_two_uncommitted_trees_apart(tmp_path):
    # a clean checkout diffs empty, appended records included, two different edits of one commit
    # diff differently, and a directory without its own .git gives None even inside another repository
    git = ["git", "-C", str(tmp_path), "-c", "user.name=gsp", "-c", "user.email=gsp@localhost",
           "-c", "commit.gpgsign=false"]
    subprocess.run(git + ["init", "-q"], check=True)
    (tmp_path / "bench").mkdir()
    for path in (tmp_path / "a.txt", tmp_path / "bench" / "BENCH_scale.json"):
        path.write_text("one\n")
    subprocess.run(git + ["add", "."], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (tmp_path / "bench" / "BENCH_scale.json").write_text("two\n")
    assert record_module.diff(tmp_path) == b""
    diffs = []
    for text in ("two\n", "three\n"):
        (tmp_path / "a.txt").write_text(text)
        diffs.append(record_module.diff(tmp_path))
    assert all(diffs) and diffs[0] != diffs[1] and b"+three" in diffs[1]
    assert record_module.diff(ROOT / "bench") is None
