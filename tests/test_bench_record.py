"""The benchmark recorder: one ``perfbench/run.py`` run becomes one appended record."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    assert list(tmp_path.iterdir()) == [tmp_path / "BENCH_census.json"]
