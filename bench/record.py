"""Append benchmark runs to the committed ``BENCH_<workload>.json`` records.

    python3 bench/record.py --seconds 20
    python3 bench/record.py --workloads scale --seeds 1 --seconds 3 --checkout ../parent

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T`` in
the checkout (by default the one holding this script), unchanged, as a
subprocess of the same interpreter.  Its ``meta`` line, ``queries=``,
``digest=`` and final JSON line make one record, appended to the JSON list
in ``<out-dir>/BENCH_<W>.json``: the checkout's git SHA and ``src/gsp`` line
count, whether its tracked files but the records differ from that SHA
(``dirty``: uncommitted changes were measured; None without git) and, if they
do, the SHA-256 of that ``git diff HEAD`` (``diff_sha256``), so that two trees
measured over one SHA are told apart, the four end-to-end metrics, the
query total, ``failed``/``attempted``, the digest, where it ran (Python,
numpy, platform, cores) and the UTC date.
A run that fails or prints no JSON line stops the recorder before its record
is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("scale", "sweep", "quantum", "census")


def diff(checkout: Path) -> bytes | None:
    """``git diff HEAD`` of the checkout's tracked files but the ``BENCH_*.json`` records, which a run in the
    checkout appends to; empty if they match its HEAD, None if git cannot tell.  Only the checkout's own .git is
    asked, as for its SHA."""
    git = ["git", f"--git-dir={checkout / '.git'}", f"--work-tree={checkout}", "diff", "--binary", "--no-color",
           "--no-ext-diff", "HEAD", "--", ":(glob,exclude)**/BENCH_*.json"]
    try:
        run = subprocess.run(git, capture_output=True)
    except OSError:
        return None
    return run.stdout if run.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``, parsed into a record."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    meta = json.loads(next(line[5:] for line in lines if line.startswith("meta ")))
    result, changes = json.loads(lines[-1]), diff(checkout)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "git_sha": meta["git_sha"],
        "dirty": None if changes is None else bool(changes),
        **({"diff_sha256": hashlib.sha256(changes).hexdigest()} if changes else {}),
        "src_gsp_lines": meta["src_gsp_lines"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "queries": int(re.search(r"^queries=(\d+) ", out, re.M)[1]),
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "digest": re.search(r"^digest=(\w+)$", out, re.M)[1],
        "python": meta["python"],
        "numpy": meta["numpy"],
        "platform": meta["platform"],
        "nproc": meta["nproc"],
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def append(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(records + [record], indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated (default: all four)")
    parser.add_argument("--seeds", default="1,2", help="comma-separated (default: 1,2)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--checkout", type=Path, default=HERE.parent, help="the repository whose harness runs")
    parser.add_argument("--out-dir", type=Path, default=HERE, help="where the BENCH_<workload>.json files are")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if unknown := set(workloads) - set(WORKLOADS):
        parser.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    for seed in map(int, args.seeds.split(",")):
        for workload in workloads:
            record = run_once(args.checkout, workload, seed, args.seconds)
            append(args.out_dir / f"BENCH_{workload}.json", record)
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in record["metrics"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
