"""Run one workload once per seed and summarise each metric across the runs.

    python3 floodbench/repeat.py --workload predict-512 --seeds 1-10

Runs are sequential, each in its own process, with ``--trace 0`` and, unless
``--seconds`` is given, ``run_seconds`` from BENCHMARK.json. The summary is one JSON
object per metric: median, first and third quartile
(``statistics.quantiles(values, n=4)``), and the spread (q3 - q1) / median,
the figure the regression bounds in BENCHMARK.json are compared with.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=int, default=run_seconds)
    args = parser.parse_args(argv)

    values: dict[str, list] = {}
    units = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", "0"],
                              cwd=HERE.parent, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(json.dumps({"seed": seed, "exit": proc.returncode, **result}), flush=True)
        if proc.returncode or not result["correct"]:
            sys.stderr.write(proc.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {name: {**summarise(v), "unit": units[name]} for name, v in values.items()}
    print(json.dumps({"workload": args.workload, "summary": summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
