"""Run the benchmark over a set of seeds and summarise each metric.

    python3 bench/sets.py --seeds 1-10

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed, at
its ``run_seconds``, one run at a time, and prints for every end-to-end
metric the median over the seeds and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of
that median, plus the share of failed operations.  These are the figures in README.md.
"""
import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for wl in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=BENCH.parent, capture_output=True, text=True, timeout=180, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
                return 1
            shares.add(str(Fraction(result["failed"], result["attempted"])))
            print(f"{wl:12} seed {seed:3}: " + ", ".join(
                f"{k} {m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"{wl:12} {name:12} median {med:.5g}  iqr/median {(q3 - q1) / med:.3f}"
                  f"  (bound {bounds[name]})", flush=True)
        print(f"{wl:12} failed share of attempted, per run: {', '.join(sorted(shares))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
