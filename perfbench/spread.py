#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py WORKLOAD SEED [SEED ...]

Runs `perfbench/run.py` once per seed (untraced, `run_seconds` from
BENCHMARK.json), then prints for every end-to-end metric its median, the
distance between its first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), and that spread against the
metric's bound.  Exits 1 if a run fails or is incorrect.
"""

import json
import statistics
import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seeds = sys.argv[1], sys.argv[2:]
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {}
    for seed in seeds:
        out = subprocess.run(
            bench["command"]
            + ["--workload", workload, "--seed", seed,
               "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if out.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}",
                  file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            file=sys.stderr)
    for metric in bench["end_to_end"]:
        vs = values[metric["name"]]
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med
        print(f"{metric['name']:18s} median {med:12.4f}  spread {spread:6.3f}"
              f"  bound {metric['bound']:.2f}  {'ok' if spread < metric['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
