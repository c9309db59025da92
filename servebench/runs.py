#!/usr/bin/env python3
"""Repeat benchmark runs and summarize them.

    python3 servebench/runs.py run --workload filter_hot --runs 10 --out hot.jsonl
    python3 servebench/runs.py summary hot.jsonl [change.jsonl]

`run` calls the command in BENCHMARK.json (from the repository root) once
per seed and appends each run's result line, tagged with workload and
seed, to --out. `summary` prints, per workload and metric, the median,
the quartiles and the spread (Q3 - Q1) / median of each file's runs; with
two files it prints both sides and the change of the second median
against the first. Quartiles are Python's statistics.quantiles(n=4).
"""

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    with open(args.out, "a") as out:
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                sys.exit(f"run with seed {seed} failed (exit {proc.returncode})")
            result = json.loads(lines[-1])
            result.update(workload=args.workload, seed=seed, trace=args.trace)
            out.write(json.dumps(result) + "\n")
            out.flush()
            host = [l.split(": ", 1)[-1] for l in proc.stderr.splitlines() if ": host " in l]
            print(f"seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()) + f" ({'; '.join(host)})",
                flush=True)


def load(path):
    """{(workload, metric): [values]} and the units."""
    values, units = defaultdict(list), {}
    for line in Path(path).read_text().splitlines():
        r = json.loads(line)
        for name, m in r["metrics"].items():
            values[(r["workload"], name)].append(m["value"])
            units[name] = m["unit"]
    return values, units


def describe(vs):
    med = statistics.median(vs)
    q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def summary(args):
    sides = [load(p) for p in args.files]
    units = sides[0][1]
    for key in sorted(sides[0][0]):
        cells = []
        meds = []
        for values, _ in sides:
            vs = values.get(key)
            if not vs:
                cells.append("-")
                continue
            med, q1, q3, spread = describe(vs)
            meds.append(med)
            cells.append(f"n={len(vs)} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")
        change = ""
        if len(meds) == 2 and meds[0]:
            change = f"  change={meds[1] / meds[0] - 1:+.4f}"
        print(f"{key[0]:12s} {key[1]:28s} [{units[key[1]]}]  " + " | ".join(cells) + change)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--trace", type=int, default=0, choices=[0, 1])
    r.add_argument("--out", required=True)
    s = sub.add_parser("summary")
    s.add_argument("files", nargs="+")
    args = p.parse_args()
    run(args) if args.cmd == "run" else summary(args)


if __name__ == "__main__":
    main()
