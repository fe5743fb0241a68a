#!/usr/bin/env python3
"""Steadiness check: run one workload N times and print, per metric, the
median, the quartiles and the spread (interquartile distance as a share
of the median) next to the bound BENCHMARK.json sets.

    python3 perfbench/steady.py --workload phy_mix --runs 10
    python3 perfbench/steady.py --workload all --runs 10 --first-seed 101
    python3 perfbench/steady.py --workload phy_mix --runs 3 --overhead

Run from the repository root. Seeds are first-seed, first-seed+1, ...
The command and run length come from BENCHMARK.json. Quartiles are
`statistics.quantiles(values, n=4)`. A spread at or above a third of its
bound is flagged `WIDE`, at or above the bound `OVER`. The share of failed operations must be identical
in every run. `--overhead` runs each seed traced and untraced and
reports the end-to-end difference, which is the tracing overhead.
Exit status is 1 if any run fails, reports incorrect output, or a
spread is OVER.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    e2e = {}
    for line in lines[:-1]:
        if line.startswith("# end_to_end "):
            e2e = json.loads(line[len("# end_to_end "):])
        elif not line.startswith(("#", "span ")):
            print(f"  {line}")
    return result, e2e, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def check(spec, workload, runs, first_seed, seconds):
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values, shares, ok = {}, set(), True
    for i in range(runs):
        seed = first_seed + i
        result, _, wall = run_once(spec, workload, seed, seconds, False)
        share = (result["failed"], result["attempted"])
        shares.add(result["failed"] / result["attempted"])
        ok &= result["correct"]
        brief = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"{workload} seed={seed} wall={wall:.1f}s correct={result['correct']} "
              f"failed={share[0]}/{share[1]} {brief}", flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"\n{workload}: {runs} runs, failed share {sorted(shares)}")
    if len(shares) != 1:
        print("  failed share differs between runs")
        ok = False
    print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        med, q1, q3, sp = spread(vals)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if sp >= bound:
                flag, ok = "OVER", False
            elif sp >= bound / 3:
                flag = "WIDE"
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"  {name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{sp:>9.3f}{b:>7} {flag}")
    return ok


def overhead(spec, workload, runs, first_seed, seconds):
    diffs = {}
    for i in range(runs):
        seed = first_seed + i
        _, plain, _ = run_once(spec, workload, seed, seconds, False)
        _, traced, _ = run_once(spec, workload, seed, seconds, True)
        for k, v in plain.items():
            if v:
                diffs.setdefault(k, []).append((traced[k] - v) / v)
    print(f"\n{workload}: tracing overhead (traced - untraced) / untraced, median of {runs} seeds")
    for k, d in diffs.items():
        print(f"  {k:<20}{statistics.median(d):>+9.3%}")
    return True


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help=f"one of {names} or 'all'")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--overhead", action="store_true", help="measure tracing overhead")
    args = ap.parse_args()
    workloads = names if args.workload == "all" else [args.workload]
    ok = True
    for w in workloads:
        if w not in names:
            raise SystemExit(f"unknown workload {w}")
        if args.overhead:
            ok &= overhead(spec, w, args.runs, args.first_seed, args.seconds)
        else:
            ok &= check(spec, w, args.runs, args.first_seed, args.seconds)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
