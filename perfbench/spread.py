#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and quartile spread (Q3 - Q1 over the median), calibrated and raw.

Run from the repository root:

    python3 perfbench/spread.py --workload optd-mix --seeds 1-10

A metric whose spread exceeds a third of its bound in BENCHMARK.json is
flagged; such a benchmark is not steady enough to judge a change by.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    cal, raw = {}, {}
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.stderr.write(p.stderr)
            sys.exit("seed %d failed with exit code %d" % (seed, p.returncode))
        rep = json.loads(lines[-1])
        for name, m in rep["metrics"].items():
            cal.setdefault(name, []).append(m["value"])
        for line in p.stderr.splitlines():
            if line.startswith("uncalibrated "):
                for name, v in json.loads(line.split(" ", 1)[1]).items():
                    raw.setdefault(name, []).append(v)
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in sorted(rep["metrics"].items()))), flush=True)

    steady = True
    for name in sorted(cal):
        vals = cal[name]
        s = spread(vals) if len(vals) >= 2 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and s > bound / 3:
            flag, steady = "  > bound/3", False
        rs = ""
        if name in raw and len(raw[name]) >= 2:
            rs = "  raw spread %.4f" % spread(raw[name])
        print("%-22s median %-14.6g spread %.4f bound %s%s%s" % (
            name, statistics.median(vals), s, bound, rs, flag))
    if "calib_ms" in raw:
        print("%-22s median %-14.6g spread %.4f" % (
            "kernel_ms", statistics.median(raw["calib_ms"]), spread(raw["calib_ms"])))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
