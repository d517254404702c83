#!/usr/bin/env python3
"""Steadiness check: is every end-to-end metric steady enough for its bound?

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --runs 5 --workloads fleet_mesh --sets 2

Run from the repository root. Each round runs every selected workload once
through run.py with --trace 0 and seed = --seed0 + round, alternating the
workload order between rounds. With --sets 2 the same seeds run again as a
second set. For every workload and end-to-end metric it prints the median,
the first and third quartile (statistics.quantiles, n=4), the quartile
spread and the max-min spread as shares of the median, the bound from
BENCHMARK.json, and with two sets the shift of the second median against the
first (positive = worse) and the second set's quartile spread.

Flags: SPREAD when a quartile spread exceeds the bound and SHIFT when the
second median is worse than the first by more than the bound (the acceptance
rules; setup_s is exempt from the spread rule); "/3" when a quartile spread
reaches a third of the bound, the margin to aim for. It also checks
determinism — a seed must print the same digest in every set — and reports
every run with failed units. Exits 1 on SPREAD, SHIFT, a digest mismatch or
a failed unit.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {done.returncode})")
    digest = lines[-2].split()[2]
    return json.loads(lines[-1]), digest


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def worse_by(first, second, better):
    """Share by which median `second` is worse than `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    metrics = spec["end_to_end"]

    values = {(w, s, m["name"]): [] for w in workloads for s in range(args.sets) for m in metrics}
    digests = {}
    steady = deterministic = correct = True
    rounds = [(s, r) for s in range(args.sets) for r in range(args.runs)]
    for index, (set_index, r) in enumerate(rounds):
        seed = args.seed0 + r
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            result, digest = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: correct={result['correct']}, "
                      f"{result['failed']}/{result['attempted']} unit runs failed their checks")
                correct = False
            if digests.setdefault((workload, seed), digest) != digest:
                print(f"{workload} seed {seed}: digest {digest} != {digests[(workload, seed)]}")
                deterministic = False
            for m in metrics:
                values[(workload, set_index, m["name"])].append(result["metrics"][m["name"]]["value"])
        print(f"set {set_index + 1} round {r + 1}/{args.runs} done (seed {seed})", file=sys.stderr)

    header = f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} " \
             f"{'max-min':>8} {'bound':>6}" + \
             (f" {'shift':>7} {'iqr2/med2':>9}" if args.sets == 2 else "")
    for workload in workloads:
        print(f"\n{workload} ({args.runs} seeds x {args.sets} set(s), {args.seconds} s runs)")
        print(header)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = values[(workload, 0, name)]
            med, q1, q3, iqr, full = spread(first)
            line = f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.4f} {full:8.4f} {bound:6.3f}"
            spreads = [iqr]
            flags = []
            if args.sets == 2:
                second = values[(workload, 1, name)]
                shift = worse_by(med, statistics.median(second), m["better"])
                spreads.append(spread(second)[3])
                line += f" {shift:7.4f} {spreads[-1]:9.4f}"
                if shift > bound:
                    flags.append("SHIFT")
            if name != "setup_s" and max(spreads) > bound:
                flags.append("SPREAD")
            if flags:
                steady = False
            if name != "setup_s" and max(spreads) >= bound / 3:
                flags.append("/3")
            print(line + ("  " + ",".join(flags) if flags else ""))
    print(f"\nsteadiness: {'ok' if steady else 'NOT steady'}; "
          f"determinism: {'ok' if deterministic else 'DIGEST MISMATCH'}; "
          f"correctness: {'ok' if correct else 'FAILED UNITS (see above)'}")
    return 0 if steady and deterministic and correct else 1


if __name__ == "__main__":
    sys.exit(main())
