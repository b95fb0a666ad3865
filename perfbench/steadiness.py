#!/usr/bin/env python3
"""Runs workloads N times each, every run with another seed, and checks the
end-to-end metrics against their bounds from BENCHMARK.json.

    python3 perfbench/steadiness.py --workload select_1m --runs 10 [--first-seed 1]
    python3 perfbench/steadiness.py --workload async_10k --workload select_1m --runs 10 --sets 2

Run it from the repository root. For each set and workload it prints every
metric's median and spread: the distance between the first and third
quartile of the N values (statistics.quantiles(values, n=4)) as a share of
their median. A spread within the bound passes; below a third of the bound
is the aim, which the `third` column shows. setup_s is one cold set-up per
run, so its spread is printed but not gated ("over, not gated" when it
exceeds the bound).

With --sets 2 the sets run one after the other (set 1 of every workload,
then set 2 of every workload, seeds offset by 1000 per set), and for every
metric, setup_s included, it prints how much worse the second set's median is
than the first's, as a share of the first; that shift must stay within the
bound. The share of failed operations must be the same in every run.

Exits non-zero when a run fails, an output check fails, or a gated spread
or a median shift exceeds its bound. Each run's line also shows the host's
steal share during it (time the hypervisor ran something else while a CPU of
this machine had work, from /proc/stat).
"""
import argparse
import json
import statistics
import subprocess
import sys


def cpu_ticks():
    """(all ticks, steal ticks) summed over CPUs, or None off Linux."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return None
    return sum(fields), fields[7]


def run_set(bench, workload, seeds):
    """Runs the workload once per seed; returns ({metric: [values]}, {failed
    shares}) or None when a run fails."""
    values = {m["name"]: [] for m in bench["end_to_end"]}
    shares = set()
    for seed in seeds:
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        before = cpu_ticks()
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        after = cpu_ticks()
        steal = ""
        if before and after and after[0] > before[0]:
            steal = f" steal={100 * (after[1] - before[1]) / (after[0] - before[0]):.1f}%"
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: run failed with code {r.returncode}")
            return None
        res = json.loads(lines[-1])
        if not res["correct"]:
            print(f"{workload} seed {seed}: output check failed")
            return None
        shares.add(res["failed"] / res["attempted"])
        row = []
        for name in values:
            v = res["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.6g}")
        print(f"{workload} seed {seed}: attempted={res['attempted']} failed={res['failed']} "
              + " ".join(row) + steal, flush=True)
    return values, shares


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    results = {}  # (set, workload) -> values
    shares = {w: set() for w in args.workload}
    for s in range(args.sets):
        for w in args.workload:
            first = args.first_seed + 1000 * s
            got = run_set(bench, w, range(first, first + args.runs))
            if got is None:
                return 1
            results[s, w], sh = got
            shares[w] |= sh

    ok = True
    for w in args.workload:
        print(f"== {w}: failed share {sorted(shares[w])}")
        ok &= len(shares[w]) == 1
        medians = []
        for s in range(args.sets):
            med = {}
            for name, m in metrics.items():
                q1, med[name], q3 = statistics.quantiles(results[s, w][name], n=4)
                spread = (q3 - q1) / med[name]
                if spread <= m["bound"]:
                    verdict = "ok"
                elif name == "setup_s":
                    verdict = "over, not gated"
                else:
                    verdict = "OVER"
                    ok = False
                print(f"set {s + 1} {name:16s} median={med[name]:.6g} spread={spread:.4f} "
                      f"bound={m['bound']} third={m['bound'] / 3:.4f} {verdict}")
            medians.append(med)
        if args.sets == 2:
            for name, m in metrics.items():
                a, b = medians[0][name], medians[1][name]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                within = worse <= m["bound"]
                ok &= within
                print(f"shift {name:16s} set1={a:.6g} set2={b:.6g} worse_by={worse:+.4f} "
                      f"bound={m['bound']} {'ok' if within else 'OVER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
