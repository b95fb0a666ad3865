#!/usr/bin/env python3
"""Campaign benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload select_1m --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Builds the recon libraries, the `recon` CLI and the harness (Release) into
.bench_build/perfbench, makes the workload's graph with `recon graph gen` in a
separate process, then runs the harness, whose last stdout line is the JSON
result. Build and generator output go to stderr.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
BUILD = os.path.join(".bench_build", "perfbench")
WORK = os.path.join(".bench_build", "work")

# Barabasi-Albert graphs, m = 4, edge probabilities uniform on [0.2, 0.9].
NODES = {
    "select_1m": 1_000_000,
    "serve_durable_10k": 10_000,
    "async_10k": 10_000,
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs cmd with its output on stderr; exits on failure."""
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        log(f"command failed ({r.returncode}): {' '.join(cmd)}")
        sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "-j", jobs])


def make_graph(workload):
    """Generates the workload's graph once per checkout. The graph, the
    target set the harness draws on it and the campaigns' worlds are fixed
    per workload; --seed only rotates the order the campaigns run in."""
    gdir = os.path.join(WORK, "graphs")
    os.makedirs(gdir, exist_ok=True)
    path = os.path.join(gdir, f"{workload}.rgb")
    if not os.path.exists(path):
        tmp = path + ".tmp"
        run_quiet([os.path.join(BUILD, "recon"), "graph", "gen", "--model", "ba",
                   "--nodes", str(NODES[workload]), "--m", "4", "--probs", "uniform",
                   "--plo", "0.2", "--phi", "0.9", "--seed", "1", "--out", tmp])
        os.replace(tmp, path)
    return path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(NODES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="show that the output checks reject broken traces")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")

    build()
    workload = "async_10k" if args.selftest else args.workload
    graph = make_graph(workload)
    work = os.path.join(WORK, workload)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(BUILD, "harness"), "--graph", graph, "--work", work,
           "--seed", str(args.seed)]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--recon", os.path.join(BUILD, "recon")]
    if args.selftest:
        sys.exit(subprocess.run(cmd, stdout=sys.stderr).returncode)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    out = r.stdout.strip().splitlines()
    if r.returncode != 0 or not out:
        log(f"harness exited with {r.returncode}")
        sys.exit(r.returncode or 1)
    print(out[-1], flush=True)


if __name__ == "__main__":
    main()
