#!/usr/bin/env python3
"""Build and run tssim's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpcb-active --seed 1 --seconds 30 --trace 0

The Go benchmark (a module of its own in this directory, which reaches
the simulator's packages through a replace of the repository root) is
built into .bench_build/ with its build cache there too, then run with
the same arguments. Its standard output passes through unchanged; the
last line is the JSON result.

    python3 perfbench/run.py --record-exact 1-10

re-records perfbench/exact_counts.json for every workload and the
given seeds.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["specjbb-idle", "tpcb-active", "dir16-specjbb"]
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    # Keep every file the go command writes, its telemetry counters
    # included, inside the checkout.
    env.update({
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    try:
        done = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                              stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {done.returncode}")


def run(args, **kw):
    try:
        return subprocess.run([BINARY] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S, **kw)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


def record_exact(seeds):
    lo, _, hi = seeds.partition("-")
    record = {}
    for name in WORKLOADS:
        for seed in range(int(lo), int(hi or lo) + 1):
            out = run(["--workload", name, "--seed", str(seed), "--exact"],
                      stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit(f"perfbench: exact counts of {name} seed {seed} failed")
            got = json.loads(out.stdout.strip().splitlines()[-1])
            record.setdefault(name, {})[str(seed)] = got["counts"]
            print(name, seed, got["counts"], file=sys.stderr)
    with open(os.path.join(HERE, "exact_counts.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-exact", metavar="FIRST-LAST",
                    help="re-record exact_counts.json for these seeds")
    a = ap.parse_args()
    if not a.record_exact and not a.workload:
        ap.error("--workload is required")
    build()
    if a.record_exact:
        record_exact(a.record_exact)
        return
    done = run(["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
