#!/usr/bin/env python3
"""The repository's benchmark: builds perfbench/ from source, runs one
workload, re-checks every recovered preimage, and prints every metric by
name with its unit. The last line of stdout is the result as JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload cluster_tcp --seed 1 --seconds 15 \
        --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (a traced run plus the layer ladder). Workloads,
metrics and the reasons for them are catalogued in perfbench/METRICS.md.
The build goes to $CARGO_TARGET_DIR, or .bench_build/ when unset.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "gks_perfbench"
# One run measures --seconds of work plus set-up; a traced run adds the
# ladder. Anything past this is a hang.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"missing {path}")
    with open(path) as f:
        return json.load(f)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds the benchmark program; build output
    goes to stderr so stdout stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/: nothing to build")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j4", "--target", BINARY])
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out_dir, BINARY)


def recheck(evidence):
    """Re-hashes every recovered (digest, key) pair with Python's own MD5,
    independently of the program's kernels. Returns the mismatches."""
    return [(d, k) for d, k in evidence
            if hashlib.md5(k.encode()).hexdigest() != d.lower()]


def describe(name, m):
    """One table row: value and unit, plus the sample summary of timings."""
    row = f"{name:34s} {m['value']:>16.6g} {m['unit']:<8s}"
    if "n" in m:
        row += f" median of n={m['n']}"
        if m.get("top_pct"):
            row += f", p{m['top_pct']:g}={m['top_value']:.6g}"
        row += f", max={m['max']:.6g}"
    return row


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced sizes (the self-test)")
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    scratch = os.path.join(
        out_dir, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{args.workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    result = json.loads(lines[-1])
    if args.trace == 0:
        shutil.rmtree(scratch, ignore_errors=True)
    if result["invalid"]:
        fail(f"invalid run, not recorded: {result['invalid']}", 3)

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("metrics not reported: " + ", ".join(missing))
    wrong_unit = [m["name"] for m in wanted
                  if metrics[m["name"]]["unit"] != m["unit"]]
    if wrong_unit:
        fail("metrics reported in another unit: " + ", ".join(wrong_unit))

    # A preimage the program accepted but Python's MD5 rejects fails its
    # operation even if the program's own check missed it.
    mismatched = recheck(result["evidence"])
    attempted = result["attempted"]
    failed = min(attempted, result["failed"] + len(mismatched))
    for digest, key in mismatched[:5]:
        print(f"wrong preimage: md5({key!r}) != {digest}", file=sys.stderr)
    for why in result["failures"]:
        print(f"failed: {why}", file=sys.stderr)

    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"{mode}")
    for m in wanted:
        print(describe(m["name"], metrics[m["name"]]))
    print(f"{'fail_share':34s} {failed / max(attempted, 1):>16.6g} "
          f"ratio    ({failed} of {attempted} operations, "
          f"{len(result['evidence'])} preimages re-hashed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
