#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark (about a minute):

  1. the program's job verifier counts every kind of defect it must
     (missed key, duplicate recovery, wrong preimage, unplanted find,
     short coverage, job not done) and passes a good job;
  2. the runner's independent MD5 re-check flags a wrong preimage;
  3. every workload runs at reduced size, untraced and traced, and prints
     a well-formed result with every declared metric and no failures.

Usage (from the repository root):  python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the runner under test)


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main():
    spec = run.load_spec()
    binary = run.build(run.build_dir())

    verifier = subprocess.run([binary, "--check-verifier"],
                              stdout=subprocess.PIPE, text=True)
    print(verifier.stdout, end="")
    check(verifier.returncode == 0, "the job verifier counts every defect")

    good = ("d41d8cd98f00b204e9800998ecf8427e", "")
    bad = ("d41d8cd98f00b204e9800998ecf8427e", "x")
    check(run.recheck([good, bad]) == [bad],
          "the runner's MD5 re-check flags a wrong preimage")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", "7", "--seconds", "1", "--trace",
                 str(trace), "--quick"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                cwd=run.ROOT)
            what = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                print(proc.stderr[-3000:])
            check(proc.returncode == 0, f"{what} exits 0")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{what} prints the result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{what} verifies with no failures")
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            names = {m["name"] for m in wanted}
            check(set(result["metrics"]) == names,
                  f"{what} reports exactly the declared metrics")
            check(all(math.isfinite(m["value"])
                      for m in result["metrics"].values()),
                  f"{what} reports finite values")


if __name__ == "__main__":
    main()
