#!/usr/bin/env python3
"""The benchmark's own check, at a tiny scale.

Usage (from the repository root): python3 tlpbench/selfcheck.py

1. Every workload, untraced and traced, exits 0 with a correct result
   whose metrics are exactly the end_to_end (untraced) or per_layer
   (traced) metrics BENCHMARK.json names, each with its unit.
2. A planted score mismatch in search-tlp raises models.oracle_mismatches
   and bench.error_rate, reports correct=false and fails the run.
3. Without the repository's sources beside it, the benchmark exits
   nonzero and prints no result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "tlpbench", "run.py"),
           "--seed", "3", "--seconds", "1", "--tiny", *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            rc, result, proc = bench("--workload", workload,
                                     "--trace", trace)
            label = "%s --trace %s" % (workload, trace)
            check(rc == 0 and result is not None and result["correct"],
                  label + " exits 0 with a correct result")
            if result is None:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
                continue
            check(set(result) == RESULT_KEYS, label + " result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace],
                  label + " prints every named metric with its unit")

    rc, result, _ = bench("--workload", "search-tlp", "--trace", "1",
                          "--plant-mismatch")
    metrics = result["metrics"] if result else {}
    check(rc != 0 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          "planted mismatch fails the run")
    check(metrics.get("models.oracle_mismatches", {}).get("value", 0) >= 1
          and metrics.get("bench.error_rate", {}).get("value", 0) > 0,
          "planted mismatch raises oracle_mismatches and error_rate")

    bare = os.path.join(ROOT, ".bench_build", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    rc, result, _ = bench("--workload", "pretrain", "--trace", "0",
                          cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and result is None,
          "without the sources: nonzero exit and no result")

    print("selfcheck: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
