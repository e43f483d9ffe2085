#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute after the build).

    python3 perfbench/selftest.py

Run from the repository root. Checks that
- every workload emits exactly the metrics BENCHMARK.json names, each with
  its unit and a finite value, with and without tracing, and no failures;
- an injected wrong oracle and a killed daemon each raise `failed` while the
  run still exits 0 and prints its result;
- in a directory holding only BENCHMARK.json and perfbench/, the run exits
  non-zero without printing a result.
Exits non-zero on the first check that does not hold.
"""

import json
import math
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run(extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--seed", "7", "--seconds", "2"] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def expect(cond, what, detail=""):
    if not cond:
        sys.exit(f"selftest: FAILED: {what}\n{detail}")
    print(f"selftest: ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    groups = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, metrics in groups.items():
            code, result, err = run(["--workload", w["name"], "--trace", str(trace), "--tiny"])
            what = f"{w['name']} --trace {trace}"
            expect(code == 0 and result is not None, f"{what} exits 0 with a result", err[-3000:])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what} result has exactly its four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{what} is correct ({result['failed']} of {result['attempted']} failed)")
            got = result["metrics"]
            expect(set(got) == {m["name"] for m in metrics},
                   f"{what} emits exactly the {len(metrics)} metrics of BENCHMARK.json"
                   f" (missing {sorted({m['name'] for m in metrics} - set(got))},"
                   f" extra {sorted(set(got) - {m['name'] for m in metrics})})")
            for m in metrics:
                v = got[m["name"]]
                expect(v["unit"] == m["unit"] and isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"]),
                       f"{what} {m['name']} = {v['value']} {v['unit']}")

    code, result, _ = run(["--workload", "paper-suite", "--tiny", "--inject-wrong-oracle"])
    expect(code == 0 and result is not None and result["failed"] > 0 and not result["correct"],
           f"a wrong oracle is counted, not fatal ({result and result['failed']} failed)")
    code, result, _ = run(["--workload", "sync-dense", "--tiny", "--kill-daemon"])
    expect(code == 0 and result is not None and result["failed"] > 0 and not result["correct"],
           f"a killed daemon is counted, not fatal ({result and result['failed']} failed)")

    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "target"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result, _ = run(["--workload", "paper-suite"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None,
           f"without the repository the run fails without a result (exit {code})")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
