#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json, and serve_mixed, which is run by hand
only (README.md), for six seconds on small inputs, once untraced and once
traced, and checks that each run is correct and emits exactly the metric
names and units BENCHMARK.json declares for its mode.
Then reruns two workloads with every expected answer perturbed and checks
that the correctness check catches it. Exits 0 when all of that holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
UNLISTED_WORKLOADS = ["serve_mixed"]
TINY = ["--seconds", "6", "--serve-triples", "20000",
        "--ingest-triples", "3000", "--setup-repeats", "1"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--trace", str(trace)] + TINY + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr[-2000:]
    return json.loads(lines[-1]), ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    workloads = [w["name"] for w in spec["workloads"]] + UNLISTED_WORKLOADS
    for name in workloads:
        for trace in (0, 1):
            label = f"{name} trace={trace}"
            result, err = run(name, trace)
            if result is None:
                problems.append(f"{label}: no result\n{err}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                units = sorted(k for k in got if k in expected[trace]
                               and got[k] != expected[trace][k])
                problems.append(f"{label}: missing {missing}, unexpected "
                                f"{extra}, wrong units {units}")
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: run not correct: {result}")
            print(f"ok   {label}: {len(got)} metrics, "
                  f"{result['attempted']} operations", flush=True)

    for name in ("serve_point", "ingest"):
        result, err = run(name, 0, ["--corrupt-expected", "1"])
        caught = (result is not None and not result["correct"]
                  and result["failed"] > 0)
        if not caught:
            problems.append(f"{name}: a wrong expected hash was not caught "
                            f"({result or err})")
        else:
            print(f"ok   {name}: wrong expected hash caught "
                  f"({result['failed']} of {result['attempted']} failed)",
                  flush=True)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
