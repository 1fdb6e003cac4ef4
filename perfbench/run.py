#!/usr/bin/env python3
"""Builds the rdfsum_perf harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 10 --trace 0

The library is built from the repository's own sources (perfbench/
CMakeLists.txt pulls in the root CMakeLists.txt) into the directory named by
CARGO_TARGET_DIR, default .bench_build, relative to the repository root.
Images go to <build dir>/work/<pid>, removed after the run; a traced run's
spans go to <build dir>/spans. The harness's stdout is forwarded; its last
line is the result object. Build output goes to stderr.
Any other flag (for example --serve-triples, used by selftest.py) is passed
through to the harness unchanged.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_quiet(cmd, log):
    with open(log, "ab") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode


def build():
    """Configures and builds rdfsum_perf; returns its path or None."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.stderr.write(f"run.py: {need} not found next to perfbench/; "
                             "the benchmark builds the repository's sources\n")
            return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "rdfsum_perf", "-j", jobs],
    ]
    for cmd in steps:
        if run_quiet(cmd, log) != 0:
            with open(log, "rb") as f:
                sys.stderr.write(f.read()[-4000:].decode("utf-8", "replace"))
            sys.stderr.write("run.py: build failed\n")
            return None
    return os.path.join(out, "rdfsum_perf")


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """Hash of the library sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, names in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def main(argv):
    binary = build()
    if binary is None:
        return 1
    # One directory per run: the daemon maps its image, so two runs must
    # never write the same file.
    work = os.path.join(build_dir(), "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary] + argv + ["--work-dir", work, "--span-dir", spans,
                             "--git-sha", git_sha(),
                             "--source-digest", source_digest()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: harness timed out\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = proc.stdout.decode("utf-8", "replace")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    if set(result) != RESULT_KEYS:
        sys.stderr.write("run.py: harness printed no result line\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
