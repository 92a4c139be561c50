#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. Builds the library, the daemon and the
benchmark runner from source into .bench_build/ (the first run builds,
later runs only check that the build is current), pins the environment,
and starts the runner. Its report lines go to standard output; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. Workloads and metrics are described in perfbench/README.md.

Exits non-zero without printing a result when the sources are missing or
the build fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
WORKLOADS = ("explore_oecd", "refine_crime", "ingest_crime")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Variables that change what the daemon does: fault injection and the
# store's write-side codec. A benchmark run never inherits them.
PINNED_UNSET = ("ZIGGY_FAULTS", "ZIGGY_FAULT_SEED", "ZIGGY_STORE_COMPRESSION")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR.parent / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD_DIR / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    steps = [configure,
             ["cmake", "--build", str(BUILD_DIR), "--target",
              "perfbench_runner", "-j", jobs]]
    with open(log_path, "w", encoding="utf-8") as log:
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + str(log_path))
            if done.returncode != 0:
                tail = log_path.read_text(encoding="utf-8",
                                          errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                fail("build failed; see " + str(log_path))


def source_id():
    """The git commit when the checkout is a repository of its own, else a
    hash of the sources the benchmark builds."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=False)
        lines = done.stdout.split()
        if (done.returncode == 0 and len(lines) == 2 and
                Path(lines[0]).resolve() == ROOT):
            return "git:" + lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def wait_group_gone(pgid):
    """Waits (up to 10 s) until no process of group `pgid` is left."""
    for _ in range(1000):
        alive = False
        for stat in Path("/proc").glob("[0-9]*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            if fields[2] == str(pgid) and fields[0] != "Z":
                alive = True
                break
        if not alive:
            return
        time.sleep(0.01)


def run_benchmark(args):
    env = dict(os.environ)
    for name in PINNED_UNSET:
        env.pop(name, None)
    run_name = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    work_dir = ROOT / ".bench_build" / "runs" / run_name
    report_dir = ROOT / ".bench_build" / "reports"
    cmd = [str(BUILD_DIR / "perfbench_runner"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", str(BUILD_DIR / "ziggy" / "ziggy_daemon"),
           "--work-dir", str(work_dir), "--report-dir", str(report_dir),
           "--source-id", source_id()]
    # A session of its own, so every process the runner leaves behind
    # (a daemon it failed to stop) can be found and ended below.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    lines = []
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        lines = out.splitlines()
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        wait_group_gone(proc.pid)
    shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode, lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("repository sources not found next to perfbench/")

    build()
    code, lines = run_benchmark(args)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if code != 0 or not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("runner exited with code %s and no result" % code)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
