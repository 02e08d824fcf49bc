"""rungelab benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 10 --trace 0

Set-up is timed from process start to the end of set-up (interpreter start,
imports, BLAS warm-up, config generation and any cache fill), in
``SETUP_SAMPLES`` separate processes; ``setup_s`` is their median.  The last
of them goes on to measure.  With ``--trace 0`` the result carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
traced iterations.  The last stdout line is the JSON result; the line before
it holds informational fields that are not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify", "cauchy", "operator_cold", "operator_warm")
SETUP_SAMPLES = 3
BLAS_THREADS = 1
# Whole-run limit, below the 180 s a run may take; a set-up probe gets less.
RUN_LIMIT_S = 170.0
PROBE_LIMIT_S = 60.0


def blas_env():
    """Child environment with one BLAS thread.

    On two cores, OpenBLAS worker threads spin after each call and compete
    with the solver thread; with two threads the run-to-run spread of
    ``run_s`` on ``cauchy`` measured about twice that of one thread."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def commit():
    """HEAD commit when the checkout is a git repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines():
    total = 0
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src", "rungelab")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def run_child(args, env, phase, deadline):
    """Start one worker; return (set-up seconds, stdout lines after set-up).

    A timer kills the child at ``deadline``; the child is always waited for."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--phase", phase]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    setup_s, lines = None, []
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "setup-done":
                setup_s = time.perf_counter() - t0
            else:
                lines.append(line.rstrip("\n"))
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or setup_s is None:
        raise SystemExit(f"worker ({phase}) exited with status {proc.returncode}")
    return setup_s, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="rungelab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rungelab", "cli.py")):
        print(f"error: no rungelab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = blas_env()
    start = time.perf_counter()
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            deadline = min(time.perf_counter() + PROBE_LIMIT_S, start + RUN_LIMIT_S)
            setups.append(run_child(args, env, "setup", deadline)[0])
        setup_s, lines = run_child(args, env, "measure", start + RUN_LIMIT_S)
        setups.append(setup_s)
    finally:
        shutil.rmtree(os.path.join(ROOT, ".perfbench_tmp"), ignore_errors=True)

    tagged = dict(line.split(" ", 1) for line in lines if " " in line)
    if "result" not in tagged:
        print("error: worker printed no result", file=sys.stderr)
        return 1
    info = json.loads(tagged["info"])
    result = json.loads(tagged["result"])
    info.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "setup_samples_s": setups, "nproc": os.cpu_count(),
                 "blas_threads_requested": BLAS_THREADS, "python": sys.version.split()[0],
                 "src_lines": src_lines(), "commit": commit()})
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
