#!/usr/bin/env python3
"""Build and run dpar_bench for one workload.

    python3 dpar_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 dpar_bench/run.py --smoke

Run from the root of a source checkout. The runner builds the simulator and
the benchmark from source (Release) under $CARGO_TARGET_DIR, or .bench_build
when that is unset, pins the environment, and runs the workload in its own
process under a wall-clock guard. The benchmark's last stdout line is a JSON
object {"correct", "attempted", "failed", "metrics"}; see README.md.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must end within 180 s; keep a margin for start-up and reporting.
RUN_LIMIT_S = 170.0


def fail(msg: str, code: int = 2) -> None:
    print(f"dpar_bench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def pinned_env() -> dict:
    """The caller's environment without any DPAR_* knob.

    The simulator reads DPAR_PDES_WORKERS, DPAR_ENGINE_QUEUE, DPAR_JOBS,
    DPAR_SCALE and DPAR_BENCH_*; each would change what is measured, so the
    benchmark always runs with the defaults: the serial engine in one thread.
    """
    return {k: v for k, v in os.environ.items() if not k.startswith("DPAR_")}


def build(env: dict) -> Path:
    for need in ("src/CMakeLists.txt", "bench/harness.cpp"):
        if not (ROOT / need).is_file():
            fail(f"{ROOT / need} not found: run from a checkout of the simulator")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "dpar_bench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "dpar_bench"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at reduced size, checked, one traced cell")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = pinned_env()
    exe = build(env)
    cmd = [str(exe), "--golden", str(BENCH_DIR / "golden.txt")]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]

    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        sys.stdout.write(out)
        print(f"# run guard: killed after {time.monotonic() - started:.0f} s")
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        return
    sys.stdout.write(out)
    if proc.returncode < 0:
        # Killed by a signal (a crash inside a cell): a failed run, not a
        # usage error.
        print(f"# run guard: benchmark died with signal {-proc.returncode}")
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        return
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
