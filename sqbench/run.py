#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload and seed.

    python3 sqbench/run.py --workload scan_hot --seed 1 --seconds 30 --trace 0

Run it from the repository root. The first run configures and builds
sqbench/ (the sqopt library from src/ plus the benchmark binary) into
the build directory named by CARGO_TARGET_DIR, default .bench_build;
later runs rebuild only what changed. Build output goes to standard
error, and the last line of standard output is the result JSON. Scratch
files of a run live under the build directory and are removed when the
run ends. The exit code is the benchmark binary's: 0, or non-zero when
an output check failed or the run could not complete.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

# A run must end within 180 s; leave room to report a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(bench_dir: Path, build_dir: Path) -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["adhoc", "scan_hot", "churn"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--corrupt-expectation", action="store_true",
                        help="falsify one expected answer; the run must fail")
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "api" / "engine.h").is_file():
        print(f"sqbench: no sqopt sources in {root / 'src'}", file=sys.stderr)
        return 2

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    try:
        build(bench_dir, build_dir)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"sqbench: build failed: {e}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    work_dir = build_dir / "runs" / f"{tag}-{os.getpid()}"
    command = [str(build_dir / "sqbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(work_dir)]
    if args.trace == "1":
        spans_dir = build_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out", str(spans_dir / f"{tag}.csv")]
    if args.corrupt_expectation:
        command.append("--corrupt-expectation")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"sqbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
