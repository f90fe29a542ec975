#!/usr/bin/env python3
"""Build and run the twchase benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload elevator-core --seed 1 --seconds 55 --trace 0

Configures and builds perfbench/ (the engine library from src/ plus the
twbench runner) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload. Build output goes to stderr;
the runner's report goes to stdout, and its last line is the JSON result.
Exits non-zero, without a result, when the sources or the build are missing.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("elevator-core", "staircase-core", "datalog-closure", "daemon-mixed")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(out: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: engine sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    # Compiler temporaries stay inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    binary = out / "twbench"
    if not binary.is_file():
        sys.exit("perfbench: build produced no twbench binary")
    return binary


def git_sha() -> str:
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return result.stdout.strip() if result.returncode == 0 else "none"


def source_digest() -> str:
    """sha256 over src/ and perfbench/ sources: identifies the measured code
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test input sizes")
    parser.add_argument("--goldens", default=str(BENCH_DIR / "goldens.json"))
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    command = [str(binary),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--data-dir", str(ROOT / "data"),
               "--goldens", args.goldens,
               "--work-dir", str(out),
               "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    if args.tiny:
        command.append("--tiny")
    process = subprocess.Popen(command)
    try:
        return process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
