#!/usr/bin/env python3
"""Self-test of the twchase benchmark.

Run from the repository root (builds on first use, then takes about a
minute):

    python3 perfbench/selftest.py

Checks, each on a tiny input size:
  * every workload, untraced, prints every end_to_end metric of
    BENCHMARK.json with its unit and is correct, and prints the table-only
    end-to-end lines (TABLE_METRICS) with theirs;
  * every workload, traced, prints every per_layer metric with its unit,
    and its parity checks pass;
  * a corrupted golden is caught: failed > 0, error_rate > 0, non-zero exit;
  * without the engine sources next to it, run.py exits non-zero and
    prints no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS, build_dir  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# End-to-end metrics printed as table lines only (not bounded in
# BENCHMARK.json): name -> unit, and the workloads that print them.
TABLE_METRICS = {
    "answer_s.p50": "s", "ops_per_s": "1/s", "cpu_s_per_op": "s",
    "error_rate": "ratio",
}
DAEMON_TABLE_METRICS = {
    "short_job_s.p50": "s", "short_job_s.tail": "s", "long_job_s.p50": "s",
    "jobs_per_s": "1/s",
}


def run(workload, trace, goldens=None, cwd=ROOT):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny"]
    if goldens:
        command += ["--goldens", str(goldens)]
    process = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                             timeout=900)
    lines = process.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return process.returncode, result, process.stdout


def metric_line(stdout, name):
    """(value, unit) of a `metric` line, or None."""
    for line in stdout.splitlines():
        fields = line.split()
        if fields[:2] == ["metric", name]:
            return float(fields[2]), fields[3]
    return None


def main():
    failures = []

    def expect(condition, message):
        if not condition:
            failures.append(message)
            print("FAIL", message, flush=True)

    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, result, stdout = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(code == 0, f"{label}: exit {code}")
            expect(result is not None, f"{label}: no JSON result line")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: not correct ({result['failed']} failed)")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            for metric in SPEC[group]:
                got = result["metrics"].get(metric["name"])
                expect(got is not None, f"{label}: {metric['name']} missing")
                if got is not None:
                    expect(got["unit"] == metric["unit"],
                           f"{label}: {metric['name']} unit {got['unit']}")
                    expect(isinstance(got["value"], (int, float)),
                           f"{label}: {metric['name']} is not a number")
            if trace == 0:
                table = dict(TABLE_METRICS)
                if workload == "daemon-mixed":
                    table.update(DAEMON_TABLE_METRICS)
                for name, unit in table.items():
                    line = metric_line(stdout, name)
                    expect(line is not None and line[1] == unit,
                           f"{label}: table line {name} {line}")
            print("checked", label, flush=True)

    # A corrupted golden must be caught and counted.
    work = build_dir() / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    goldens = json.loads((BENCH_DIR / "goldens.json").read_text())
    for entry in goldens["elevator-core"].values():
        entry["hash"] = "0" * 16
    corrupted = work / "corrupted-goldens.json"
    corrupted.write_text(json.dumps(goldens))
    code, result, stdout = run("elevator-core", 0, goldens=corrupted)
    expect(code != 0, "corrupted golden: exit code 0")
    expect(result is not None and not result["correct"]
           and result["failed"] > 0, "corrupted golden: not reported")
    expect((metric_line(stdout, "error_rate") or (0,))[0] > 0,
           "corrupted golden: error_rate is 0")
    print("checked corrupted golden", flush=True)

    # Only BENCHMARK.json and perfbench/: no sources, so no result.
    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = run("elevator-core", 0, cwd=bare)
    expect(code != 0 and result is None,
           f"bare directory: exit {code}, result {result}")
    print("checked bare directory", flush=True)
    shutil.rmtree(work, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
