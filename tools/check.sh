#!/usr/bin/env sh
# Local gate mirroring what CI would run:
#   1. tier-1: configure + build + full ctest under the default preset;
#   2. twgen gates: the label-soundness sweep (500 seeded programs — every
#      fes label must terminate under every variant, every non-terminating
#      label must diverge under every variant) and a seeded differential
#      sweep smoke (all five variants × plan on/off, bit-identity
#      cross-checked per variant);
#   3. sanitizers: ASan+UBSan (TWCHASE_SANITIZE) build, then the delta, obs,
#      robustness, columnar, plan, durability and analysis labelled suites
#      under it (fault-injection, checkpoint/resume, the columnar storage
#      layer, the planner's still-core guard, the torn-write/replay recovery
#      paths and the preflight's sandboxed dynamic probes are exactly the
#      code that must be memory-clean);
#   4. TSan: ThreadSanitizer build, then the robustness, columnar, plan,
#      service and analysis labelled suites under it to race-check
#      cross-thread cancellation, the sharded metrics and lazy column-index
#      builds that daemon workers and HTTP handlers share, and the daemon's
#      HTTP handler pool + job scheduler + preemption monitor;
#   5. daemon smoke: start twchased on an ephemeral port, submit the bundled
#      programs through twchase_client and diff the results against the CLI
#      (modulo the wall-clock field) — the service path must render the
#      exact same answer, including a --variant=auto submission whose
#      daemon-side preflight must match the CLI's; then a clean SIGTERM
#      shutdown with zero leaked jobs;
#   6. crash recovery: start twchased with --state-dir, submit a slow and a
#      fast job, SIGKILL the daemon mid-run, restart it on the same state
#      directory and await both jobs — each result must be byte-identical
#      (modulo the wall-clock field) to an uninterrupted CLI run of the same
#      program, whether it was served from the retained terminal record or
#      resumed from the last durable checkpoint;
#   7. fuzz smoke: short runs of the parser fuzz harness and the recovery
#      fuzz harness (checkpoint + manifest parsers over the seed corpus of
#      torn/truncated/bit-flipped artifacts) under the sanitizer build
#      (libFuzzer with clang, the deterministic standalone driver with gcc);
#   8. bench smoke: the full bench_engine sweep (delta, match workloads,
#      large instances, planner, service throughput, the preflight sweep)
#      under a generous wall-time ceiling — it fails on parity violations,
#      a tripped memory budget, or a hang;
#   9. planner regression gate: from the bench smoke artifact, the
#      staircase-core and elevator-core workloads must not be slower with the
#      planner on than off — the planner only ever skips work, so a regression
#      means the reliance/guard machinery itself got too expensive.
# Run from the repository root. Fails fast on the first broken step. Every
# ctest invocation is wrapped in a hard `timeout` so a hung governed run can
# never wedge the gate (individual tests additionally carry ctest TIMEOUT
# properties, see tests/CMakeLists.txt).
set -eu

cd "$(dirname "$0")/.."

JOBS="${JOBS:-2}"
# Hard wall-clock cap per ctest invocation, seconds.
CTEST_HARD_TIMEOUT="${CTEST_HARD_TIMEOUT:-1200}"
# Fuzz smoke duration, seconds.
FUZZ_SECONDS="${FUZZ_SECONDS:-30}"
# Bench smoke ceiling, seconds. Generous: the sweep takes ~1 minute on an
# unloaded host; hitting the ceiling means a hang or a serious regression.
BENCH_HARD_TIMEOUT="${BENCH_HARD_TIMEOUT:-900}"

echo "== tier-1: default preset =="
cmake --preset default
cmake --build --preset default -j "$JOBS"
timeout "$CTEST_HARD_TIMEOUT" ctest --preset default

echo "== twgen gates: label soundness (500 programs) + differential sweep smoke =="
timeout "$CTEST_HARD_TIMEOUT" ./build/tools/twgen --soundness --programs=500
timeout "$CTEST_HARD_TIMEOUT" ./build/tools/twgen --sweep --programs=60 \
  --max-steps=30

echo "== sanitizers: asan preset, delta+obs+robustness+columnar+plan+durability+analysis labels =="
cmake --preset asan -DTWCHASE_BUILD_FUZZERS=ON
cmake --build --preset asan -j "$JOBS"
timeout "$CTEST_HARD_TIMEOUT" ctest --test-dir build-asan \
  --output-on-failure -L 'delta|obs|robustness|columnar|plan|durability|analysis'

echo "== tsan: thread preset, robustness+columnar+plan+service+analysis labels =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
timeout "$CTEST_HARD_TIMEOUT" ctest --test-dir build-tsan \
  --output-on-failure -L 'robustness|columnar|plan|service|analysis'

echo "== daemon smoke: twchased round-trip vs the CLI on bundled programs =="
./build/tools/twchased --port=0 > /tmp/twchased_smoke.log 2>&1 &
TWCHASED_PID=$!
DAEMON_PORT=""
for _ in 1 2 3 4 5 6 7 8 9 10; do
  DAEMON_PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      /tmp/twchased_smoke.log)"
  [ -n "$DAEMON_PORT" ] && break
  sleep 0.2
done
if [ -z "$DAEMON_PORT" ]; then
  echo "DAEMON SMOKE FAILURE: twchased never reported its port" >&2
  kill "$TWCHASED_PID" 2>/dev/null || true
  exit 1
fi
for program in data/*.twc; do
  ./build/tools/twchase_cli --variant=core --max-steps=20 "$program" \
      | sed 's/ [0-9][0-9.]*s,/ TIME,/' > /tmp/twchase_cli_smoke.out
  ./build/tools/twchase_client --port="$DAEMON_PORT" --max-steps=20 \
      "$program" | sed 's/ [0-9][0-9.]*s,/ TIME,/' > /tmp/twchased_client.out
  if ! diff -u /tmp/twchase_cli_smoke.out /tmp/twchased_client.out; then
    echo "DAEMON SMOKE FAILURE: $program differs from the CLI" >&2
    kill "$TWCHASED_PID" 2>/dev/null || true
    exit 1
  fi
  echo "  $program: daemon result identical to the CLI"
done
# --variant=auto round-trip: the daemon's server-side preflight resolution
# must render the same text (preflight line included) as the CLI's.
./build/tools/twgen --class=fes --seed=11 --out=/tmp/twgen_auto_smoke.twc
./build/tools/twchase_cli --variant=auto /tmp/twgen_auto_smoke.twc \
    | sed 's/ [0-9][0-9.]*s,/ TIME,/' > /tmp/twchase_cli_smoke.out
./build/tools/twchase_client --port="$DAEMON_PORT" --variant=auto \
    /tmp/twgen_auto_smoke.twc | sed 's/ [0-9][0-9.]*s,/ TIME,/' \
    > /tmp/twchased_client.out
if ! diff -u /tmp/twchase_cli_smoke.out /tmp/twchased_client.out; then
  echo "DAEMON SMOKE FAILURE: --variant=auto differs from the CLI" >&2
  kill "$TWCHASED_PID" 2>/dev/null || true
  exit 1
fi
echo "  twgen fes seed=11: daemon --variant=auto identical to the CLI"
kill -TERM "$TWCHASED_PID"
TWCHASED_EXIT=0
wait "$TWCHASED_PID" || TWCHASED_EXIT=$?
if [ "$TWCHASED_EXIT" -ne 0 ]; then
  echo "DAEMON SMOKE FAILURE: unclean shutdown (exit $TWCHASED_EXIT)" >&2
  cat /tmp/twchased_smoke.log >&2
  exit 1
fi
if ! grep -q "shutdown complete, 0 leaked jobs" /tmp/twchased_smoke.log; then
  echo "DAEMON SMOKE FAILURE: leaked jobs at shutdown" >&2
  cat /tmp/twchased_smoke.log >&2
  exit 1
fi

echo "== crash recovery: SIGKILL mid-job, restart, byte-identical results =="
# Uninterrupted CLI goldens: slow jobs (staircase at 600 steps, ~1.5s of
# core chase each) that the kill catches mid-run, and a fast one (staircase
# at 60 steps) that finishes beforehand and must be served from the
# retained terminal record. Two slow jobs on one worker force preemption
# (the monitor only pauses a job when another is queued), so the crash
# lands on real durable checkpoints, not just the admit records. Elevator
# jobs cannot serve here: at 100 steps one finishes well inside the 1s
# before the kill, and a resumed elevator segment re-cores from scratch, so
# longer ones take minutes.
./build/tools/twchase_cli --variant=core --max-steps=600 data/staircase.twc \
  | sed 's/ [0-9][0-9.]*s,/ TIME,/' > /tmp/twchase_recovery_golden_slow.out
./build/tools/twchase_cli --variant=core --max-steps=60 data/staircase.twc \
  | sed 's/ [0-9][0-9.]*s,/ TIME,/' > /tmp/twchase_recovery_golden_fast.out
RECOVERY_STATE="$(mktemp -d /tmp/twchase_recovery_state.XXXXXX)"
./build/tools/twchased --port=0 --workers=1 --preempt-after-ms=100 \
  --state-dir="$RECOVERY_STATE" > /tmp/twchased_recovery.log 2>&1 &
TWCHASED_PID=$!
DAEMON_PORT=""
for _ in 1 2 3 4 5 6 7 8 9 10; do
  DAEMON_PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      /tmp/twchased_recovery.log)"
  [ -n "$DAEMON_PORT" ] && break
  sleep 0.2
done
if [ -z "$DAEMON_PORT" ]; then
  echo "CRASH RECOVERY FAILURE: twchased never reported its port" >&2
  kill "$TWCHASED_PID" 2>/dev/null || true
  exit 1
fi
FAST_ID="$(./build/tools/twchase_client --port="$DAEMON_PORT" --max-steps=60 \
    --no-wait data/staircase.twc)"
SLOW_A_ID="$(./build/tools/twchase_client --port="$DAEMON_PORT" \
    --max-steps=600 --no-wait data/staircase.twc)"
SLOW_B_ID="$(./build/tools/twchase_client --port="$DAEMON_PORT" \
    --max-steps=600 --no-wait data/staircase.twc)"
# Let the fast job finish and the slow pair alternate across preemption
# boundaries (each pause persists a sealed checkpoint), then crash hard.
sleep 1
kill -9 "$TWCHASED_PID"
wait "$TWCHASED_PID" 2>/dev/null || true
echo "  killed twchased mid-job (fast=$FAST_ID slow=$SLOW_A_ID,$SLOW_B_ID)"
if [ -z "$(ls "$RECOVERY_STATE/checkpoints" 2>/dev/null)" ]; then
  echo "CRASH RECOVERY FAILURE: no durable checkpoint at kill time" >&2
  exit 1
fi
./build/tools/twchased --port=0 --workers=1 --preempt-after-ms=100 \
  --state-dir="$RECOVERY_STATE" > /tmp/twchased_recovery2.log 2>&1 &
TWCHASED_PID=$!
DAEMON_PORT=""
for _ in 1 2 3 4 5 6 7 8 9 10; do
  DAEMON_PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
      /tmp/twchased_recovery2.log)"
  [ -n "$DAEMON_PORT" ] && break
  sleep 0.2
done
if [ -z "$DAEMON_PORT" ]; then
  echo "CRASH RECOVERY FAILURE: restarted twchased never reported its port" >&2
  kill "$TWCHASED_PID" 2>/dev/null || true
  exit 1
fi
for job in "fast $FAST_ID" "slow $SLOW_A_ID" "slow $SLOW_B_ID"; do
  kind="${job%% *}"
  id="${job#* }"
  ./build/tools/twchase_client --port="$DAEMON_PORT" --await-job="$id" \
      | sed 's/ [0-9][0-9.]*s,/ TIME,/' > /tmp/twchase_recovery_replay.out
  if ! diff -u "/tmp/twchase_recovery_golden_${kind}.out" \
      /tmp/twchase_recovery_replay.out; then
    echo "CRASH RECOVERY FAILURE: $kind job $id differs after restart" >&2
    kill "$TWCHASED_PID" 2>/dev/null || true
    exit 1
  fi
  echo "  $kind job $id: byte-identical after SIGKILL + restart"
done
kill -TERM "$TWCHASED_PID"
wait "$TWCHASED_PID" || {
  echo "CRASH RECOVERY FAILURE: unclean shutdown after recovery" >&2
  cat /tmp/twchased_recovery2.log >&2
  exit 1
}
rm -rf "$RECOVERY_STATE"

echo "== fuzz smoke: parser harness, ${FUZZ_SECONDS}s =="
timeout $((FUZZ_SECONDS + 30)) ./build-asan/fuzz/parser_fuzzer \
  "-max_total_time=${FUZZ_SECONDS}" -seed=1

echo "== fuzz smoke: recovery harness over the seed corpus, ${FUZZ_SECONDS}s =="
timeout $((FUZZ_SECONDS + 30)) ./build-asan/fuzz/recovery_fuzzer \
  "-max_total_time=${FUZZ_SECONDS}" -seed=1 fuzz/corpus/recovery

echo "== bench smoke: full sweep under ${BENCH_HARD_TIMEOUT}s ceiling =="
timeout "$BENCH_HARD_TIMEOUT" ./build/bench/bench_engine \
  --out /tmp/twchase_bench_smoke.json > /dev/null

echo "== planner regression gate: staircase-core and elevator-core plan on vs off =="
for workload in staircase-core elevator-core; do
  if ! awk -v name="$workload" '
    /"plan_sweep"/ { in_sweep = 1 }
    in_sweep && index($0, "\"name\": \"" name "\"") { in_row = 1 }
    in_row && /"plan_off"/ && match($0, /"wall_ms": [0-9.]+/) {
      off = substr($0, RSTART + 11, RLENGTH - 11) + 0
    }
    in_row && /"plan_on"/ && match($0, /"wall_ms": [0-9.]+/) {
      on = substr($0, RSTART + 11, RLENGTH - 11) + 0
      printf "  %s: plan off %.2f ms, plan on %.2f ms\n", name, off, on
      exit !(off > 0 && on > 0 && on <= off)
    }
    END {
      if (on == "") { print "  " name " plan_sweep row missing"; exit 1 }
    }
  ' /tmp/twchase_bench_smoke.json; then
    echo "PLANNER REGRESSION: $workload slower with the planner on" >&2
    exit 1
  fi
done

echo "check.sh: all gates passed"
