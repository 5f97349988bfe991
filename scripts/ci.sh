#!/usr/bin/env bash
# CI entry point: tier-1 verify plus sanitizer configurations.
#
# Usage:
#   scripts/ci.sh            # tier-1 (default preset) only
#   scripts/ci.sh all        # tier-1 + release + asan/ubsan + tsan + chaos
#   scripts/ci.sh release    # Release build (-O3, NDEBUG) + tier-1 tests
#   scripts/ci.sh asan       # asan/ubsan configuration only
#   scripts/ci.sh tsan       # tsan configuration (concurrency tests only)
#   scripts/ci.sh chaos      # fault-injection suite under ASan: fixed
#                            # seed, then one randomized seed (printed,
#                            # so failures reproduce)
#   scripts/ci.sh overload   # overload smoke: bench_overload sweep at
#                            # the fixed seed; the binary exits nonzero
#                            # unless goodput with shedding clears the
#                            # floor (>= 2x the collapsed no-shedding
#                            # goodput at 4x saturation)
#   scripts/ci.sh restart    # restart survivability suite under ASan:
#                            # lifecycle/drain/reconnect units plus the
#                            # kill/restart chaos harness, fixed seed
#                            # then one randomized seed (printed)
#   scripts/ci.sh epoch      # epoch-batched execution suite under
#                            # ASan: executor/layout/metrics units plus
#                            # the epoch chaos composition, then the
#                            # bench_epoch speedup + §4 audit gate on
#                            # the default preset
#   scripts/ci.sh sharding   # federated sharding suite under ASan:
#                            # topology/routing/federated-grant units
#                            # plus the shard chaos workload, fixed
#                            # seed then one randomized seed (printed),
#                            # then the bench_sharding scaling +
#                            # consistency gate on the default preset
#   scripts/ci.sh bench      # bench-regression gate: rerun the
#                            # benches and compare against the
#                            # committed BENCH_*.json baselines with
#                            # scripts/check_bench.py (>25% goodput
#                            # drop or >2x p99 growth fails)
#   scripts/ci.sh lint       # clang-format --dry-run --Werror over
#                            # src/ tests/ bench/
#
# When ccache is installed it is wired in as the compiler launcher and
# a hit/miss summary is printed at the end; without it the build runs
# cold (the CI jobs install and cache it, dev boxes need not).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
MODE="${1:-default}"

if command -v ccache >/dev/null 2>&1; then
  export CMAKE_CXX_COMPILER_LAUNCHER=ccache
  ccache --zero-stats >/dev/null 2>&1 || true
  CCACHE_ON=1
else
  CCACHE_ON=0
fi

print_ccache_summary() {
  if [ "${CCACHE_ON}" = 1 ]; then
    echo "=== ccache summary ==="
    # -s layout differs across versions; both spellings kept on purpose.
    ccache --show-stats 2>/dev/null | grep -Ei 'hit|miss|cache size' || ccache -s
  else
    echo "=== ccache not installed: cold build ==="
  fi
}

run_preset() {
  local preset="$1"
  shift
  echo "=== configure/build/test: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${JOBS}"
  ctest --test-dir "build$([ "${preset}" = default ] || echo "-${preset}")" \
    --output-on-failure -j "${JOBS}" "$@"
}

run_overload() {
  echo "=== overload smoke: bench_overload (goodput-floor gates) ==="
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" --target bench_overload
  ./build/bench/bench_overload build/BENCH_overload.json
}

run_bench() {
  echo "=== bench-regression gate: fresh runs vs committed baselines ==="
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" \
    --target bench_scaling --target bench_chaos --target bench_overload \
    --target bench_durability --target bench_recovery --target bench_a2_wsba \
    --target bench_restart --target bench_sharding --target bench_epoch
  # check_bench output is tee'd to build/check_bench_<name>.log so the
  # CI job can upload the phase-latency attribution as an artifact when
  # the gate fails.
  local bench
  for bench in scaling chaos overload durability recovery restart sharding \
      epoch; do
    echo "--- bench_${bench} ---"
    "./build/bench/bench_${bench}" "build/BENCH_${bench}.json"
    python3 scripts/check_bench.py \
      "BENCH_${bench}.json" "build/BENCH_${bench}.json" |
      tee "build/check_bench_${bench}.log"
  done
  # The wsba sweep ships as bench_a2_wsba (the A2 ablation grown into a
  # sweep); its binary self-gates on 100% outcome consistency and the
  # checker re-gates the committed baseline comparison.
  echo "--- bench_a2_wsba ---"
  ./build/bench/bench_a2_wsba build/BENCH_wsba.json
  python3 scripts/check_bench.py BENCH_wsba.json build/BENCH_wsba.json |
    tee build/check_bench_wsba.log
}

run_lint() {
  # CLANG_FORMAT overrides the binary (the CI job pins a versioned
  # clang-format-NN; formatting output drifts across major versions).
  local fmt="${CLANG_FORMAT:-clang-format}"
  echo "=== clang-format check (src/ tests/ bench/) ==="
  if ! command -v "${fmt}" >/dev/null 2>&1; then
    echo "${fmt} not installed" >&2
    exit 2
  fi
  "${fmt}" --version
  find src tests bench -name '*.h' -o -name '*.cc' -o -name '*.cpp' \
    | xargs "${fmt}" --dry-run --Werror
}

run_chaos() {
  # Fault-injection suite under ASan: the fixed-seed run first, then
  # one fresh-seed run to probe schedules the fixed seed never hits.
  # The seed is exported and echoed so a failure is reproducible with
  # PROMISES_CHAOS_SEED=<seed> scripts/ci.sh chaos.
  run_preset asan -R 'Chaos|FaultInjector|TransportFault|RetryPolicy|RetryClock|Idempotency|Overload|Breaker|Admission|Trace|GroupCommit|Recovery|Checkpoint|OplogScan|Wsba|Restart|Lifecycle|Drain|Reconnect'
  local seed="${PROMISES_CHAOS_SEED:-$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')}"
  echo "=== chaos randomized run: PROMISES_CHAOS_SEED=${seed} ==="
  PROMISES_CHAOS_SEED="${seed}" \
    ctest --test-dir build-asan --output-on-failure -R 'Chaos' ||
    { echo "chaos FAILED with PROMISES_CHAOS_SEED=${seed}" >&2; exit 1; }
}

run_restart() {
  # Restart survivability under ASan: the lifecycle/drain/reconnect
  # units plus the kill/restart chaos harness at the fixed seed, then
  # one fresh-seed chaos run (seed echoed so failures reproduce with
  # PROMISES_CHAOS_SEED=<seed> scripts/ci.sh restart).
  run_preset asan -R 'Restart|Lifecycle|Drain|Reconnect'
  local seed="${PROMISES_CHAOS_SEED:-$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')}"
  echo "=== restart chaos randomized run: PROMISES_CHAOS_SEED=${seed} ==="
  PROMISES_CHAOS_SEED="${seed}" \
    ctest --test-dir build-asan --output-on-failure -R 'RestartChaos' ||
    { echo "restart chaos FAILED with PROMISES_CHAOS_SEED=${seed}" >&2; exit 1; }
}

run_epoch() {
  # Epoch-batched execution under ASan: the executor units (round
  # trips, dedup replay across epochs, twin-world replay determinism),
  # the cache-line layout asserts, the epoch metrics, and the §4
  # invariant audit running against the epoch path under faults.
  # Finishes with the bench_epoch ≥4x speedup + audit gate on the
  # default preset (the binary self-gates on the audit; check_bench
  # re-gates the speedup floor and the baseline comparison).
  run_preset asan -R 'Epoch|Layout|MetricsRegistry'
  echo "=== epoch bench gate: bench_epoch + check_bench ==="
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" --target bench_epoch
  ./build/bench/bench_epoch build/BENCH_epoch.json
  python3 scripts/check_bench.py \
    BENCH_epoch.json build/BENCH_epoch.json |
    tee build/check_bench_epoch.log
}

run_sharding() {
  # Federated sharding under ASan: topology/routing/guard units, the
  # federated grant + twin-world crash tests and the TCP cluster, then
  # the shard chaos workload at the fixed seed and one fresh seed
  # (echoed so failures reproduce with PROMISES_CHAOS_SEED=<seed>
  # scripts/ci.sh sharding). Finishes with the bench_sharding scaling
  # + atomic-consistency gate on the default preset.
  run_preset asan -R 'Shard|FederatedGrant'
  local seed="${PROMISES_CHAOS_SEED:-$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')}"
  echo "=== shard chaos randomized run: PROMISES_CHAOS_SEED=${seed} ==="
  PROMISES_CHAOS_SEED="${seed}" \
    ctest --test-dir build-asan --output-on-failure -R 'ShardChaos' ||
    { echo "shard chaos FAILED with PROMISES_CHAOS_SEED=${seed}" >&2; exit 1; }
  echo "=== sharding bench gate: bench_sharding + check_bench ==="
  cmake --preset default
  cmake --build --preset default -j "${JOBS}" --target bench_sharding
  ./build/bench/bench_sharding build/BENCH_sharding.json
  python3 scripts/check_bench.py \
    BENCH_sharding.json build/BENCH_sharding.json |
    tee build/check_bench_sharding.log
}

case "${MODE}" in
  default)
    run_preset default
    ;;
  release)
    run_preset release
    ;;
  asan)
    run_preset asan
    ;;
  tsan)
    # TSan over the full suite is slow on small runners; the concurrency
    # and transaction tests are where data races would live — including
    # the chaos workload's retry/dedup path.
    run_preset tsan -R 'Concurren|Striped|LockManager|Transaction|Workload|Chaos|Epoch|Layout|Idempotency|Pending|Overload|Breaker|Admission|Trace|Metrics|GroupCommit|Recovery|Checkpoint|OplogScan|Wsba|Restart|Lifecycle|Drain|Reconnect|Shard|FederatedGrant|Tcp|Protocol|OperationLog|EnvelopeCodec|TentativeStress|Tentative|Matching'
    ;;
  chaos)
    run_chaos
    ;;
  restart)
    run_restart
    ;;
  epoch)
    run_epoch
    ;;
  sharding)
    run_sharding
    ;;
  overload)
    run_overload
    ;;
  bench)
    run_bench
    ;;
  lint)
    run_lint
    ;;
  all)
    run_preset default
    run_preset release
    run_preset asan
    run_preset tsan -R 'Concurren|Striped|LockManager|Transaction|Workload|Chaos|Epoch|Layout|Idempotency|Pending|Overload|Breaker|Admission|Trace|Metrics|GroupCommit|Recovery|Checkpoint|OplogScan|Wsba|Restart|Lifecycle|Drain|Reconnect|Shard|FederatedGrant|Tcp|Protocol|OperationLog|EnvelopeCodec|TentativeStress|Tentative|Matching'
    run_chaos
    run_restart
    run_epoch
    run_sharding
    run_overload
    run_bench
    ;;
  *)
    echo "unknown mode: ${MODE} (expected default|release|asan|tsan|chaos|restart|epoch|sharding|overload|bench|lint|all)" >&2
    exit 2
    ;;
esac

print_ccache_summary
echo "=== CI ${MODE}: OK ==="
