#!/usr/bin/env bash
# Run the engine / thread-pool / budget tests under ThreadSanitizer.
#
# The batch engine (src/engine) is the one concurrent subsystem: a
# work-stealing thread pool plus mutex-guarded context caches shared across
# worker threads, resource guards (deadlines, step budgets, cancellation
# tokens) polled concurrently by disjunct-level workers, and the racing
# strategy portfolio (per-strategy guards cancelled through a shared race
# token). This script builds the tsan preset and runs every EngineTest.* /
# ThreadPoolTest.* / BudgetTest.* / PortfolioTest.* / StrategyTest.* /
# SyncTest.* / FlatContainerTest.* / AdmissionGateTest.* case under it
# (SyncTest is the dedicated multi-threaded stress file: sync-primitive
# contracts, cache hammering from 8 threads, CancelAll storms), so data
# races in the pool, the caches, the guards, the race bookkeeping, the serve
# admission gate, or the atomic stats counters surface as hard failures.
#
# Usage:
#   tools/sanitize.sh            # TSan over the engine tests (the default)
#   tools/sanitize.sh --all      # TSan over the full suite (slow)
#   tools/sanitize.sh --asan     # ASan+UBSan over the full suite instead
#
# Both presets configure with GQC_AUDIT=ON (see CMakePresets.json), so the
# sanitizer runs also execute every GQC_DCHECK / GQC_AUDIT validator: an
# invariant violation surfaces as an abort with the violated check, not as
# whatever memory error it would eventually cause.
#
# Exits non-zero on any sanitizer report or test failure.

set -euo pipefail
cd "$(dirname "$0")/.."

preset=tsan
filter='^(EngineTest|ThreadPoolTest|BudgetTest|PortfolioTest|StrategyTest|SyncTest|FlatContainerTest|AdmissionGateTest)\.'
for arg in "$@"; do
  case "$arg" in
    --all) filter='.*' ;;
    --asan) preset=asan-ubsan; filter='.*' ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"

# halt_on_error makes the first race fail the test instead of just logging.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"
export ASAN_OPTIONS="detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"
# Shrink the workload-driven engine batches: race coverage needs many threads,
# not many items, and the full batches blow the ctest timeout under TSan's
# ~10x slowdown. Override by exporting a different value (0 = full size).
export GQC_ENGINE_TEST_ITEMS="${GQC_ENGINE_TEST_ITEMS:-6}"

# The slow label (exhaustive brute-force sweeps) is excluded: those tests
# are single-threaded enumeration loops with nothing for a sanitizer to
# find, and TSan's slowdown would multiply their already-long runtime.
ctest --preset "$preset" -R "$filter" -LE slow --timeout 3600
