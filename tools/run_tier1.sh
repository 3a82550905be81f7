#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full ctest suite.
#
#   tools/run_tier1.sh              # RelWithDebInfo into build/; fails
#                                   # if the build prints a warning
#   ASAN=1 tools/run_tier1.sh       # ASan+UBSan into build-asan/
#   BENCH=1 tools/run_tier1.sh      # also run every bench and validate
#                                   # its BENCH_<name>.json report, and
#                                   # build and self-test perfbench/
#
# Extra arguments are forwarded to ctest, e.g.:
#   tools/run_tier1.sh -L unit      # fast pre-commit loop
#   tools/run_tier1.sh -L gossip    # wire-format equivalence (runs every
#                                   # scenario in both full and delta mode)
#   tools/run_tier1.sh -L reliable  # hop-level ack/retransmit/failover suite
#   tools/run_tier1.sh -L scenario  # committed fault plans + pinned goldens
#   tools/run_tier1.sh -L cli       # newswire_sim smoke runs
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "${ASAN:-0}" == "1" ]]; then
  build="$repo/build-asan"
  extra=(-DNEWSWIRE_SANITIZE=ON)
else
  build="$repo/build"
  extra=()
fi

cmake -S "$repo" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo "${extra[@]}"
if [[ "${ASAN:-0}" == "1" ]]; then
  cmake --build "$build" -j "$jobs"
else
  # The default build must stay warning-free: any compiler warning in what
  # this step compiles fails the gate (a clean build tree compiles it all).
  build_log="$build/tier1_build.log"
  cmake --build "$build" -j "$jobs" 2>&1 | tee "$build_log"
  if grep -q "warning:" "$build_log"; then
    echo "tier-1: the build printed compiler warnings (see above)" >&2
    exit 1
  fi
fi

ctest --test-dir "$build" --output-on-failure -j "$jobs" "$@"

if [[ "${BENCH:-0}" == "1" ]]; then
  # The repository benchmark builds src/ on its own (perfbench/run.py):
  # build it that way and run every workload at toy size, untraced and
  # traced. It goes first so that a red E-bench gate below cannot skip it.
  python3 "$repo/perfbench/selftest.py"
  # Run every bench binary and check that each emits a machine-readable
  # BENCH_<name>.json report that a strict parser accepts.
  json_dir="$build/bench-json"
  rm -rf "$json_dir" && mkdir -p "$json_dir"
  for exe in "$build"/bench/bench_*; do
    [[ -f "$exe" && -x "$exe" ]] || continue
    echo "== bench: $(basename "$exe")"
    BENCH_JSON_DIR="$json_dir" "$exe"
  done
  shopt -s nullglob
  reports=("$json_dir"/BENCH_*.json)
  if [[ ${#reports[@]} -eq 0 ]]; then
    echo "BENCH=1: no BENCH_*.json reports produced" >&2
    exit 1
  fi
  for report in "${reports[@]}"; do
    python3 -m json.tool "$report" > /dev/null
    echo "ok: $(basename "$report")"
  done
  # The gossip bandwidth bench doubles as a regression gate: its exit code
  # asserts the delta wire format's >=5x steady-state saving, and its
  # report must be present by name.
  if [[ ! -f "$json_dir/BENCH_gossip_bandwidth.json" ]]; then
    echo "BENCH=1: BENCH_gossip_bandwidth.json missing" >&2
    exit 1
  fi
  # Likewise the reliable-forwarding bench: its exit code asserts the
  # >=99% prompt-delivery / >=2x p99 gates under churn (EXPERIMENTS.md
  # E15) and its report must be present by name.
  if [[ ! -f "$json_dir/BENCH_reliable_forwarding.json" ]]; then
    echo "BENCH=1: BENCH_reliable_forwarding.json missing" >&2
    exit 1
  fi
  # And the gray-failure bench (EXPERIMENTS.md E17): its exit code asserts
  # the phi detector at most halves the fixed detector's false suspicions
  # with delivery complete and p99 inside the repair regime.
  if [[ ! -f "$json_dir/BENCH_gray_failure.json" ]]; then
    echo "BENCH=1: BENCH_gray_failure.json missing" >&2
    exit 1
  fi
  # And the incremental-aggregation bench (EXPERIMENTS.md E18): its exit
  # code asserts the >=5x steady-state eval-work reduction at 64-child
  # zones with bit-identical replicated state across both engines.
  if [[ ! -f "$json_dir/BENCH_aggregation.json" ]]; then
    echo "BENCH=1: BENCH_aggregation.json missing" >&2
    exit 1
  fi
  echo "BENCH=1: ${#reports[@]} bench reports validated in $json_dir"
fi
