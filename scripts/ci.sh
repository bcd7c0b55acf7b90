#!/usr/bin/env bash
# Full local CI gate: build, tests, lints, formatting.
#
# Usage: scripts/ci.sh
# Runs from the repository root regardless of the caller's cwd.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> perfbench tests (the benchmark's own arithmetic)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench training smoke (exit 1 = a trained model differs from the fixed-CSR oracle)"
for workload in train-lowcache train-cached; do
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1
done

echo "==> learned-selector smoke (train + inspect + schedule with it)"
model="$(mktemp -t dls_selector_XXXXXX.json)"
trap 'rm -f "$model"' EXIT
cargo run --release -q --bin dls -- train-selector "$model" --quick --analytic
cargo run --release -q --bin dls -- selector-info "$model"
cargo run --release -q --bin dls -- schedule @trefethen "learned:$model"

echo "==> bench smoke (criterion --test mode, one pass, no statistics)"
cargo bench -q -p dls-bench --bench smsv_block -- --test

echo "==> blocked-kernel smoke (block-size sweep; geomean floors 0.95x, COO/HYB/JDS 1.0x)"
bench_json="$(mktemp -t dls_bench_XXXXXX.json)"
trap 'rm -f "$model" "$bench_json"' EXIT
cargo run --release -q -p dls-bench --bin repro_smsv_block -- 5 "$bench_json" --check

echo "==> serve smoke (predict/schedule/stats over loopback + graceful drain, per discipline × frontend)"
declare -A parity
for frontend in threads reactor; do
  for discipline in fifo priority slo; do
    out="$(cargo run --release -q -p dls-bench --bin repro_serve -- --smoke --discipline "$discipline" --frontend "$frontend")"
    echo "$out"
    # The stats snapshot must expose per-class SLO accounting.
    echo "$out" | grep -q "slo_violation_rate interactive=" \
      || { echo "serve smoke ($discipline, $frontend): missing interactive slo_violation_rate" >&2; exit 1; }
    echo "$out" | grep -q "slo_violation_rate batch=" \
      || { echo "serve smoke ($discipline, $frontend): missing batch slo_violation_rate" >&2; exit 1; }
    # The stats JSON must expose the fault/degradation counters and the
    # health endpoint must answer, even on a fault-free server.
    echo "$out" | grep -q "stats sections faults+degradation exposed, health status=" \
      || { echo "serve smoke ($discipline, $frontend): missing fault/degradation counters or health" >&2; exit 1; }
    parity["$frontend/$discipline"]="$(echo "$out" | grep "^# parity " || true)"
    [ -n "${parity["$frontend/$discipline"]}" ] \
      || { echo "serve smoke ($discipline, $frontend): missing parity counter line" >&2; exit 1; }
  done
done
# The deterministic smoke sequence must land the same counters no matter
# which front end served it — threads and reactor are interchangeable.
for discipline in fifo priority slo; do
  if [ "${parity["threads/$discipline"]}" != "${parity["reactor/$discipline"]}" ]; then
    echo "serve smoke ($discipline): stats-counter parity broken between front ends" >&2
    echo "  threads: ${parity["threads/$discipline"]}" >&2
    echo "  reactor: ${parity["reactor/$discipline"]}" >&2
    exit 1
  fi
done
echo "==> serve parity OK (threads == reactor counters for fifo/priority/slo)"

echo "==> retrain smoke (online loop: live traffic -> telemetry -> forced retrain -> hot swap)"
for frontend in threads reactor; do
  out="$(cargo run --release -q -p dls-bench --bin repro_serve -- --retrain-smoke --frontend "$frontend")"
  echo "$out"
  # The smoke itself asserts the version bump and zero dropped requests;
  # the grep pins that those assertions actually ran.
  echo "$out" | grep -q "retrain smoke OK" \
    || { echo "retrain smoke ($frontend): missing success summary" >&2; exit 1; }
  echo "$out" | grep -q "0 dropped" \
    || { echo "retrain smoke ($frontend): missing zero-dropped assertion" >&2; exit 1; }
done

echo "==> online-selector gate (cross-machine regret: online <= frozen CART)"
selector_json="$(mktemp -t dls_selector_bench_XXXXXX.json)"
trap 'rm -f "$model" "$bench_json" "$selector_json"' EXIT
cargo run --release -q -p dls-bench --bin repro_selector_online -- --quick --check "$selector_json"

echo "==> chaos smoke (seeded fault injection, watchdog-guarded, per frontend)"
# The harness itself exits 2 on any hang and non-zero on any corrupted
# response, untyped failure, or failed clean probe.
for frontend in threads reactor; do
  out="$(cargo run --release -q -p dls-bench --bin repro_chaos -- --smoke --seeds 8 --frontend "$frontend")"
  echo "$out"
  echo "$out" | grep -q "zero hangs, zero corrupted responses" \
    || { echo "chaos smoke ($frontend): missing clean-run summary" >&2; exit 1; }
done

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors: no broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> ci OK"
