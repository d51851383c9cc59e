#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
#
#   1. release build of the whole workspace (binaries included), plus a
#      type check of the benchmark harness (`perfbench/`, its own cargo
#      workspace), so an API change that breaks the harness fails here
#   2. the test suites of every workspace member, in the dev profile
#      (optimised, with debug assertions and overflow checks; see
#      Cargo.toml): the root package (integration, fuzz-differential,
#      property, hermeticity, execution, loop and GP goldens, binary exit
#      codes, the daemon's end-to-end SLO gate), citroen-core (the tuning
#      loop's determinism, batching and ablation gates; the longest suite),
#      the crates whose results those pin (ir, sim, gp, suite, passes,
#      analyze), the daemon's two crates (serve, telemetry) and the rest
#      (rt, bo, tuners, synthetic, bench)
#   3. a 1000-trial `citroen-analyze` fuzz campaign (100 random modules x
#      10 random pass sequences, 30-second budget) through the verifier,
#      the translation-validation sanitizer, and the interpreter
#      differential
#   4. a 30-second `citroen-analyze oracle` soundness campaign: 500 module
#      x sequence trials executing every CannotFire precondition verdict
#      (plus the pass-interaction graph derivation over the suite)
#   5. the telemetry gate: one traced tuning run streams a JSONL trace that
#      must be well-formed with `iteration` spans >=90% covered by their
#      compile/measure/fit/acquire children (`citroen-trace check`), render
#      a monotone convergence curve (`curve`), export flamegraph stacks
#      (`flame`), and compare clean against itself (`diff` exit 0);
#      the disabled-path overhead (`micro --telemetry-gate`) and the
#      marginal streaming overhead (`micro --stream-gate`) must stay within
#      their pinned budgets
#   6. the batch gate: two q=4 batched tuning runs with the same seed must
#      be bit-identical, and the q=4 wall clock must beat q=1 by the
#      pinned floor (3x on >=4 worker threads, 1.5x below that)
#      (`micro --batch-gate`)
#   7. the subsumption gate: a >=100-trial `citroen-analyze subsume` smoke
#      campaign replaying the canonicalizer's drop decisions (every
#      predicted drop executed and checked as a behavioural no-op, exit 1
#      on any violation), then a q=4 batched tuning run with
#      subsume-collapse on and the S1-S8 sanitizer armed end to end
#      (CITROEN_SANITIZE=1)
#   8. the alias gate: a 50-state `citroen-analyze alias-oracle --smoke`
#      soundness campaign (every same-block No/Must alias verdict checked
#      against concrete access addresses) and the shipped suite compiled
#      at -O3 with the full S1-S11 sanitizer armed (`validate`, which
#      includes the alias-aware S9-S11 rules), both exit 1 on any finding;
#      plus a `mine-edges --smoke` mining + executed-drop promotion pass
#      (seed 7), which exits 0 whatever it refutes, so it only gates on
#      the pass running to completion
#   9. the serve gate: `citroen-serve bench` spawns the multi-tenant
#      daemon and replays a concurrent job mix over stdio — two jobs run
#      concurrently plus a same-seed replay; results must be bit-identical
#      to standalone runs at the same seeds, the replay must hit the shared
#      cross-tenant compile cache, a third job is cancelled mid-run, and
#      the daemon must drain gracefully (exit 0 only if all hold)
#  10. the observability gate: `micro --metrics-gate` bounds the metrics
#      plane's cost (windowed-registry hot path per op, a full snapshot
#      read-out, and the marginal wall clock of a metrics-feeding sink over
#      a memory sink on a real tuning run). The daemon end of the plane
#      (spawn a socket daemon, run a job, count it in the `metrics` verb,
#      `citroen-trace top --once` exits 0) is gated by `tests/slo_gate.rs`
#      in stage 2
#
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release (+ perfbench type check)"
cargo build --release
cargo check --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test -q --workspace"
cargo test -q --workspace

echo "== citroen-analyze fuzz (1000 trials, 30s budget)"
timeout 30 ./target/release/citroen-analyze --modules 100 --seqs 10

echo "== citroen-analyze oracle (500 soundness trials, 30s budget)"
timeout 30 ./target/release/citroen-analyze oracle > /dev/null

echo "== telemetry: traced run + check/curve/flame/diff + overhead gates"
# micro lives in the citroen-bench member package, not the root package.
cargo build --release -q -p citroen-bench --bin micro
trace_file="$(mktemp)"
trap 'rm -f "$trace_file"' EXIT
timeout 60 ./target/release/citroen-trace record --budget 10 --out "$trace_file"
timeout 30 ./target/release/citroen-trace check "$trace_file"
timeout 30 ./target/release/citroen-trace curve "$trace_file"
timeout 30 ./target/release/citroen-trace flame "$trace_file" > /dev/null
timeout 30 ./target/release/citroen-trace diff "$trace_file" "$trace_file" > /dev/null
timeout 120 ./target/release/micro --telemetry-gate
timeout 300 ./target/release/micro --stream-gate

echo "== batched loop: determinism + wall-clock speedup gate"
timeout 300 ./target/release/micro --batch-gate

echo "== subsumption: drop-soundness campaign + sanitized collapsed run"
timeout 60 ./target/release/citroen-analyze subsume --modules 10 --seqs 10
CITROEN_SANITIZE=1 timeout 120 ./target/release/citroen-trace record \
    --bench telecom_gsm --budget 6 --batch 4 --subsume --seed 9 --out "$trace_file"

echo "== alias: soundness smoke + edge mining + sanitized -O3 suite (S1-S11)"
timeout 60 ./target/release/citroen-analyze alias-oracle --smoke
timeout 120 ./target/release/citroen-analyze mine-edges --smoke
CITROEN_SANITIZE=1 timeout 120 ./target/release/citroen-analyze validate

echo "== serve: concurrent daemon determinism + cross-tenant reuse + cancel/drain"
timeout 300 ./target/release/citroen-serve bench

echo "== observability: metrics overhead gate"
timeout 300 ./target/release/micro --metrics-gate

echo "== tier-1 gate passed"
