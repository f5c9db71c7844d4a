#!/usr/bin/env bash
# Repo CI gate: formatting, lints, release build, full test suite.
# Run from the repo root. Fails fast on the first broken stage.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tcl-lint (determinism / panic-policy / concurrency / gating invariants)"
cargo build --release -q -p tcl-lint
lint_start_ms=$(( $(date +%s%N) / 1000000 ))
cargo run --release -q -p tcl-lint -- --format json
cargo run --release -q -p tcl-lint -- --self-check
lint_ms=$(( $(date +%s%N) / 1000000 - lint_start_ms ))
if [ "$lint_ms" -gt 5000 ]; then
  echo "FAIL: tcl-lint took ${lint_ms}ms, over the 5s budget" >&2
  exit 1
fi
echo "tcl-lint clean in ${lint_ms}ms"

# Negative control: a seeded determinism violation must fail the stage with
# the correct file:line [RULE] diagnostic.
lint_probe=crates/tensor/src/ci_lint_probe.rs
printf 'pub fn probe() { let _ = std::time::Instant::now(); }\n' > "$lint_probe"
if lint_out=$(cargo run --release -q -p tcl-lint 2>/dev/null); then
  rm -f "$lint_probe"
  echo "FAIL: tcl-lint exited 0 despite a seeded Instant::now violation" >&2
  exit 1
fi
rm -f "$lint_probe"
if ! printf '%s\n' "$lint_out" | grep -q 'crates/tensor/src/ci_lint_probe.rs:1:[0-9]* \[D1\]'; then
  echo "FAIL: tcl-lint missed the seeded violation's file:line [D1] diagnostic" >&2
  printf '%s\n' "$lint_out" >&2
  exit 1
fi
echo "tcl-lint negative control OK (seeded violation caught)"

# Second negative control: intrinsics outside crates/simd must trip S1 —
# the rule that keeps the unsafe surface confined to the tcl-simd island.
s1_probe=crates/tensor/src/ci_s1_probe.rs
printf 'pub use std::arch::x86_64::_mm256_setzero_ps;\n' > "$s1_probe"
if s1_out=$(cargo run --release -q -p tcl-lint 2>/dev/null); then
  rm -f "$s1_probe"
  echo "FAIL: tcl-lint exited 0 despite a seeded intrinsic outside crates/simd" >&2
  exit 1
fi
rm -f "$s1_probe"
if ! printf '%s\n' "$s1_out" | grep -q 'crates/tensor/src/ci_s1_probe.rs:1:[0-9]* \[S1\]'; then
  echo "FAIL: tcl-lint missed the seeded intrinsic's file:line [S1] diagnostic" >&2
  printf '%s\n' "$s1_out" >&2
  exit 1
fi
echo "tcl-lint S1 negative control OK (seeded intrinsic caught)"

# Third negative control: a layering violation (tensor importing a crate
# above it in the DAG) must trip A1 even though cargo would also reject
# it — the lint catches the `use` before a Cargo.toml edit legitimises it.
a1_probe=crates/tensor/src/ci_a1_probe.rs
printf 'pub use tcl_core::Pipeline;\n' > "$a1_probe"
if a1_out=$(cargo run --release -q -p tcl-lint 2>/dev/null); then
  rm -f "$a1_probe"
  echo "FAIL: tcl-lint exited 0 despite a seeded layering violation" >&2
  exit 1
fi
rm -f "$a1_probe"
if ! printf '%s\n' "$a1_out" | grep -q 'crates/tensor/src/ci_a1_probe.rs:1:[0-9]* \[A1\]'; then
  echo "FAIL: tcl-lint missed the seeded layering violation's file:line [A1] diagnostic" >&2
  printf '%s\n' "$a1_out" >&2
  exit 1
fi
echo "tcl-lint A1 negative control OK (seeded layering violation caught)"

# Fourth negative control: a NaN-unsound float comparator must trip F1.
f1_probe=crates/tensor/src/ci_f1_probe.rs
printf 'pub fn probe(v: &mut [f32]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)); }\n' > "$f1_probe"
if f1_out=$(cargo run --release -q -p tcl-lint 2>/dev/null); then
  rm -f "$f1_probe"
  echo "FAIL: tcl-lint exited 0 despite a seeded partial_cmp violation" >&2
  exit 1
fi
rm -f "$f1_probe"
if ! printf '%s\n' "$f1_out" | grep -q 'crates/tensor/src/ci_f1_probe.rs:1:[0-9]* \[F1\]'; then
  echo "FAIL: tcl-lint missed the seeded partial_cmp's file:line [F1] diagnostic" >&2
  printf '%s\n' "$f1_out" >&2
  exit 1
fi
echo "tcl-lint F1 negative control OK (seeded partial_cmp caught)"

# Crate-dependency graph artifact: the DOT render doubles as the A1/A2
# check (rendering loads every manifest through the same model) and is
# published for docs/review.
cargo run --release -q -p tcl-lint -- --deps --format dot > target/deps.dot
if ! grep -q '"tcl-tensor" -> "tcl-simd"' target/deps.dot; then
  echo "FAIL: target/deps.dot missing the tensor -> simd edge" >&2
  cat target/deps.dot >&2
  exit 1
fi
echo "tcl-lint deps graph OK (target/deps.dot published)"

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (budget: ${TCL_TEST_BUDGET_S:-1200}s, incl. thread matrix)"
test_start=$(date +%s)
cargo test --workspace -q

# Determinism matrix: the kernels, engine, and golden snapshots must produce
# identical results for every worker count at every SIMD dispatch level.
# `scalar` pins the reference numerics; `native` resolves the widest ISA the
# host offers (AVX2+FMA where available, the portable wide path otherwise).
for isa in scalar native; do
  for t in 1 4; do
    echo "==> cargo test -p tcl-tensor -p tcl-snn --tests (TCL_SIMD=$isa TCL_THREADS=$t)"
    TCL_SIMD=$isa TCL_THREADS=$t cargo test -q -p tcl-tensor -p tcl-snn --tests
  done
done
# `wide` runs the portable 8-lane body of every kernel end to end; on an
# AVX2 host `native` never reaches it outside the per-level proptests.
echo "==> cargo test -p tcl-simd -p tcl-tensor -p tcl-snn --tests (TCL_SIMD=wide TCL_THREADS=1)"
TCL_SIMD=wide TCL_THREADS=1 cargo test -q -p tcl-simd -p tcl-tensor -p tcl-snn --tests

# Metrics on, as the service runs: the IF banks' membrane-range fold and
# the registry's update path execute only under TCL_METRICS.
echo "==> cargo test -p tcl-snn -p tcl-serve --tests (TCL_METRICS=1)"
TCL_METRICS=1 cargo test -q -p tcl-snn -p tcl-serve --tests

# One worker: `Engine` runs its batches inline on the calling thread, not on
# the pool, so the goldens pin both paths.
echo "==> cargo test -p tcl-core golden_regression + spike_path (TCL_THREADS=1)"
TCL_THREADS=1 cargo test -q -p tcl-core --test golden_regression --test spike_path

# The weighted event path's gate depends on the SIMD level (at avx2 it
# admits only geometries the GEMM covers with fused tiles), so the cnn6
# kernel split is pinned at the unfused levels too.
for isa in scalar wide; do
  echo "==> cargo test -p tcl-core spike_path (TCL_SIMD=$isa)"
  TCL_SIMD=$isa cargo test -q -p tcl-core --test spike_path
done

elapsed=$(( $(date +%s) - test_start ))
budget="${TCL_TEST_BUDGET_S:-1200}"
if [ "$elapsed" -gt "$budget" ]; then
  echo "FAIL: test suite took ${elapsed}s, over the ${budget}s budget" >&2
  exit 1
fi
echo "tests finished in ${elapsed}s (budget ${budget}s)"

echo "==> telemetry smoke (traced mini conversion + JSONL validation)"
rm -f target/telemetry_smoke.jsonl
TCL_TRACE=target/telemetry_smoke.jsonl TCL_METRICS=1 \
  cargo run --release -q -p tcl-core --example telemetry_smoke
test -s target/telemetry_smoke.jsonl

echo "==> observability toolkit (tcl-trace over the smoke trace + negative control)"
./target/release/tcl-trace --help | grep -q critical-path
smoke=target/telemetry_smoke.jsonl
./target/release/tcl-trace summary "$smoke" | grep -q 'self%'
./target/release/tcl-trace flame "$smoke" > target/telemetry_smoke.folded
test -s target/telemetry_smoke.folded
./target/release/tcl-trace flame --svg "$smoke" | grep -q '<svg'
./target/release/tcl-trace critical-path "$smoke" | grep -q 'critical path:'
# A trace diffed against itself has no regressions and exits 0.
./target/release/tcl-trace diff "$smoke" "$smoke" > /dev/null
# Negative control: a trace cut off mid-line must produce a clean parse
# error naming the bad line (exit 2), not a panic.
{ head -n 3 "$smoke"; printf '{"type":"span","id":'; } > target/telemetry_smoke_truncated.jsonl
set +e
trace_err=$(./target/release/tcl-trace summary target/telemetry_smoke_truncated.jsonl 2>&1)
trace_rc=$?
set -e
if [ "$trace_rc" -ne 2 ]; then
  echo "FAIL: tcl-trace exited $trace_rc on a truncated trace (want 2)" >&2
  printf '%s\n' "$trace_err" >&2
  exit 1
fi
if ! printf '%s\n' "$trace_err" | grep -q 'trace line 4'; then
  echo "FAIL: tcl-trace did not name the corrupt trace line" >&2
  printf '%s\n' "$trace_err" >&2
  exit 1
fi
rm -f target/telemetry_smoke.folded target/telemetry_smoke_truncated.jsonl
echo "tcl-trace OK (summary/flame/critical-path/diff + truncation caught)"

echo "==> bench binaries answer --help (incl. --resume pass-through)"
for bin in table1 figure1 latency_curve lambda_init reset_mode energy lambda_decay engine_bench obs_bench serve_bench; do
  cargo run --release -q -p tcl-bench --bin "$bin" -- --help | grep -q TCL_TRACE
  cargo run --release -q -p tcl-bench --bin "$bin" -- --resume --help | grep -q TCL_CKPT_EVERY
done

echo "==> checkpoint/resume crash-safety suite (bit-exact kill-and-resume)"
cargo test --release -q -p tcl-nn --test checkpoint_resume

echo "==> model cache round trip (a finished checkpoint store is the cache)"
# A bench binary trains into a fresh model cache; a second run must resume
# the finished store at its last epoch (no epoch trained, no snapshot
# written) and print byte-identical results.
cache_dir=target/ci-model-cache
rm -rf "$cache_dir" target/ci-cache-results-cold target/ci-cache-results-warm
cold_out=$(TCL_SCALE=quick TCL_MODEL_DIR="$cache_dir" TCL_RESULTS_DIR=target/ci-cache-results-cold \
  cargo run --release -q -p tcl-bench --bin reset_mode 2>&1)
warm_out=$(TCL_SCALE=quick TCL_MODEL_DIR="$cache_dir" TCL_RESULTS_DIR=target/ci-cache-results-warm \
  cargo run --release -q -p tcl-bench --bin reset_mode 2>&1)
if ! printf '%s\n' "$cold_out" | grep -q '\[ckpt\] wrote'; then
  echo "FAIL: the cold run wrote no snapshot into $cache_dir" >&2
  printf '%s\n' "$cold_out" >&2
  exit 1
fi
if printf '%s\n' "$warm_out" | grep -E '\[trainer\] epoch|\[ckpt\] wrote' >&2; then
  echo "FAIL: the warm run trained or wrote a snapshot instead of using the cache" >&2
  exit 1
fi
if ! diff target/ci-cache-results-cold/reset_mode.csv target/ci-cache-results-warm/reset_mode.csv >&2; then
  echo "FAIL: cached model gave different results from the freshly trained one" >&2
  exit 1
fi
echo "model cache OK (warm run trained nothing, wrote nothing, same CSV)"

echo "==> tcl-serve: load-simulation + fault-injection suites (SIMD x thread matrix)"
# The serving core is virtual-clock deterministic: the sim-load suite pins
# completion-order fingerprints that must be byte-identical across worker
# counts and SIMD levels (lane admission computes each lane's node-0
# current alone, so its bits must not depend on the level either), so the
# whole suite runs as separate processes at each setting — the same matrix
# as tcl-tensor/tcl-snn above.
for isa in scalar native; do
  for t in 1 4; do
    echo "==> cargo test -p tcl-serve --tests (TCL_SIMD=$isa TCL_THREADS=$t)"
    TCL_SIMD=$isa TCL_THREADS=$t cargo test -q -p tcl-serve --tests
  done
done
serve_help=$(./target/release/tcl_serve --help)
if ! printf '%s\n' "$serve_help" | grep -q -- '--model' \
    || ! printf '%s\n' "$serve_help" | grep -q TCL_SERVE_ADDR \
    || ! printf '%s\n' "$serve_help" | grep -q /metrics \
    || printf '%s\n' "$serve_help" | grep -q TCL_SERVE_FEATURES; then
  echo "FAIL: tcl_serve --help must name --model, TCL_SERVE_ADDR and /metrics, and not TCL_SERVE_FEATURES" >&2
  printf '%s\n' "$serve_help" >&2
  exit 1
fi
# Negative control: a request body cut off mid-transfer must resolve to a
# timely 4xx (slow-loris timeout), never a hang or a served answer.
serve_out=$(cargo test -q -p tcl-serve --test faults   truncated_body_answers_4xx_within_timeout -- --exact 2>&1)
if ! printf '%s\n' "$serve_out" | grep -q '1 passed'; then
  echo "FAIL: truncated-body negative control did not run/pass" >&2
  printf '%s\n' "$serve_out" >&2
  exit 1
fi
echo "tcl-serve OK (deterministic across TCL_SIMD={scalar,native} x TCL_THREADS={1,4} + truncated-body control)"

echo "==> tcl-serve: loopback soak (converted cnn6, real sockets, reused connections)"
# Converts the quick TCL cnn6 into a model file and drives the real
# `tcl_serve --model` over loopback TCP with kept-alive connections,
# asserting zero parse errors, sheds-within-deadline, and every 200 answer
# equal to Engine::evaluate_shared, and comparing p50/p99/shed against the
# virtual-clock prediction. Includes the duplicate-Content-Length negative
# control (smuggling shape -> 400) and an in-order pipelining probe that
# includes GET /metrics.
soak_dir=target/ci-soak
rm -rf "$soak_dir"
soak_out=$(TCL_SCALE=quick TCL_RESULTS_DIR="$soak_dir" \
  cargo run --release -q -p tcl-bench --bin serve_bench -- --soak 2>&1)
for want in 'parse_errors=0' 'sheds-within-deadline held' \
    'every 200 answer matches Engine::evaluate_shared' \
    'duplicate-Content-Length probe -> 400' 'pipelined burst answered in order' 'soak OK'; do
  if ! printf '%s\n' "$soak_out" | grep -q "$want"; then
    echo "FAIL: soak missing \"$want\"" >&2
    printf '%s\n' "$soak_out" >&2
    exit 1
  fi
done
echo "tcl-serve soak OK (converted model over real sockets + duplicate-Content-Length control)"

# Negative control: a missing model file and a corrupted one (one byte of
# the soak's model flipped) must each be refused at start-up with a
# non-zero exit and no panic (a Rust panic exits 101).
corrupt="$soak_dir/corrupt.tclk"
cp "$soak_dir/serve_bench_cnn6_quick.tclk" "$corrupt"
offset=$(( $(stat -c %s "$corrupt") / 2 ))
byte=$(od -An -tu1 -j "$offset" -N1 "$corrupt" | tr -d ' ')
printf "\\$(printf '%03o' $(( byte ^ 255 )))" | dd of="$corrupt" bs=1 seek="$offset" conv=notrunc status=none
for model in /nonexistent "$corrupt"; do
  set +e
  model_out=$(TCL_SERVE_ADDR=127.0.0.1:0 TCL_SERVE_TICKS=1 ./target/release/tcl_serve --model "$model" 2>&1)
  model_rc=$?
  set -e
  if [ "$model_rc" -eq 0 ] || [ "$model_rc" -eq 101 ] || printf '%s\n' "$model_out" | grep -q panicked; then
    echo "FAIL: tcl_serve --model $model exited $model_rc (want a refusal, not a start or a panic)" >&2
    printf '%s\n' "$model_out" >&2
    exit 1
  fi
done
echo "tcl-serve model negative control OK (missing and corrupted model files refused)"

echo "==> perfbench: the repo benchmark's package (fmt + clippy + library tests + smoke runs)"
# perfbench/ is a package of its own (own [workspace] and Cargo.lock) that
# calls the workspace's public API: SynapticOp::apply/synop_estimate, the
# SpikingNode::Spiking(layer).op/.neurons fields, both engines and the
# server. Building and testing it here makes an API change that breaks the
# benchmark fail CI. Its tests are the library math plus a 1-s smoke run
# per workload.
cargo fmt --manifest-path perfbench/Cargo.toml -- --check
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
cargo test --release --offline --manifest-path perfbench/Cargo.toml
echo "perfbench OK"

echo "CI OK"
