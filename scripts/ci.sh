#!/usr/bin/env bash
# Repo CI gate: build, tier-1 + workspace tests, lints.
# Run from the repo root: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
# The allocation budget is a count, and debug builds allocate in other
# places than the code that ships: the workspace run above covers the
# debug profile, this one the optimized one the contract is about — in
# steady state no parameter fetch, gradient deposit or optimizer step
# asks the allocator for a block of 64 KiB or more.
cargo test --release -q --test alloc_budget \
    || { echo "allocation budget exceeded: a fetch, deposit or step path allocates a large block per call"; exit 1; }
cargo clippy --workspace -- -D warnings
# Tracked size numbers (ROADMAP north-star point 2): per-crate lines and
# public-API surface live in the committed SURFACE.md, so every PR shows
# its delta in review; a stale file fails here.
scripts/surface.sh --check
# Ledger harness: its unit tests build benchmark/src/bind.rs against the
# crates, so a drift in any load-bearing signature (benchmark/README.md)
# fails here rather than in the next ledger run.
bash benchmark/run.sh test \
    || { echo "benchmark harness tests failed: signature drift against benchmark/src/bind.rs? (exit $?)"; exit 1; }
# Audit stage: the zi-audit static pass (DESIGN.md §13) — sync-hygiene
# wall, static lock-order cycles, unsafe/SAFETY inventory, panic-path
# audit. Exits nonzero on any finding not covered by a justified
# audit.allow entry AND on any stale allow entry that suppresses
# nothing, so hygiene drift fails CI before it erodes zi-check's model
# coverage. The JSON report is kept as an artifact.
AUDIT_JSON="$(mktemp)"
cargo run -q --release -p zi-audit -- --root . --json "$AUDIT_JSON" \
    || { echo "audit stage failed: unallowlisted findings above (exit $?)"; exit 1; }
# Deterministic model checking: rebuild with --cfg zi_check so every
# zi-sync lock/condvar/channel/atomic routes through the zi-check
# scheduler, then run the detector's seeded-bug fixtures and the
# protocol harnesses (barrier rank-death, membership join handshake
# racing rank death, the collectives' slot table, engine completion
# barrier + staging-buffer hand-back, checkpoint crash recovery,
# pool checkout/return, trace ring drain, knob hand-off, kernel
# worker-pool tiling).
# Each harness must
# cover >= 1000 distinct schedules or exhaust its space; failures print
# a ZI_CHECK_SEED/ZI_CHECK_TRACE replay line. Bounded by a hard
# wall-clock timeout so a checker bug can never wedge the pipeline.
timeout --kill-after=10s 600s \
    env RUSTFLAGS="--cfg zi_check" cargo test -q -p zi-check \
    || { echo "zi-check model checking failed or timed out (exit $?)"; exit 1; }
# Undefined-behaviour pass over the unsafe-bearing leaf crates. The
# pinned offline toolchain does not always ship Miri; skip (loudly)
# when it is absent rather than failing the gate on tooling.
if cargo miri --version >/dev/null 2>&1; then
    cargo miri test -p zi-types -p zi-tensor
else
    echo "cargo miri unavailable in this toolchain; skipping UB pass"
fi
# Sanitizer passes over the concurrency-bearing leaf crates.
# -Zsanitizer needs a nightly toolchain with the matching rust-std; the
# pinned offline toolchain is stable, so — exactly like the Miri gate —
# probe for support and skip loudly rather than failing the gate on
# tooling. ThreadSanitizer cross-checks zi-check's happens-before model
# against the real execution; AddressSanitizer covers the raw-pointer
# paths in the kernel pool and flat buffers.
sanitizer_supported() {
    RUSTFLAGS="-Zsanitizer=$1" cargo +nightly build -q -p zi-types >/dev/null 2>&1
}
if command -v rustup >/dev/null 2>&1 && rustup toolchain list 2>/dev/null | grep -q nightly \
    && sanitizer_supported thread; then
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q -p zi-sync -p zi-tensor \
        || { echo "ThreadSanitizer pass failed"; exit 1; }
else
    echo "nightly -Zsanitizer=thread unavailable in this toolchain; skipping TSan pass"
fi
if command -v rustup >/dev/null 2>&1 && rustup toolchain list 2>/dev/null | grep -q nightly \
    && sanitizer_supported address; then
    RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q -p zi-types -p zi-tensor \
        || { echo "AddressSanitizer pass failed"; exit 1; }
else
    echo "nightly -Zsanitizer=address unavailable in this toolchain; skipping ASan pass"
fi
# Bench smoke: run every engine benchmark body exactly once, untimed
# (the vendored criterion's --test mode), so bench-only regressions
# fail CI without paying full measurement time.
cargo bench -p zi-bench --bench engine_bench -- --test
# Chaos soak: a seeded composed failure schedule — device death, rank
# kills, joins, delay bursts, read corruption — generated by zi-chaos
# from ZI_CHAOS_SEED (the #[ignore]d soak in tests/chaos.rs; override
# the seed via the environment, failures print it for exact replay).
# The resilience contract is "bounded, typed failure — never a hang",
# so the stage itself carries a hard wall-clock timeout: if the soak
# wedges, CI fails in 120s instead of hanging the pipeline (124 is
# coreutils timeout's exit code for "killed by timeout").
timeout --kill-after=10s 120s \
    cargo test -q --test chaos -- --ignored \
    || { echo "chaos soak failed or timed out (exit $?)"; exit 1; }
# Trace stage: run a traced 2-rank 2-step train_gpt sweep through the
# overlap reporter. trace_report exits nonzero itself when any depth
# produces an empty overlap report or the exported Chrome-trace JSON
# fails to re-parse with at least one span per hop (nc/cg/gg), so this
# stage needs no extra validation beyond the exit code and the two
# artifacts existing afterwards.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
cargo run -q --release -p zi-bench --bin trace_report -- \
    "$TRACE_DIR/BENCH_trace_overlap.json" "$TRACE_DIR/trace_train_step.json" \
    || { echo "trace stage failed: empty report or invalid Chrome trace (exit $?)"; exit 1; }
test -s "$TRACE_DIR/BENCH_trace_overlap.json" || { echo "trace stage wrote no overlap report"; exit 1; }
test -s "$TRACE_DIR/trace_train_step.json" || { echo "trace stage wrote no Chrome trace"; exit 1; }
# Adaptive stage: convergence bench in bounded/quick mode (simulated
# backend, short horizon). adaptive_report exits nonzero when the
# controller ends in a config worse than its starting point, so the
# stage needs only the exit code plus the artifact existing. Hard
# timeout: the loop is bounded by construction, so a wedge is a bug.
timeout --kill-after=10s 300s \
    cargo run -q --release -p zi-bench --bin adaptive_report -- \
    "$TRACE_DIR/BENCH_adaptive.json" --quick \
    || { echo "adaptive stage failed: controller regressed from its start (exit $?)"; exit 1; }
test -s "$TRACE_DIR/BENCH_adaptive.json" || { echo "adaptive stage wrote no report"; exit 1; }
# Kernels stage: SIMD layer smoke. kernels_report --quick times every
# dispatched kernel — the GEMM tile kernels at the square probe and at
# the shapes the benchmark models run them at — under forced-scalar and
# auto and exits nonzero if a detected SIMD backend lost to scalar
# (dispatch regression); then the tensor/optim/model unit suites re-run
# with the scalar fallback forced, so the portable tile kernels and the
# causal attention built on them keep full coverage even on AVX2
# machines.
timeout --kill-after=10s 300s \
    cargo run -q --release -p zi-bench --bin kernels_report -- \
    "$TRACE_DIR/BENCH_kernels.json" --quick \
    || { echo "kernels stage failed: SIMD slower than scalar (exit $?)"; exit 1; }
test -s "$TRACE_DIR/BENCH_kernels.json" || { echo "kernels stage wrote no report"; exit 1; }
ZI_SIMD=scalar cargo test -q -p zi-tensor -p zi-optim -p zi-model \
    || { echo "scalar-forced unit suites failed"; exit 1; }
# Parallel-pool pass: the kernel worker pool defaults to a single
# thread under test, so the per-thread row-range split of the GEMM entry
# points and the claim/completion path in zi-tensor::pool only run when
# ZI_KERNEL_THREADS forces them. One more unit-suite run with two
# workers keeps that path covered by every tensor/optim/model test, not
# just the pool's own.
ZI_KERNEL_THREADS=2 cargo test -q -p zi-tensor -p zi-optim -p zi-model \
    || { echo "parallel-pool unit suites failed"; exit 1; }
# Tiering stage: multi-path placement bench in quick mode. Must run in
# release: under the debug profile compute (CRC, Adam, memcpy) dominates
# the step and hides the I/O overlap the gate measures. tiering_report
# exits nonzero itself when the best split's aggregate bandwidth fails
# to beat the best single tier or the Chrome trace shows no temporally
# overlapping nc/cp spans, so the stage needs only the exit code plus
# the two artifacts existing.
timeout --kill-after=10s 300s \
    cargo run -q --release -p zi-bench --bin tiering_report -- \
    "$TRACE_DIR/BENCH_tiering.json" --quick \
    || { echo "tiering stage failed: split placement did not beat best single tier (exit $?)"; exit 1; }
test -s "$TRACE_DIR/BENCH_tiering.json" || { echo "tiering stage wrote no report"; exit 1; }
test -s "$TRACE_DIR/BENCH_tiering_trace.json" || { echo "tiering stage wrote no Chrome trace"; exit 1; }
