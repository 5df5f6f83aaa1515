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
# asks the allocator for a block of 64 KiB or more, with the shard cache
# serving every fetch (and then no fetch reads the device either) and
# with a CPU pool too small to admit anything into it.
cargo test --release -q --test alloc_budget \
    || { echo "allocation budget exceeded: a fetch, deposit or step path allocates a large block per call"; exit 1; }
cargo clippy --workspace --all-targets -- -D warnings
# Tracked size numbers (ROADMAP north-star point 2): per-crate lines and
# public-API surface live in the committed SURFACE.md, so every PR shows
# its delta in review; a stale file fails here.
scripts/surface.sh --check
# Ledger harness: its unit tests build benchmark/src/bind.rs against the
# crates, so a drift in any load-bearing signature (benchmark/README.md)
# fails here rather than in the next ledger run.
bash benchmark/run.sh test \
    || { echo "benchmark harness tests failed: signature drift against benchmark/src/bind.rs? (exit $?)"; exit 1; }
# Audit stage: the zi-audit static pass (DESIGN.md §12) — sync-hygiene
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
# pool checkout/return, trace ring drain, kernel worker-pool tiling, the shard cache's admit / invalidate / evict
# across two ranks).
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
sanitizer_pass() { # $1 = thread|address, the rest = the packages to test
    local kind="$1"; shift
    if command -v rustup >/dev/null 2>&1 && rustup toolchain list 2>/dev/null | grep -q nightly \
        && RUSTFLAGS="-Zsanitizer=$kind" cargo +nightly build -q -p zi-types >/dev/null 2>&1; then
        RUSTFLAGS="-Zsanitizer=$kind" cargo +nightly test -q "$@" \
            || { echo "-Zsanitizer=$kind pass failed"; exit 1; }
    else
        echo "nightly -Zsanitizer=$kind unavailable in this toolchain; skipping that sanitizer pass"
    fi
}
sanitizer_pass thread -p zi-sync -p zi-tensor
sanitizer_pass address -p zi-types -p zi-tensor
# Bench smoke: run every remaining criterion body (the paper ablations
# with no ledger row yet) exactly once, untimed — the vendored
# criterion's --test mode — so bench-only regressions fail CI.
cargo bench -p zi-bench --bench engine_bench --bench comm_bench -- --test
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
# Kernel-layer passes: the tensor/optim/model unit suites again with the
# scalar fallback forced (the portable tile kernels and the attention
# built on them keep full coverage on AVX2 machines), then with two pool
# workers (under test the pool defaults to one thread, so the GEMM
# row-range split and the claim/completion path run only when forced).
# The mp / pp / tiling runners of zi-core go through the same module
# bracket as zi-model's, so their unit suites ride along; so do the
# engine and offload suites, whose streamed step hands the Adam kernel
# the three slices of one record at whatever alignment the record size
# leaves them. The equivalence and shard-cache integration suites ride
# along too: the step schedule they pin bit for bit, the read-ahead
# carried from one step into the next included, then meets the scalar
# kernels and the two-worker pool; so do checkpoint restore and the
# file-backed full stack, construction included, which write model state
# the way a step does, and the dp × mp × pp cross-check, whose multi-rank
# steps each flush only their own I/O. So do the per-strategy footprint
# and the step's allocation budget: which parameters share a packed
# optimizer buffer decides where each byte sits and what the staging set
# holds. So do the trainer's unit suite and the trace accounting: the
# trainer and the tracer are where overlap settings stopped changing
# while an engine runs; so do chaos and the paper claims, whose 250‰ split
# device death runs through the record-by-record placement deal.
ZI_SIMD=scalar cargo test -q -p zi-tensor -p zi-optim -p zi-model \
    && ZI_SIMD=scalar cargo test -q -p zero-infinity --lib -- mp:: pp:: tiling:: engine:: offload:: checkpoint:: trainer:: \
    && ZI_SIMD=scalar cargo test -q --test equivalence --test shard_cache --test end_to_end --test parallelism \
        --test memory_footprint --test alloc_budget --test trace_accounting --test chaos --test paper_claims \
    || { echo "scalar-forced unit suites failed"; exit 1; }
ZI_KERNEL_THREADS=2 cargo test -q -p zi-tensor -p zi-optim -p zi-model \
    && ZI_KERNEL_THREADS=2 cargo test -q -p zero-infinity --lib -- mp:: pp:: tiling:: engine:: offload:: checkpoint:: trainer:: \
    && ZI_KERNEL_THREADS=2 cargo test -q --test equivalence --test shard_cache --test end_to_end --test parallelism \
        --test memory_footprint --test alloc_budget --test trace_accounting --test chaos --test paper_claims \
    || { echo "parallel-pool unit suites failed"; exit 1; }
