#!/usr/bin/env bash
# Repo CI gate: build, tier-1 + workspace tests, lints.
# Run from the repo root: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test --workspace -q
# The kernel unit suite again, optimized: the backends must agree bit for
# bit (NaN payloads included) in the build that ships, not only in the
# debug one above.
cargo test --release -q -p zi-tensor --lib
# The model's unit suite, optimized: the tensor-sliced model at mp = 1 is
# the dense one bit for bit (loss and every gradient), in the build that
# ships too.
cargo test --release -q -p zi-model --lib
# The 2-D grid end to end: mp=2 x dp=2 through `train_gpt`, which asserts
# that the sliced run follows the flat mp=1 run's loss trajectory.
cargo run -q --release --example tensor_parallel >/dev/null \
    || { echo "tensor_parallel example failed: the sliced grid left the flat trajectory"; exit 1; }
# Every f32 → f16 input: the F16C conversion and its NaN fix-up against
# F16::from_f32 on all 2^32 bit patterns (the #[ignore]d sweep of the
# conformance suite; ~15 s optimized, far longer in the debug profile).
cargo test --release -q -p zi-tensor --test simd_conformance -- --ignored \
        f16_from_f32_agrees_on_every_f32_bit_pattern \
    || { echo "f32 -> f16 conversion disagrees with F16::from_f32"; exit 1; }
# Analytic figures, byte for byte: every repro section but `functional`
# (which trains real kernels) must print exactly the committed
# repro_output.txt up to its functional section, minus the blank line
# that opens that section.
cargo run -q --release -p zi-bench --bin repro -- fig1 fig2a fig2b fig3 table1 fig5a fig5b fig5c \
        fig6a fig6b fig6c fig6d fig6e fig6d-pipeline table3 tables4to8 \
    | diff -u <(sed '/^==== Functional check/,$d' repro_output.txt | sed '$d') - \
    || { echo "repro figures drifted from repro_output.txt"; exit 1; }
# The allocation budget is a count, and debug builds allocate in other
# places than the code that ships: the workspace run above covers the
# debug profile, this one the optimized one the contract is about — in
# steady state no parameter fetch, gradient deposit or optimizer step
# asks the allocator for a block of 64 KiB or more, with the shard cache
# serving every fetch (and then no fetch reads the device either) and
# with a CPU pool too small to admit anything into it. Every transfer
# stages through the rank's fixed staging set, where an acquisition past
# the set waits for a buffer to come home: a wait that never ends fails
# this stage at its timeout (build included) instead of hanging it.
timeout --kill-after=10s 900s \
    cargo test --release -q --test alloc_budget \
    || { echo "allocation budget exceeded, or a staging wait never ended (exit $?)"; exit 1; }
# The configuration-matrix oracle in the profile that ships: 63 seeded
# cells over all seven Table-2 strategies, world size 1/2/3, device
# workers 1/2/4 (the optimizer step's pipeline depth), CPU pool,
# prefetch window 0/2, accumulation, activation checkpointing and a
# checkpoint round trip, in records of 16 elements so each step streams
# many of them; each is bit for bit the dense reference's training (the
# workspace run above covers the debug profile), and each rank's staging
# set allocates nothing after the warm-up. Timed out like the stage
# above, so a staging wait that never ends fails CI.
timeout --kill-after=10s 900s \
    cargo test --release -q --test config_matrix \
    || { echo "a configuration-matrix cell diverged from the dense reference, or timed out (exit $?)"; exit 1; }
cargo clippy --workspace --all-targets -- -D warnings
# The ledger's pair runner (EXPERIMENTS.md's tables come from it): its
# syntax, and its dry run, which prints two pairs' commands and builds
# nothing.
bash -n scripts/pairs.sh
scripts/pairs.sh --dry-run . . inf_nvme_sim 1 2 >/dev/null \
    || { echo "scripts/pairs.sh --dry-run failed"; exit 1; }
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
# barrier + the hand-back of every buffer of a fixed staging set,
# checkpoint crash recovery, pool checkout/return — a one-buffer pinned
# pool and staging set for two threads, enumerated whole, and a staging
# set of two one-buffer shelves for four holders — trace ring drain,
# kernel worker-pool tiling, the node's host write-back cache — one map
# of parameter images and kept optimizer records: admit / invalidate /
# evict across two ranks, a third rank's kept record beside them, which
# no eviction writes back, and no fill admitted while a publish of its
# extent is in flight — the optimizer step's kept set in that map —
# dropped, its write-back landed before the step's first read and before
# the step returns — with the rank's set at its proven bound,
# and two ranks' fetches, prefetches and steps each through a set of its
# own at that bound: with a set below it a rank waits forever, which
# fails the harness).
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
# Sanitizer passes over the concurrency- and unsafe-bearing leaf crates.
# -Zsanitizer needs a nightly toolchain with the matching rust-std.
# ThreadSanitizer cross-checks zi-check's happens-before model against
# the real execution; it also needs rust-src, which the offline
# toolchain lacks, so — exactly like the Miri gate — its probe skips
# loudly. AddressSanitizer covers the raw-pointer paths in the kernel
# pool, the flat buffers and the scratch pool, and — through zi-core's
# offload and engine unit suites — the fused Adam kernel and the shard
# cache over staging buffers and cached images; it builds with the
# nightly's own rust-std, so a failed probe fails the gate.
sanitizer_probe() { # $1 = thread|address
    command -v rustup >/dev/null 2>&1 && rustup toolchain list 2>/dev/null | grep -q nightly \
        && RUSTFLAGS="-Zsanitizer=$1" cargo +nightly build -q -p zi-types >/dev/null 2>&1
}
if sanitizer_probe thread; then
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -q -p zi-sync -p zi-tensor \
        || { echo "-Zsanitizer=thread pass failed"; exit 1; }
else
    echo "nightly -Zsanitizer=thread unavailable in this toolchain; skipping that sanitizer pass"
fi
sanitizer_probe address \
    || { echo "nightly -Zsanitizer=address unavailable: the ASan pass must run"; exit 1; }
RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q -p zi-types -p zi-tensor -p zi-memory \
    && RUSTFLAGS="-Zsanitizer=address" cargo +nightly test -q -p zero-infinity --lib -- offload:: engine:: \
    || { echo "-Zsanitizer=address pass failed"; exit 1; }
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
# Kernel-layer passes: the kernels have one numerics mode (no multiply-add
# is fused, and no knob fuses one), so the backend and the pool width are
# the only switches. The tensor/optim/model unit suites run again with the
# scalar fallback forced (the portable tile kernels and the attention
# built on them keep full coverage on AVX2 machines), then with two pool
# workers (under test the pool defaults to one thread, so the GEMM
# row-range split and the claim/completion path run only when forced).
# The tiling runners of zi-core and its tensor-sliced trainer tests
# (under `trainer::`) go through the same module bracket as zi-model's,
# so their unit suites ride along; so do the
# engine and offload suites, whose streamed step hands the Adam kernel
# the three slices of one record at whatever alignment the record size
# leaves them. The equivalence and shard-cache integration suites ride
# along too: the step schedule they pin bit for bit, the last records a
# step keeps in staging and the next step updates first without a read
# included, then meets the scalar kernels and the two-worker pool; so
# does the tight-memory suite, whose pools below the model states pin the
# same schedule's device traffic to the engine's plan and a closed form;
# so do
# checkpoint restore and the file-backed full stack, construction
# included, which write model state the way a step does, and the mp × dp
# grid cross-check, whose multi-rank steps each flush only their own I/O. So do the per-strategy footprint
# and the step's allocation budget: which parameters share a packed
# optimizer buffer decides where each byte sits and what the staging set
# holds. So do the trainer's unit suite and the trace accounting: the
# trainer and the tracer are where overlap settings stopped changing
# while an engine runs; so do chaos and the paper claims, whose 250‰ split
# device death runs through the record-by-record placement deal; so does
# the configuration matrix, every cell of which must stay the dense
# reference's bits under either kernel set.
ZI_SIMD=scalar cargo test -q -p zi-tensor -p zi-optim -p zi-model \
    && ZI_SIMD=scalar cargo test -q -p zero-infinity --lib -- tiling:: engine:: offload:: checkpoint:: trainer:: \
    && ZI_SIMD=scalar cargo test -q --test equivalence --test shard_cache --test tight_memory --test end_to_end --test parallelism \
        --test memory_footprint --test alloc_budget --test trace_accounting --test chaos --test paper_claims \
        --test config_matrix \
    || { echo "scalar-forced unit suites failed"; exit 1; }
ZI_KERNEL_THREADS=2 cargo test -q -p zi-tensor -p zi-optim -p zi-model \
    && ZI_KERNEL_THREADS=2 cargo test -q -p zero-infinity --lib -- tiling:: engine:: offload:: checkpoint:: trainer:: \
    && ZI_KERNEL_THREADS=2 cargo test -q --test equivalence --test shard_cache --test tight_memory --test end_to_end --test parallelism \
        --test memory_footprint --test alloc_budget --test trace_accounting --test chaos --test paper_claims \
        --test config_matrix \
    || { echo "parallel-pool unit suites failed"; exit 1; }
