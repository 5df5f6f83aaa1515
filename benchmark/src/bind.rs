//! Every call into the repository's crates goes through this file.
//!
//! The rest of the harness sees plain data (`RigSpec`, the `*Counters`
//! structs, `f64`s) and the handles defined here. A refactor that
//! renames or reshapes one of the program's public items re-points this
//! one file; `README.md` lists the signatures it leans on.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use zero_infinity::trainer::synthetic_batch;
use zero_infinity::{
    train_gpt_env, NodeResources, OffloadManager, Strategy, TrainEnv, TrainSpec, ZeroEngine,
};
use zi_comm::{CommConfig, CommGroup, Communicator};
use zi_memory::{MemoryHierarchy, NodeMemorySpec, PinnedBufferPool, PlacementPolicy};
use zi_model::{GptConfig, GptModel, InMemoryActStore, NoopObserver, RunOptions};
use zi_nvme::{
    CheckpointStore, FileBackend, MemBackend, NvmeEngine, RetryPolicy, StorageBackend,
    ThrottledBackend,
};
use zi_optim::{adam_update_chunk_publish, AdamConfig};
use zi_tensor::{ops, pool, simd, FlatBuffer, Tensor, F16};
use zi_trace::export::chrome_trace_json;
use zi_trace::report::{compute_kernel_stats, OverlapReport};
use zi_trace::{Category, Tracer, STEP_SPAN};
use zi_types::{DType, Device};

use crate::spans::{self, BenchSpan, SpanLog};
use crate::workloads::{
    BackendKind, ModelDims, RigSpec, StrategyKind, THROTTLE_BYTES_PER_SEC, THROTTLE_LATENCY_US,
};

pub use zi_trace::export::{parse_json, JsonValue};
pub use zi_trace::Event;

/// Errors cross this boundary as text: the harness only reports them.
pub type BResult<T> = Result<T, String>;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Memory pools generous enough that no workload is capacity-bound:
/// the ledger measures time and peak use, not feasibility.
const GPU_POOL_BYTES: u64 = 1 << 28;
const CPU_POOL_BYTES: u64 = 1 << 30;
const NVME_POOL_BYTES: u64 = 1 << 30;

/// Look-ahead handed to both the module-level `hint_upcoming` window and
/// the engine's trace-driven prefetcher — the trainer's default.
const PREFETCH_WINDOW: usize = 2;

/// Adam at its defaults (lr 1e-3): at the trainer's test setting of
/// 1e-2 these models oscillate instead of learning, and "the loss fell"
/// is one of the output checks.
fn adam() -> AdamConfig {
    AdamConfig::default()
}

fn gpt_config(m: ModelDims, seed: u64) -> GptConfig {
    GptConfig {
        vocab: m.vocab,
        hidden: m.hidden,
        layers: m.layers,
        heads: m.heads,
        seq: m.seq,
        seed,
    }
}

fn strategy(kind: StrategyKind) -> Strategy {
    let s = match kind {
        StrategyKind::DataParallel => Strategy::data_parallel(),
        StrategyKind::InfinityNvme => Strategy::infinity_nvme(),
        StrategyKind::InfinityNvmeSplit => {
            Strategy::infinity_nvme().with_optimizer_cpu_permille(500)
        }
    };
    s.with_prefetch_window(PREFETCH_WINDOW)
}

fn node_memory(world: usize) -> NodeMemorySpec {
    NodeMemorySpec::test_spec(world, GPU_POOL_BYTES, CPU_POOL_BYTES, NVME_POOL_BYTES)
}

/// Distinguishes the device files of rigs built in one process.
static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

fn throttled() -> Arc<dyn StorageBackend> {
    Arc::new(ThrottledBackend::new(
        MemBackend::new(),
        THROTTLE_BYTES_PER_SEC,
        Duration::from_micros(THROTTLE_LATENCY_US),
    ))
}

/// Removes a file-backed device's file when its owner goes away.
struct FileGuard(PathBuf);

impl Drop for FileGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The device standing in for NVMe; `scratch` is where a file-backed
/// one lives until the returned guard drops.
fn open_backend(
    kind: BackendKind,
    scratch: &Path,
) -> BResult<(Arc<dyn StorageBackend>, Option<FileGuard>)> {
    Ok(match kind {
        BackendKind::Mem => (Arc::new(MemBackend::new()), None),
        BackendKind::Throttled => (throttled(), None),
        BackendKind::File => {
            std::fs::create_dir_all(scratch).map_err(text)?;
            let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
            let path = scratch.join(format!("nvme-{}-{n}.bin", std::process::id()));
            let backend = FileBackend::create(&path).map_err(text)?;
            (Arc::new(backend), Some(FileGuard(path)))
        }
    })
}

/// The one node constructor the harness uses: default retry policy and
/// collective deadline, the caller's device and tracer.
fn node_resources(world: usize, backend: Arc<dyn StorageBackend>, tracer: Tracer) -> NodeResources {
    NodeResources::with_backend_policy_comm_tracer(
        &node_memory(world),
        world,
        backend,
        RetryPolicy::default(),
        CommConfig::default(),
        tracer,
    )
}

// ---------------------------------------------------------------------
// Counters, as plain data
// ---------------------------------------------------------------------

/// `IoStats` of the node's NVMe engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub errors: u64,
    pub retries: u64,
    pub gave_up: u64,
    pub in_flight_peak: u64,
}

/// `EngineStats` (with its `PrefetchStats`) of one rank's engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    pub allgathers: u64,
    pub grad_reductions: u64,
    pub optimizer_chunks: u64,
    pub skipped_steps: u64,
    pub step_io_overlap: u64,
    pub prefetch_hits: u64,
    pub prefetch_misses: u64,
    pub prefetch_late: u64,
}

/// `peak_in_use` of each tier's pool (GPU: max over ranks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Peaks {
    pub gpu: u64,
    pub cpu: u64,
    pub nvme: u64,
}

// ---------------------------------------------------------------------
// The training rig
// ---------------------------------------------------------------------

/// One node: memory pools, NVMe engine, pinned pool, comm group.
pub struct Node {
    res: NodeResources,
    world: usize,
    _device_file: Option<FileGuard>,
}

impl Node {
    /// Build the node for `spec`. `traced` selects `Tracer::new()` over
    /// `Tracer::noop()`; `scratch` is where a file-backed device lives.
    pub fn build(spec: &RigSpec, traced: bool, scratch: &Path) -> BResult<Node> {
        let (backend, device_file) = open_backend(spec.backend, scratch)?;
        let tracer = if traced {
            Tracer::new()
        } else {
            Tracer::noop()
        };
        Ok(Node {
            res: node_resources(spec.world, backend, tracer),
            world: spec.world,
            _device_file: device_file,
        })
    }

    /// Nanoseconds on the node tracer's clock (runs even when tracing
    /// is off), so harness spans and program events share one timeline.
    pub fn now_ns(&self) -> u64 {
        self.res.tracer().now_ns()
    }

    pub fn barrier(&self, rank: usize) -> BResult<()> {
        self.res.group.communicator(rank).barrier().map_err(text)
    }

    /// Worker threads of the node's NVMe engine: with the per-request
    /// throttle, `workers × line rate` is the device's aggregate bound.
    pub fn nvme_workers(&self) -> usize {
        self.res.nvme.worker_count()
    }

    pub fn io(&self) -> IoCounters {
        let s = self.res.nvme.stats();
        IoCounters {
            reads: s.reads,
            writes: s.writes,
            bytes_read: s.bytes_read,
            bytes_written: s.bytes_written,
            errors: s.errors,
            retries: s.retries,
            gave_up: s.gave_up,
            in_flight_peak: s.in_flight_peak,
        }
    }

    /// `(bytes, calls)` moved by collectives so far, all ranks.
    pub fn comm_traffic(&self) -> (u64, u64) {
        let t = self.res.group.traffic();
        (t.total_bytes(), t.snapshot().4)
    }

    pub fn peaks(&self) -> Peaks {
        let h = &self.res.hierarchy;
        Peaks {
            gpu: (0..self.world)
                .map(|r| h.stats(Device::gpu(r)).peak_in_use)
                .max()
                .unwrap_or(0),
            cpu: h.stats(Device::cpu()).peak_in_use,
            nvme: h.stats(Device::nvme()).peak_in_use,
        }
    }

    /// Drain the program's trace rings (empty when tracing is off).
    pub fn take_events(&self) -> Vec<Event> {
        self.res.tracer().take_events()
    }

    /// Byte counters and ring drops of the traced run.
    pub fn trace_counters(&self) -> TraceCounters {
        let c = self.res.tracer().snapshot();
        TraceCounters {
            nc_read_bytes: c.nc_read_bytes,
            nc_write_bytes: c.nc_write_bytes,
            dropped_events: c.events_dropped,
        }
    }
}

/// One rank's model + engine, driven by the harness's step loop exactly
/// as `trainer::run_rank` drives them.
pub struct Rank {
    model: GptModel,
    engine: ZeroEngine,
    acts: InMemoryActStore,
    opts: RunOptions,
    comm: Communicator,
    cfg: GptConfig,
    spec: RigSpec,
    rank: usize,
    data_offset: usize,
}

impl Rank {
    /// Builds the engine, which partitions and offloads every parameter.
    /// `seed` feeds the model initialisation and the data-stream offset.
    pub fn build(node: &Node, spec: &RigSpec, rank: usize, seed: u64) -> BResult<Rank> {
        let cfg = gpt_config(spec.model, seed);
        let model = GptModel::new(cfg);
        let mut engine = ZeroEngine::new(
            model.registry(),
            strategy(spec.strategy),
            node.res.offload_manager(),
            node.res.group.communicator(rank),
            adam(),
        )
        .map_err(text)?;
        engine.set_grad_accumulation(spec.grad_accumulation);
        Ok(Rank {
            model,
            engine,
            acts: InMemoryActStore::new(),
            opts: RunOptions {
                batch: spec.micro_batch,
                activation_checkpointing: spec.activation_checkpointing,
                prefetch_window: PREFETCH_WINDOW,
            },
            comm: node.res.group.communicator(rank),
            cfg,
            spec: *spec,
            rank,
            data_offset: (seed % 1_000_003) as usize,
        })
    }

    /// Forward + backward over every micro-batch of optimizer step
    /// `step`; returns this rank's mean micro-batch loss.
    pub fn fwdbwd(&mut self, step: usize) -> BResult<f32> {
        let rows = self.spec.micro_batch * self.cfg.seq;
        let (lo, hi) = (self.rank * rows, (self.rank + 1) * rows);
        let mut loss = 0.0f32;
        for micro in 0..self.spec.grad_accumulation {
            let data_step = self.data_offset + step * self.spec.grad_accumulation + micro;
            let (tokens, targets) = synthetic_batch(
                &self.cfg,
                self.spec.world * self.spec.micro_batch,
                data_step,
            );
            loss += self
                .model
                .train_step_full(
                    &mut self.engine,
                    &mut self.acts,
                    &tokens[lo..hi],
                    &targets[lo..hi],
                    &self.opts,
                    &mut NoopObserver,
                )
                .map_err(text)?;
        }
        Ok(loss / self.spec.grad_accumulation as f32)
    }

    /// `ZeroEngine::step`: `Ok(false)` when the step was skipped.
    pub fn optim_step(&mut self) -> BResult<bool> {
        self.engine.step().map_err(text)
    }

    /// Mean loss across ranks (a collective: every rank calls it).
    pub fn mean_loss(&self, loss: f32) -> BResult<f32> {
        Ok(self.comm.sum_scalar(loss).map_err(text)? / self.spec.world as f32)
    }

    pub fn counters(&self) -> EngineCounters {
        let s = self.engine.stats();
        EngineCounters {
            allgathers: s.allgathers,
            grad_reductions: s.grad_reductions,
            optimizer_chunks: s.optimizer_chunks,
            skipped_steps: s.skipped_steps,
            step_io_overlap: s.step_io_overlap,
            prefetch_hits: s.prefetch.hits,
            prefetch_misses: s.prefetch.misses,
            prefetch_late: s.prefetch.late,
        }
    }

    /// Mark this rank failed so peers blocked in a collective unwind.
    pub fn abort(&self) {
        self.comm.abort();
    }

    /// Free every device allocation the engine holds.
    pub fn dispose(self) -> BResult<()> {
        self.engine.dispose().map_err(text)
    }
}

/// Wall seconds of the program's own trainer (`train_gpt_env`) running
/// `steps` steps of `spec` on a throttled device with tracing off.
pub fn trainer_wall_secs(spec: &RigSpec, steps: usize, seed: u64) -> BResult<f64> {
    let train = TrainSpec {
        model: gpt_config(spec.model, seed),
        strategy: strategy(spec.strategy),
        world: spec.world,
        micro_batch: spec.micro_batch,
        steps,
        adam: adam(),
        grad_accumulation: spec.grad_accumulation,
        node: node_memory(spec.world),
        activation_checkpointing: spec.activation_checkpointing,
        prefetch_window: PREFETCH_WINDOW,
        ..TrainSpec::test_default(
            gpt_config(spec.model, seed),
            strategy(spec.strategy),
            spec.world,
        )
    };
    let env = TrainEnv {
        tracer: Some(Tracer::noop()),
        ..TrainEnv::new(throttled())
    };
    let t = std::time::Instant::now();
    let out = train_gpt_env(&train, env).map_err(text)?;
    let secs = t.elapsed().as_secs_f64();
    if out.losses.len() != steps {
        return Err(format!("trainer ran {} of {steps} steps", out.losses.len()));
    }
    Ok(secs)
}

// ---------------------------------------------------------------------
// Trace analysis
// ---------------------------------------------------------------------

/// What the traced run's counters must agree with `IoCounters` on.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCounters {
    pub nc_read_bytes: u64,
    pub nc_write_bytes: u64,
    pub dropped_events: u64,
}

/// One hop of the overlap report over the measured steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct HopNumbers {
    pub busy_ms_per_step: f64,
    /// Share of the hop's busy time that ran under compute.
    pub hidden_share: f64,
    pub gbps: f64,
}

/// Per-layer numbers folded out of the merged event stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceNumbers {
    /// `[nc, cg, gg, cp]`.
    pub hops: [HopNumbers; 4],
    pub compute_ms_per_step: f64,
    pub tile_matmul_gflops: f64,
    pub adam_chunk_gbps: f64,
    /// 1 − (compute + un-hidden hop time) ÷ step wall, over all steps.
    pub unattributed_share: f64,
}

pub const HOP_NAMES: [&str; 4] = ["nc", "cg", "gg", "cp"];

fn bench_event(s: &BenchSpan, name: &'static str, tid: u64) -> Event {
    Event {
        cat: Category::Compute,
        name,
        start_ns: s.start_ns,
        dur_ns: s.end_ns - s.start_ns,
        bytes: 0,
        flops: 0,
        id: s.id,
        tid,
    }
}

/// Fold the program's events plus the harness's step/fwdbwd spans
/// through `OverlapReport` and `compute_kernel_stats`. The harness
/// step span stands in for the trainer's `train_step` envelope and its
/// fwd/bwd span for the trainer's `fwdbwd` compute span, because the
/// harness loop replaces the trainer that would have emitted them.
pub fn analyze_trace(program: &[Event], bench: &[BenchSpan]) -> TraceNumbers {
    let mut events = program.to_vec();
    for s in bench {
        match s.name {
            spans::STEP => events.push(bench_event(s, STEP_SPAN, 0)),
            spans::FWDBWD => events.push(bench_event(s, spans::FWDBWD, 0)),
            _ => {}
        }
    }
    let report = OverlapReport::from_events(&events);
    let steps = report.steps.len().max(1) as f64;
    let mut out = TraceNumbers::default();
    let mut wall_ns = 0u64;
    let mut explained_ns = 0u64;
    let mut busy = [0u64; 4];
    let mut hidden = [0u64; 4];
    let mut bytes = [0u64; 4];
    for st in &report.steps {
        wall_ns += st.end_ns - st.start_ns;
        explained_ns += st.compute_ns;
        for (i, h) in st.hops.iter().enumerate() {
            busy[i] += h.busy_ns;
            hidden[i] += h.hidden_ns;
            bytes[i] += h.bytes;
            explained_ns += h.busy_ns - h.hidden_ns;
        }
        out.compute_ms_per_step += st.compute_ns as f64 / 1e6 / steps;
    }
    for i in 0..4 {
        out.hops[i] = HopNumbers {
            busy_ms_per_step: busy[i] as f64 / 1e6 / steps,
            hidden_share: if busy[i] == 0 {
                0.0
            } else {
                hidden[i] as f64 / busy[i] as f64
            },
            gbps: if busy[i] == 0 {
                0.0
            } else {
                bytes[i] as f64 / busy[i] as f64
            },
        };
    }
    if wall_ns > 0 {
        out.unattributed_share = 1.0 - explained_ns as f64 / wall_ns as f64;
    }
    for k in compute_kernel_stats(program) {
        match k.name {
            "tile_matmul" => out.tile_matmul_gflops = k.gflops(),
            "adam_chunk" => out.adam_chunk_gbps = k.gbps(),
            _ => {}
        }
    }
    out
}

/// Program events and harness spans on one timeline, as Chrome-trace
/// JSON. Harness spans ride on their own lanes (`tid` 1000 + rank).
pub fn chrome_trace(program: &[Event], bench: &[SpanLog]) -> String {
    let mut events = program.to_vec();
    for (rank, log) in bench.iter().enumerate() {
        events.extend(
            log.spans()
                .iter()
                .map(|s| bench_event(s, s.name, 1000 + rank as u64)),
        );
    }
    events.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
    chrome_trace_json(&events, &Default::default())
}

// ---------------------------------------------------------------------
// Layer probes: prepared state + the one call each probe times
// ---------------------------------------------------------------------

/// SIMD backend label and kernel-pool width, for the metadata block.
pub fn simd_backend() -> &'static str {
    simd::backend().label()
}

pub fn kernel_pool_workers() -> usize {
    pool::global().workers()
}

/// `tensor.simd.*` and `tensor.pool.*` operands.
pub struct TensorProbe {
    a: Tensor,
    b_nn: Tensor,
    b_nt: Tensor,
    b_tn: Tensor,
    small_a: Tensor,
    small_b: Tensor,
    elems: Tensor,
    ln_x: Tensor,
    ln_gamma: Vec<f32>,
    ln_beta: Vec<f32>,
    f32s: Vec<f32>,
    f16s: Vec<F16>,
    f32_out: Vec<f32>,
}

impl TensorProbe {
    /// `m×k` times `k×n`: the up-projection of `dense_dp1`'s MLP
    /// (rows = batch × seq, k = hidden, n = 4 × hidden).
    pub const M: usize = 128;
    pub const K: usize = 192;
    pub const N: usize = 768;
    /// Elements of the elementwise / conversion / layernorm operands.
    pub const ELEMS: usize = 1 << 20;
    const LN_WIDTH: usize = 1024;
    /// Tiles of the pool-vs-inline matmul, each below the kernels' own
    /// go-parallel threshold so a tile always runs on one thread.
    pub const POOL_TILES: usize = 16;
    const TILE_M: usize = 15;
    const TILE_K: usize = 128;

    pub fn new() -> TensorProbe {
        let (m, k, n) = (Self::M, Self::K, Self::N);
        let f32s: Vec<f32> = (0..Self::ELEMS).map(|i| (i as f32).sin() * 3.0).collect();
        let mut f16s = vec![F16::ZERO; Self::ELEMS];
        simd::f32_to_f16_slice(&f32s, &mut f16s);
        TensorProbe {
            a: Tensor::randn_seeded(&[m, k], 1, 1.0),
            b_nn: Tensor::randn_seeded(&[k, n], 2, 1.0),
            b_nt: Tensor::randn_seeded(&[n, k], 3, 1.0),
            b_tn: Tensor::randn_seeded(&[m, n], 4, 1.0),
            small_a: Tensor::randn_seeded(&[Self::TILE_M, Self::TILE_K], 5, 1.0),
            small_b: Tensor::randn_seeded(&[Self::TILE_K, Self::TILE_K], 6, 1.0),
            elems: Tensor::randn_seeded(&[Self::ELEMS], 7, 2.0),
            ln_x: Tensor::randn_seeded(&[Self::ELEMS / Self::LN_WIDTH, Self::LN_WIDTH], 8, 1.0),
            ln_gamma: vec![1.0; Self::LN_WIDTH],
            ln_beta: vec![0.0; Self::LN_WIDTH],
            f32_out: vec![0.0; Self::ELEMS],
            f32s,
            f16s,
        }
    }

    pub fn matmul_flops() -> f64 {
        2.0 * (Self::M * Self::K * Self::N) as f64
    }

    pub fn matmul(&self) {
        std::hint::black_box(ops::matmul(&self.a, &self.b_nn).expect("matmul shapes"));
    }

    pub fn matmul_nt(&self) {
        std::hint::black_box(ops::matmul_nt(&self.a, &self.b_nt).expect("matmul_nt shapes"));
    }

    /// `A^T · B` with `A` as `[m,k]`, `B` as `[m,n]` (the weight-gradient
    /// product of the backward pass).
    pub fn matmul_tn(&self) {
        std::hint::black_box(ops::matmul_tn(&self.a, &self.b_tn).expect("matmul_tn shapes"));
    }

    pub fn gelu(&self) {
        std::hint::black_box(ops::gelu(&self.elems));
    }

    pub fn layernorm(&self) {
        std::hint::black_box(
            ops::layernorm(&self.ln_x, &self.ln_gamma, &self.ln_beta, 1e-5).expect("ln shapes"),
        );
    }

    pub fn f16_to_f32(&mut self) {
        simd::f16_to_f32_slice(&self.f16s, &mut self.f32_out);
    }

    pub fn f32_to_f16(&mut self) {
        simd::f32_to_f16_slice(&self.f32s, &mut self.f16s);
    }

    /// Round trip of an empty 8-task job through the kernel pool.
    pub fn pool_dispatch(&self) {
        pool::run_tasks(8, true, |i| {
            std::hint::black_box(i);
        });
    }

    /// `POOL_TILES` small matmuls as pool tasks (`parallel`) or inline.
    pub fn tiled_matmul(&self, parallel: bool) {
        pool::run_tasks(Self::POOL_TILES, parallel, |_| {
            std::hint::black_box(ops::matmul(&self.small_a, &self.small_b).expect("tile shapes"));
        });
    }
}

/// `optim.adam_publish_gbps` operands: one fused Adam + publish pass.
pub struct AdamProbe {
    cfg: AdamConfig,
    step: u64,
    master: Vec<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    grad: Vec<f32>,
    publish: Vec<f32>,
}

impl AdamProbe {
    pub const ELEMS: usize = 1 << 20;
    /// master/m/v read and written, grad read, publish written.
    pub const BYTES_PER_ELEM: usize = 32;

    pub fn new() -> AdamProbe {
        let n = Self::ELEMS;
        AdamProbe {
            cfg: AdamConfig::default(),
            step: 0,
            master: vec![0.1; n],
            m: vec![0.0; n],
            v: vec![0.0; n],
            grad: (0..n)
                .map(|i| ((i * 7) % 13) as f32 * 0.01 - 0.06)
                .collect(),
            publish: vec![0.0; n],
        }
    }

    pub fn run(&mut self) {
        self.step += 1;
        adam_update_chunk_publish(
            &self.cfg,
            self.step,
            &mut self.master,
            &mut self.m,
            &mut self.v,
            &self.grad,
            &mut self.publish,
        );
    }
}

/// A bare `NvmeEngine` (4 workers, like the node's) over one backend.
pub struct NvmeProbe {
    engine: NvmeEngine,
    _file: Option<FileGuard>,
}

impl NvmeProbe {
    pub const WORKERS: usize = 4;

    pub fn new(kind: BackendKind, scratch: &Path) -> BResult<NvmeProbe> {
        let (backend, file) = open_backend(kind, scratch)?;
        Ok(NvmeProbe {
            engine: NvmeEngine::new(backend, Self::WORKERS),
            _file: file,
        })
    }

    /// Lay down `count` blocks of `len` bytes so reads have data.
    pub fn fill(&self, count: usize, len: usize) -> BResult<()> {
        self.write_batch(count, len)
    }

    /// Submit `count` reads of `len` bytes, then wait for all of them.
    pub fn read_batch(&self, count: usize, len: usize) -> BResult<()> {
        let reqs: Vec<(u64, usize)> = (0..count).map(|i| ((i * len) as u64, len)).collect();
        for t in self.engine.submit_read_bulk(&reqs) {
            std::hint::black_box(self.engine.wait(t).map_err(text)?);
        }
        Ok(())
    }

    /// Submit `count` writes of `len` bytes, then wait for all of them.
    pub fn write_batch(&self, count: usize, len: usize) -> BResult<()> {
        let tickets: Vec<_> = (0..count)
            .map(|i| {
                self.engine
                    .submit_write((i * len) as u64, vec![i as u8; len])
            })
            .collect();
        for t in tickets {
            self.engine.wait(t).map_err(text)?;
        }
        Ok(())
    }

    /// Keep `depth` requests in flight until `count` have completed,
    /// alternating reads and writes when `mixed`.
    pub fn queue_depth_run(
        &self,
        count: usize,
        depth: usize,
        len: usize,
        mixed: bool,
    ) -> BResult<()> {
        let mut window = std::collections::VecDeque::with_capacity(depth);
        for i in 0..count {
            if window.len() == depth {
                let t = window.pop_front().expect("window is full");
                std::hint::black_box(self.engine.wait(t).map_err(text)?);
            }
            let off = ((i % depth) * len) as u64;
            window.push_back(if mixed && i % 2 == 1 {
                self.engine.submit_write(off, vec![i as u8; len])
            } else {
                self.engine.submit_read(off, len)
            });
        }
        for t in window {
            std::hint::black_box(self.engine.wait(t).map_err(text)?);
        }
        Ok(())
    }
}

/// `nvme.store.*`: a `CheckpointStore` on an in-memory device.
pub struct StoreProbe {
    store: CheckpointStore,
    payload: Vec<u8>,
    version: u64,
}

impl StoreProbe {
    pub fn new(payload_bytes: usize) -> BResult<StoreProbe> {
        let store = CheckpointStore::with_tracer(Arc::new(MemBackend::new()), 1, 2, Tracer::noop())
            .map_err(text)?;
        let payload = (0..payload_bytes).map(|i| (i * 31) as u8).collect();
        Ok(StoreProbe {
            store,
            payload,
            version: 0,
        })
    }

    /// Blocking durable save.
    pub fn save(&mut self) -> BResult<()> {
        self.version += 1;
        self.store
            .save(0, self.version, &self.payload)
            .map_err(text)
    }

    /// Hand a save to the background writer: the time this takes is
    /// how long training stalls. The clone is prepared by the caller so
    /// it is not part of the stall.
    pub fn save_async(&mut self, payload: Vec<u8>) -> BResult<()> {
        self.version += 1;
        self.store
            .save_async(0, self.version, payload)
            .map_err(text)
    }

    pub fn payload_clone(&self) -> Vec<u8> {
        self.payload.clone()
    }

    pub fn drain(&self) -> BResult<()> {
        self.store.drain().map_err(text)
    }
}

/// One collective, named so both rank threads run the same sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    Allgather,
    ReduceScatter,
    Allreduce,
    Barrier,
}

/// `comm.*`: a two-rank group; rank 1 mirrors every call on a peer
/// thread so rank 0's timings are those of a real collective.
pub struct CommProbe {
    group: CommGroup,
}

impl CommProbe {
    pub fn new() -> CommProbe {
        CommProbe {
            group: CommGroup::new(2),
        }
    }

    fn call(comm: &Communicator, op: Collective, bytes: &[u8], floats: &mut [f32]) -> BResult<()> {
        match op {
            Collective::Allgather => {
                std::hint::black_box(comm.allgather_bytes(bytes).map_err(text)?);
            }
            Collective::ReduceScatter => {
                std::hint::black_box(comm.reduce_scatter_sum(floats).map_err(text)?);
            }
            Collective::Allreduce => comm.allreduce_sum(floats).map_err(text)?,
            Collective::Barrier => comm.barrier().map_err(text)?,
        }
        Ok(())
    }

    /// Run `op` `calls` times on both ranks over `elems` f32s per rank;
    /// returns rank 0's wall seconds per call, in call order.
    pub fn run(&self, op: Collective, elems: usize, calls: usize) -> BResult<Vec<f64>> {
        let peer = self.group.communicator(1);
        let me = self.group.communicator(0);
        std::thread::scope(|s| {
            let h = s.spawn(move || -> BResult<()> {
                let bytes = vec![1u8; elems * 4];
                let mut floats = vec![1.0f32; elems];
                for _ in 0..calls {
                    Self::call(&peer, op, &bytes, &mut floats)?;
                }
                Ok(())
            });
            let bytes = vec![2u8; elems * 4];
            let mut floats = vec![2.0f32; elems];
            let mut secs = Vec::with_capacity(calls);
            let mut mine = Ok(());
            for _ in 0..calls {
                let t = std::time::Instant::now();
                mine = Self::call(&me, op, &bytes, &mut floats);
                secs.push(t.elapsed().as_secs_f64());
                if mine.is_err() {
                    // Unblock the peer: it is waiting in the same call.
                    me.abort();
                    break;
                }
            }
            let theirs = h
                .join()
                .map_err(|_| "comm peer thread panicked".to_string())?;
            mine.and(theirs).map(|_| secs)
        })
    }
}

/// `memory.*`: the pinned staging pool and a capacity pool.
pub struct MemoryProbe {
    pinned: PinnedBufferPool,
    hierarchy: MemoryHierarchy,
}

impl MemoryProbe {
    pub fn new() -> MemoryProbe {
        MemoryProbe {
            pinned: PinnedBufferPool::with_tracer(8, 1 << 20, Tracer::noop()),
            hierarchy: MemoryHierarchy::new(&node_memory(1)),
        }
    }

    pub fn pinned_checkout(&self) {
        std::hint::black_box(self.pinned.acquire());
    }

    pub fn alloc_free(&self) -> BResult<()> {
        let block = self.hierarchy.alloc(Device::cpu(), 1 << 20).map_err(text)?;
        self.hierarchy.free(Device::cpu(), block);
        Ok(())
    }
}

/// `core.offload.*`: the `_placed` surface of an `OffloadManager` over
/// a bare in-memory device, next to the raw `NvmeEngine` moving the
/// same bytes in the same request sizes.
pub struct OffloadProbe {
    node: NodeResources,
    mgr: OffloadManager,
    data: FlatBuffer,
    raw: NvmeProbe,
}

impl OffloadProbe {
    /// f32 elements per buffer (8 MiB).
    pub const ELEMS: usize = 1 << 21;
    pub const BYTES: usize = Self::ELEMS * 4;

    pub fn new(scratch: &Path) -> BResult<OffloadProbe> {
        let node = node_resources(1, Arc::new(MemBackend::new()), Tracer::noop());
        let values: Vec<f32> = (0..Self::ELEMS).map(|i| i as f32 * 1e-3).collect();
        let raw = NvmeProbe::new(BackendKind::Mem, scratch)?;
        Ok(OffloadProbe {
            mgr: node.offload_manager(),
            node,
            data: FlatBuffer::from_f32(DType::F32, &values),
            raw,
        })
    }

    /// The manager stages through the node's pinned buffers, so the raw
    /// engine is driven in requests of that size.
    fn raw_request(&self) -> (usize, usize) {
        let len = self.node.pinned.buffer_size();
        (Self::BYTES / len, len)
    }

    pub fn raw_fill(&self) -> BResult<()> {
        let (count, len) = self.raw_request();
        self.raw.fill(count, len)
    }

    pub fn raw_read(&self) -> BResult<()> {
        let (count, len) = self.raw_request();
        self.raw.read_batch(count, len)
    }

    pub fn raw_write(&self) -> BResult<()> {
        let (count, len) = self.raw_request();
        self.raw.write_batch(count, len)
    }

    fn policy(split: bool) -> PlacementPolicy {
        if split {
            PlacementPolicy::split(500, 1 << 15)
        } else {
            PlacementPolicy::all_nvme()
        }
    }

    /// `store_placed` on the NVMe tier; the buffer is what later calls
    /// load and overwrite.
    pub fn store(&self, split: bool) -> BResult<PlacedHandle> {
        self.mgr
            .store_placed(Device::nvme(), &Self::policy(split), self.data.clone())
            .map(PlacedHandle)
            .map_err(text)
    }

    pub fn load(&self, buf: &PlacedHandle) -> BResult<()> {
        std::hint::black_box(self.mgr.load_placed(&buf.0).map_err(text)?);
        Ok(())
    }

    pub fn overwrite(&self, buf: &mut PlacedHandle) -> BResult<()> {
        self.mgr
            .overwrite_placed(&mut buf.0, &self.data)
            .map_err(text)
    }

    /// `overwrite_async_placed` followed by the `flush` that completes it.
    pub fn overwrite_async(&self, buf: &mut PlacedHandle) -> BResult<()> {
        self.mgr
            .overwrite_async_placed(&mut buf.0, &self.data)
            .map_err(text)?;
        self.mgr.flush().map_err(text)
    }

    pub fn free(&self, buf: PlacedHandle) {
        self.mgr.free_placed(buf.0);
    }
}

/// An opaque `PlacedBuf`.
pub struct PlacedHandle(zero_infinity::offload::PlacedBuf);
