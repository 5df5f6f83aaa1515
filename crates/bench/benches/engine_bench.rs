//! Real-engine benchmarks: one per evaluation ablation.
//!
//! * `train_step/<strategy>` — Fig. 6a flavored: full training iteration
//!   of a tiny GPT under every Table 2 strategy.
//! * `prefetch/{on,off}` — Fig. 6d flavored: NVMe-offloaded iteration
//!   with and without the dynamic prefetcher.
//! * `tiling/<factor>` — Fig. 6b flavored: forward+backward of a large
//!   linear at different tiling factors.
//! * `act_ckpt/{on,off}` — Fig. 6e flavored: iteration with and without
//!   activation recomputation.
//! * `step_pipeline/<depth>` — Sec. 5.2.2/6.2 flavored: NVMe-streamed
//!   optimizer step at different pipeline depths over a file-backed
//!   device.

use zi_sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zero_infinity::{Strategy, TiledLinear, ZeroEngine};
use zero_infinity::{trainer::synthetic_batch, NodeEnv, NodeResources};
use zi_memory::NodeMemorySpec;
use zi_model::{GptConfig, GptModel, ParamRegistry, RunOptions};
use zi_nvme::{FileBackend, MemBackend, StorageBackend, ThrottledBackend};
use zi_optim::AdamConfig;
use zi_tensor::Tensor;

fn model_cfg() -> GptConfig {
    GptConfig { vocab: 32, hidden: 16, layers: 2, heads: 4, seq: 8, seed: 3 }
}

fn single_rank_engine(strategy: Strategy) -> (GptModel, ZeroEngine) {
    let spec = NodeMemorySpec::test_spec(1, 1 << 26, 1 << 27, 1 << 27);
    let node = NodeResources::in_memory(&spec, 1);
    let model = GptModel::new(model_cfg());
    let engine = ZeroEngine::new(
        model.registry(),
        strategy,
        node.offload_manager(),
        node.group.communicator(0),
        AdamConfig::default(),
    )
    .expect("engine");
    (model, engine)
}

fn bench_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    for strategy in Strategy::table2() {
        group.bench_with_input(
            BenchmarkId::from_parameter(strategy.name),
            &strategy,
            |b, &strategy| {
                let (model, mut engine) = single_rank_engine(strategy);
                let opts = RunOptions { batch: 2, ..Default::default() };
                let (tokens, targets) = synthetic_batch(&model_cfg(), 2, 0);
                b.iter(|| {
                    let loss =
                        model.train_step(&mut engine, &tokens, &targets, &opts).unwrap();
                    engine.step().unwrap();
                    criterion::black_box(loss);
                });
            },
        );
    }
    group.finish();
}

fn bench_prefetch(c: &mut Criterion) {
    // A throttled NVMe device (500 MB/s, 200 µs latency) makes the
    // overlap benefit of the prefetcher measurable: with prefetch on, the
    // nc-transfer hides behind compute of the preceding module.
    let mut group = c.benchmark_group("prefetch");
    group.sample_size(10);
    for (label, on) in [("on", true), ("off", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &on, |b, &on| {
            let spec = NodeMemorySpec::test_spec(1, 1 << 26, 1 << 27, 1 << 27);
            let backend = Arc::new(ThrottledBackend::new(
                MemBackend::new(),
                500e6,
                Duration::from_micros(200),
            )) as Arc<dyn StorageBackend>;
            let node = NodeResources::new(&spec, 1, NodeEnv::new(backend));
            let model = GptModel::new(model_cfg());
            let mut engine = ZeroEngine::new(
                model.registry(),
                Strategy::infinity_nvme().with_prefetch(on),
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            )
            .expect("engine");
            let opts =
                RunOptions { batch: 2, activation_checkpointing: false, prefetch_window: 2 };
            let (tokens, targets) = synthetic_batch(&model_cfg(), 2, 0);
            b.iter(|| {
                let loss = model.train_step(&mut engine, &tokens, &targets, &opts).unwrap();
                criterion::black_box(loss);
                engine.clear_grads();
            });
        });
    }
    group.finish();
}

fn bench_tiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiling");
    group.sample_size(10);
    let hidden = 128;
    for tiles in [1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(tiles), &tiles, |b, &tiles| {
            let spec = NodeMemorySpec::test_spec(1, 1 << 26, 1 << 27, 1 << 27);
            let node = NodeResources::in_memory(&spec, 1);
            let mut reg = ParamRegistry::new();
            let tl =
                TiledLinear::register(&mut reg, "ffn", hidden, 4 * hidden, tiles, 7, 0.02)
                    .unwrap();
            let mut engine = ZeroEngine::new(
                &reg,
                Strategy::infinity_cpu(),
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            )
            .unwrap();
            let x = Tensor::randn_seeded(&[2, hidden], 3, 0.1);
            let dy = Tensor::randn_seeded(&[2, 4 * hidden], 4, 0.1);
            b.iter(|| {
                let y = tl.forward(&mut engine, &x).unwrap();
                let dx = tl.backward(&mut engine, &x, &dy).unwrap();
                engine.clear_grads();
                criterion::black_box((y, dx));
            });
        });
    }
    group.finish();
}

fn bench_act_ckpt(c: &mut Criterion) {
    let mut group = c.benchmark_group("act_ckpt");
    group.sample_size(10);
    for (label, on) in [("recompute", true), ("stored", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &on, |b, &on| {
            let (model, mut engine) = single_rank_engine(Strategy::infinity_cpu());
            let opts =
                RunOptions { batch: 2, activation_checkpointing: on, prefetch_window: 2 };
            let (tokens, targets) = synthetic_batch(&model_cfg(), 2, 0);
            b.iter(|| {
                let loss = model.train_step(&mut engine, &tokens, &targets, &opts).unwrap();
                engine.step().unwrap();
                criterion::black_box(loss);
            });
        });
    }
    group.finish();
}

/// Prefetch-window depth sweep (DESIGN.md ablation: depth 0/1/2/3) on a
/// throttled NVMe device.
fn bench_prefetch_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefetch_depth");
    group.sample_size(10);
    for window in [0usize, 1, 2, 3] {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &window| {
            let spec = NodeMemorySpec::test_spec(1, 1 << 26, 1 << 27, 1 << 27);
            let backend = Arc::new(ThrottledBackend::new(
                MemBackend::new(),
                500e6,
                Duration::from_micros(200),
            )) as Arc<dyn StorageBackend>;
            let node = NodeResources::new(&spec, 1, NodeEnv::new(backend));
            let model = GptModel::new(model_cfg());
            let mut engine = ZeroEngine::new(
                model.registry(),
                Strategy::infinity_nvme().with_prefetch(window > 0),
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            )
            .expect("engine");
            let opts = RunOptions {
                batch: 2,
                activation_checkpointing: false,
                prefetch_window: window,
            };
            let (tokens, targets) = synthetic_batch(&model_cfg(), 2, 0);
            b.iter(|| {
                let loss = model.train_step(&mut engine, &tokens, &targets, &opts).unwrap();
                criterion::black_box(loss);
                engine.clear_grads();
            });
        });
    }
    group.finish();
}

/// Chunked vs monolithic NVMe optimizer step (DESIGN.md ablation): a
/// single large parameter updated through a throttled NVMe device with
/// different streaming chunk sizes.
fn bench_optimizer_chunking(c: &mut Criterion) {
    let mut group = c.benchmark_group("nvme_optimizer_step");
    group.sample_size(10);
    const NUMEL: usize = 1 << 16;
    for chunk in [1usize << 12, 1 << 14, usize::MAX] {
        let label = if chunk == usize::MAX { "monolithic".into() } else { format!("{chunk}") };
        group.bench_with_input(BenchmarkId::from_parameter(label), &chunk, |b, &chunk| {
            let spec = NodeMemorySpec::test_spec(1, 1 << 26, 1 << 27, 1 << 27);
            let backend = Arc::new(ThrottledBackend::new(
                MemBackend::new(),
                2e9,
                Duration::from_micros(100),
            )) as Arc<dyn StorageBackend>;
            let node = NodeResources::new(&spec, 1, NodeEnv::new(backend));
            let mut reg = ParamRegistry::new();
            let id = reg.register("big", &[NUMEL], 3, 0.1, 0.0);
            let mut engine = ZeroEngine::new(
                &reg,
                Strategy::infinity_nvme().with_optimizer_chunk(chunk),
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            )
            .expect("engine");
            let grad = Tensor::randn_seeded(&[NUMEL], 5, 0.1);
            b.iter(|| {
                use zi_model::ParamStore;
                engine.add_grad(id, &grad).unwrap();
                engine.step().unwrap();
            });
        });
    }
    group.finish();
}

/// Pipelined vs sequential NVMe optimizer step (DESIGN.md ablation): the
/// same chunked streaming update over a real file-backed NVMe device at
/// different `step_pipeline_depth` settings. Depth 1 is the fully
/// sequential read→update→write loop; depth ≥ 2 keeps later chunks' reads
/// and earlier chunks' write-behind in flight during the current update.
fn bench_step_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("step_pipeline");
    group.sample_size(10);
    const NUMEL: usize = 1 << 16;
    for depth in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, &depth| {
            let spec = NodeMemorySpec::test_spec(1, 1 << 26, 1 << 27, 1 << 27);
            let path = std::env::temp_dir()
                .join(format!("zi_step_pipeline_bench_{}_{depth}.dat", std::process::id()));
            // Throttle the file device to real-NVMe characteristics; a
            // tmpfs-backed file answers at RAM speed, which hides the
            // latency the pipeline exists to overlap.
            let backend = Arc::new(ThrottledBackend::new(
                FileBackend::create(&path).expect("file nvme"),
                2e9,
                Duration::from_micros(100),
            )) as Arc<dyn StorageBackend>;
            let node = NodeResources::new(&spec, 1, NodeEnv::new(backend));
            let mut reg = ParamRegistry::new();
            let id = reg.register("big", &[NUMEL], 3, 0.1, 0.0);
            let mut engine = ZeroEngine::new(
                &reg,
                Strategy::infinity_nvme()
                    .with_optimizer_chunk(1 << 12)
                    .with_step_pipeline_depth(depth),
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            )
            .expect("engine");
            let grad = Tensor::randn_seeded(&[NUMEL], 5, 0.1);
            b.iter(|| {
                use zi_model::ParamStore;
                engine.add_grad(id, &grad).unwrap();
                engine.step().unwrap();
            });
            drop(engine);
            drop(node);
            let _ = std::fs::remove_file(&path);
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_strategies,
    bench_prefetch,
    bench_prefetch_depth,
    bench_optimizer_chunking,
    bench_step_pipeline,
    bench_tiling,
    bench_act_ckpt
);
criterion_main!(benches);
