//! Real-engine benchmarks: one per evaluation ablation.
//!
//! * `prefetch/{on,off}`, `prefetch_depth/<window>` — Fig. 6d flavored:
//!   NVMe-offloaded iteration with and without the dynamic prefetcher,
//!   and at look-ahead windows 0–3.
//! * `tiling/<factor>` — Fig. 6b flavored: forward+backward of a large
//!   linear at different tiling factors.
//! * `act_ckpt/{on,off}` — Fig. 6e flavored: iteration with and without
//!   activation recomputation.

use zi_sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use zero_infinity::{Strategy, TiledLinear, ZeroEngine};
use zero_infinity::{trainer::synthetic_batch, NodeEnv, NodeResources};
use zi_memory::NodeMemorySpec;
use zi_model::{GptConfig, GptModel, ParamRegistry, RunOptions};
use zi_nvme::{MemBackend, StorageBackend, ThrottledBackend};
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

criterion_group!(
    benches,
    bench_prefetch,
    bench_prefetch_depth,
    bench_tiling,
    bench_act_ckpt
);
criterion_main!(benches);
