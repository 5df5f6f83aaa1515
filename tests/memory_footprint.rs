//! The paper's memory arithmetic, measured on the real engine.
//!
//! Sec. 3 says mixed-precision Adam training costs 20 bytes per
//! parameter: fp16 param (2) + fp16 grad (2) + fp32 master, momentum,
//! variance and gradient (16). This engine's *at-rest* footprint is the
//! persistent subset — fp16 param (2) + fp32 master/momentum/variance
//! (12) = 14 bytes/param — because gradient buffers (the remaining 6
//! bytes/param of the paper's budget) are allocated lazily during the
//! backward pass and freed at the optimizer step. Table 2 says each
//! strategy distributes these bytes across tiers differently; these
//! tests measure the *actual* bytes charged to each real memory pool and
//! check the distribution.

use zi_sync::Arc;

use zero_infinity_suite::model::{GptConfig, GptModel, RunOptions};
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::zero::{trainer::synthetic_batch, NodeResources, Strategy, ZeroEngine};
use zi_memory::NodeMemorySpec;
use zi_types::{Device, DeviceKind};

fn cfg() -> GptConfig {
    GptConfig { vocab: 32, hidden: 16, layers: 2, heads: 4, seq: 8, seed: 44 }
}

/// Bytes of model state on (aggregate GPU, CPU, NVMe) after engine init
/// across `world` ranks, under `strategy`: the CPU's beside the ranks'
/// staging sets, which are charged there too.
fn measure(strategy: Strategy, world: usize) -> (u64, u64, u64, usize) {
    let node = Arc::new(NodeResources::in_memory(
        &NodeMemorySpec::test_spec(world, 1 << 26, 1 << 27, 1 << 27),
        world,
    ));
    let mut handles = Vec::new();
    for rank in 0..world {
        let node = Arc::clone(&node);
        handles.push(zi_sync::thread::spawn(move || {
            let model = GptModel::new(cfg());
            let engine = ZeroEngine::new(
                model.registry(),
                strategy,
                node.offload_manager(),
                node.group.communicator(rank),
                AdamConfig::default(),
            )
            .expect("engine");
            // Hold until every rank is initialized, then let rank 0
            // measure while all engines are still alive; a second barrier
            // orders dispose after the measurement.
            node.group.communicator(rank).barrier().unwrap();
            let measured = if rank == 0 {
                let gpu: u64 =
                    (0..world).map(|r| node.hierarchy.stats(Device::gpu(r)).in_use).sum();
                // Every rank's set is the same size: the shards are.
                let sets = world as u64 * engine.offload_manager().staging().held_bytes();
                let cpu = node.hierarchy.stats(Device::cpu()).in_use - sets;
                let nvme = node.hierarchy.stats(Device::nvme()).in_use;
                Some((gpu, cpu, nvme))
            } else {
                None
            };
            node.group.communicator(rank).barrier().unwrap();
            engine.dispose().expect("dispose");
            measured
        }));
    }
    let mut measured = None;
    for h in handles {
        if let Some(m) = h.join().expect("rank") {
            measured = Some(m);
        }
    }
    let params = GptModel::new(cfg()).registry().total_numel();
    let (g, c, n) = measured.expect("rank 0 measurement");
    (g, c, n, params)
}

/// Padding makes per-param byte counts slightly exceed the ideal; allow
/// 15% slack upward and none downward beyond rounding.
fn assert_close(actual: u64, ideal: f64, what: &str) {
    let a = actual as f64;
    assert!(
        a >= ideal * 0.99 && a <= ideal * 1.15,
        "{what}: measured {a} vs ideal {ideal}"
    );
}

#[test]
fn data_parallel_costs_20_bytes_per_param_per_rank() {
    let world = 2;
    let (gpu, cpu, nvme, p) = measure(Strategy::data_parallel(), world);
    // Everything replicated on every GPU: 14 at-rest bytes * P * world.
    assert_close(gpu, 14.0 * p as f64 * world as f64, "DP gpu bytes");
    assert_eq!(cpu, 0);
    assert_eq!(nvme, 0);
}

#[test]
fn zero3_partitions_all_20_bytes() {
    let world = 4;
    let (gpu, cpu, nvme, p) = measure(Strategy::zero_3(), world);
    // Fully partitioned: aggregate GPU holds exactly one copy.
    assert_close(gpu, 14.0 * p as f64, "ZeRO-3 aggregate gpu bytes");
    assert_eq!(cpu, 0);
    assert_eq!(nvme, 0);
}

#[test]
fn zero_offload_moves_18_bytes_to_cpu() {
    let world = 2;
    let (gpu, cpu, nvme, p) = measure(Strategy::zero_offload(), world);
    // fp16 params replicated on GPU (2 bytes * P * world); grads (created
    // lazily, so 0 at init) and optimizer (12 bytes * P total) on CPU.
    assert_close(gpu, 2.0 * p as f64 * world as f64, "Offload gpu bytes");
    assert_close(cpu, 12.0 * p as f64, "Offload cpu bytes");
    assert_eq!(nvme, 0);
}

#[test]
fn infinity_nvme_leaves_gpu_empty() {
    let world = 2;
    let (gpu, cpu, nvme, p) = measure(Strategy::infinity_nvme(), world);
    // Params (2B) + optimizer (12B) on NVMe, nothing resident on GPU; the
    // CPU holds, beside the staging sets, only the shard cache's
    // reclaimable copy of the fp16 image, written through at construction.
    assert_eq!(gpu, 0, "Infinity-NVMe must keep GPUs empty at rest");
    let image: usize = GptModel::new(cfg()).registry().iter().map(|m| m.numel().div_ceil(world) * world).sum();
    assert_eq!(cpu, 2 * image as u64);
    assert_close(nvme, 14.0 * p as f64, "Infinity-NVMe nvme bytes");
}

/// A split deals whole optimizer records to DRAM, sub-record packs
/// included, and moves bytes between the pools without changing their sum.
#[test]
fn infinity_nvme_split_deals_whole_records() {
    let split = |p| {
        let s = Strategy::infinity_nvme().with_optimizer_chunk(64).with_optimizer_cpu_permille(p);
        let (_, cpu, nvme, _) = measure(s, 2);
        (cpu, nvme)
    };
    let [none, quarter, half] = [0, 250, 500].map(split);
    assert_eq!(none, (14_464, 101_248));
    // CPU: the cache's fp16 image (14 464) + 12 B × 1 472 DRAM elements.
    assert_eq!(quarter, (32_128, 83_584));
    // CPU: the cache's fp16 image (14 464) + 12 B × 3 520 DRAM elements.
    assert_eq!(half, (56_704, 59_008));
    for (cpu, nvme) in [quarter, half] {
        assert_eq!(cpu + nvme, none.0 + none.1);
    }
}

/// During a training step the GPU holds only gathered working tensors;
/// at rest it returns to the strategy's baseline.
#[test]
fn working_memory_is_transient() {
    let node = NodeResources::in_memory(&NodeMemorySpec::test_spec(1, 1 << 26, 1 << 27, 1 << 27), 1);
    let model = GptModel::new(cfg());
    let mut engine = ZeroEngine::new(
        model.registry(),
        Strategy::infinity_cpu().with_f32_params(),
        node.offload_manager(),
        node.group.communicator(0),
        AdamConfig::default(),
    )
    .unwrap();
    assert_eq!(node.hierarchy.stats(Device::gpu(0)).in_use, 0);
    let (tokens, targets) = synthetic_batch(&cfg(), 1, 0);
    model
        .train_step(&mut engine, &tokens, &targets, &RunOptions::default())
        .unwrap();
    engine.step().unwrap();
    // After the step, no gathered params remain resident.
    assert_eq!(node.hierarchy.stats(Device::gpu(0)).in_use, 0);
    // But the peak shows working memory was actually used.
    assert!(node.hierarchy.stats(Device::gpu(0)).peak_in_use > 0);
    engine.dispose().unwrap();
}

/// The largest single GPU allocation during a step is the biggest
/// gathered parameter (MSWM, Eq. 4) — fetching params one module at a
/// time keeps the footprint at parameter scale, not model scale.
#[test]
fn peak_gpu_is_module_scale_not_model_scale() {
    let node = NodeResources::in_memory(&NodeMemorySpec::test_spec(1, 1 << 26, 1 << 27, 1 << 27), 1);
    let model = GptModel::new(cfg());
    let mut engine = ZeroEngine::new(
        model.registry(),
        Strategy::infinity_cpu().with_f32_params(),
        node.offload_manager(),
        node.group.communicator(0),
        AdamConfig::default(),
    )
    .unwrap();
    let (tokens, targets) = synthetic_batch(&cfg(), 1, 0);
    model
        .train_step(&mut engine, &tokens, &targets, &RunOptions::default())
        .unwrap();
    let peak = node.hierarchy.stats(Device::gpu(0)).peak_in_use as usize;
    let total_params = model.registry().total_numel();
    // Peak working memory (one block's params + embeddings, f32) is far
    // below the whole model's f32 footprint.
    assert!(
        peak < total_params * 4 / 2,
        "peak {peak} should be well under full-model bytes {}",
        total_params * 4
    );
    // And it is at least the largest single parameter (the embedding).
    let wte_bytes = 32 * 16 * 4;
    assert!(peak >= wte_bytes, "peak {peak} below largest parameter {wte_bytes}");
    engine.dispose().unwrap();
}

/// Device-placement sanity across the whole Table 2 ladder: slower tiers
/// only gain bytes as the strategy moves down the table.
#[test]
fn table2_ladder_shifts_bytes_downward() {
    let world = 2;
    let mut prev_gpu = u64::MAX;
    for strategy in [
        Strategy::data_parallel(),
        Strategy::zero_2(),
        Strategy::zero_offload(),
        Strategy::infinity_cpu(),
        Strategy::infinity_nvme(),
    ] {
        let (gpu, cpu, nvme, _) = measure(strategy, world);
        assert!(
            gpu <= prev_gpu,
            "{}: gpu bytes should not grow down the ladder ({gpu} > {prev_gpu})",
            strategy.name
        );
        prev_gpu = gpu;
        match strategy.placement.optimizer {
            DeviceKind::Gpu => assert_eq!(cpu + nvme, 0, "{}", strategy.name),
            DeviceKind::Cpu => assert!(cpu > 0, "{}", strategy.name),
            DeviceKind::Nvme => assert!(nvme > 0, "{}", strategy.name),
        }
    }
}
