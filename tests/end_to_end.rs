//! End-to-end integration: real file-backed NVMe, multi-rank training,
//! fp16 storage, checkpointing and prefetch all engaged at once.

use zi_sync::Arc;

use zero_infinity_suite::model::{GptConfig, GptModel, RunOptions};
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::zero::trainer::synthetic_batch;
use zero_infinity_suite::zero::{NodeEnv, NodeResources, Strategy, ZeroEngine};
use zi_memory::NodeMemorySpec;
use zi_types::Device;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("zi_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The kitchen-sink run: 4 ranks, NVMe on a real file, fp16 parameter
/// storage, activation checkpointing, prefetching — loss must fall and
/// no pool may leak. The gradients fill the CPU pool, so the shard cache
/// gives its room up and parameter fetches read the file.
#[test]
fn full_stack_training_on_file_backed_nvme() {
    let cfg = GptConfig { vocab: 32, hidden: 16, layers: 3, heads: 4, seq: 8, seed: 5 };
    let world = 4;
    let grads: usize =
        GptModel::new(cfg).registry().iter().map(|p| 4 * p.numel().div_ceil(world) * world).sum();
    let spec = NodeMemorySpec::test_spec(world, 1 << 24, grads as u64, 1 << 27);
    let dir = temp_dir("full");
    let device = zi_nvme::FileBackend::create(&dir.join("nvme.dev")).expect("nvme file");
    let node = Arc::new(NodeResources::new(&spec, world, NodeEnv::new(Arc::new(device))));

    let mut handles = Vec::new();
    for rank in 0..world {
        let node = Arc::clone(&node);
        handles.push(zi_sync::thread::spawn(move || {
            let model = GptModel::new(cfg);
            let mut engine = ZeroEngine::new(
                model.registry(),
                Strategy::infinity_nvme(),
                node.offload_manager(),
                node.group.communicator(rank),
                AdamConfig { lr: 0.01, ..Default::default() },
            )
            .expect("engine");
            let opts =
                RunOptions { batch: 2, activation_checkpointing: true, prefetch_window: 2 };
            let rows = 2 * cfg.seq;
            let mut losses = Vec::new();
            for step in 0..10usize {
                let (tokens, targets) = synthetic_batch(&cfg, 2 * world, step);
                let lo = rank * rows;
                let loss = model
                    .train_step(
                        &mut engine,
                        &tokens[lo..lo + rows],
                        &targets[lo..lo + rows],
                        &opts,
                    )
                    .expect("train step");
                assert!(engine.step().expect("optimizer step"), "no overflow expected");
                losses.push(node.group.communicator(rank).sum_scalar(loss).unwrap() / world as f32);
            }
            let stats = engine.stats();
            engine.dispose().expect("dispose");
            (losses, stats)
        }));
    }
    let mut rank0 = None;
    for (rank, h) in handles.into_iter().enumerate() {
        let out = h.join().expect("rank thread");
        if rank == 0 {
            rank0 = Some(out);
        }
    }
    let (losses, stats) = rank0.unwrap();
    assert!(
        losses.last().unwrap() < &losses[0],
        "loss should fall: {losses:?}"
    );
    assert!(stats.allgathers > 0);
    assert!(stats.prefetch.hits > 0, "prefetching should engage: {:?}", stats.prefetch);
    assert_eq!(stats.steps, 10);

    // Nothing leaked on any tier after dispose.
    for rank in 0..world {
        assert_eq!(node.hierarchy.stats(Device::gpu(rank)).in_use, 0, "gpu {rank} leak");
    }
    assert_eq!(node.hierarchy.stats(Device::cpu()).in_use, 0, "cpu leak");
    assert_eq!(node.hierarchy.stats(Device::nvme()).in_use, 0, "nvme leak");
    // The NVMe device really moved bytes.
    let io = node.nvme.stats();
    assert!(io.bytes_written > 0 && io.bytes_read > 0, "NVMe idle: {io:?}");
    assert_eq!(io.errors, 0);

    drop(node);
    std::fs::remove_dir_all(&dir).ok();
}

/// The GPU pools must stay small under NVMe offload: peak GPU usage
/// bounded by working memory, far below total model-state bytes.
#[test]
fn gpu_working_memory_stays_bounded() {
    let cfg = GptConfig { vocab: 32, hidden: 32, layers: 4, heads: 4, seq: 8, seed: 6 };
    let world = 2;
    let spec = NodeMemorySpec::test_spec(world, 1 << 22, 1 << 26, 1 << 27);
    let node = Arc::new(NodeResources::in_memory(&spec, world));
    let model_states_bytes = {
        let m = GptModel::new(cfg);
        m.registry().total_numel() * 20
    };

    let mut handles = Vec::new();
    for rank in 0..world {
        let node = Arc::clone(&node);
        handles.push(zi_sync::thread::spawn(move || {
            let model = GptModel::new(cfg);
            let mut engine = ZeroEngine::new(
                model.registry(),
                Strategy::infinity_nvme(),
                node.offload_manager(),
                node.group.communicator(rank),
                AdamConfig::default(),
            )
            .expect("engine");
            let opts = RunOptions { batch: 1, ..Default::default() };
            let rows = cfg.seq;
            let (tokens, targets) = synthetic_batch(&cfg, world, 0);
            let lo = rank * rows;
            model
                .train_step(&mut engine, &tokens[lo..lo + rows], &targets[lo..lo + rows], &opts)
                .expect("train step");
            engine.step().expect("step");
            engine.dispose().expect("dispose");
        }));
    }
    for h in handles {
        h.join().expect("rank");
    }
    for rank in 0..world {
        let peak = node.hierarchy.stats(Device::gpu(rank)).peak_in_use as usize;
        assert!(
            peak * 4 < model_states_bytes,
            "GPU peak {peak} B not small vs {model_states_bytes} B of model states"
        );
    }
}

/// Injected NVMe read failures that outlast the retry budget surface as
/// typed errors, not hangs or silent corruption.
#[test]
fn nvme_failures_propagate_cleanly() {
    use zi_nvme::{FaultPlan, FaultyBackend, MemBackend, RetryPolicy, StorageBackend};

    let cfg = GptConfig::tiny();
    let model = GptModel::new(cfg);
    // The gradients fill the CPU pool, so the shard cache gives its room
    // up at the first backward and parameter fetches read the device.
    let grads: usize = model.registry().iter().map(|p| 4 * p.numel()).sum();
    let spec = NodeMemorySpec::test_spec(1, 1 << 24, grads as u64, 1 << 26);
    let plan = FaultPlan::new();
    let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: std::time::Duration::from_micros(100),
        max_backoff: std::time::Duration::from_millis(1),
        ..RetryPolicy::default()
    };
    let backend = backend as Arc<dyn StorageBackend>;
    let node = NodeResources::new(&spec, 1, NodeEnv { policy, ..NodeEnv::new(backend) });

    // Engine construction writes initial shards to NVMe; inject failure
    // after construction, during gradient/optimizer traffic.
    let mut engine = ZeroEngine::new(
        model.registry(),
        Strategy::infinity_nvme(),
        node.offload_manager(),
        node.group.communicator(0),
        AdamConfig::default(),
    )
    .expect("engine");

    // More consecutive failures than the retry budget can absorb.
    plan.fail_next_reads(u32::MAX);
    let opts = RunOptions::default();
    let (tokens, targets) = synthetic_batch(&cfg, 1, 0);
    let result = model.train_step(&mut engine, &tokens, &targets, &opts);
    assert!(result.is_err(), "read failures must surface");
    assert!(plan.injected().read_faults > 0, "faults really were injected");
    // The optimizer step's record reads surface the failed device too.
    assert!(engine.step().is_err(), "optimizer read failures must surface");
}
