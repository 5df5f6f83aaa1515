//! Quickstart: train a tiny GPT with ZeRO-Infinity NVMe offload.
//!
//! Spawns 4 data-parallel ranks (threads), partitions every parameter
//! across them, keeps parameter and optimizer state on a simulated NVMe
//! device, and trains a next-token task for 20 steps.
//!
//! Run with: `cargo run --release --example quickstart`

use zero_infinity_suite::model::GptConfig;
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::zero::{train_gpt, Strategy, TrainSpec};
use zi_memory::NodeMemorySpec;

fn main() {
    let model = GptConfig {
        vocab: 32,
        hidden: 16,
        layers: 2,
        heads: 4,
        seq: 8,
        seed: 42,
    };

    let spec = TrainSpec {
        model,
        strategy: Strategy::infinity_nvme(),
        world: 4,
        mp: 1,
        micro_batch: 2,
        steps: 20,
        adam: AdamConfig { lr: 0.01, ..Default::default() },
        grad_accumulation: 1,
        schedule: None,
        node: NodeMemorySpec::test_spec(4, 1 << 24, 1 << 26, 1 << 26),
        activation_checkpointing: true,
        offload_activations: false,
        prefetch_window: 2,
        checkpoint_every: 0,
        max_recoveries: 0,
        collective_deadline: std::time::Duration::from_secs(30),
    };

    println!("training a {}-parameter GPT with {}", param_count(&model), spec.strategy.name);
    let out = train_gpt(&spec).expect("training should succeed");

    for (step, loss) in out.losses.iter().enumerate() {
        println!("step {step:>2}: loss {loss:.4}");
    }
    let first = out.losses[0];
    let last = *out.losses.last().unwrap();
    println!();
    println!("loss {first:.4} -> {last:.4} ({} steps)", out.losses.len());
    println!(
        "engine activity: {} allgathers, {} grad reductions, {} optimizer chunks, \
         prefetch hits {} / misses {}",
        out.stats.allgathers,
        out.stats.grad_reductions,
        out.stats.optimizer_chunks,
        out.stats.prefetch.hits,
        out.stats.prefetch.misses,
    );
    assert!(last < first, "loss should decrease");
    println!("OK: ZeRO-Infinity trained with params and optimizer state on NVMe.");
}

fn param_count(cfg: &GptConfig) -> usize {
    zero_infinity_suite::model::GptModel::new(*cfg).registry().total_numel()
}
