//! Tour of every Table 2 device-placement strategy.
//!
//! Trains the same model with the same data under classic data
//! parallelism, ZeRO-1/2/3, ZeRO-Offload, ZeRO-Infinity (CPU) and
//! ZeRO-Infinity (NVMe), and shows that — with fp32 parameter storage —
//! every strategy reproduces the dense single-process baseline exactly,
//! while placing model states on progressively slower, larger tiers.
//!
//! Run with: `cargo run --release --example strategy_tour`

use zero_infinity_suite::model::GptConfig;
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::zero::trainer::train_dense_baseline;
use zero_infinity_suite::zero::{train_gpt, Strategy, TrainSpec};
use zi_memory::NodeMemorySpec;

fn main() {
    let model = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 7 };
    let adam = AdamConfig { lr: 0.01, ..Default::default() };
    let world = 2;
    let micro = 2;
    let steps = 5;

    let (baseline, _) =
        train_dense_baseline(&model, world * micro, steps, adam, false).expect("baseline");
    println!("dense baseline losses: {baseline:?}");
    println!();
    println!(
        "{:<16} {:>10} {:>10} {:>14}  placement (P/G/O)",
        "strategy", "first", "last", "max |Δ loss|"
    );

    for strategy in Strategy::table2() {
        let spec = TrainSpec {
            model,
            strategy: strategy.with_f32_params(),
            world,
            mp: 1,
            micro_batch: micro,
            steps,
            adam,
            grad_accumulation: 1,
            schedule: None,
            node: NodeMemorySpec::test_spec(world, 1 << 24, 1 << 26, 1 << 26),
            activation_checkpointing: false,
            offload_activations: false,
            prefetch_window: 2,
            checkpoint_every: 0,
            max_recoveries: 0,
            collective_deadline: std::time::Duration::from_secs(30),
        };
        let out = train_gpt(&spec).expect("strategy run");
        let max_d = out
            .losses
            .iter()
            .zip(&baseline)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!(
            "{:<16} {:>10.4} {:>10.4} {:>14.2e}  {}/{}/{}",
            strategy.name,
            out.losses[0],
            out.losses.last().unwrap(),
            max_d,
            strategy.placement.params,
            strategy.placement.grads,
            strategy.placement.optimizer,
        );
        assert!(max_d < 1e-4, "{} diverged from the baseline", strategy.name);
    }
    println!();
    println!("All seven strategies reproduce the dense baseline bit-for-bit (fp32 storage).");
}
