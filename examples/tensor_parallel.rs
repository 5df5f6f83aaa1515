//! ZeRO-Infinity × tensor slicing: the 2-D parallel grid of Table 1.
//!
//! Four rank threads form a 2x2 grid: two tensor-parallel groups (each
//! holding half the attention heads and FFN channels of every layer) and
//! two data-parallel groups (each ZeRO-partitioning its slice and
//! offloading it to NVMe). The run is compared against a flat mp=1
//! configuration: both follow the same loss trajectory. Not bit for bit:
//! a sliced block sums its partial results in another order than the
//! unsliced one, so the losses differ in their last bits.
//!
//! Run with: `cargo run --release --example tensor_parallel`

use zero_infinity_suite::model::GptConfig;
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::zero::{train_gpt, Strategy, TrainSpec};

fn main() {
    let model = GptConfig { vocab: 32, hidden: 16, layers: 2, heads: 4, seq: 8, seed: 5 };
    let base = TrainSpec {
        mp: 2,
        micro_batch: 2,
        steps: 6,
        adam: AdamConfig { lr: 0.01, ..Default::default() },
        ..TrainSpec::test_default(model, Strategy::infinity_nvme().with_f32_params(), 2)
    };

    println!("2-D grid: mp=2 (tensor slicing) x dp=2 (ZeRO-Infinity NVMe), 4 rank threads");
    let sliced = train_gpt(&base).expect("2-D training").losses;
    let flat = train_gpt(&TrainSpec { mp: 1, ..base }).expect("flat training").losses;

    println!();
    println!("{:>5} {:>14} {:>14} {:>12}", "step", "mp=2 x dp=2", "mp=1 x dp=2", "|Δ|");
    assert_eq!(sliced.len(), flat.len(), "both runs train every step");
    for (i, (a, b)) in sliced.iter().zip(&flat).enumerate() {
        println!("{i:>5} {a:>14.6} {b:>14.6} {:>12.2e}", (a - b).abs());
        assert!((a - b).abs() < 1e-3, "slicing changed the trajectory");
    }
    println!();
    println!(
        "Tensor slicing follows the unsliced trajectory to reduction-order noise: \
         each rank held only half of every layer, ZeRO-partitioned across its \
         data-parallel group, on NVMe."
    );
}
