//! Integration: tensor slicing through the public API.
//!
//! The paper's baseline (3D parallelism) combines tensor slicing,
//! pipeline stages and data parallelism; ZeRO-Infinity removes the need
//! for pipeline stages and model refactoring, and at its largest scales
//! composes with tensor slicing inside a node (the `mp` column of
//! Table 1). This suite checks the 2-D `mp x dp` trainer against the
//! dense single-process reference: the same model, same data, same
//! trajectory, regardless of how the computation is sliced. The 3D
//! baseline's throughput and capacity are modelled in `zi-sim`
//! (`repro fig1`, `repro fig5a`), not trained here.

use zero_infinity_suite::model::GptConfig;
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::types::Error;
use zero_infinity_suite::zero::trainer::train_dense_baseline;
use zero_infinity_suite::zero::{train_gpt_2d, Spec2D, Strategy};

fn cfg() -> GptConfig {
    GptConfig { vocab: 24, hidden: 16, layers: 4, heads: 4, seq: 6, seed: 55 }
}

fn adam() -> AdamConfig {
    AdamConfig { lr: 0.015, ..Default::default() }
}

/// Tensor slicing vs the dense reference: under batch-1 single-group
/// data parallelism the sliced run must produce the dense run's losses,
/// because it carves the *same* computation differently.
#[test]
fn all_axes_agree_on_the_same_computation() {
    let steps = 3;

    // Flat: the dense single-process reference.
    let (flat, _) = train_dense_baseline(&cfg(), 1, steps, adam(), false).unwrap();

    // Tensor slicing: mp=4 (+ ZeRO-Infinity NVMe offload underneath).
    let sliced = train_gpt_2d(&Spec2D {
        model: cfg(),
        strategy: Strategy::infinity_nvme().with_f32_params(),
        mp: 4,
        dp: 1,
        micro_batch: 1,
        steps,
        adam: adam(),
    })
    .unwrap();

    assert_eq!(sliced.len(), flat.len());
    for (step, (a, b)) in flat.iter().zip(&sliced).enumerate() {
        assert!(
            (a - b).abs() < 1e-4,
            "tensor slicing diverged at step {step}: {flat:?} vs {sliced:?}"
        );
    }
}

/// A grid with a zero degree has no ranks to train on: it is rejected
/// as a typed error before any node or group is built, not a panic.
#[test]
fn zero_degree_grid_is_rejected() {
    for (mp, dp) in [(0, 1), (1, 0), (0, 0)] {
        let spec = Spec2D {
            model: cfg(),
            strategy: Strategy::infinity_nvme(),
            mp,
            dp,
            micro_batch: 1,
            steps: 1,
            adam: adam(),
        };
        assert!(
            matches!(train_gpt_2d(&spec), Err(Error::InvalidArgument(_))),
            "mp {mp} x dp {dp} was not rejected"
        );
    }
}

/// A model no rank could build or feed, or an empty micro-batch, is
/// rejected as a typed error before any node or rank thread is built,
/// not a rank panic.
#[test]
fn degenerate_2d_model_is_rejected() {
    let empty_vocab = GptConfig { vocab: 0, ..cfg() };
    let empty_seq = GptConfig { seq: 0, ..cfg() };
    for (model, micro_batch) in [(empty_vocab, 1), (empty_seq, 1), (cfg(), 0)] {
        let spec = Spec2D {
            model,
            strategy: Strategy::infinity_nvme(),
            mp: 2,
            dp: 1,
            micro_batch,
            steps: 1,
            adam: adam(),
        };
        assert!(
            matches!(train_gpt_2d(&spec), Err(Error::InvalidArgument(_))),
            "{model:?} at micro-batch {micro_batch} was not rejected"
        );
    }
}

/// The 2-D mp x dp grid with fp16 NVMe offload still converges.
#[test]
fn two_d_grid_with_fp16_offload_learns() {
    let losses = train_gpt_2d(&Spec2D {
        model: cfg(),
        strategy: Strategy::infinity_nvme(),
        mp: 2,
        dp: 2,
        micro_batch: 2,
        steps: 8,
        adam: adam(),
    })
    .unwrap();
    assert!(losses.last().unwrap() < &losses[0], "{losses:?}");
}
