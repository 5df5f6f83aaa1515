//! Integration: tensor slicing through the public API.
//!
//! The paper's baseline (3D parallelism) combines tensor slicing,
//! pipeline stages and data parallelism; ZeRO-Infinity removes the need
//! for pipeline stages and model refactoring, and at its largest scales
//! composes with tensor slicing inside a node (the `mp` column of
//! Table 1). This suite runs the `mp × dp` grid through `train_gpt`
//! (`TrainSpec::mp`) against the dense single-process reference: the same
//! model, same data and same trajectory, however the computation is
//! sliced. Slicing changes the order of the sums inside a block, so a
//! sliced run equals the dense one within 1e-4, not bit for bit; the
//! trainer's own axes (activation checkpointing and its offload, the
//! prefetch window) leave a sliced run's bits unchanged. The 3D baseline's
//! throughput and capacity are modelled in `zi-sim` (`repro fig1`,
//! `repro fig5a`), not trained here.

use zero_infinity_suite::model::GptConfig;
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::types::Error;
use zero_infinity_suite::zero::trainer::train_dense_baseline;
use zero_infinity_suite::zero::{train_gpt, Strategy, TrainSpec};

fn cfg() -> GptConfig {
    GptConfig { vocab: 24, hidden: 16, layers: 4, heads: 4, seq: 6, seed: 55 }
}

fn adam() -> AdamConfig {
    AdamConfig { lr: 0.015, ..Default::default() }
}

/// `steps` steps of `model` sliced `mp` ways on `dp` data-parallel ranks
/// of micro-batch `micro_batch`.
fn grid(model: GptConfig, strategy: Strategy, mp: usize, dp: usize, micro_batch: usize, steps: usize) -> TrainSpec {
    TrainSpec { mp, micro_batch, steps, adam: adam(), ..TrainSpec::test_default(model, strategy, dp) }
}

fn assert_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (step, (a, b)) in got.iter().zip(want).enumerate() {
        assert!((a - b).abs() < 1e-4, "{what} diverged at step {step}: {got:?} vs {want:?}");
    }
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
    let strategy = Strategy::infinity_nvme().with_f32_params();
    let sliced = train_gpt(&grid(cfg(), strategy, 4, 1, 1, steps)).unwrap();
    assert_close(&sliced.losses, &flat, "tensor slicing");
}

/// A grid with a zero degree has no ranks to train on: it is rejected
/// as a typed error before any node or group is built, not a panic.
#[test]
fn zero_degree_grid_is_rejected() {
    for (mp, dp) in [(0, 1), (1, 0), (0, 0)] {
        let spec = grid(cfg(), Strategy::infinity_nvme(), mp, dp, 1, 1);
        assert!(
            matches!(train_gpt(&spec), Err(Error::InvalidArgument(_))),
            "mp {mp} x dp {dp} was not rejected"
        );
    }
}

/// A model no rank could build or feed — one its heads or hidden size
/// cannot be sliced over — or an empty micro-batch, is rejected as a
/// typed error before any node or rank thread is built, not a rank panic.
#[test]
fn degenerate_2d_model_is_rejected() {
    let empty_vocab = GptConfig { vocab: 0, ..cfg() };
    let empty_seq = GptConfig { seq: 0, ..cfg() };
    let cases = [
        (empty_vocab, 2, 1),
        (empty_seq, 2, 1),
        (cfg(), 2, 0),
        // 4 heads over 8 slices; hidden 16 over 3.
        (cfg(), 8, 1),
        (cfg(), 3, 1),
    ];
    for (model, mp, micro_batch) in cases {
        let spec = grid(model, Strategy::infinity_nvme(), mp, 1, micro_batch, 1);
        assert!(
            matches!(train_gpt(&spec), Err(Error::InvalidArgument(_))),
            "{model:?} at mp {mp}, micro-batch {micro_batch} was not rejected"
        );
    }
}

/// The 2-D mp x dp grid with fp16 NVMe offload still converges.
#[test]
fn two_d_grid_with_fp16_offload_learns() {
    let losses = train_gpt(&grid(cfg(), Strategy::infinity_nvme(), 2, 2, 2, 8)).unwrap().losses;
    assert!(losses.last().unwrap() < &losses[0], "{losses:?}");
}

/// The trainer's axes at mp = 2: data-parallel degree 1/2 × {no
/// activation checkpointing, checkpointing, checkpoints offloaded to CPU}
/// × prefetch window 0/2 × gradient accumulation 1/2. Each cell trains
/// bit for bit as the plain mp = 2 run at its degree and accumulation,
/// and within 1e-4 of the unsliced reference: the dense baseline, or at
/// accumulation 2 (whose micro-batches no single dense batch consumes)
/// the mp = 1 run.
#[test]
fn every_trainer_axis_leaves_a_sliced_run_bit_identical() {
    let model = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 10_001 };
    let strategy = Strategy::infinity_nvme().with_f32_params();
    let steps = 3;
    for dp in [1, 2] {
        for accumulation in [1, 2] {
            let plain = TrainSpec { grad_accumulation: accumulation, ..grid(model, strategy, 2, dp, 1, steps) };
            let reference = train_gpt(&plain).unwrap().losses;
            let unsliced = if accumulation == 1 {
                train_dense_baseline(&model, dp, steps, adam(), false).unwrap().0
            } else {
                train_gpt(&TrainSpec { mp: 1, ..plain }).unwrap().losses
            };
            assert_close(&reference, &unsliced, &format!("dp {dp}, accumulation {accumulation}"));
            for (checkpointing, offload) in [(false, false), (true, false), (true, true)] {
                for prefetch_window in [0, 2] {
                    let cell = TrainSpec {
                        activation_checkpointing: checkpointing,
                        offload_activations: offload,
                        prefetch_window,
                        ..plain
                    };
                    let got = train_gpt(&cell).unwrap().losses;
                    let what = format!(
                        "dp {dp}, accumulation {accumulation}, checkpointing {checkpointing}, \
                         offload {offload}, prefetch {prefetch_window}"
                    );
                    let bits = |l: &[f32]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&reference), "{what}");
                    assert_close(&got, &unsliced, &what);
                }
            }
        }
    }
}
