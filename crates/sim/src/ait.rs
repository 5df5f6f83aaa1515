//! Arithmetic intensity of DL training (paper Sec. 4.1, Eq. 9–11).
//!
//! AIT = total computation / data movement, per state class. The paper
//! derives closed forms; the tests check them against first-principles
//! ratios.

/// AIT with respect to parameters and gradients, Eq. (9): `seq * bsz`.
///
/// Derivation: 4x parameter movement (2 loads + ckpt reload + 1 gradient
/// store) of 2-byte elements against `8 * bsz * seq * params` flops.
pub fn ait_params_grads(seq: u64, batch: u64) -> f64 {
    (seq * batch) as f64
}

/// AIT with respect to optimizer states, Eq. (10): `seq * bsz / 4`.
///
/// Optimizer states are ~16 bytes/param read and written once each.
pub fn ait_optimizer_states(seq: u64, batch: u64) -> f64 {
    (seq * batch) as f64 / 4.0
}

/// AIT with respect to activation checkpoints, Eq. (11): `24 * hd * ci`.
pub fn ait_activation_checkpoints(hidden: u64, ckpt_interval: u64) -> f64 {
    (24 * hidden * ckpt_interval) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{TrainingShape, GRAD_BYTES, OPTIM_BYTES, PARAM_BYTES};

    /// First-principles AIT for parameters/gradients: flops over the bytes
    /// moved for parameters (3 loads with checkpointing) and gradients
    /// (1 store), all fp16.
    fn ait_params_grads_from_shape(t: &TrainingShape) -> f64 {
        let bytes = ((3 * PARAM_BYTES + GRAD_BYTES) * t.model.params()) as f64;
        t.flops_per_iter() / bytes
    }

    /// First-principles AIT for optimizer states: flops over one read + one
    /// write of ~16 bytes per parameter.
    fn ait_optimizer_from_shape(t: &TrainingShape) -> f64 {
        let bytes = (2 * OPTIM_BYTES * t.model.params()) as f64;
        t.flops_per_iter() / bytes
    }

    /// First-principles AIT for activation checkpoints: flops over one
    /// store + one load of the checkpoint bytes (Eq. 3).
    fn ait_activations_from_shape(t: &TrainingShape) -> f64 {
        t.flops_per_iter() / (2.0 * t.activation_checkpoint_bytes())
    }
    use crate::memory::ModelShape;

    fn shape(hidden: u64, batch: u64, seq: u64, ci: u64) -> TrainingShape {
        TrainingShape {
            model: ModelShape { layers: 50, hidden, attn_heads: 16 },
            batch: batch as f64,
            seq,
            ckpt_interval: ci,
        }
    }

    #[test]
    fn closed_forms_match_first_principles() {
        for (hd, bsz, seq, ci) in [(2048u64, 2u64, 1024u64, 1u64), (8192, 16, 1024, 2)] {
            let t = shape(hd, bsz, seq, ci);
            let a1 = ait_params_grads(seq, bsz);
            let a1_fp = ait_params_grads_from_shape(&t);
            assert!((a1 - a1_fp).abs() / a1 < 1e-9, "params: {a1} vs {a1_fp}");

            let a2 = ait_optimizer_states(seq, bsz);
            let a2_fp = ait_optimizer_from_shape(&t);
            assert!((a2 - a2_fp).abs() / a2 < 1e-9, "optim: {a2} vs {a2_fp}");

            let a3 = ait_activation_checkpoints(hd, ci);
            let a3_fp = ait_activations_from_shape(&t);
            assert!((a3 - a3_fp).abs() / a3 < 1e-9, "act: {a3} vs {a3_fp}");
        }
    }

    #[test]
    fn optimizer_needs_4x_bandwidth_of_params() {
        // Paper: "optimizer states require nearly 4x higher bandwidth".
        let r = ait_params_grads(1024, 2) / ait_optimizer_states(1024, 2);
        assert_eq!(r, 4.0);
    }

    #[test]
    fn activation_ait_is_independent_of_batch() {
        let t1 = shape(4096, 1, 1024, 1);
        let t2 = shape(4096, 16, 1024, 1);
        let a1 = ait_activations_from_shape(&t1);
        let a2 = ait_activations_from_shape(&t2);
        assert!((a1 - a2).abs() / a1 < 1e-9);
    }

    #[test]
    fn ait_scales_linearly() {
        assert_eq!(ait_params_grads(1024, 4), 2.0 * ait_params_grads(1024, 2));
        assert_eq!(ait_activation_checkpoints(16384, 1), 2.0 * ait_activation_checkpoints(8192, 1));
    }
}
