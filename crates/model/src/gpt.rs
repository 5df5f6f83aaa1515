//! GPT-like model: registry construction, module plan, and the training
//! runner that brackets every module with `ParamStore` calls.
//!
//! The runner is the reproduction of the paper's hook injection (Sec. 7.1):
//! before a module executes, its parameters are requested from the store
//! (pre-forward hook → allgather in ZeRO-3); after it executes they are
//! released (post-forward hook → re-partition/offload); gradients are
//! deposited as they are produced in the backward pass (→ reduce-scatter +
//! offload). `hint_upcoming` announces the future module sequence, which is
//! what the dynamic prefetcher of Sec. 6.2 consumes.

use zi_tensor::ops;
use zi_tensor::Tensor;
use zi_types::{Error, Result};

use crate::layers::{
    block_backward, block_forward, embedding_backward, embedding_forward, lm_head_backward,
    lm_head_forward, BlockConfig, BlockParams, BlockSaved,
};
use crate::param::{ModulePlan, ParamId, ParamRegistry, ParamStore};

/// Model architecture hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GptConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Hidden dimension (`hd`).
    pub hidden: usize,
    /// Number of transformer blocks (`nl`).
    pub layers: usize,
    /// Attention heads.
    pub heads: usize,
    /// Sequence length.
    pub seq: usize,
    /// Global initialization seed.
    pub seed: u64,
}

impl GptConfig {
    /// A tiny configuration suitable for unit tests.
    pub fn tiny() -> Self {
        GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 1234 }
    }

    /// Approximate parameter count `12 * nl * hd^2` (paper Eq. 1) — for
    /// checks against the analytic model; the exact count adds embeddings,
    /// biases and layer norms.
    pub fn paper_param_estimate(&self) -> usize {
        12 * self.layers * self.hidden * self.hidden
    }
}

/// Runtime options for one training step.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Micro-batch size.
    pub batch: usize,
    /// Recompute block activations in the backward pass from checkpointed
    /// block inputs (Sec. 2, "Reducing Activation Memory").
    pub activation_checkpointing: bool,
    /// How many future modules to announce through
    /// [`ParamStore::hint_upcoming`].
    pub prefetch_window: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { batch: 1, activation_checkpointing: false, prefetch_window: 2 }
    }
}

/// Phases a module passes through during one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Before a module's forward (parameters being gathered).
    PreForward,
    /// After a module's forward (parameters released).
    PostForward,
    /// Before a module's backward.
    PreBackward,
    /// After a module's backward (grads deposited, parameters released).
    PostBackward,
}

/// Observer of module lifecycle events (used by tests and tracing).
pub trait RunObserver {
    /// Called at each module phase transition.
    fn module_event(&mut self, phase: Phase, module: &str);
}

/// Observer that ignores everything.
pub struct NoopObserver;

impl RunObserver for NoopObserver {
    fn module_event(&mut self, _phase: Phase, _module: &str) {}
}

/// Where checkpointed activations live between forward and backward.
///
/// The default keeps them in (GPU) process memory; the ZeRO-Infinity
/// engine provides a CPU-offloading implementation (paper Sec. 5.1.2):
/// checkpoints stream out over PCIe during forward and back in during
/// backward, freeing GPU memory for models whose checkpoints alone
/// exceed it.
pub trait ActivationStore {
    /// Persist a checkpointed activation under `key`.
    fn save(&mut self, key: usize, t: Tensor) -> Result<()>;
    /// Retrieve (and release) the activation saved under `key`.
    fn load(&mut self, key: usize) -> Result<Tensor>;
}

/// Default store: checkpoints stay in process memory.
#[derive(Default)]
pub struct InMemoryActStore {
    slots: std::collections::HashMap<usize, Tensor>,
}

impl InMemoryActStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ActivationStore for InMemoryActStore {
    fn save(&mut self, key: usize, t: Tensor) -> Result<()> {
        self.slots.insert(key, t);
        Ok(())
    }

    fn load(&mut self, key: usize) -> Result<Tensor> {
        self.slots
            .remove(&key)
            .ok_or_else(|| Error::Internal(format!("activation {key} not saved")))
    }
}

/// The model: parameter registry plus module plan.
pub struct GptModel {
    cfg: GptConfig,
    registry: ParamRegistry,
    wte: ParamId,
    wpe: ParamId,
    blocks: Vec<Vec<ParamId>>,
    lnf_g: ParamId,
    lnf_b: ParamId,
    plans: Vec<ModulePlan>,
}

impl GptModel {
    /// Build the registry and module plan for `cfg`.
    ///
    /// Construction registers metadata only — no parameter data is
    /// materialized here. Stores decide when and where tensors come to
    /// life, which is what makes init-time partitioning (Sec. 7.2)
    /// possible: the ZeRO engine initializes each rank's shard directly.
    pub fn new(cfg: GptConfig) -> Self {
        assert!(cfg.hidden.is_multiple_of(cfg.heads), "hidden must divide by heads");
        let mut reg = ParamRegistry::new();
        let h = cfg.hidden;
        let base = cfg.seed;
        let w_scale = 0.3 / (h as f32).sqrt();

        let wte = reg.register("wte", &[cfg.vocab, h], base, w_scale, 0.0);
        let wpe = reg.register("wpe", &[cfg.seq, h], base + 1, w_scale, 0.0);

        let mut blocks = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let s = base + 100 * (l as u64 + 1);
            let pre = format!("block{l}");
            let ids = vec![
                reg.register(format!("{pre}.ln1.gamma"), &[h], 0, 0.0, 1.0),
                reg.register(format!("{pre}.ln1.beta"), &[h], 0, 0.0, 0.0),
                reg.register(format!("{pre}.attn.qkv.weight"), &[3 * h, h], s, w_scale, 0.0),
                reg.register(format!("{pre}.attn.qkv.bias"), &[3 * h], 0, 0.0, 0.0),
                reg.register(format!("{pre}.attn.proj.weight"), &[h, h], s + 1, w_scale, 0.0),
                reg.register(format!("{pre}.attn.proj.bias"), &[h], 0, 0.0, 0.0),
                reg.register(format!("{pre}.ln2.gamma"), &[h], 0, 0.0, 1.0),
                reg.register(format!("{pre}.ln2.beta"), &[h], 0, 0.0, 0.0),
                reg.register(format!("{pre}.mlp.fc1.weight"), &[4 * h, h], s + 2, w_scale, 0.0),
                reg.register(format!("{pre}.mlp.fc1.bias"), &[4 * h], 0, 0.0, 0.0),
                reg.register(format!("{pre}.mlp.fc2.weight"), &[h, 4 * h], s + 3, w_scale, 0.0),
                reg.register(format!("{pre}.mlp.fc2.bias"), &[h], 0, 0.0, 0.0),
            ];
            blocks.push(ids);
        }
        let lnf_g = reg.register("ln_f.gamma", &[h], 0, 0.0, 1.0);
        let lnf_b = reg.register("ln_f.beta", &[h], 0, 0.0, 0.0);

        let mut plans = Vec::new();
        plans.push(ModulePlan {
            name: "embed".into(),
            own_params: vec![wte, wpe],
            external_params: vec![],
        });
        for (l, ids) in blocks.iter().enumerate() {
            plans.push(ModulePlan {
                name: format!("block{l}"),
                own_params: ids.clone(),
                external_params: vec![],
            });
        }
        plans.push(ModulePlan {
            name: "ln_f".into(),
            own_params: vec![lnf_g, lnf_b],
            external_params: vec![],
        });
        // The LM head owns no parameters: it reuses the embedding weight
        // across module boundaries — the canonical external parameter.
        plans.push(ModulePlan {
            name: "head".into(),
            own_params: vec![],
            external_params: vec![wte],
        });

        GptModel { cfg, registry: reg, wte, wpe, blocks, lnf_g, lnf_b, plans }
    }

    /// Architecture config.
    pub fn config(&self) -> &GptConfig {
        &self.cfg
    }

    /// Parameter registry.
    pub fn registry(&self) -> &ParamRegistry {
        &self.registry
    }

    /// Module execution plan, in forward order.
    pub fn plans(&self) -> &[ModulePlan] {
        &self.plans
    }

    fn block_cfg(&self, batch: usize) -> BlockConfig {
        BlockConfig { hidden: self.cfg.hidden, heads: self.cfg.heads, batch, seq: self.cfg.seq }
    }

    fn hint(&self, store: &mut dyn ParamStore, from_module: usize, window: usize, forward: bool) {
        if window == 0 {
            return;
        }
        let mut ids = Vec::new();
        if forward {
            for plan in self.plans.iter().skip(from_module + 1).take(window) {
                ids.extend(plan.all_params());
            }
        } else {
            let mut m = from_module;
            for _ in 0..window {
                if m == 0 {
                    break;
                }
                m -= 1;
                ids.extend(self.plans[m].all_params());
            }
        }
        if !ids.is_empty() {
            store.hint_upcoming(&ids);
        }
    }

    fn fetch_all(&self, store: &mut dyn ParamStore, ids: &[ParamId]) -> Result<Vec<Tensor>> {
        ids.iter().map(|&id| store.get(id)).collect()
    }

    fn release_all(&self, store: &mut dyn ParamStore, ids: &[ParamId]) -> Result<()> {
        for &id in ids {
            store.release(id)?;
        }
        Ok(())
    }

    /// Forward-only pass returning the logits for every position
    /// (`[batch*seq, vocab]`). Uses the same fetch/release bracketing as
    /// training, so a ZeRO engine serves inference from partitioned and
    /// offloaded parameters without modification.
    pub fn forward_logits(
        &self,
        store: &mut dyn ParamStore,
        tokens: &[usize],
        batch: usize,
    ) -> Result<Tensor> {
        let bc = self.block_cfg(batch);
        if tokens.len() != bc.rows() {
            return Err(Error::shape(format!(
                "forward_logits: {} tokens for batch {batch} x seq {}",
                tokens.len(),
                self.cfg.seq
            )));
        }
        let embed_params = self.fetch_all(store, &[self.wte, self.wpe])?;
        let mut x = embedding_forward(&bc, &embed_params[0], &embed_params[1], tokens)?;
        drop(embed_params);
        self.release_all(store, &[self.wte, self.wpe])?;
        for l in 0..self.blocks.len() {
            let plan = &self.plans[1 + l];
            let p = BlockParams::from_vec(self.fetch_all(store, &plan.own_params)?);
            let (y, _) = block_forward(&bc, &p, &x)?;
            x = y;
            drop(p);
            self.release_all(store, &plan.own_params)?;
        }
        let lnf = self.fetch_all(store, &[self.lnf_g, self.lnf_b])?;
        let (h, _) = ops::layernorm(&x, lnf[0].data(), lnf[1].data(), 1e-5)?;
        drop(lnf);
        self.release_all(store, &[self.lnf_g, self.lnf_b])?;
        let wte = store.get(self.wte)?;
        let logits = lm_head_forward(&wte, &h)?;
        drop(wte);
        store.release(self.wte)?;
        Ok(logits)
    }

    /// Greedy next-token prediction for each position of a single
    /// sequence.
    pub fn predict_next(
        &self,
        store: &mut dyn ParamStore,
        tokens: &[usize],
    ) -> Result<Vec<usize>> {
        let logits = self.forward_logits(store, tokens, 1)?;
        let (rows, vocab) = logits.as_2d();
        Ok((0..rows)
            .map(|r| {
                let row = &logits.data()[r * vocab..(r + 1) * vocab];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .expect("non-empty vocab")
            })
            .collect())
    }

    /// Run one forward+backward pass, depositing gradients into `store`,
    /// and return the mean cross-entropy loss of this micro-batch.
    pub fn train_step(
        &self,
        store: &mut dyn ParamStore,
        tokens: &[usize],
        targets: &[usize],
        opts: &RunOptions,
    ) -> Result<f32> {
        self.train_step_observed(store, tokens, targets, opts, &mut NoopObserver)
    }

    /// [`GptModel::train_step`] with a lifecycle observer.
    pub fn train_step_observed(
        &self,
        store: &mut dyn ParamStore,
        tokens: &[usize],
        targets: &[usize],
        opts: &RunOptions,
        obs: &mut dyn RunObserver,
    ) -> Result<f32> {
        let mut acts = InMemoryActStore::new();
        self.train_step_full(store, &mut acts, tokens, targets, opts, obs)
    }

    /// Full-control variant: caller supplies the activation store (e.g.
    /// the CPU-offloading store of the ZeRO-Infinity engine) and the
    /// observer.
    pub fn train_step_full(
        &self,
        store: &mut dyn ParamStore,
        acts: &mut dyn ActivationStore,
        tokens: &[usize],
        targets: &[usize],
        opts: &RunOptions,
        obs: &mut dyn RunObserver,
    ) -> Result<f32> {
        let active = vec![true; self.blocks.len()];
        self.run_step(store, acts, tokens, targets, opts, obs, &active)
    }

    /// Dynamic-workflow variant: `active[l]` selects which blocks execute
    /// this iteration (stochastic depth / conditional computation).
    /// Skipped blocks are identity mappings — their parameters are never
    /// fetched and receive no gradients, so the operator sequence changes
    /// between iterations, exactly the situation the dynamic prefetcher's
    /// trace re-synchronization handles (paper Sec. 6.2).
    pub fn train_step_dynamic(
        &self,
        store: &mut dyn ParamStore,
        tokens: &[usize],
        targets: &[usize],
        opts: &RunOptions,
        active: &[bool],
    ) -> Result<f32> {
        if active.len() != self.blocks.len() {
            return Err(Error::shape(format!(
                "active mask of {} entries for {} blocks",
                active.len(),
                self.blocks.len()
            )));
        }
        let mut acts = InMemoryActStore::new();
        self.run_step(store, &mut acts, tokens, targets, opts, &mut NoopObserver, active)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_step(
        &self,
        store: &mut dyn ParamStore,
        acts: &mut dyn ActivationStore,
        tokens: &[usize],
        targets: &[usize],
        opts: &RunOptions,
        obs: &mut dyn RunObserver,
        active: &[bool],
    ) -> Result<f32> {
        let bc = self.block_cfg(opts.batch);
        if tokens.len() != bc.rows() || targets.len() != bc.rows() {
            return Err(Error::shape(format!(
                "train_step: {} tokens / {} targets for batch {} x seq {}",
                tokens.len(),
                targets.len(),
                opts.batch,
                self.cfg.seq
            )));
        }
        let nl = self.blocks.len();
        let embed_idx = 0usize;
        let lnf_idx = nl + 1;
        let head_idx = nl + 2;

        // ------------------------------------------------------- forward
        // Embedding.
        obs.module_event(Phase::PreForward, "embed");
        self.hint(store, embed_idx, opts.prefetch_window, true);
        let embed_params = self.fetch_all(store, &[self.wte, self.wpe])?;
        let mut x = embedding_forward(&bc, &embed_params[0], &embed_params[1], tokens)?;
        drop(embed_params);
        self.release_all(store, &[self.wte, self.wpe])?;
        obs.module_event(Phase::PostForward, "embed");

        // Blocks.
        enum BlockState {
            Full(Box<BlockSaved>),
            /// Input checkpointed into the activation store under the
            /// block's index.
            CkptKey(usize),
        }
        let mut states: Vec<Option<BlockState>> = Vec::with_capacity(nl);
        #[allow(clippy::needless_range_loop)] // l is the block index, not a mere position
        for l in 0..nl {
            if !active[l] {
                // Skipped block: identity, no fetch, nothing saved.
                states.push(None);
                continue;
            }
            let plan = &self.plans[1 + l];
            obs.module_event(Phase::PreForward, &plan.name);
            self.hint(store, 1 + l, opts.prefetch_window, true);
            let p = BlockParams::from_vec(self.fetch_all(store, &plan.own_params)?);
            let (y, saved) = block_forward(&bc, &p, &x)?;
            states.push(Some(if opts.activation_checkpointing {
                acts.save(l, x)?;
                BlockState::CkptKey(l)
            } else {
                BlockState::Full(Box::new(saved))
            }));
            x = y;
            // Handles go before the release, so the store holds the
            // only one and can recycle the gathered storage.
            drop(p);
            self.release_all(store, &plan.own_params)?;
            obs.module_event(Phase::PostForward, &plan.name);
        }

        // Final layer norm.
        obs.module_event(Phase::PreForward, "ln_f");
        self.hint(store, lnf_idx, opts.prefetch_window, true);
        let lnf_params = self.fetch_all(store, &[self.lnf_g, self.lnf_b])?;
        let lnf_input = x;
        let (hstates, lnf_stats) =
            ops::layernorm(&lnf_input, lnf_params[0].data(), lnf_params[1].data(), 1e-5)?;
        drop(lnf_params);
        self.release_all(store, &[self.lnf_g, self.lnf_b])?;
        obs.module_event(Phase::PostForward, "ln_f");

        // Tied LM head (external parameter, Sec. 7.1.1: wte). The head's
        // backward is the very next user of the model's largest
        // parameter, so it stays gathered from here to there instead of
        // being released and fetched again.
        obs.module_event(Phase::PreForward, "head");
        let wte = store.get(self.wte)?;
        let logits = lm_head_forward(&wte, &hstates)?;
        obs.module_event(Phase::PostForward, "head");

        let (loss, dlogits) = ops::cross_entropy(&logits, targets)?;

        // ------------------------------------------------------ backward
        // Head backward (gradient for the external/tied weight).
        obs.module_event(Phase::PreBackward, "head");
        self.hint(store, head_idx, opts.prefetch_window, false);
        let (dh, dwte_head) = lm_head_backward(&wte, &hstates, &dlogits)?;
        drop(wte);
        store.add_grad(self.wte, &dwte_head)?;
        store.release(self.wte)?;
        obs.module_event(Phase::PostBackward, "head");

        // Final layer norm backward.
        obs.module_event(Phase::PreBackward, "ln_f");
        self.hint(store, lnf_idx, opts.prefetch_window, false);
        let lnf_params = self.fetch_all(store, &[self.lnf_g, self.lnf_b])?;
        let (mut dx, dg, db) =
            ops::layernorm_backward(&lnf_input, &dh, lnf_params[0].data(), &lnf_stats)?;
        store.add_grad(self.lnf_g, &Tensor::from_vec(&[self.cfg.hidden], dg)?)?;
        store.add_grad(self.lnf_b, &Tensor::from_vec(&[self.cfg.hidden], db)?)?;
        drop(lnf_params);
        self.release_all(store, &[self.lnf_g, self.lnf_b])?;
        obs.module_event(Phase::PostBackward, "ln_f");

        // Blocks in reverse.
        for l in (0..nl).rev() {
            let Some(state) = states.pop().expect("one state slot per block") else {
                // Skipped block: gradient passes through unchanged.
                continue;
            };
            let plan = &self.plans[1 + l];
            obs.module_event(Phase::PreBackward, &plan.name);
            self.hint(store, 1 + l, opts.prefetch_window, false);
            let p = BlockParams::from_vec(self.fetch_all(store, &plan.own_params)?);
            let saved = match state {
                BlockState::Full(s) => *s,
                // Activation checkpointing: fetch the checkpointed input
                // back from the store (possibly CPU memory) and recompute
                // the block's forward to rebuild intermediate activations
                // (the 1/3 extra compute of Sec. 3).
                BlockState::CkptKey(key) => {
                    let xin = acts.load(key)?;
                    block_forward(&bc, &p, &xin)?.1
                }
            };
            let (dxi, grads) = block_backward(&bc, &p, &saved, &dx)?;
            drop(p);
            for (id, g) in plan.own_params.iter().zip(&grads) {
                store.add_grad(*id, g)?;
            }
            dx = dxi;
            self.release_all(store, &plan.own_params)?;
            obs.module_event(Phase::PostBackward, &plan.name);
        }

        // Embedding backward (second gradient deposit for the tied weight).
        obs.module_event(Phase::PreBackward, "embed");
        let (dwte, dwpe) = embedding_backward(&bc, self.cfg.vocab, tokens, &dx)?;
        store.add_grad(self.wte, &dwte)?;
        store.add_grad(self.wpe, &dwpe)?;
        obs.module_event(Phase::PostBackward, "embed");

        Ok(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::DenseStore;

    fn data_for(cfg: &GptConfig, batch: usize, step: u64) -> (Vec<usize>, Vec<usize>) {
        // Deterministic "shifted token" task: target is (token + 1) % vocab.
        let rows = batch * cfg.seq;
        let tokens: Vec<usize> =
            (0..rows).map(|i| ((i as u64 * 7 + step * 3 + 1) % cfg.vocab as u64) as usize).collect();
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        (tokens, targets)
    }

    #[test]
    fn registry_matches_paper_scaling() {
        let cfg = GptConfig { vocab: 50, hidden: 16, layers: 3, heads: 4, seq: 8, seed: 7 };
        let model = GptModel::new(cfg);
        let exact = model.registry().total_numel();
        let estimate = cfg.paper_param_estimate();
        // Eq. (1) undercounts (no embeddings/biases) but must be the bulk.
        assert!(exact > estimate);
        assert!((exact as f64) < estimate as f64 * 1.6);
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let mut store = DenseStore::new(model.registry());
        let opts = RunOptions { batch: 2, ..Default::default() };
        let (tokens, targets) = data_for(&cfg, 2, 0);
        let first = model.train_step(&mut store, &tokens, &targets, &opts).unwrap();
        store.sgd_step(0.3);
        store.zero_grads();
        let mut last = first;
        for _ in 0..40 {
            last = model.train_step(&mut store, &tokens, &targets, &opts).unwrap();
            store.sgd_step(0.3);
            store.zero_grads();
        }
        assert!(
            last < first * 0.5,
            "loss should halve on a memorization task: {first} -> {last}"
        );
    }

    #[test]
    fn checkpointing_is_numerically_identical() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let (tokens, targets) = data_for(&cfg, 2, 1);

        let mut s1 = DenseStore::new(model.registry());
        let mut s2 = DenseStore::new(model.registry());
        let base = RunOptions { batch: 2, activation_checkpointing: false, prefetch_window: 2 };
        let ckpt = RunOptions { activation_checkpointing: true, ..base };
        let l1 = model.train_step(&mut s1, &tokens, &targets, &base).unwrap();
        let l2 = model.train_step(&mut s2, &tokens, &targets, &ckpt).unwrap();
        assert_eq!(l1, l2, "checkpointing must not change the loss");
        for meta in model.registry().iter() {
            let g1 = s1.grad(meta.id).expect("grad 1");
            let g2 = s2.grad(meta.id).expect("grad 2");
            for (a, b) in g1.data().iter().zip(g2.data()) {
                assert!((a - b).abs() < 1e-5, "grad mismatch on {}", meta.name);
            }
        }
    }

    #[test]
    fn observer_sees_hook_order() {
        struct Recorder(Vec<(Phase, String)>);
        impl RunObserver for Recorder {
            fn module_event(&mut self, phase: Phase, module: &str) {
                self.0.push((phase, module.to_string()));
            }
        }
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let mut store = DenseStore::new(model.registry());
        let (tokens, targets) = data_for(&cfg, 1, 0);
        let mut rec = Recorder(Vec::new());
        model
            .train_step_observed(
                &mut store,
                &tokens,
                &targets,
                &RunOptions::default(),
                &mut rec,
            )
            .unwrap();
        let names: Vec<String> = rec
            .0
            .iter()
            .filter(|(p, _)| *p == Phase::PreForward)
            .map(|(_, n)| n.clone())
            .collect();
        assert_eq!(names, vec!["embed", "block0", "block1", "ln_f", "head"]);
        let back: Vec<String> = rec
            .0
            .iter()
            .filter(|(p, _)| *p == Phase::PreBackward)
            .map(|(_, n)| n.clone())
            .collect();
        assert_eq!(back, vec!["head", "ln_f", "block1", "block0", "embed"]);
    }

    #[test]
    fn hints_announce_future_modules() {
        /// Store wrapper that records every hint.
        struct HintRecorder {
            inner: DenseStore,
            hints: Vec<Vec<ParamId>>,
        }
        impl ParamStore for HintRecorder {
            fn get(&mut self, id: ParamId) -> Result<Tensor> {
                self.inner.get(id)
            }
            fn release(&mut self, id: ParamId) -> Result<()> {
                self.inner.release(id)
            }
            fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
                self.inner.add_grad(id, grad)
            }
            fn hint_upcoming(&mut self, ids: &[ParamId]) {
                self.hints.push(ids.to_vec());
            }
        }
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let mut store =
            HintRecorder { inner: DenseStore::new(model.registry()), hints: Vec::new() };
        let (tokens, targets) = data_for(&cfg, 1, 0);
        let opts = RunOptions { prefetch_window: 1, ..Default::default() };
        model.train_step(&mut store, &tokens, &targets, &opts).unwrap();
        // First hint (issued by embed) must be exactly block0's params.
        let block0: Vec<ParamId> = model.plans()[1].all_params();
        assert_eq!(store.hints[0], block0);
        // Hints were issued during backward too (more hints than modules).
        assert!(store.hints.len() > model.plans().len());
    }

    #[test]
    fn tied_weight_receives_both_gradients() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let wte = model.registry().find("wte").unwrap();
        let (tokens, targets) = data_for(&cfg, 1, 0);

        // Count add_grad calls per param.
        struct GradCounter {
            inner: DenseStore,
            wte: ParamId,
            wte_deposits: usize,
        }
        impl ParamStore for GradCounter {
            fn get(&mut self, id: ParamId) -> Result<Tensor> {
                self.inner.get(id)
            }
            fn release(&mut self, id: ParamId) -> Result<()> {
                self.inner.release(id)
            }
            fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
                if id == self.wte {
                    self.wte_deposits += 1;
                }
                self.inner.add_grad(id, grad)
            }
        }
        let mut store =
            GradCounter { inner: DenseStore::new(model.registry()), wte, wte_deposits: 0 };
        model.train_step(&mut store, &tokens, &targets, &RunOptions::default()).unwrap();
        assert_eq!(store.wte_deposits, 2, "head + embedding must both contribute");
    }

    #[test]
    fn tied_weight_is_fetched_twice_and_held_across_the_loss() {
        // The embedding fetches `wte` once; the head fetches it once more
        // and keeps it gathered from its forward through the loss to its
        // backward — not released and fetched a third time.
        struct FetchCounter {
            inner: DenseStore,
            wte: ParamId,
            gets: usize,
            held: usize,
            max_held: usize,
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
        }
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let wte = model.registry().find("wte").unwrap();
        let (tokens, targets) = data_for(&cfg, 2, 0);
        let opts = RunOptions { batch: 2, ..Default::default() };
        let mut store = FetchCounter {
            inner: DenseStore::new(model.registry()),
            wte,
            gets: 0,
            held: 0,
            max_held: 0,
        };
        let loss = model.train_step(&mut store, &tokens, &targets, &opts).unwrap();
        assert_eq!(store.gets, 2, "wte: one fetch for the embedding, one for the head");
        assert_eq!((store.held, store.max_held), (0, 1), "every fetch released, never nested");
        // The loss of this step before the head held on to `wte`.
        assert_eq!(loss.to_bits(), 0x4030_73b3, "holding a parameter must not change the math");
    }

    #[test]
    fn shape_validation() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let mut store = DenseStore::new(model.registry());
        let err = model.train_step(&mut store, &[0, 1], &[1, 2], &RunOptions::default());
        assert!(err.is_err());
    }
}

#[cfg(test)]
mod dynamic_tests {
    use super::*;
    use crate::param::DenseStore;

    fn data(cfg: &GptConfig, batch: usize) -> (Vec<usize>, Vec<usize>) {
        let rows = batch * cfg.seq;
        let tokens: Vec<usize> = (0..rows).map(|i| (i * 5 + 1) % cfg.vocab).collect();
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        (tokens, targets)
    }

    #[test]
    fn all_active_matches_plain_step() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let (tokens, targets) = data(&cfg, 2);
        let opts = RunOptions { batch: 2, ..Default::default() };

        let mut s1 = DenseStore::new(model.registry());
        let l1 = model.train_step(&mut s1, &tokens, &targets, &opts).unwrap();
        let mut s2 = DenseStore::new(model.registry());
        let l2 = model
            .train_step_dynamic(&mut s2, &tokens, &targets, &opts, &[true, true])
            .unwrap();
        assert_eq!(l1, l2);
        for meta in model.registry().iter() {
            assert_eq!(
                s1.grad(meta.id).map(|g| g.data().to_vec()),
                s2.grad(meta.id).map(|g| g.data().to_vec()),
                "{}",
                meta.name
            );
        }
    }

    #[test]
    fn skipped_blocks_get_no_gradients() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let (tokens, targets) = data(&cfg, 1);
        let opts = RunOptions::default();
        let mut store = DenseStore::new(model.registry());
        model
            .train_step_dynamic(&mut store, &tokens, &targets, &opts, &[false, true])
            .unwrap();
        for meta in model.registry().iter() {
            if meta.name.starts_with("block0") {
                assert!(store.grad(meta.id).is_none(), "{} should be skipped", meta.name);
            } else if meta.name.starts_with("block1") {
                assert!(store.grad(meta.id).is_some(), "{} should train", meta.name);
            }
        }
        // Embedding / head / final LN always train.
        assert!(store.grad(model.registry().find("wte").unwrap()).is_some());
        assert!(store.grad(model.registry().find("ln_f.gamma").unwrap()).is_some());
    }

    #[test]
    fn fully_skipped_model_still_trains_embeddings() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let (tokens, targets) = data(&cfg, 1);
        let opts = RunOptions::default();
        let mut store = DenseStore::new(model.registry());
        let loss = model
            .train_step_dynamic(&mut store, &tokens, &targets, &opts, &[false, false])
            .unwrap();
        assert!(loss.is_finite());
        assert!(store.grad(model.registry().find("wte").unwrap()).is_some());
    }

    #[test]
    fn mask_length_validated() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let (tokens, targets) = data(&cfg, 1);
        let mut store = DenseStore::new(model.registry());
        assert!(model
            .train_step_dynamic(&mut store, &tokens, &targets, &RunOptions::default(), &[true])
            .is_err());
    }
}

#[cfg(test)]
mod inference_tests {
    use super::*;
    use crate::param::DenseStore;

    #[test]
    fn trained_model_actually_learned_the_task() {
        // Train on "next token = token + 1", then check greedy predictions
        // recover the rule on held-out positions.
        let cfg = GptConfig { vocab: 8, hidden: 16, layers: 2, heads: 2, seq: 4, seed: 21 };
        let model = GptModel::new(cfg);
        let mut store = DenseStore::new(model.registry());
        let opts = RunOptions { batch: 4, ..Default::default() };
        for step in 0..150 {
            let rows = 4 * cfg.seq;
            let tokens: Vec<usize> =
                (0..rows).map(|i| (i * 3 + step * 5 + 1) % cfg.vocab).collect();
            let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
            model.train_step(&mut store, &tokens, &targets, &opts).unwrap();
            store.sgd_step(0.25);
            store.zero_grads();
        }
        let probe: Vec<usize> = vec![2, 5, 1, 6];
        let preds = model.predict_next(&mut store, &probe).unwrap();
        let correct = probe
            .iter()
            .zip(&preds)
            .filter(|(&t, &p)| p == (t + 1) % cfg.vocab)
            .count();
        assert!(correct >= 3, "model should have learned the shift: {preds:?} from {probe:?}");
    }

    #[test]
    fn forward_logits_shape_and_validation() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let mut store = DenseStore::new(model.registry());
        let tokens = vec![1usize; 2 * cfg.seq];
        let logits = model.forward_logits(&mut store, &tokens, 2).unwrap();
        assert_eq!(logits.shape(), &[2 * cfg.seq, cfg.vocab]);
        assert!(model.forward_logits(&mut store, &tokens, 3).is_err());
    }

    #[test]
    fn inference_leaves_no_gradients() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let mut store = DenseStore::new(model.registry());
        let tokens = vec![0usize; cfg.seq];
        model.predict_next(&mut store, &tokens).unwrap();
        for meta in model.registry().iter() {
            assert!(store.grad(meta.id).is_none(), "{}", meta.name);
        }
    }
}
