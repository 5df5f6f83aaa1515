//! GPT-like model: registry construction, module plan, and the training
//! runner.
//!
//! The runner names modules and supplies their arithmetic; gathering,
//! releasing, gradient hand-off and prefetch hints — the paper's hook
//! injection (Sec. 7.1) — are [`crate::param::Bracket`]'s.

use zi_tensor::ops;
use zi_tensor::Tensor;
use zi_types::{Error, Result};

use crate::layers::{
    block_backward, block_forward, embedding_backward, embedding_forward, lm_head_backward,
    lm_head_forward, BlockConfig, BlockSaved,
};
use crate::param::{Bracket, ModulePlan, ParamId, ParamRegistry, ParamStore};

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

/// The registry and module plan every GPT runner brackets, in forward
/// order: `embed`, one module per block over the parameters `block`
/// registers for it, `ln_f`, `head`.
pub(crate) fn register_gpt(
    cfg: &GptConfig,
    mut block: impl FnMut(&mut ParamRegistry, usize) -> Vec<ParamId>,
) -> (ParamRegistry, Vec<ModulePlan>) {
    let module = |name: String, own_params: Vec<ParamId>| ModulePlan {
        name,
        own_params,
        external_params: vec![],
    };
    let mut reg = ParamRegistry::new();
    let (h, w_scale) = (cfg.hidden, weight_scale(cfg));
    let wte = reg.register("wte", &[cfg.vocab, h], cfg.seed, w_scale, 0.0);
    let wpe = reg.register("wpe", &[cfg.seq, h], cfg.seed + 1, w_scale, 0.0);
    let mut plans = vec![module("embed".into(), vec![wte, wpe])];
    for l in 0..cfg.layers {
        let ids = block(&mut reg, l);
        plans.push(module(format!("block{l}"), ids));
    }
    let lnf_g = reg.register("ln_f.gamma", &[h], 0, 0.0, 1.0);
    let lnf_b = reg.register("ln_f.beta", &[h], 0, 0.0, 0.0);
    plans.push(module("ln_f".into(), vec![lnf_g, lnf_b]));
    // The LM head owns no parameters: it reuses the embedding weight
    // across module boundaries — the canonical external parameter.
    plans.push(ModulePlan { name: "head".into(), own_params: vec![], external_params: vec![wte] });
    (reg, plans)
}

/// Uniform amplitude of every weight matrix's initial value.
pub(crate) fn weight_scale(cfg: &GptConfig) -> f32 {
    0.3 / (cfg.hidden as f32).sqrt()
}

/// The model: parameter registry plus module plan.
pub struct GptModel {
    cfg: GptConfig,
    registry: ParamRegistry,
    plans: Vec<ModulePlan>,
}

/// What a forward pass leaves behind for the backward pass.
enum Save<'a> {
    /// Inference: nothing.
    Nothing,
    /// Every block's intermediate activations.
    Activations,
    /// Block inputs only, checkpointed into the activation store.
    Checkpoints(&'a mut dyn ActivationStore),
}

enum BlockState {
    Full(Box<BlockSaved>),
    /// Input checkpointed into the activation store under the block's
    /// index.
    Checkpointed,
}

/// Embedding through final layer norm, as the head and the backward pass
/// need it.
struct ForwardState {
    /// One slot per block; `None` for a skipped block or when nothing is
    /// saved.
    blocks: Vec<Option<BlockState>>,
    lnf_input: Tensor,
    lnf_stats: ops::LayerNormStats,
    hstates: Tensor,
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
        let (h, w_scale) = (cfg.hidden, weight_scale(&cfg));
        let (registry, plans) = register_gpt(&cfg, |reg, l| {
            let s = cfg.seed + 100 * (l as u64 + 1);
            let pre = format!("block{l}");
            vec![
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
            ]
        });
        GptModel { cfg, registry, plans }
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

    /// Forward-only pass returning the logits for every position
    /// (`[batch*seq, vocab]`). Runs the training forward with nothing
    /// saved, so a ZeRO engine serves inference from partitioned and
    /// offloaded parameters without modification.
    pub fn forward_logits(
        &self,
        store: &mut dyn ParamStore,
        tokens: &[usize],
        batch: usize,
    ) -> Result<Tensor> {
        let bc = block_cfg(&self.cfg, batch);
        if tokens.len() != bc.rows() {
            return Err(Error::shape(format!(
                "forward_logits: {} tokens for batch {batch} x seq {}",
                tokens.len(),
                self.cfg.seq
            )));
        }
        let nl = self.cfg.layers;
        let (mut obs, window) = (NoopObserver, RunOptions::default().prefetch_window);
        let mut ctx = Bracket::new(store, &mut obs, &self.plans, window);
        let fwd = forward_pass(&mut ctx, &bc, tokens, &vec![true; nl], Save::Nothing, &bc)?;
        ctx.forward(nl + 2, |p| lm_head_forward(&p[0], &fwd.hstates))
    }

    /// Greedy next-token prediction for each position of a single
    /// sequence.
    pub fn predict_next(
        &self,
        store: &mut dyn ParamStore,
        tokens: &[usize],
    ) -> Result<Vec<usize>> {
        let logits = self.forward_logits(store, tokens, 1)?;
        let (_, vocab) = logits.as_2d();
        let mut next = Vec::with_capacity(tokens.len());
        for (r, row) in logits.data().chunks(vocab).enumerate() {
            if let Some(bad) = row.iter().find(|v| !v.is_finite()) {
                return Err(Error::InvalidArgument(format!(
                    "predict_next: logit {bad} at position {r}; the parameters are not finite"
                )));
            }
            // The last of equal maxima, as `Iterator::max_by` picks.
            next.push((0..vocab).fold(0, |best, i| if row[i] >= row[best] { i } else { best }));
        }
        Ok(next)
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
        let mut acts = InMemoryActStore::new();
        self.train_step_full(store, &mut acts, tokens, targets, opts, &mut NoopObserver)
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
        let mut ctx = Bracket::new(store, obs, &self.plans, opts.prefetch_window);
        let (active, bc) = (vec![true; self.cfg.layers], block_cfg(&self.cfg, opts.batch));
        run_step(&self.cfg, &mut ctx, acts, tokens, targets, opts, &active, &bc)
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
        if active.len() != self.cfg.layers {
            return Err(Error::shape(format!(
                "active mask of {} entries for {} blocks",
                active.len(),
                self.cfg.layers
            )));
        }
        let (mut acts, mut obs) = (InMemoryActStore::new(), NoopObserver);
        let mut ctx = Bracket::new(store, &mut obs, &self.plans, opts.prefetch_window);
        let bc = block_cfg(&self.cfg, opts.batch);
        run_step(&self.cfg, &mut ctx, &mut acts, tokens, targets, opts, active, &bc)
    }
}

/// One block's arithmetic over its gathered parameters: all that differs
/// between the dense runner and the tensor-sliced one of [`crate::mp`].
pub(crate) trait BlockMath {
    /// `(params, x) -> (y, saved)`.
    fn forward(&self, params: &[Tensor], x: &Tensor) -> Result<(Tensor, BlockSaved)>;
    /// `(params, saved, dy) -> (dx, grads)`, one gradient per parameter.
    fn backward(
        &self,
        params: &[Tensor],
        saved: &BlockSaved,
        dy: &Tensor,
    ) -> Result<(Tensor, Vec<Tensor>)>;
}

/// The unsliced block of [`crate::layers`].
impl BlockMath for BlockConfig {
    fn forward(&self, params: &[Tensor], x: &Tensor) -> Result<(Tensor, BlockSaved)> {
        block_forward(self, params, x)
    }

    fn backward(
        &self,
        params: &[Tensor],
        saved: &BlockSaved,
        dy: &Tensor,
    ) -> Result<(Tensor, Vec<Tensor>)> {
        block_backward(self, params, saved, dy)
    }
}

/// The full-width block shape of `cfg` at micro-batch `batch`.
fn block_cfg(cfg: &GptConfig, batch: usize) -> BlockConfig {
    BlockConfig { hidden: cfg.hidden, heads: cfg.heads, batch, seq: cfg.seq }
}

/// Embedding, the `active` blocks and the final layer norm; `save`
/// decides what each block leaves for its backward.
fn forward_pass(
    ctx: &mut Bracket<'_>,
    bc: &BlockConfig,
    tokens: &[usize],
    active: &[bool],
    mut save: Save<'_>,
    math: &dyn BlockMath,
) -> Result<ForwardState> {
    let mut x = ctx.forward(0, |p| embedding_forward(bc, &p[0], &p[1], tokens))?;
    let mut blocks = Vec::with_capacity(active.len());
    for (l, &runs) in active.iter().enumerate() {
        if !runs {
            // Skipped block: identity, no fetch, nothing saved.
            blocks.push(None);
            continue;
        }
        x = ctx.forward(1 + l, |p| {
            let (y, saved) = math.forward(p, &x)?;
            blocks.push(match &mut save {
                Save::Nothing => None,
                Save::Activations => Some(BlockState::Full(Box::new(saved))),
                Save::Checkpoints(acts) => {
                    acts.save(l, x)?;
                    Some(BlockState::Checkpointed)
                }
            });
            Ok(y)
        })?;
    }
    let (hstates, lnf_stats) =
        ctx.forward(active.len() + 1, |p| ops::layernorm(&x, p[0].data(), p[1].data(), 1e-5))?;
    Ok(ForwardState { blocks, lnf_input: x, lnf_stats, hstates })
}

/// One forward+backward pass of a GPT whose plan is [`register_gpt`]'s
/// over the modules `ctx` brackets; returns the mean cross-entropy loss.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_step(
    cfg: &GptConfig,
    ctx: &mut Bracket<'_>,
    acts: &mut dyn ActivationStore,
    tokens: &[usize],
    targets: &[usize],
    opts: &RunOptions,
    active: &[bool],
    math: &dyn BlockMath,
) -> Result<f32> {
    let bc = block_cfg(cfg, opts.batch);
    if tokens.len() != bc.rows() || targets.len() != bc.rows() {
        return Err(Error::shape(format!(
            "train_step: {} tokens / {} targets for batch {} x seq {}",
            tokens.len(),
            targets.len(),
            opts.batch,
            cfg.seq
        )));
    }
    let (h, lnf, head) = (cfg.hidden, active.len() + 1, active.len() + 2);

    let save = if opts.activation_checkpointing {
        Save::Checkpoints(&mut *acts)
    } else {
        Save::Activations
    };
    let fwd = forward_pass(ctx, &bc, tokens, active, save, math)?;

    // Tied LM head (external parameter, Sec. 7.1.1: wte). The head's
    // backward is the very next user of the model's largest parameter, so
    // it stays gathered from the head's forward through the loss to its
    // backward.
    let (loss, dh) = ctx.held(head, |ctx| {
        let logits = ctx.forward(head, |p| lm_head_forward(&p[0], &fwd.hstates))?;
        let (loss, dlogits) = ops::cross_entropy(&logits, targets)?;
        let dh = ctx.backward(head, |p| {
            let (dh, dwte) = lm_head_backward(&p[0], &fwd.hstates, &dlogits)?;
            Ok((dh, vec![dwte]))
        })?;
        Ok((loss, dh))
    })?;

    let mut dx = ctx.backward(lnf, |p| {
        let (dx, dg, db) =
            ops::layernorm_backward(&fwd.lnf_input, &dh, p[0].data(), &fwd.lnf_stats)?;
        Ok((dx, vec![Tensor::from_vec(&[h], dg)?, Tensor::from_vec(&[h], db)?]))
    })?;

    for (l, state) in fwd.blocks.into_iter().enumerate().rev() {
        // A skipped block passes the gradient through unchanged.
        let Some(state) = state else { continue };
        dx = ctx.backward(1 + l, |p| {
            let saved = match state {
                BlockState::Full(s) => *s,
                // Activation checkpointing: fetch the checkpointed input
                // back from the store (possibly CPU memory) and recompute
                // the block's forward to rebuild intermediate activations
                // (the 1/3 extra compute of Sec. 3).
                BlockState::Checkpointed => math.forward(p, &acts.load(l)?)?.1,
            };
            math.backward(p, &saved, &dx)
        })?;
    }

    // Second gradient deposit for the tied weight.
    ctx.backward_unfetched(0, || {
        let (dwte, dwpe) = embedding_backward(&bc, cfg.vocab, tokens, &dx)?;
        Ok(vec![dwte, dwpe])
    })?;
    Ok(loss)
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
        // Eq. (1), 12 * nl * hd^2, undercounts (no embeddings/biases) but
        // must be the bulk.
        let estimate = 12 * cfg.layers * cfg.hidden * cfg.hidden;
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
            .train_step_full(
                &mut store,
                &mut InMemoryActStore::new(),
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
    fn a_failed_module_releases_what_it_gathered() {
        /// Counts outstanding fetches and can fail the `fail_at`-th one.
        struct Residency {
            inner: DenseStore,
            gets: usize,
            held: usize,
            fail_at: Option<usize>,
        }
        impl ParamStore for Residency {
            fn get(&mut self, id: ParamId) -> Result<Tensor> {
                self.gets += 1;
                if self.fail_at == Some(self.gets) {
                    return Err(Error::Internal("injected gather failure".into()));
                }
                self.held += 1;
                self.inner.get(id)
            }
            fn release(&mut self, id: ParamId) -> Result<()> {
                self.held -= 1;
                self.inner.release(id)
            }
            fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
                self.inner.add_grad(id, grad)
            }
        }
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let good = vec![1usize; cfg.seq];
        let fresh = model.forward_logits(&mut DenseStore::new(model.registry()), &good, 1).unwrap();
        let mut store =
            Residency { inner: DenseStore::new(model.registry()), gets: 0, held: 0, fail_at: None };

        // The arithmetic fails after `wte` and `wpe` were gathered.
        let mut bad = good.clone();
        bad[2] = cfg.vocab;
        assert!(model.forward_logits(&mut store, &bad, 1).is_err());
        assert_eq!((store.gets, store.held), (2, 0), "embed's parameters stayed resident");

        // The third gather of block0 fails after two succeeded.
        (store.gets, store.fail_at) = (0, Some(2 + 3));
        assert!(model.forward_logits(&mut store, &good, 1).is_err());
        assert_eq!(store.held, 0, "block0's gathered parameters stayed resident");

        store.fail_at = None;
        let after = model.forward_logits(&mut store, &good, 1).unwrap();
        assert_eq!(after.data(), fresh.data());
        assert_eq!(store.held, 0);
    }

    #[test]
    fn a_nan_logit_is_an_error_not_a_panic() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let mut store = DenseStore::new(model.registry());
        let tokens = vec![1usize; cfg.seq];
        let finite = model.predict_next(&mut store, &tokens).unwrap();
        assert_eq!(finite.len(), cfg.seq);
        // One non-finite weight, as an fp16 overflow would leave behind.
        let wte = model.registry().find("wte").unwrap();
        store.param_mut(wte).data_mut()[cfg.hidden + 1] = f32::NAN;
        let err = model.predict_next(&mut store, &tokens).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
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

#[cfg(test)]
mod protocol_pin {
    use super::*;
    use crate::param::DenseStore;

    /// Ascending runs of `ids`, `.`-joined: `[2, 3, 4, 9]` is `2-4.9`.
    fn runs(ids: &[usize]) -> String {
        let mut out = String::new();
        let mut i = 0;
        while i < ids.len() {
            let start = i;
            while i + 1 < ids.len() && ids[i + 1] == ids[i] + 1 {
                i += 1;
            }
            if !out.is_empty() {
                out.push('.');
            }
            out += &ids[start].to_string();
            if i > start {
                out += &format!("-{}", ids[i]);
            }
            i += 1;
        }
        out
    }

    /// Records every `ParamStore` call, in order.
    struct CallLog {
        inner: DenseStore,
        calls: Vec<(char, Vec<usize>)>,
    }

    impl CallLog {
        fn push(&mut self, op: char, id: ParamId) {
            match self.calls.last_mut() {
                Some((last, ids)) if *last == op && op != 'h' => ids.push(id.0),
                _ => self.calls.push((op, vec![id.0])),
            }
        }

        /// `g` get, `r` release, `a` add_grad, `h` one hint; consecutive
        /// calls of one kind share a token.
        fn render(&self) -> String {
            let tokens: Vec<String> =
                self.calls.iter().map(|(op, ids)| format!("{op}{}", runs(ids))).collect();
            tokens.join(" ")
        }
    }

    impl ParamStore for CallLog {
        fn get(&mut self, id: ParamId) -> Result<Tensor> {
            self.push('g', id);
            self.inner.get(id)
        }
        fn release(&mut self, id: ParamId) -> Result<()> {
            self.push('r', id);
            self.inner.release(id)
        }
        fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
            self.push('a', id);
            self.inner.add_grad(id, grad)
        }
        fn hint_upcoming(&mut self, ids: &[ParamId]) {
            self.calls.push(('h', ids.iter().map(|id| id.0).collect()));
        }
    }

    #[test]
    fn store_call_sequence_is_pinned() {
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let tokens: Vec<usize> = (0..cfg.seq).map(|i| (i * 5 + 1) % cfg.vocab).collect();
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        let log = |run: &dyn Fn(&mut CallLog) -> Result<f32>| {
            let mut store = CallLog { inner: DenseStore::new(model.registry()), calls: Vec::new() };
            run(&mut store).unwrap();
            store.render()
        };
        let full = |opts: RunOptions| {
            log(&|store| {
                let mut acts = InMemoryActStore::new();
                model.train_step_full(store, &mut acts, &tokens, &targets, &opts, &mut NoopObserver)
            })
        };
        // Recorded on the commit before the bracket existed. The same
        // sequence means the same fetch, collective and prefetch counts
        // and the same GPU peak on every store, by construction.
        const FORWARD: &str = "h2-25 g0-1 r0-1 h14-27 g2-13 r2-13 h26-27.0 g14-25 r14-25 \
                               h0 g26-27 r26-27 g0";
        const BACKWARD: &str = "h26-27.14-25 a0 r0 h14-25.2-13 g26-27 a26-27 r26-27 \
                                h2-13.0-1 g14-25 a14-25 r14-25 h0-1 g2-13 a2-13 r2-13 a0-1";
        let plain = format!("{FORWARD} {BACKWARD}");
        assert_eq!(full(RunOptions::default()), plain);
        let ckpt = RunOptions { activation_checkpointing: true, ..Default::default() };
        assert_eq!(full(ckpt), plain, "checkpointing recomputes inside the same bracket");
        let skipped_block0 = log(&|store| {
            let opts = RunOptions::default();
            model.train_step_dynamic(store, &tokens, &targets, &opts, &[false, true])
        });
        assert_eq!(
            skipped_block0,
            "h2-25 g0-1 r0-1 h26-27.0 g14-25 r14-25 h0 g26-27 r26-27 g0 \
             h26-27.14-25 a0 r0 h14-25.2-13 g26-27 a26-27 r26-27 \
             h2-13.0-1 g14-25 a14-25 r14-25 a0-1"
        );
    }
}
