//! Functional pipeline parallelism (the `pp` axis of the 3D-parallelism
//! baseline).
//!
//! The paper's main baseline splits the model three ways: tensor slicing
//! (`mp`, see [`crate::mp`]), pipeline stages (`pp`, this module) and
//! data parallelism. Here the transformer's blocks are partitioned across
//! stage threads connected by channels; each training step runs a GPipe
//! schedule — all micro-batches forward, then all backward in reverse —
//! accumulating gradients stage-locally before a synchronous optimizer
//! step.
//!
//! The tied embedding spans the pipeline: stage 0 owns `wte`, the last
//! stage holds a copy for the LM head. After each step the last stage
//! ships its head gradient upstream and stage 0 ships the refreshed
//! weight downstream — the standard embedding-synchronization pattern of
//! pipelined GPT training.

use zi_sync::thread;

use zi_sync::channel::{bounded, Receiver, Sender};
use zi_comm::partition_range;
use zi_model::layers::{
    block_backward, block_forward, embedding_backward, embedding_forward, lm_head_backward,
    lm_head_forward, BlockConfig, BlockSaved,
};
use zi_model::{Bracket, DenseStore, GptConfig, GptModel, NoopObserver, ParamId, ParamStore};
use zi_optim::{AdamConfig, AdamShard};
use zi_tensor::{ops, Tensor};
use zi_types::{Error, Result};

/// Specification of a pipeline-parallel training run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSpec {
    /// Model architecture.
    pub model: GptConfig,
    /// Pipeline stages (`pp`); must not exceed the layer count.
    pub stages: usize,
    /// Micro-batches per optimizer step (the GPipe `m`).
    pub micro_batches: usize,
    /// Sequences per micro-batch.
    pub micro_batch: usize,
    /// Optimizer steps.
    pub steps: usize,
    /// Adam hyperparameters.
    pub adam: AdamConfig,
}

/// Adam over a stage's own parameters; the gradients accumulate in the
/// stage's [`DenseStore`].
struct StageOptimizer {
    adam: AdamConfig,
    states: Vec<Option<AdamShard>>,
}

impl StageOptimizer {
    fn new(model: &GptModel, owned: &[ParamId], adam: AdamConfig) -> Self {
        let n = model.registry().len();
        let mut states = (0..n).map(|_| None).collect::<Vec<_>>();
        for &id in owned {
            let init = model.registry().meta(id).init_tensor();
            states[id.0] = Some(AdamShard::new(init.data()));
        }
        StageOptimizer { adam, states }
    }

    /// Average the gradients accumulated in `store` over `micro_batches`,
    /// update both the Adam state and the live parameter values, and
    /// clear the gradients.
    fn step(&mut self, store: &mut DenseStore, micro_batches: usize) {
        for (idx, state) in self.states.iter_mut().enumerate() {
            let id = ParamId(idx);
            let (Some(state), Some(g)) = (state, store.grad(id)) else {
                continue;
            };
            let scaled: Vec<f32> =
                g.data().iter().map(|v| v / micro_batches as f32).collect();
            state.step_full(&self.adam, &scaled);
            store.param_mut(id).data_mut().copy_from_slice(&state.master);
        }
        store.zero_grads();
    }
}

/// Train with `spec.stages` pipeline stage threads; returns per-step mean
/// micro-batch losses (from the last stage).
pub fn train_gpt_pipeline(spec: &PipelineSpec) -> Result<Vec<f32>> {
    let spec = *spec;
    if spec.stages == 0 || spec.stages > spec.model.layers {
        return Err(Error::InvalidArgument(format!(
            "{} stages for {} layers",
            spec.stages, spec.model.layers
        )));
    }
    let pp = spec.stages;
    // Forward activation channels s -> s+1 and backward gradient channels
    // s+1 -> s.
    let mut fwd_tx = Vec::new();
    let mut fwd_rx = Vec::new();
    let mut bwd_tx = Vec::new();
    let mut bwd_rx = Vec::new();
    for _ in 0..pp.saturating_sub(1) {
        let (tx, rx) = bounded::<Tensor>(spec.micro_batches);
        fwd_tx.push(Some(tx));
        fwd_rx.push(Some(rx));
        let (tx, rx) = bounded::<Tensor>(spec.micro_batches);
        bwd_tx.push(Some(tx));
        bwd_rx.push(Some(rx));
    }
    // Embedding synchronization: head grad upstream, fresh weight down.
    let (wte_grad_tx, wte_grad_rx) = bounded::<Tensor>(1);
    let (wte_new_tx, wte_new_rx) = bounded::<Tensor>(1);

    let mut handles = Vec::with_capacity(pp);
    for s in 0..pp {
        let up_rx: Option<Receiver<Tensor>> = if s > 0 { fwd_rx[s - 1].take() } else { None };
        let down_tx: Option<Sender<Tensor>> = if s + 1 < pp { fwd_tx[s].take() } else { None };
        let down_rx: Option<Receiver<Tensor>> = if s + 1 < pp { bwd_rx[s].take() } else { None };
        let up_tx: Option<Sender<Tensor>> = if s > 0 { bwd_tx[s - 1].take() } else { None };
        let (wg_tx, wg_rx) = (wte_grad_tx.clone(), wte_grad_rx.clone());
        let (wn_tx, wn_rx) = (wte_new_tx.clone(), wte_new_rx.clone());
        handles.push(
            thread::Builder::new()
                .name(format!("zi-pp-{s}"))
                .spawn(move || {
                    run_stage(
                        s, &spec, up_rx, down_tx, down_rx, up_tx, wg_tx, wg_rx, wn_tx, wn_rx,
                    )
                })
                .expect("spawn stage"),
        );
    }
    let mut losses = None;
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(Ok(Some(l))) => losses = Some(l),
            Ok(Ok(None)) => {}
            Ok(Err(e)) => {
                first_err.get_or_insert(e);
            }
            Err(_) => {
                first_err.get_or_insert(Error::Internal("stage panicked".into()));
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => losses.ok_or_else(|| Error::Internal("no last-stage output".into())),
    }
}

/// A channel disconnects only when the stage at its other end has failed.
fn closed<E>(channel: &str) -> impl Fn(E) -> Error + '_ {
    move |_| Error::Internal(format!("{channel} channel closed"))
}

#[allow(clippy::too_many_arguments)]
fn run_stage(
    stage: usize,
    spec: &PipelineSpec,
    up_rx: Option<Receiver<Tensor>>,
    down_tx: Option<Sender<Tensor>>,
    down_rx: Option<Receiver<Tensor>>,
    up_tx: Option<Sender<Tensor>>,
    wte_grad_tx: Sender<Tensor>,
    wte_grad_rx: Receiver<Tensor>,
    wte_new_tx: Sender<Tensor>,
    wte_new_rx: Receiver<Tensor>,
) -> Result<Option<Vec<f32>>> {
    let cfg = spec.model;
    let pp = spec.stages;
    let model = GptModel::new(cfg);
    let mut store = DenseStore::new(model.registry());
    // This stage's slice of the model.
    let blocks = partition_range(cfg.layers, pp, stage);
    let (first, last) = (stage == 0, stage == pp - 1);
    let plans = model.plans();
    let (embed, lnf, head) = (0, cfg.layers + 1, cfg.layers + 2);
    // The weight that spans the pipeline is the head's external parameter.
    let wte = plans[head].external_params[0];

    // Parameters this stage owns (updates with its optimizer).
    let mut owned: Vec<ParamId> = Vec::new();
    if first {
        owned.extend(&plans[embed].own_params);
    }
    for l in blocks.clone() {
        owned.extend(&plans[1 + l].own_params);
    }
    if last {
        owned.extend(&plans[lnf].own_params);
    }
    let mut optimizer = StageOptimizer::new(&model, &owned, spec.adam);
    let bc = BlockConfig { hidden: cfg.hidden, heads: cfg.heads, batch: spec.micro_batch, seq: cfg.seq };
    let rows = spec.micro_batch * cfg.seq;

    let mut step_losses = Vec::with_capacity(spec.steps);
    for step in 0..spec.steps {
        // ---------------------------------------------------- forward
        struct MicroState {
            tokens: Vec<usize>,
            blocks: Vec<BlockSaved>,
            /// Last stage only: `ln_f`'s input and statistics, the hidden
            /// states and `d(logits)`.
            head: Option<(Tensor, ops::LayerNormStats, Tensor, Tensor)>,
        }
        let mut micros: Vec<MicroState> = Vec::with_capacity(spec.micro_batches);
        let mut loss_sum = 0.0f32;
        let mut obs = NoopObserver;
        let mut ctx = Bracket::new(&mut store, &mut obs, plans, 0);
        for m in 0..spec.micro_batches {
            let data_step = step * spec.micro_batches + m;
            let (all_tokens, all_targets) = crate::trainer::synthetic_batch(
                &cfg,
                spec.micro_batch,
                data_step,
            );
            let tokens = all_tokens[..rows].to_vec();

            let mut x = if first {
                ctx.forward(embed, |p| embedding_forward(&bc, &p[0], &p[1], &tokens))?
            } else {
                up_rx.as_ref().expect("upstream").recv().map_err(closed("pipeline forward"))?
            };
            let mut saved_blocks = Vec::new();
            for l in blocks.clone() {
                let (y, saved) = ctx.forward(1 + l, |p| block_forward(&bc, p, &x))?;
                saved_blocks.push(saved);
                x = y;
            }
            let head_state = if last {
                let (hs, stats) = ctx
                    .forward(lnf, |p| ops::layernorm(&x, p[0].data(), p[1].data(), 1e-5))?;
                let logits = ctx.forward(head, |p| lm_head_forward(&p[0], &hs))?;
                let (loss, dlogits) = ops::cross_entropy(&logits, &all_targets[..rows])?;
                loss_sum += loss;
                Some((x, stats, hs, dlogits))
            } else {
                down_tx.as_ref().expect("downstream").send(x).map_err(closed("pipeline forward"))?;
                None
            };
            micros.push(MicroState { tokens, blocks: saved_blocks, head: head_state });
        }

        // --------------------------------------------------- backward
        for micro in micros.into_iter().rev() {
            let mut dx = if let Some((lnf_input, stats, hstates, dlogits)) = micro.head {
                let dh = ctx.backward(head, |p| {
                    let (dh, dwte) = lm_head_backward(&p[0], &hstates, &dlogits)?;
                    Ok((dh, vec![dwte]))
                })?;
                ctx.backward(lnf, |p| {
                    let (dxi, dg, db) =
                        ops::layernorm_backward(&lnf_input, &dh, p[0].data(), &stats)?;
                    let h = [cfg.hidden];
                    Ok((dxi, vec![Tensor::from_vec(&h, dg)?, Tensor::from_vec(&h, db)?]))
                })?
            } else {
                down_rx.as_ref().expect("downstream grad").recv().map_err(closed("pipeline backward"))?
            };
            for (l, saved) in blocks.clone().zip(micro.blocks.iter()).rev() {
                dx = ctx.backward(1 + l, |p| block_backward(&bc, p, saved, &dx))?;
            }
            if first {
                ctx.backward_unfetched(embed, || {
                    let (dwte, dwpe) = embedding_backward(&bc, cfg.vocab, &micro.tokens, &dx)?;
                    Ok(vec![dwte, dwpe])
                })?;
            } else {
                up_tx.as_ref().expect("upstream grad").send(dx).map_err(closed("pipeline backward"))?;
            }
        }

        // ----------------------------------- tied embedding + optimizer
        if pp > 1 {
            if last {
                // Ship the head's accumulated wte gradient upstream.
                let g = store.grad(wte).cloned().ok_or_else(|| {
                    Error::Internal("the head deposited no gradient for the tied weight".into())
                })?;
                wte_grad_tx.send(g).map_err(closed("wte grad"))?;
            } else if first {
                let g = wte_grad_rx.recv().map_err(closed("wte grad"))?;
                store.add_grad(wte, &g)?;
            }
        }
        optimizer.step(&mut store, spec.micro_batches);
        if pp > 1 {
            if first {
                wte_new_tx.send(store.param(wte).clone()).map_err(closed("wte sync"))?;
            } else if last {
                let fresh = wte_new_rx.recv().map_err(closed("wte sync"))?;
                store.param_mut(wte).data_mut().copy_from_slice(fresh.data());
            }
        }
        if last {
            step_losses.push(loss_sum / spec.micro_batches as f32);
        }
    }
    Ok(if last { Some(step_losses) } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::train_dense_baseline;

    fn cfg() -> GptConfig {
        GptConfig { vocab: 16, hidden: 8, layers: 4, heads: 2, seq: 4, seed: 13 }
    }

    fn spec(stages: usize, micro_batches: usize) -> PipelineSpec {
        PipelineSpec {
            model: cfg(),
            stages,
            micro_batches,
            micro_batch: 1,
            steps: 3,
            adam: AdamConfig { lr: 0.02, ..Default::default() },
        }
    }

    /// A single stage with one micro-batch is plain dense training.
    #[test]
    fn single_stage_matches_dense_baseline() {
        let (base, _) =
            train_dense_baseline(&cfg(), 1, 3, AdamConfig { lr: 0.02, ..Default::default() }, false)
                .unwrap();
        let losses = train_gpt_pipeline(&spec(1, 1)).unwrap();
        for (a, b) in losses.iter().zip(&base) {
            assert!((a - b).abs() < 1e-6, "{losses:?} vs {base:?}");
        }
    }

    /// Splitting the same computation across 2 or 4 stages must not
    /// change the trajectory.
    #[test]
    fn stage_count_is_numerically_transparent() {
        let reference = train_gpt_pipeline(&spec(1, 2)).unwrap();
        for stages in [2usize, 4] {
            let losses = train_gpt_pipeline(&spec(stages, 2)).unwrap();
            for (a, b) in losses.iter().zip(&reference) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "pp={stages}: {losses:?} vs {reference:?}"
                );
            }
        }
    }

    /// The pipeline actually learns: with enough steps the trailing
    /// losses must sit clearly below the leading ones.
    #[test]
    fn micro_batches_advance_through_data() {
        let mut s = spec(2, 2);
        s.micro_batch = 2;
        s.steps = 12;
        let losses = train_gpt_pipeline(&s).unwrap();
        let head: f32 = losses[..3].iter().sum::<f32>() / 3.0;
        let tail: f32 = losses[losses.len() - 3..].iter().sum::<f32>() / 3.0;
        assert!(tail < head - 0.05, "no learning: {losses:?}");
    }

    /// The tied embedding stays synchronized across first and last stage.
    #[test]
    fn tied_embedding_spans_the_pipeline() {
        // If the wte sync were broken, pp=2 would diverge from pp=1
        // within a couple of steps; covered by transparency above, but
        // also check with more steps to let drift compound.
        let mut one = spec(1, 1);
        one.steps = 5;
        let mut four = spec(4, 1);
        four.steps = 5;
        let a = train_gpt_pipeline(&one).unwrap();
        let b = train_gpt_pipeline(&four).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-4, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn invalid_stage_counts_rejected() {
        assert!(train_gpt_pipeline(&spec(0, 1)).is_err());
        assert!(train_gpt_pipeline(&spec(5, 1)).is_err());
    }
}
