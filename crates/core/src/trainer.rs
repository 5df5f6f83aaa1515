//! Multi-rank training orchestration.
//!
//! Spawns one OS thread per data-parallel rank, each with its own
//! [`ZeroEngine`], and trains a `zi-model` GPT end to end. Used by the
//! equivalence tests (every Table 2 strategy must train identically to a
//! dense single-process baseline when parameter storage is fp32) and by
//! the examples/benches.

use zi_sync::Arc;
use zi_sync::thread;
use std::time::Duration;

use zi_chaos::ChaosPlan;
use zi_comm::{CommConfig, CommFaultPlan, Membership};
use zi_memory::NodeMemorySpec;
use zi_model::{DenseStore, GptConfig, GptModel, InMemoryActStore, NoopObserver, RunOptions};
use zi_nvme::{CheckpointStore, MemBackend, RetryPolicy, StorageBackend};
use zi_optim::{AdamConfig, AdamShard, LrSchedule};
use zi_tensor::Tensor;
use zi_trace::{Category, Tracer, STEP_SPAN};
use zi_types::{Error, Result};

use crate::checkpoint::{checkpoint_world, reshard_checkpoint_blobs};
use crate::config::Strategy;
use crate::engine::{EngineStats, ZeroEngine};
use crate::offload::{NodeEnv, NodeResources, OffloadHealth};

/// Everything needed to run a training session.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Model architecture.
    pub model: GptConfig,
    /// Partitioning/placement strategy.
    pub strategy: Strategy,
    /// Data-parallel degree.
    pub world: usize,
    /// Micro-batch per rank; global batch is `world * micro_batch`.
    pub micro_batch: usize,
    /// Optimizer steps to run.
    pub steps: usize,
    /// Adam hyperparameters.
    pub adam: AdamConfig,
    /// Micro-batches accumulated per optimizer step.
    pub grad_accumulation: usize,
    /// Optional learning-rate schedule (overrides `adam.lr` per step).
    pub schedule: Option<LrSchedule>,
    /// Node memory capacities.
    pub node: NodeMemorySpec,
    /// Recompute activations in backward.
    pub activation_checkpointing: bool,
    /// Offload checkpointed activations to CPU memory (paper Sec. 5.1.2);
    /// requires `activation_checkpointing`.
    pub offload_activations: bool,
    /// Modules announced ahead via `hint_upcoming`.
    pub prefetch_window: usize,
    /// Checkpoint every N optimizer steps into the in-memory vault
    /// (0 = never). Checkpoints are what storage-failure recovery
    /// resumes from.
    pub checkpoint_every: usize,
    /// How many times a run may be restarted after a storage failure
    /// (device death, unrecoverable corruption) or a rank failure
    /// (elastic world-shrink) before the error is surfaced to the
    /// caller. 0 = fail on first failure.
    pub max_recoveries: usize,
    /// Deadline for every collective; a peer that fails to arrive within
    /// it surfaces as [`Error::CollectiveTimeout`] on the waiting ranks
    /// instead of a hang.
    pub collective_deadline: Duration,
}

impl TrainSpec {
    /// A spec with generous test-sized memory pools.
    pub fn test_default(model: GptConfig, strategy: Strategy, world: usize) -> Self {
        TrainSpec {
            model,
            strategy,
            world,
            micro_batch: 2,
            steps: 5,
            adam: AdamConfig { lr: 0.01, ..Default::default() },
            grad_accumulation: 1,
            schedule: None,
            node: NodeMemorySpec::test_spec(world, 1 << 24, 1 << 26, 1 << 26),
            activation_checkpointing: false,
            offload_activations: false,
            prefetch_window: 2,
            checkpoint_every: 0,
            max_recoveries: 0,
            collective_deadline: Duration::from_secs(30),
        }
    }
}

/// Results of a training session (rank 0's view).
pub struct TrainOutcome {
    /// Mean loss across ranks, one entry per step.
    pub losses: Vec<f32>,
    /// Final full parameter values, in registry order.
    pub final_params: Vec<Tensor>,
    /// Engine counters from rank 0.
    pub stats: EngineStats,
    /// True if the run finished with NVMe stores degraded to CPU.
    pub degraded: bool,
    /// Times the run was restarted from a checkpoint after a storage
    /// failure.
    pub recoveries: usize,
    /// Offload-path health at the end of the run (failover and
    /// corruption counters).
    pub health: OffloadHealth,
    /// Elastic world-resize events, in order: one entry per shrink (a
    /// rank failure survived by re-partitioning onto fewer ranks) or
    /// grow (joining ranks folded in from the durable store).
    pub elastic: Vec<ElasticEvent>,
    /// Data-parallel degree the run finished with (differs from
    /// `spec.world` after elastic shrinks/grows).
    pub final_world: usize,
}

/// One elastic world-resize: mid-run, a rank died (shrink), joiners
/// arrived (grow), or both, and the session re-partitioned state from
/// the last durable checkpoint and resumed at the new degree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticEvent {
    /// The rank the communication layer blamed for the failure, when
    /// there was one and it could tell (a latched timeout knows; a panic
    /// does not; a pure grow has no failure at all).
    pub failed_rank: Option<usize>,
    /// Data-parallel degree before the resize.
    pub from_world: usize,
    /// Data-parallel degree after the resize.
    pub to_world: usize,
    /// Optimizer step of the durable checkpoint the survivors resumed
    /// from; `None` means no complete checkpoint existed and training
    /// restarted from step 0.
    pub resumed_from_step: Option<usize>,
}

/// Environment a training session runs in: the offload device, its
/// retry policy, the communication fault plan (chaos tests script rank
/// deaths here), and the durable checkpoint store.
pub struct TrainEnv {
    /// Storage backend for NVMe offload traffic.
    pub backend: Arc<dyn StorageBackend>,
    /// Retry policy wrapped around every offload I/O request.
    pub policy: RetryPolicy,
    /// Fault plan injected into every collective (default: quiet).
    pub comm_faults: CommFaultPlan,
    /// Durable checkpoint store; `None` provisions a fresh in-memory
    /// store sized for `spec.world`. The store device is deliberately
    /// distinct from `backend`: checkpoints must survive the offload
    /// device dying.
    pub store: Option<CheckpointStore>,
    /// Tracer the whole session records into — every recovery attempt's
    /// node, engine workers and rank threads share it, so one trace
    /// covers the session end to end. `None` provisions a private one.
    pub tracer: Option<Tracer>,
    /// Composed chaos timeline. Rank 0 arms its events at the top of
    /// each step, so storage faults, comm faults and membership events
    /// (kills, joins) fire from one deterministic schedule. The caller
    /// must separately wire the plan's fault handles into the planes it
    /// wants driven (`storage_plan()` into `backend`, `comm_plan()` into
    /// `comm_faults`); membership events need no wiring — the session's
    /// membership is passed to the plan at each step.
    pub chaos: Option<ChaosPlan>,
}

impl TrainEnv {
    /// An environment over `backend` with default policy, no injected
    /// communication faults, and a private in-memory checkpoint store.
    pub fn new(backend: Arc<dyn StorageBackend>) -> Self {
        TrainEnv {
            backend,
            policy: RetryPolicy::default(),
            comm_faults: CommFaultPlan::new(),
            store: None,
            tracer: None,
            chaos: None,
        }
    }
}

/// Encode one rank's durable checkpoint payload: the loss history at
/// save time followed by the engine-state blob.
///
/// Layout (little-endian): `n_losses: u64`, then `n_losses` f32 losses,
/// then the [`ZeroEngine::save_state`] blob verbatim.
pub fn encode_checkpoint_payload(blob: &[u8], losses: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + losses.len() * 4 + blob.len());
    out.extend_from_slice(&(losses.len() as u64).to_le_bytes());
    for l in losses {
        out.extend_from_slice(&l.to_le_bytes());
    }
    out.extend_from_slice(blob);
    out
}

/// Inverse of [`encode_checkpoint_payload`]: `(engine blob, losses)`.
pub fn decode_checkpoint_payload(payload: &[u8]) -> Result<(Vec<u8>, Vec<f32>)> {
    // The store already CRC-checks payload bytes, so a malformed layout
    // here means the payload was never a trainer checkpoint.
    let corrupt = |what: &str| Error::InvalidArgument(format!("checkpoint payload: {what}"));
    let Some((&header, body)) = payload.split_first_chunk::<8>() else {
        return Err(corrupt("shorter than its length header"));
    };
    let n = usize::try_from(u64::from_le_bytes(header))
        .map_err(|_| corrupt("loss count overflows usize"))?;
    let run = n.checked_mul(4).ok_or_else(|| corrupt("loss run overflows"))?;
    let Some((run, blob)) = body.split_at_checked(run) else {
        return Err(corrupt("truncated loss run"));
    };
    let losses = run.as_chunks().0.iter().map(|&w| f32::from_le_bytes(w)).collect();
    Ok((blob.to_vec(), losses))
}

/// Durable checkpoint vault shared by the rank threads of one training
/// session: a thin codec layer over [`CheckpointStore`], keyed by
/// (rank, completed optimizer steps). Saves from the hot path go
/// through the store's background writer; recovery drains it first.
struct DurableVault {
    store: CheckpointStore,
}

impl DurableVault {
    fn save_async(&self, rank: usize, steps_done: usize, blob: Vec<u8>, losses: &[f32]) -> Result<()> {
        // Background write: a failed save is detected at the next
        // drain() (recovery or shutdown) and simply means that version
        // never becomes complete; training never blocks on it.
        self.store.save_async(rank, steps_done as u64, encode_checkpoint_payload(&blob, losses))
    }

    fn save_sync(&self, rank: usize, steps_done: usize, payload: Vec<u8>) -> Result<()> {
        self.store.save(rank, steps_done as u64, &payload)
    }

    /// Newest step durably checkpointed by every rank in `0..world`.
    fn latest_consistent(&self, world: usize) -> Result<Option<usize>> {
        Ok(self.store.latest_complete(world)?.map(|v| v as usize))
    }

    fn get(&self, rank: usize, steps_done: usize) -> Result<(Vec<u8>, Vec<f32>)> {
        decode_checkpoint_payload(&self.store.load(rank, steps_done as u64)?)
    }
}

/// Deterministic synthetic next-token data: `target = (token + 1) % vocab`.
///
/// Returns `(tokens, targets)` with `global_batch * seq` rows; rank `r`
/// trains on rows `[r * micro * seq, (r+1) * micro * seq)`.
pub fn synthetic_batch(
    cfg: &GptConfig,
    global_batch: usize,
    step: usize,
) -> (Vec<usize>, Vec<usize>) {
    let rows = global_batch * cfg.seq;
    let tokens: Vec<usize> = (0..rows)
        .map(|i| ((i as u64 * 7 + step as u64 * 3 + 1) % cfg.vocab as u64) as usize)
        .collect();
    let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
    (tokens, targets)
}

/// Train a GPT with the given strategy across `spec.world` rank threads
/// over an in-memory NVMe device.
pub fn train_gpt(spec: &TrainSpec) -> Result<TrainOutcome> {
    train_gpt_env(spec, TrainEnv::new(Arc::new(MemBackend::new())))
}

/// True if `e` is a storage-layer failure the trainer can recover from
/// by restarting from a checkpoint (with NVMe degraded to CPU if the
/// device is dead).
fn is_storage_failure(e: &Error) -> bool {
    e.is_device_failure() || matches!(e, Error::Corruption { .. })
}

/// Classification precedence when ranks exit with different errors in
/// the same attempt. A root cause (storage death, OOM, …) cascades into
/// `RankFailed` on the siblings it aborted, and into `MembershipChange`
/// on ranks that happened to hit the retiring barrier first — so the
/// session is classified by the highest-severity error any rank saw.
fn error_severity(e: &Error) -> u8 {
    if e.is_membership_change() {
        0
    } else if e.is_rank_failure() {
        1
    } else {
        2
    }
}

/// Armed for the lifetime of a rank thread: any exit that is not a
/// clean success — an error return or a panic unwinding the stack —
/// marks the rank failed in its communication group, so sibling ranks
/// blocked in a collective wake with [`Error::RankFailed`] immediately
/// instead of burning the whole deadline.
struct AbortOnDrop {
    node: Arc<NodeResources>,
    rank: usize,
    armed: bool,
}

impl Drop for AbortOnDrop {
    fn drop(&mut self) {
        if self.armed {
            self.node.group.abort_rank(self.rank);
        }
    }
}

/// The environment-parameterized training entry point and recovery
/// loop: run the session; on failure, classify it and — budget
/// permitting — recover.
///
/// * **Storage failure** on any rank (device death, unrecoverable
///   corruption): restart at the same world size from the newest
///   durable checkpoint, degrading NVMe placement to CPU when the
///   device died. Restarting replays the exact token stream, so a
///   recovered run reproduces the fault-free trajectory bit for bit.
/// * **Rank failure** (scripted death, collective timeout, panic):
///   elastic world-shrink. The survivors' coordinated abort unwinds
///   every rank, background saves are drained, per-rank optimizer
///   shards from the newest durable checkpoint are re-partitioned onto
///   `world - 1` ranks via [`reshard_checkpoint_blobs`], and training
///   resumes on the shrunken group. Each shrink is recorded in
///   [`TrainOutcome::elastic`].
/// * **Membership change** (ranks queued to join via the session's
///   [`Membership`], e.g. from a [`ChaosPlan`] `RankJoin` event):
///   elastic world-grow. The group retires voluntarily with
///   [`Error::MembershipChange`] on every rank, the joins fold into the
///   next generation, the same durable shard set is re-partitioned onto
///   the *larger* world, and training resumes bit-for-bit from the last
///   durable version — the inverse of a shrink, through the same
///   machinery.
///
/// Failure paths consume one unit of `spec.max_recoveries` budget each;
/// with the budget exhausted the classified error is surfaced. A pure
/// grow is free — nothing failed. Joins compose with concurrent
/// failures: a kill and a join in the same window first shrink the
/// survivor set, then fold the joiner in (world 4 → kill → 3 survivors
/// plus 1 joiner → 4 again, with no reshard needed at all since the
/// checkpoint layout still matches).
pub fn train_gpt_env(spec: &TrainSpec, env: TrainEnv) -> Result<TrainOutcome> {
    let spec = *spec;
    if spec.world == 0 {
        return Err(Error::InvalidArgument("world must be at least 1".into()));
    }
    if spec.grad_accumulation == 0 {
        return Err(Error::InvalidArgument("grad_accumulation must be at least 1".into()));
    }
    let tracer = env.tracer.clone().unwrap_or_default();
    let store = match env.store {
        Some(s) => {
            if s.ranks() < spec.world {
                return Err(Error::InvalidArgument(format!(
                    "checkpoint store holds {} ranks but the spec needs {}",
                    s.ranks(),
                    spec.world
                )));
            }
            s
        }
        // The default store lives on its own in-memory device, distinct
        // from the offload backend: checkpoints must survive the offload
        // device dying.
        None => {
            CheckpointStore::with_tracer(Arc::new(MemBackend::new()), spec.world, 2, tracer.clone())?
        }
    };
    let vault = Arc::new(DurableVault { store });
    // Session-scoped membership: outlives every per-attempt comm group,
    // carrying the join queue and generation counter across rebuilds.
    let membership = Membership::new(spec.world);
    let chaos = env.chaos.clone();
    let mut world = spec.world;
    let mut degraded_start = false;
    let mut recoveries = 0usize;
    let mut elastic: Vec<ElasticEvent> = Vec::new();
    loop {
        // A world grown past the spec's starting size needs a GPU pool
        // (and device index) for every joined rank too; widen the node
        // spec to whatever this attempt actually runs.
        let mut node_spec = spec.node;
        node_spec.gpus = node_spec.gpus.max(world);
        let node_env = NodeEnv {
            policy: env.policy,
            comm: CommConfig {
                deadline: spec.collective_deadline,
                faults: env.comm_faults.clone(),
            },
            tracer: tracer.clone(),
            membership: Some(&membership),
            ..NodeEnv::new(Arc::clone(&env.backend))
        };
        let node = Arc::new(NodeResources::new(&node_spec, world, node_env));
        if degraded_start {
            node.degrade();
        }
        let resume = if spec.checkpoint_every > 0 {
            // A version complete over ranks 0..world can still be a
            // partial set saved at a larger world — a rank died before
            // saving, so the shrink found nothing to reshard. That is not
            // a checkpoint of this world: start over rather than load it.
            match vault.latest_consistent(world)? {
                Some(v) if checkpoint_world(&vault.get(0, v)?.0)? == world => Some(v),
                _ => None,
            }
        } else {
            None
        };
        let mut handles = Vec::with_capacity(world);
        for rank in 0..world {
            let node = Arc::clone(&node);
            let vault = Arc::clone(&vault);
            let membership = membership.clone();
            let chaos = chaos.clone();
            handles.push(
                thread::Builder::new()
                    .name(format!("zi-rank-{rank}"))
                    .spawn(move || {
                        let mut guard =
                            AbortOnDrop { node: Arc::clone(&node), rank, armed: true };
                        let res = run_rank(
                            rank,
                            &spec,
                            world,
                            &node,
                            &vault,
                            resume,
                            &membership,
                            chaos.as_ref(),
                        );
                        // A membership change is a voluntary group
                        // retirement, not a failure: marking this rank
                        // failed would cascade RankFailed onto siblings
                        // and misclassify the grow as a shrink. Peers
                        // blocked in collectives are already woken by
                        // the resize latch itself.
                        let benign = res.is_ok()
                            || matches!(&res, Err(e) if e.is_membership_change());
                        if benign {
                            guard.armed = false;
                        }
                        res
                    })
                    .map_err(|e| Error::Internal(format!("spawn rank thread {rank}: {e}")))?,
            );
        }
        let mut outcome = None;
        let mut first_err: Option<Error> = None;
        let mut saw_storage_failure = false;
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(out)) => {
                    if rank == 0 {
                        outcome = Some(out);
                    }
                }
                Ok(Err(e)) => {
                    // A device error on one rank cascades into RankFailed
                    // on its siblings (coordinated abort) and a retiring
                    // barrier hands MembershipChange to whoever reaches
                    // it; classify the session by the root cause, not by
                    // whichever rank happened to join first.
                    saw_storage_failure |= is_storage_failure(&e);
                    let replace = match &first_err {
                        None => true,
                        Some(f) => error_severity(&e) > error_severity(f),
                    };
                    if replace {
                        first_err = Some(e);
                    }
                }
                Err(_) => {
                    first_err.get_or_insert(Error::Internal(format!("rank {rank} panicked")));
                }
            }
        }
        let health = node.offload_manager().health();
        match first_err {
            None => {
                // Durability barrier for trailing background saves. A
                // failed trailing save only means an older checkpoint
                // wins on the next recovery; it does not invalidate the
                // training run that just completed.
                let _ = vault.store.drain();
                let mut out = outcome
                    .ok_or_else(|| Error::Internal("rank 0 produced no outcome".into()))?;
                out.degraded = health.degraded;
                out.recoveries = recoveries;
                out.health = health;
                out.elastic = std::mem::take(&mut elastic);
                out.final_world = world;
                return Ok(out);
            }
            Some(e) => {
                // First decide the surviving base world (and spend the
                // recovery budget); then fold pending joins in through
                // the membership's generation turn. Budget rules: a
                // storage failure or rank death costs one recovery, a
                // pure membership change costs nothing — nothing failed.
                let base_world = if saw_storage_failure || is_storage_failure(&e) {
                    if recoveries >= spec.max_recoveries {
                        return Err(e);
                    }
                    recoveries += 1;
                    // If the device died, the replacement run must not
                    // trust it: start degraded (all NVMe stores on CPU).
                    degraded_start = degraded_start || health.degraded;
                    world
                } else if e.is_rank_failure() && world > 1 {
                    if recoveries >= spec.max_recoveries {
                        return Err(e);
                    }
                    recoveries += 1;
                    world - 1
                } else if e.is_membership_change() {
                    world
                } else {
                    return Err(e);
                };
                // Capture the blamed rank before the group is dropped,
                // then turn the generation: pending joins fold into the
                // survivor count (kill + join in one window cancel out).
                let failed_rank = node.group.failed_rank();
                let (_generation, new_world) = membership.next_generation(base_world);
                if new_world != world {
                    // Settle in-flight background saves first; one that
                    // failed during the crash just means an older
                    // complete checkpoint wins.
                    let _ = vault.store.drain();
                    if new_world > vault.store.ranks() {
                        return Err(Error::IncompatibleWorld {
                            from: world,
                            to: new_world,
                            context: format!(
                                "checkpoint store holds {} rank slot(s); provision the store \
                                 for the largest world the session may grow to",
                                vault.store.ranks()
                            ),
                        });
                    }
                    // Scan for the newest version complete at the
                    // *current* world: after an earlier shrink the dead
                    // rank's stale blob may still sit at the old degree,
                    // and only the current world's republished set is
                    // trustworthy. The republish below overwrites any
                    // such stale slots at this version.
                    let resumed = vault.latest_consistent(world)?;
                    if let Some(version) = resumed {
                        // Re-partition the full shard set onto the new
                        // world — fewer ranks after a shrink, more after
                        // a grow — and republish it synchronously at the
                        // same version, so the next attempt's
                        // latest-complete scan at `new_world` finds it.
                        let mut blobs = Vec::with_capacity(world);
                        let mut saved_losses = Vec::new();
                        for rank in 0..world {
                            let (blob, losses) = vault.get(rank, version)?;
                            if rank == 0 {
                                saved_losses = losses;
                            }
                            blobs.push(blob);
                        }
                        let resharded = reshard_checkpoint_blobs(&blobs, new_world)?;
                        for (rank, blob) in resharded.into_iter().enumerate() {
                            let payload = encode_checkpoint_payload(&blob, &saved_losses);
                            vault.save_sync(rank, version, payload)?;
                        }
                    }
                    elastic.push(ElasticEvent {
                        failed_rank,
                        from_world: world,
                        to_world: new_world,
                        resumed_from_step: resumed,
                    });
                    world = new_world;
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // internal orchestration seam, not public API
fn run_rank(
    rank: usize,
    spec: &TrainSpec,
    world: usize,
    node: &NodeResources,
    vault: &DurableVault,
    resume: Option<usize>,
    membership: &Membership,
    chaos: Option<&ChaosPlan>,
) -> Result<TrainOutcome> {
    let model = GptModel::new(spec.model);
    let comm = node.group.communicator(rank);
    let mut engine = ZeroEngine::new(
        model.registry(),
        // The spec's look-ahead drives both the module-level
        // `hint_upcoming` window and the engine's trace-driven
        // prefetcher.
        spec.strategy.with_prefetch_window(spec.prefetch_window),
        node.offload_manager(),
        comm,
        spec.adam,
    )?;
    let opts = RunOptions {
        batch: spec.micro_batch,
        activation_checkpointing: spec.activation_checkpointing,
        prefetch_window: spec.prefetch_window,
    };
    let rows = spec.micro_batch * spec.model.seq;
    let mut losses = Vec::with_capacity(spec.steps);
    let mut cpu_acts = if spec.offload_activations {
        Some(crate::activations::OffloadActStore::cpu(node.offload_manager()))
    } else {
        None
    };
    let mut mem_acts = InMemoryActStore::new();
    engine.set_grad_accumulation(spec.grad_accumulation);
    // Resume from the durable vault if recovery asked for it.
    // `load_state` is a collective for replicated-parameter strategies,
    // and `resume` is the same value on every rank, so all ranks enter
    // it together.
    let start_step = match resume {
        Some(step) => {
            let (blob, saved_losses) = vault.get(rank, step)?;
            engine.load_state(&blob)?;
            losses = saved_losses;
            step
        }
        None => 0,
    };
    let tracer = node.tracer();
    for step in start_step..spec.steps {
        // Arm this step's chaos events (rank 0 only, so each fires
        // exactly once) before any collective of the step: a kill or
        // join armed here gates the whole group's progress through this
        // step's barriers, which is what makes composed schedules
        // deterministic at step granularity.
        if rank == 0 {
            if let Some(plan) = chaos {
                plan.begin_step(step as u64, membership);
            }
        }
        // Envelope span delimiting this rank's step for the overlap
        // report; the real compute spans ("fwdbwd", "adam_chunk") nest
        // inside it and are counted separately.
        let mut step_span = tracer.span(Category::Compute, STEP_SPAN);
        step_span.set_id(step as u64);
        if let Some(sched) = &spec.schedule {
            engine.set_lr(sched.lr_at(step as u64));
        }
        // Each optimizer step consumes `grad_accumulation` micro-batches;
        // data is drawn from consecutive virtual steps so accumulated and
        // non-accumulated runs see the same token stream.
        let mut loss = 0.0f32;
        {
            let mut fwdbwd = tracer.span(Category::Compute, "fwdbwd");
            fwdbwd.set_id(step as u64);
            for micro in 0..spec.grad_accumulation {
                let data_step = step * spec.grad_accumulation + micro;
                let (tokens, targets) =
                    synthetic_batch(&spec.model, world * spec.micro_batch, data_step);
                let lo = rank * rows;
                let hi = lo + rows;
                let acts: &mut dyn zi_model::ActivationStore = match &mut cpu_acts {
                    Some(s) => s,
                    None => &mut mem_acts,
                };
                loss += model.train_step_full(
                    &mut engine,
                    acts,
                    &tokens[lo..hi],
                    &targets[lo..hi],
                    &opts,
                    &mut NoopObserver,
                )?;
            }
        }
        let loss = loss / spec.grad_accumulation as f32;
        engine.step()?;
        // Mean loss across ranks (collective; every rank participates).
        let nranks = node.group.world_size() as f32;
        let mean = {
            // Borrow the engine's communicator indirectly: each rank holds
            // its own handle inside the engine, so use a fresh one here.
            node.group.communicator(rank).sum_scalar(loss)? / nranks
        };
        losses.push(mean);
        // Periodic checkpoint into the durable vault via the store's
        // background writer. State export is collective (it gathers
        // replicated parameters), and the cadence is spec-driven, so
        // ranks stay in lockstep.
        if spec.checkpoint_every > 0 && (step + 1) % spec.checkpoint_every == 0 {
            vault.save_async(rank, step + 1, engine.save_state()?, &losses)?;
        }
    }
    // Export final parameters (collective, so every rank runs it).
    let ids: Vec<_> = model.registry().iter().map(|m| m.id).collect();
    let mut final_params = Vec::with_capacity(ids.len());
    for id in ids {
        final_params.push(engine.export_param(id)?);
    }
    let stats = engine.stats();
    engine.dispose()?;
    // Resilience fields are filled in by the recovery loop, which alone
    // sees the whole session.
    Ok(TrainOutcome {
        losses,
        final_params,
        stats,
        degraded: false,
        recoveries: 0,
        health: OffloadHealth::default(),
        elastic: Vec::new(),
        final_world: world,
    })
}

/// Dense single-process reference: full parameters, full Adam state, one
/// process computing the whole global batch. With fp32 parameter storage
/// every Table 2 strategy must reproduce this run exactly.
pub fn train_dense_baseline(
    model_cfg: &GptConfig,
    global_batch: usize,
    steps: usize,
    adam: AdamConfig,
    activation_checkpointing: bool,
) -> Result<(Vec<f32>, Vec<Tensor>)> {
    let model = GptModel::new(*model_cfg);
    let mut store = DenseStore::new(model.registry());
    let mut adam_states: Vec<AdamShard> = model
        .registry()
        .iter()
        .map(|m| AdamShard::new(m.init_tensor().data()))
        .collect();
    let opts = RunOptions {
        batch: global_batch,
        activation_checkpointing,
        prefetch_window: 0,
    };
    let mut losses = Vec::with_capacity(steps);
    for step in 0..steps {
        store.zero_grads();
        let (tokens, targets) = synthetic_batch(model_cfg, global_batch, step);
        let loss = model.train_step(&mut store, &tokens, &targets, &opts)?;
        losses.push(loss);
        for meta in model.registry().iter() {
            if let Some(grad) = store.grad(meta.id) {
                let g = grad.data().to_vec();
                adam_states[meta.id.0].step_full(&adam, &g);
                store
                    .param_mut(meta.id)
                    .data_mut()
                    .copy_from_slice(&adam_states[meta.id.0].master);
            }
        }
    }
    let finals: Vec<Tensor> =
        model.registry().iter().map(|m| store.param(m.id).clone()).collect();
    Ok((losses, finals))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_cfg() -> GptConfig {
        GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 99 }
    }

    /// Memory for `world` ranks of `model_cfg()` whose CPU pool the
    /// gradients fill: from the first backward on the shard cache has no
    /// room, so fetches read the device and the prefetcher has work.
    fn no_cache_room(world: usize) -> NodeMemorySpec {
        let model = GptModel::new(model_cfg());
        let grads = model.registry().iter().map(|p| 4 * (p.numel().div_ceil(world) * world) as u64);
        NodeMemorySpec::test_spec(world, 1 << 24, grads.sum(), 1 << 26)
    }

    fn max_param_diff(a: &[Tensor], b: &[Tensor]) -> f32 {
        a.iter()
            .zip(b)
            .flat_map(|(x, y)| x.data().iter().zip(y.data()).map(|(p, q)| (p - q).abs()))
            .fold(0.0f32, f32::max)
    }

    #[test]
    fn every_strategy_matches_dense_baseline_exactly() {
        // The headline correctness result: with fp32 parameter storage,
        // all seven Table 2 strategies (through partitioning, CPU offload
        // and NVMe offload) reproduce the dense single-process run.
        let cfg = model_cfg();
        let world = 2;
        let micro = 2;
        let steps = 3;
        let adam = AdamConfig { lr: 0.01, ..Default::default() };
        let (base_losses, base_params) =
            train_dense_baseline(&cfg, world * micro, steps, adam, false).unwrap();

        for strategy in Strategy::table2() {
            let spec = TrainSpec {
                micro_batch: micro,
                steps,
                adam,
                ..TrainSpec::test_default(cfg, strategy.with_f32_params(), world)
            };
            let out = train_gpt(&spec).unwrap();
            for (s, (a, b)) in out.losses.iter().zip(&base_losses).enumerate() {
                assert!(
                    (a - b).abs() < 1e-5,
                    "{}: step {s} loss {a} vs baseline {b}",
                    strategy.name
                );
            }
            let diff = max_param_diff(&out.final_params, &base_params);
            // Dense batch-N and micro-batched data-parallel runs average
            // the loss and reduce gradients in different orders, so after
            // a few Adam steps the params differ by amplified roundoff
            // (observed ~9e-5 with purely sequential kernels, ~2e-4 with
            // the SIMD lane-tree reductions). The bound guards against
            // real divergence, not accumulation-order noise.
            assert!(diff < 5e-4, "{}: max param diff {diff}", strategy.name);
        }
    }

    #[test]
    fn fp16_storage_still_converges() {
        let cfg = model_cfg();
        let spec = TrainSpec {
            steps: 10,
            ..TrainSpec::test_default(cfg, Strategy::infinity_nvme(), 2)
        };
        let out = train_gpt(&spec).unwrap();
        let first = out.losses[0];
        let last = *out.losses.last().unwrap();
        assert!(last < first, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn checkpointing_does_not_change_training() {
        let cfg = model_cfg();
        let strategy = Strategy::infinity_cpu().with_f32_params();
        let mut spec = TrainSpec::test_default(cfg, strategy, 2);
        spec.steps = 3;
        let plain = train_gpt(&spec).unwrap();
        spec.activation_checkpointing = true;
        let ckpt = train_gpt(&spec).unwrap();
        assert_eq!(plain.losses, ckpt.losses);
        assert!(max_param_diff(&plain.final_params, &ckpt.final_params) < 1e-6);
    }

    #[test]
    fn prefetch_toggle_is_numerically_neutral_and_effective() {
        let cfg = model_cfg();
        let strategy = Strategy::infinity_nvme().with_f32_params();
        let spec_on = TrainSpec {
            steps: 3,
            node: no_cache_room(2),
            ..TrainSpec::test_default(cfg, strategy, 2)
        };
        let spec_off = TrainSpec { prefetch_window: 0, ..spec_on };
        let on = train_gpt(&spec_on).unwrap();
        let off = train_gpt(&spec_off).unwrap();
        assert_eq!(on.losses, off.losses, "prefetch must not change numerics");
        assert!(on.stats.prefetch.issued > 0, "prefetcher should have issued loads");
        assert!(on.stats.prefetch.hits > 0, "hints should convert to hits");
        assert_eq!(off.stats.prefetch.issued, 0);
    }

    #[test]
    fn spec_prefetch_window_reaches_engine() {
        // A zero look-ahead must silence the prefetcher entirely (the
        // engine used to hard-code a window of 3, ignoring the spec).
        let cfg = model_cfg();
        let strategy = Strategy::infinity_nvme().with_f32_params();
        let spec = TrainSpec {
            steps: 3,
            prefetch_window: 0,
            node: no_cache_room(2),
            ..TrainSpec::test_default(cfg, strategy, 2)
        };
        let out = train_gpt(&spec).unwrap();
        assert_eq!(out.stats.prefetch.issued, 0, "window 0 must issue nothing");
        // Any nonzero window engages the prefetcher, and the width must
        // be invisible to the numerics.
        let narrow = train_gpt(&TrainSpec { prefetch_window: 1, ..spec }).unwrap();
        let wide = train_gpt(&TrainSpec { prefetch_window: 6, ..spec }).unwrap();
        assert!(narrow.stats.prefetch.issued > 0);
        assert!(wide.stats.prefetch.issued > 0);
        assert_eq!(narrow.losses, wide.losses, "look-ahead must not change numerics");
    }

    #[test]
    fn world_scaling_is_consistent() {
        // Same global batch across world sizes 1, 2 and 4 must give the
        // same training trajectory (f32 storage).
        let cfg = model_cfg();
        let strategy = Strategy::zero_3().with_f32_params();
        let global = 4;
        let mut reference: Option<Vec<f32>> = None;
        for world in [1usize, 2, 4] {
            let spec = TrainSpec {
                micro_batch: global / world,
                steps: 3,
                ..TrainSpec::test_default(cfg, strategy, world)
            };
            let out = train_gpt(&spec).unwrap();
            match &reference {
                None => reference = Some(out.losses),
                Some(r) => {
                    for (a, b) in out.losses.iter().zip(r) {
                        assert!((a - b).abs() < 1e-5, "world={world}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn engine_stats_reflect_partitioning() {
        let cfg = model_cfg();
        let spec = TrainSpec {
            steps: 2,
            ..TrainSpec::test_default(cfg, Strategy::infinity_nvme().with_f32_params(), 2)
        };
        let out = train_gpt(&spec).unwrap();
        assert!(out.stats.allgathers > 0, "ZeRO-3 must gather params");
        assert!(out.stats.grad_reductions > 0);
        assert!(out.stats.optimizer_chunks > 0);
        assert_eq!(out.stats.steps, 2);
    }
}

#[cfg(test)]
mod act_offload_tests {
    use super::*;

    #[test]
    fn activation_offload_is_numerically_identical() {
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 99 };
        let strategy = Strategy::infinity_cpu().with_f32_params();
        let mut spec = TrainSpec::test_default(cfg, strategy, 2);
        spec.steps = 3;
        spec.activation_checkpointing = true;
        let in_gpu = train_gpt(&spec).unwrap();
        spec.offload_activations = true;
        let offloaded = train_gpt(&spec).unwrap();
        assert_eq!(in_gpu.losses, offloaded.losses);
    }

    #[test]
    fn activation_offload_requires_checkpointing_to_matter() {
        // Without checkpointing no activations are stored; offload flag is
        // a harmless no-op.
        let cfg = GptConfig::tiny();
        let strategy = Strategy::zero_3().with_f32_params();
        let mut spec = TrainSpec::test_default(cfg, strategy, 1);
        spec.steps = 2;
        spec.offload_activations = true;
        let out = train_gpt(&spec).unwrap();
        assert_eq!(out.losses.len(), 2);
    }
}

#[cfg(test)]
mod accumulation_tests {
    use super::*;
    use zi_optim::LrSchedule;

    #[test]
    fn accumulation_matches_bigger_micro_batch() {
        // 2 accumulated micro-batches of batch 1 vs 1 micro-batch of
        // batch 2: averaged gradients are identical when both consume the
        // same tokens. We use one rank so the data streams align exactly.
        let cfg = GptConfig::tiny();
        let strategy = Strategy::infinity_cpu().with_f32_params();

        // Reference: accumulate 2 micro-batches per step.
        let mut accum = TrainSpec::test_default(cfg, strategy, 1);
        accum.micro_batch = 1;
        accum.grad_accumulation = 2;
        accum.steps = 3;
        let out_accum = train_gpt(&accum).unwrap();

        // Equivalent: same gradients computed by hand from the two
        // micro-batches through a dense baseline with accumulation.
        // We cannot express "two different micro-batches in one batch"
        // via train_dense_baseline, so instead assert the invariant that
        // accumulated training still optimizes and uses 2x the data.
        assert_eq!(out_accum.losses.len(), 3);
        assert_eq!(out_accum.stats.steps, 3);
        // 2 micro-steps per optimizer step => grad reductions doubled
        // relative to a no-accumulation run.
        let mut plain = accum;
        plain.grad_accumulation = 1;
        let out_plain = train_gpt(&plain).unwrap();
        assert_eq!(out_accum.stats.grad_reductions, 2 * out_plain.stats.grad_reductions);
    }

    #[test]
    fn accumulated_gradients_are_averaged_not_summed() {
        // Feeding the *same* data twice with accumulation=2 must match the
        // accumulation=1 run exactly: (g + g) / 2 == g.
        let cfg = GptConfig::tiny();
        let strategy = Strategy::zero_3().with_f32_params();
        // With accumulation=2 and the trainer's data-step striding, step k
        // consumes virtual steps 2k and 2k+1 — different data. To isolate
        // averaging we run a single optimizer step where both micro
        // batches coincide by constructing vocab-periodic data: step 0 and
        // 16 (vocab cycle) produce different tokens, so instead check the
        // scale property numerically: a doubled deposit with divisor 2
        // equals a single deposit with divisor 1.
        use crate::engine::ZeroEngine;
        use crate::offload::NodeResources;
        use zi_tensor::Tensor;

        let model = GptModel::new(cfg);
        let make = |accum: usize| {
            let node = NodeResources::in_memory(
                &NodeMemorySpec::test_spec(1, 1 << 24, 1 << 26, 1 << 26),
                1,
            );
            let mut eng = ZeroEngine::new(
                model.registry(),
                strategy,
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig { lr: 0.02, ..Default::default() },
            )
            .unwrap();
            eng.set_grad_accumulation(accum);
            eng
        };
        let wte = model.registry().find("wte").unwrap();
        let g = Tensor::randn_seeded(model.registry().meta(wte).shape.as_slice(), 5, 0.5);

        let mut once = make(1);
        use zi_model::ParamStore;
        once.add_grad(wte, &g).unwrap();
        once.step().unwrap();
        let p1 = once.export_param(wte).unwrap();

        let mut twice = make(2);
        twice.add_grad(wte, &g).unwrap();
        twice.add_grad(wte, &g).unwrap();
        twice.step().unwrap();
        let p2 = twice.export_param(wte).unwrap();

        assert_eq!(p1.data(), p2.data(), "2x deposit / 2 must equal 1x deposit");
    }

    #[test]
    fn zero_grad_accumulation_is_rejected() {
        // Zero micro-batches per step would divide the loss by zero; the
        // spec is refused before any node or rank thread is built.
        let mut spec = TrainSpec::test_default(GptConfig::tiny(), Strategy::zero_3(), 1);
        spec.grad_accumulation = 0;
        assert!(matches!(train_gpt(&spec), Err(Error::InvalidArgument(_))));
    }

    #[test]
    fn schedule_drives_learning_rate() {
        // A schedule with lr=0 must freeze the parameters; a positive lr
        // must move them.
        let cfg = GptConfig::tiny();
        let strategy = Strategy::zero_3().with_f32_params();
        let model = GptModel::new(cfg);
        let init: Vec<Tensor> = model.registry().iter().map(|m| m.init_tensor()).collect();

        let mut frozen = TrainSpec::test_default(cfg, strategy, 1);
        frozen.steps = 2;
        frozen.schedule = Some(LrSchedule::constant(0.0));
        let out = train_gpt(&frozen).unwrap();
        for (a, b) in out.final_params.iter().zip(&init) {
            assert_eq!(a.data(), b.data(), "lr=0 must not move parameters");
        }

        let mut learning = frozen;
        learning.schedule = Some(LrSchedule::constant(0.05));
        let out = train_gpt(&learning).unwrap();
        let moved = out
            .final_params
            .iter()
            .zip(&init)
            .any(|(a, b)| a.data() != b.data());
        assert!(moved, "lr>0 must move parameters");
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use zi_nvme::{FaultPlan, FaultyBackend};

    /// An environment over `backend` whose retries back off fast.
    fn fast_env(backend: Arc<dyn StorageBackend>) -> TrainEnv {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: std::time::Duration::from_micros(100),
            max_backoff: std::time::Duration::from_millis(1),
            deadline: std::time::Duration::from_secs(5),
            jitter_seed: 7,
        };
        TrainEnv { policy, ..TrainEnv::new(backend) }
    }

    /// Storage-recovery tests run single-rank to isolate the
    /// same-world restart path; multi-rank failures (which now unwind
    /// via coordinated abort and shrink the world) are exercised by the
    /// elasticity suite in tests/chaos.rs.
    fn spec() -> TrainSpec {
        spec_with_permille(0)
    }

    /// Same workload with `permille`‰ of each optimizer shard placed in
    /// CPU DRAM (0 = the classic all-NVMe layout).
    fn spec_with_permille(permille: usize) -> TrainSpec {
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 31 };
        let mut spec = TrainSpec::test_default(
            cfg,
            Strategy::infinity_nvme().with_f32_params().with_optimizer_cpu_permille(permille),
            1,
        );
        spec.steps = 6;
        spec.checkpoint_every = 2;
        spec.max_recoveries = 2;
        spec
    }

    #[test]
    fn dead_device_from_start_trains_degraded_without_error() {
        let spec = spec();
        let reference = train_gpt(&spec).unwrap();

        let plan = FaultPlan::new();
        plan.kill();
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan));
        let out = train_gpt_env(&spec, fast_env(backend)).unwrap();

        // Every NVMe store failed over to CPU; nothing ever errored, so
        // no restart was needed and the numerics are untouched.
        assert!(out.degraded, "run must report degradation");
        assert!(out.health.failovers > 0, "stores must have failed over");
        assert_eq!(out.recoveries, 0, "graceful failover needs no restart");
        assert_eq!(out.losses, reference.losses);
    }

    #[test]
    fn mid_run_device_death_recovers_from_checkpoint() {
        let spec = spec();
        let reference = train_gpt(&spec).unwrap();

        // Calibrate: a fault-free run over an instrumented device counts
        // the total data operations the workload performs.
        let quiet = FaultPlan::new();
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), quiet.clone()));
        train_gpt_env(&spec, fast_env(backend)).unwrap();
        let total_ops = quiet.ops_seen();
        assert!(total_ops > 0);

        // Kill the device at roughly 60% of the run — past the step-2 and
        // step-4 checkpoints, with NVMe-resident shards still to be read.
        let plan = FaultPlan::new();
        plan.kill_after_ops(total_ops * 6 / 10);
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
        let out = train_gpt_env(&spec, fast_env(backend)).unwrap();

        assert!(out.recoveries >= 1, "death mid-run must force a restart");
        assert!(out.degraded, "the replacement run must distrust the device");
        assert!(out.health.failovers > 0, "degraded stores must land on CPU");
        assert!(plan.injected().dead_rejections > 0, "the device really died");
        // Restart replays the exact token stream from the checkpoint, so
        // the recovered trajectory is bit-for-bit the fault-free one.
        assert_eq!(out.losses, reference.losses);
        for (a, b) in out.final_params.iter().zip(&reference.final_params) {
            assert_eq!(a.data(), b.data(), "recovered params must match exactly");
        }
    }

    #[test]
    fn mid_run_device_death_on_split_shards_recovers_bit_identical() {
        // Optimizer shards straddle CPU DRAM and NVMe (250‰ CPU). A
        // device death mid-step must not drop the NVMe-resident halves:
        // degradation collapses every split shard onto CPU and the
        // checkpoint restart replays the exact fault-free trajectory.
        let spec = spec_with_permille(250);
        let reference = train_gpt(&spec).unwrap();
        // Splitting is a placement choice, not a numeric one.
        assert_eq!(
            reference.losses,
            train_gpt(&spec_with_permille(0)).unwrap().losses,
            "split and single-path layouts must train identically"
        );

        let quiet = FaultPlan::new();
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), quiet.clone()));
        train_gpt_env(&spec, fast_env(backend)).unwrap();
        let total_ops = quiet.ops_seen();
        assert!(total_ops > 0);

        let plan = FaultPlan::new();
        plan.kill_after_ops(total_ops * 6 / 10);
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
        let out = train_gpt_env(&spec, fast_env(backend)).unwrap();

        assert!(out.recoveries >= 1, "death mid-run must force a restart");
        assert!(out.degraded, "the replacement run must distrust the device");
        assert!(out.health.failovers > 0, "degraded stores must land on CPU");
        assert!(plan.injected().dead_rejections > 0, "the device really died");
        assert_eq!(out.losses, reference.losses);
        for (a, b) in out.final_params.iter().zip(&reference.final_params) {
            assert_eq!(a.data(), b.data(), "recovered params must match exactly");
        }
    }

    #[test]
    fn storage_error_without_recovery_budget_is_surfaced() {
        let mut spec = spec();
        spec.max_recoveries = 0;

        let quiet = FaultPlan::new();
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), quiet.clone()));
        train_gpt_env(&spec, fast_env(backend)).unwrap();

        let plan = FaultPlan::new();
        plan.kill_after_ops(quiet.ops_seen() * 6 / 10);
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan));
        let err = match train_gpt_env(&spec, fast_env(backend)) {
            Err(e) => e,
            Ok(_) => panic!("run over a dying device with no recovery budget must fail"),
        };
        assert!(err.is_device_failure(), "expected a device failure, got {err}");
    }
}

#[cfg(test)]
mod dynamic_workflow_tests {
    use super::*;
    use crate::engine::ZeroEngine;
    use crate::offload::NodeResources;
    use zi_model::RunOptions;

    /// Stochastic depth through the NVMe-offloaded engine: the operator
    /// sequence changes every iteration, exercising the prefetcher's
    /// trace re-synchronization (paper Sec. 6.2 "dynamic workflow").
    #[test]
    fn prefetcher_survives_changing_block_masks() {
        let cfg = GptConfig { vocab: 16, hidden: 8, layers: 4, heads: 2, seq: 4, seed: 77 };
        let masks: Vec<Vec<bool>> = vec![
            vec![true, true, true, true],
            vec![true, false, true, false],
            vec![false, true, false, true],
            vec![true, true, false, false],
            vec![true, true, true, true],
        ];

        let run = |window: usize| {
            let node = NodeResources::in_memory(
                &NodeMemorySpec::test_spec(1, 1 << 24, 1 << 26, 1 << 26),
                1,
            );
            // Every fetch a device read: the prefetcher's to hide.
            node.crowd_out_shard_cache();
            let model = GptModel::new(cfg);
            let mut engine = ZeroEngine::new(
                model.registry(),
                Strategy::infinity_nvme().with_f32_params().with_prefetch_window(window),
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig { lr: 0.01, ..Default::default() },
            )
            .unwrap();
            let opts = RunOptions { batch: 1, ..Default::default() };
            let mut losses = Vec::new();
            for (step, mask) in masks.iter().enumerate() {
                let (tokens, targets) = synthetic_batch(&cfg, 1, step);
                losses.push(
                    model
                        .train_step_dynamic(&mut engine, &tokens, &targets, &opts, mask)
                        .unwrap(),
                );
                engine.step().unwrap();
            }
            (losses, engine.stats())
        };

        let (with, stats_on) = run(3);
        let (without, stats_off) = run(0);
        assert_eq!(with, without, "prefetching must not change dynamic numerics");
        assert!(stats_on.prefetch.issued > 0, "prefetcher should engage");
        assert!(
            stats_on.prefetch.hits > 0,
            "trace-predicted prefetches should hit even with changing masks: {:?}",
            stats_on.prefetch
        );
        assert_eq!(stats_off.prefetch.issued, 0);
    }
}
