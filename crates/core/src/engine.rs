//! The per-rank ZeRO engine: a [`ParamStore`] with partitioning, offload,
//! gather-on-demand, gradient reduce-scatter and an offloaded optimizer.
//!
//! ## Lifecycle of a parameter (ZeRO-3 / ZeRO-Infinity path)
//!
//! 1. **Init** — each rank materializes the deterministic initial values
//!    one parameter at a time, keeps only its own padded shard (cast to
//!    the storage dtype) and places it on the configured device. The full
//!    model is never resident on any rank (Sec. 7.2).
//! 2. **Fetch** (`get`) — the shard is read from its tier (an NVMe
//!    shard from the node's CPU shard cache when it is there — it is
//!    after the step that published it — else from the device, where
//!    prefetched reads are consumed), all shards are allgathered
//!    (bandwidth-centric partitioning, Sec. 6.1: every rank's PCIe/NVMe
//!    link carries 1/dp of the parameter) and each rank's bytes are
//!    decoded once, straight into the f32 compute tensor, which is
//!    charged against GPU working memory.
//! 3. **Release** — the gathered tensor's GPU working memory is freed
//!    and its storage recycled for the next fetch of that size; only the
//!    shard remains.
//! 4. **Gradient** (`add_grad`) — the full local gradient is
//!    reduce-scattered and the reduced values are accumulated, in the
//!    same pass, into this rank's shard on the gradient tier.
//! 5. **Step** — each rank streams its optimizer-state shard through
//!    bounded chunks (NVMe→CPU→update→NVMe, Sec. 5.2.2), updates the fp32
//!    master, and writes the fresh fp16 shard back to the parameter tier
//!    chunk by chunk, as the fourth stream of the same pipeline.
//!    Replicated-parameter strategies (ZeRO-1/2/Offload) instead allgather
//!    the updated slices back into every replica.

use std::collections::{HashMap, VecDeque};

use zi_comm::{Communicator, Partitioner};
use zi_memory::{Block, PlacementPolicy, ScratchVec};
use zi_model::{ParamId, ParamRegistry, ParamStore};
use zi_optim::{adam_update_chunk, adam_update_chunk_publish, AdamConfig, LossScaler};
use zi_tensor::storage::{accumulate_f32, decode_f32, encode_f32};
use zi_tensor::{FlatBuffer, Tensor};
use zi_trace::{Category, Counter};
use zi_types::{DType, Device, DeviceKind, Error, Result};

use crate::config::Strategy;
use crate::offload::{OffloadManager, PlacedBuf, PlacedPending, PublishStream, WriteBehind};
use crate::prefetch::{PrefetchStats, Prefetcher, TraceMap};

/// Optimizer state (fp32 master/momentum/variance) for this rank's
/// update range. For NVMe-tier optimizer state each of the three may be
/// split between CPU DRAM and the device, and the streamed step drives
/// both paths at once.
struct OptimStorage {
    master: PlacedBuf,
    m: PlacedBuf,
    v: PlacedBuf,
    /// The policy the three buffers were last (re)stored under; compared
    /// against the strategy's current policy to detect re-tier drift.
    policy: PlacementPolicy,
    step: u64,
}

/// Everything the engine tracks for one parameter.
struct ShardState {
    shape: Vec<usize>,
    numel: usize,
    shard_len: usize,
    /// The stored parameter: this rank's padded shard when the strategy
    /// partitions parameters, the full tensor otherwise.
    param: PlacedBuf,
    /// Accumulated f32 gradient: this rank's reduce-scattered shard when
    /// the strategy partitions gradients, the fully reduced gradient
    /// otherwise.
    grad: Option<PlacedBuf>,
    /// Set when any accumulated gradient element went non-finite; the
    /// overflow scan is fused into accumulation (a non-finite term keeps
    /// every later running sum non-finite, so OR-ing per-deposit flags
    /// equals scanning the final gradient) — `step` reads the flags
    /// instead of re-loading every gradient buffer.
    grad_nonfinite: bool,
    optim: OptimStorage,
}

/// A gathered parameter currently resident in GPU working memory.
struct Resident {
    tensor: Tensor,
    refcount: usize,
    gpu_block: Block,
}

/// Buffers below this many elements are not worth recycling.
const MIN_RECYCLED_ELEMS: usize = 1024;

/// Recycled buffers keyed by element count: what a released parameter
/// or an applied gradient leaves behind for the next fetch or deposit of
/// the same size, so neither path allocates in steady state (the fixed,
/// reused buffer set of Sec. 6.3). Contents are unspecified: every taker
/// overwrites the whole buffer. A list holds only what it once handed
/// out, so it never outgrows what was simultaneously in use.
struct FreeList<T> {
    by_len: HashMap<usize, Vec<T>>,
}

impl<T> FreeList<T> {
    fn new() -> Self {
        FreeList { by_len: HashMap::new() }
    }

    fn take(&mut self, len: usize) -> Option<T> {
        self.by_len.get_mut(&len)?.pop()
    }

    fn put(&mut self, len: usize, buf: T) {
        if len >= MIN_RECYCLED_ELEMS {
            self.by_len.entry(len).or_default().push(buf);
        }
    }
}

impl FreeList<Vec<f32>> {
    /// A vector of exactly `len` elements.
    fn take_f32(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take(len).unwrap_or_default();
        buf.resize(len, 0.0);
        buf
    }
}

/// Counters describing the engine's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Parameter allgathers performed.
    pub allgathers: u64,
    /// Elements moved by parameter allgathers (full, padded).
    pub gathered_elems: u64,
    /// Gradient reduce-scatters (or allreduces) performed.
    pub grad_reductions: u64,
    /// `get` calls satisfied from the resident cache.
    pub cache_hits: u64,
    /// Optimizer chunks streamed through CPU memory.
    pub optimizer_chunks: u64,
    /// Steps skipped because of non-finite gradients.
    pub skipped_steps: u64,
    /// Optimizer steps applied.
    pub steps: u64,
    /// Optimizer chunks whose update began while device I/O (later
    /// chunks' reads or earlier chunks' write-behind) was still in
    /// flight — the pipelined step's achieved read/update/write overlap.
    pub step_io_overlap: u64,
    /// Prefetcher effectiveness.
    pub prefetch: PrefetchStats,
}

/// Per-rank ZeRO / ZeRO-Infinity engine.
pub struct ZeroEngine {
    strategy: Strategy,
    mgr: OffloadManager,
    comm: Communicator,
    gpu_index: usize,
    part: Partitioner,
    adam: AdamConfig,
    scaler: LossScaler,
    shards: Vec<ShardState>,
    /// Extra gradient divisor for multi-micro-batch accumulation.
    grad_accum_steps: f32,
    resident: HashMap<ParamId, Resident>,
    /// Storage of released compute tensors (and published masters).
    f32_bufs: FreeList<Vec<f32>>,
    /// Gradient buffers the optimizer step has consumed.
    grad_bufs: FreeList<FlatBuffer>,
    prefetcher: Prefetcher,
    trace: TraceMap,
    /// Last placement-cell version consumed; newer publishes (a
    /// degradation collapse) are folded in at the next step.
    placement_seen: u64,
    stats: EngineStats,
}

impl ZeroEngine {
    /// Build the engine for one rank, initializing and immediately
    /// partitioning/offloading every parameter of `registry`.
    pub fn new(
        registry: &ParamRegistry,
        strategy: Strategy,
        mgr: OffloadManager,
        comm: Communicator,
        adam: AdamConfig,
    ) -> Result<Self> {
        let gpu_index = comm.rank();
        Self::new_with_gpu(registry, strategy, mgr, comm, adam, gpu_index)
    }

    /// Like [`ZeroEngine::new`] but with an explicit GPU pool index,
    /// needed when tensor parallelism gives several engines the same
    /// data-parallel rank on one node (gpu = dp_rank * mp + mp_rank).
    pub fn new_with_gpu(
        registry: &ParamRegistry,
        strategy: Strategy,
        mgr: OffloadManager,
        comm: Communicator,
        adam: AdamConfig,
        gpu_index: usize,
    ) -> Result<Self> {
        // ZeRO stages nest: params ⊆ grads ⊆ optimizer partitioning.
        if strategy.partition_params && !strategy.partition_grads
            || strategy.partition_grads && !strategy.partition_optimizer
        {
            return Err(Error::InvalidArgument(
                "invalid stage combination: ZeRO partitioning must nest \
                 (optimizer ⊇ grads ⊇ params)"
                    .into(),
            ));
        }
        if strategy.optimizer_chunk == 0 {
            return Err(Error::InvalidArgument("optimizer_chunk must be nonzero".into()));
        }
        if strategy.knobs.step_pipeline_depth == 0 {
            return Err(Error::InvalidArgument(
                "step_pipeline_depth must be at least 1 (1 = sequential)".into(),
            ));
        }
        let rank = comm.rank();
        let world = comm.world_size();
        let part = Partitioner::new(world);
        let mut shards = Vec::with_capacity(registry.len());
        for meta in registry.iter() {
            // One parameter at a time: peak init memory is a single
            // parameter, never the whole model (Sec. 7.2).
            let full = meta.init_tensor();
            let numel = full.numel();
            let shard_len = part.shard_len(numel);

            let param_device = device_for(strategy.placement.params, gpu_index);
            let stored = if strategy.partition_params {
                let mut padded = full.data().to_vec();
                padded.resize(part.padded_len(numel), 0.0);
                let range = part.shard_range(numel, rank);
                FlatBuffer::from_f32(strategy.param_dtype, &padded[range])
            } else {
                FlatBuffer::from_f32(strategy.param_dtype, full.data())
            };
            // Parameters and gradients are stored whole on their tier —
            // the one-segment plan; only optimizer state follows a
            // configurable policy.
            let param = mgr.store_placed(param_device, &PlacementPolicy::all_nvme(), stored)?;

            // Optimizer master state initialized from the same values so
            // fp32 masters agree with (or refine) the stored params.
            let optim_device = device_for(strategy.placement.optimizer, gpu_index);
            let master_vals: Vec<f32> = if strategy.partition_optimizer {
                let mut padded = full.data().to_vec();
                padded.resize(part.padded_len(numel), 0.0);
                padded[part.shard_range(numel, rank)].to_vec()
            } else {
                full.data().to_vec()
            };
            let opt_len = master_vals.len();
            let policy = strategy.optimizer_policy();
            let optim = OptimStorage {
                master: mgr.store_placed(
                    optim_device,
                    &policy,
                    FlatBuffer::from_f32(DType::F32, &master_vals),
                )?,
                m: mgr.store_placed(optim_device, &policy, FlatBuffer::zeros(DType::F32, opt_len))?,
                v: mgr.store_placed(optim_device, &policy, FlatBuffer::zeros(DType::F32, opt_len))?,
                policy,
                step: 0,
            };

            shards.push(ShardState {
                shape: meta.shape.clone(),
                numel,
                shard_len,
                param,
                grad: None,
                grad_nonfinite: false,
                optim,
            });
        }
        // Anything published before construction is already reflected in
        // the stores above (a degraded node collapses plans up front).
        let placement_seen = mgr.placement_cell().read().0;
        Ok(ZeroEngine {
            strategy,
            mgr,
            comm,
            gpu_index,
            part,
            adam,
            scaler: LossScaler::default(),
            shards,
            grad_accum_steps: 1.0,
            resident: HashMap::new(),
            f32_bufs: FreeList::new(),
            grad_bufs: FreeList::new(),
            prefetcher: Prefetcher::new(),
            trace: TraceMap::new(),
            placement_seen,
            stats: EngineStats::default(),
        })
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Data-parallel world size of this engine's communicator group.
    pub fn world_size(&self) -> usize {
        self.comm.world_size()
    }

    /// Activity counters (prefetch stats folded in).
    pub fn stats(&self) -> EngineStats {
        EngineStats { prefetch: self.prefetcher.stats(), ..self.stats }
    }

    /// Strategy in force.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The offload manager (for pool statistics in tests/benches).
    pub fn offload_manager(&self) -> &OffloadManager {
        &self.mgr
    }

    fn gpu_device(&self) -> Device {
        Device::gpu(self.gpu_index)
    }

    /// Elements of the buffer `id` is gathered into: every rank's padded
    /// shard, or the replica itself.
    fn gathered_len(&self, id: ParamId) -> usize {
        let st = &self.shards[id.0];
        if self.strategy.partition_params { st.shard_len * self.part.world } else { st.numel }
    }

    /// Fetch the full f32 values of a parameter from wherever they live,
    /// decoding the stored bytes once, into a recycled buffer.
    fn gather_values(&mut self, id: ParamId) -> Result<Vec<f32>> {
        let mut vals = self.f32_bufs.take_f32(self.gathered_len(id));
        let st = &self.shards[id.0];
        let dtype = self.strategy.param_dtype;
        if !self.strategy.partition_params {
            decode_f32(dtype, self.mgr.fetch_placed(&st.param)?.as_bytes(), &mut vals)?;
            return Ok(vals);
        }
        // A resident shard is borrowed for the collective, an NVMe one is
        // the staging buffer its (pre)fetch filled.
        let shard = if self.strategy.prefetch {
            self.prefetcher.fetch(&self.mgr, id, &st.param)?
        } else {
            self.mgr.fetch_placed(&st.param)?
        };
        gather_decode(&self.comm, dtype, shard.as_bytes(), st.shard_len, &mut vals)?;
        drop(shard);
        self.stats.allgathers += 1;
        self.stats.gathered_elems += vals.len() as u64;
        vals.truncate(st.numel);
        Ok(vals)
    }

    /// Start an asynchronous load of `id`'s shard unless it is resident
    /// or already on its way.
    fn prefetch_shard(&mut self, id: ParamId) {
        if self.strategy.partition_params
            && !self.resident.contains_key(&id)
            && !self.prefetcher.is_pending(id)
        {
            self.prefetcher.prefetch(&self.mgr, id, &self.shards[id.0].param);
        }
    }

    /// Issue trace-predicted prefetches for the next parameters.
    fn prefetch_ahead(&mut self) {
        if !self.strategy.prefetch || !self.trace.has_history() {
            return;
        }
        for nid in self.trace.predict_next(self.strategy.knobs.prefetch_window) {
            self.prefetch_shard(nid);
        }
    }

    /// Drop all accumulated gradients (used when a step is skipped).
    pub fn clear_grads(&mut self) {
        for st in &mut self.shards {
            st.grad_nonfinite = false;
            if let Some(buf) = st.grad.take() {
                self.mgr.free_placed(buf);
            }
        }
    }

    /// Apply one optimizer step. Returns `false` if the step was skipped
    /// because some rank saw non-finite gradients (dynamic loss scaling
    /// backoff), `true` if parameters were updated.
    pub fn step(&mut self) -> Result<bool> {
        let step_tracer = self.mgr.tracer().clone();
        let _span = step_tracer.span(Category::OptimStep, "optim.step");
        self.sync_optimizer_placement()?;
        // Global overflow check: any non-finite gradient anywhere skips
        // the step on every rank. The scan itself happened during
        // accumulation (see `ShardState::grad_nonfinite`), so this costs
        // one flag sweep and one collective — no gradient re-load.
        let local_overflow =
            if self.shards.iter().any(|st| st.grad_nonfinite) { 1.0f32 } else { 0.0 };
        let any_overflow = self.comm.sum_scalar(local_overflow)? > 0.0;
        if any_overflow {
            self.clear_grads();
            self.scaler.update(true);
            self.stats.skipped_steps += 1;
            self.end_iteration()?;
            return Ok(false);
        }
        self.scaler.update(false);

        self.reserve_step_staging();
        // One write-behind window spans every parameter, so one
        // parameter's writes overlap the next one's reads. All of it is
        // reaped here, inside the step — on the success path and on every
        // error path — so write failures surface as the step's own typed
        // error and nothing leaks into the end-of-iteration barrier.
        let mut wb = WriteBehind::new(self.strategy.write_behind_bound());
        let updated = (0..self.shards.len()).try_for_each(|idx| self.update_shard(idx, &mut wb));
        let drained = wb.drain(&self.mgr);
        updated.and(drained)?;
        self.stats.steps += 1;
        self.end_iteration()?;
        Ok(true)
    }

    /// Put the streamed step's staging set in place before its first
    /// chunk: `depth` chunks of read-ahead plus the chunk in hand, three
    /// state streams and a publish each, and the write-behind window,
    /// every buffer one chunk long. How many of them are out at once
    /// depends on when the device completes writes, so a pool that only
    /// allocates on a miss keeps allocating, rarely, for many steps.
    fn reserve_step_staging(&self) {
        let offloaded = self.shards.iter().filter(|st| st.optim.master.is_offloaded());
        let Some(longest) = offloaded.map(|st| st.optim.master.numel()).max() else { return };
        let chunk = self.strategy.optimizer_chunk.min(longest);
        let depth = self.strategy.knobs.step_pipeline_depth.max(1);
        let count = depth * 4 + self.strategy.write_behind_bound();
        self.mgr.staging().reserve(count, DType::F32.bytes_for(chunk));
    }

    /// Apply parameter `idx`'s accumulated gradient (if any) to its
    /// optimizer shard and publish the fresh parameter values.
    fn update_shard(&mut self, idx: usize, wb: &mut WriteBehind) -> Result<()> {
        let Some(buf) = self.shards[idx].grad.take() else { return Ok(()) };
        self.shards[idx].grad_nonfinite = false;
        let (numel, shard_len) = (self.shards[idx].numel, self.shards[idx].shard_len);

        // The gradient slice covering this rank's update range, averaged
        // over ranks in place in the buffer taken out of gradient storage
        // (no load → clone → decode round trip).
        let mut taken = self.mgr.take_placed(buf)?;
        let full = f32_view(&mut taken)?;
        let mut slice;
        let grad = if !self.strategy.partition_grads && self.strategy.partition_optimizer {
            let range = self.part.shard_range(numel, self.comm.rank());
            slice = vec![0f32; shard_len];
            let end = range.end.min(numel);
            if range.start < end {
                slice[..end - range.start].copy_from_slice(&full[range.start..end]);
            }
            &mut slice[..]
        } else {
            full
        };
        let world = self.comm.world_size() as f32 * self.grad_accum_steps;
        for g in grad.iter_mut() {
            *g /= world;
        }

        // Stream the optimizer state through bounded chunks with a
        // depth-deep read pipeline and bounded write-behind. A
        // partitioned parameter's fresh shard rides the same
        // write-behind, chunk by chunk; a replicated one collects the
        // whole master for the allgather publish below.
        let total = grad.len();
        let chunk = self.strategy.optimizer_chunk.min(total.max(1));
        let depth = self.strategy.knobs.step_pipeline_depth.max(1);
        let ShardState { optim, param, .. } = &mut self.shards[idx];
        optim.step += 1;
        let mut new_master = None;
        let publish = if self.strategy.partition_params {
            Publish::Stream(self.mgr.begin_publish(param))
        } else {
            Publish::Whole(new_master.insert(self.f32_bufs.take_f32(total)))
        };
        let stats = &mut self.stats;
        stream_shard_update(&self.mgr, &self.adam, optim, grad, chunk, depth, wb, publish, stats)?;
        // The buffers outlive the step: the next deposit and the next
        // publish of this size reuse them.
        self.grad_bufs.put(taken.numel(), taken);
        if let Some(new_master) = new_master {
            self.publish_master(idx, &new_master)?;
            self.f32_bufs.put(total, new_master);
        }
        Ok(())
    }

    /// Write the fp32 master values covering this rank's update range back
    /// into parameter storage (casting to the storage dtype) — the
    /// one-chunk case of the step's chunk-streamed publish. For
    /// replicated parameters with a partitioned optimizer (ZeRO-1/2) this
    /// performs an allgather and is therefore a collective.
    fn publish_master(&mut self, idx: usize, new_master: &[f32]) -> Result<()> {
        let dtype = self.strategy.param_dtype;
        let numel = self.shards[idx].numel;
        let mut gathered = None;
        // Otherwise new_master covers exactly what this rank stores: its
        // padded shard, or the full replica.
        let values = if !self.strategy.partition_params && self.strategy.partition_optimizer {
            // ZeRO-1/2: gather every rank's updated slice back into the
            // full replica.
            let shard_len = new_master.len();
            let mut mine = self.mgr.staging().acquire(dtype.bytes_for(shard_len));
            encode_f32(dtype, new_master, mine.as_bytes_mut())?;
            let full = gathered.insert(self.f32_bufs.take_f32(shard_len * self.part.world));
            gather_decode(&self.comm, dtype, mine.as_bytes(), shard_len, full)?;
            &full[..numel]
        } else {
            new_master
        };
        let mut wb = WriteBehind::new(1);
        let mut publish = self.mgr.begin_publish(&mut self.shards[idx].param);
        let pushed = publish.push(&mut wb, values);
        let drained = wb.drain(&self.mgr);
        pushed.and(drained)?;
        publish.finish()?;
        if let Some(full) = gathered {
            self.f32_bufs.put(full.len(), full);
        }
        Ok(())
    }

    /// Bring every optimizer shard's placement in line with the current
    /// policy before the step touches it.
    ///
    /// Two inputs, in priority order: a newer publish on the node-wide
    /// plan cell (an NVMe degradation collapsing every plan to all-CPU —
    /// split shards re-publish their NVMe-resident half to CPU instead
    /// of dropping it with the store), then drift between the strategy's
    /// policy and the one each shard was stored under (the re-tier knob;
    /// a load/store round trip, numerically invisible).
    fn sync_optimizer_placement(&mut self) -> Result<()> {
        let mgr = &self.mgr;
        if let Some((version, policy)) = mgr.placement_cell().read_if_newer(self.placement_seen) {
            self.placement_seen = version;
            if policy == PlacementPolicy::all_cpu() {
                for st in &mut self.shards {
                    mgr.collapse_placed(&mut st.optim.master)?;
                    mgr.collapse_placed(&mut st.optim.m)?;
                    mgr.collapse_placed(&mut st.optim.v)?;
                    st.optim.policy = policy;
                }
                return Ok(());
            }
        }
        if self.mgr.is_degraded() {
            // No device to re-tier onto; the collapse above (or the
            // degraded store path) already owns placement.
            return Ok(());
        }
        let target = self.strategy.optimizer_policy();
        let optim_device = device_for(self.strategy.placement.optimizer, self.gpu_index);
        for st in &mut self.shards {
            if st.optim.policy == target {
                continue;
            }
            mgr.retier_placed(&mut st.optim.master, optim_device, &target)?;
            mgr.retier_placed(&mut st.optim.m, optim_device, &target)?;
            mgr.retier_placed(&mut st.optim.v, optim_device, &target)?;
            st.optim.policy = target;
        }
        Ok(())
    }

    fn end_iteration(&mut self) -> Result<()> {
        self.trace.end_iteration();
        self.prefetcher.clear(&self.mgr);
        self.mgr.flush()
    }

    /// Gather the full f32 value of a parameter (collective: every rank
    /// must call this in the same order).
    pub fn export_param(&mut self, id: ParamId) -> Result<Tensor> {
        let vals = self.gather_values(id)?;
        let shape = self.shards[id.0].shape.clone();
        Tensor::from_vec(&shape, vals)
    }

    /// Current loss scale (for observability).
    pub fn loss_scale(&self) -> f32 {
        self.scaler.scale()
    }

    /// Number of parameters managed by this engine.
    pub fn param_count(&self) -> usize {
        self.shards.len()
    }

    /// Update the learning rate (for schedules; takes effect at the next
    /// optimizer step).
    pub fn set_lr(&mut self, lr: f32) {
        self.adam.lr = lr;
    }

    /// Declare how many micro-batches are accumulated per optimizer step;
    /// deposited gradients are averaged over `world * steps`.
    pub fn set_grad_accumulation(&mut self, steps: usize) {
        assert!(steps > 0, "accumulation steps must be positive");
        self.grad_accum_steps = steps as f32;
    }

    /// Apply live overlap knobs from the adaptive controller. Takes
    /// effect at the next step/forward — the engine reads its strategy
    /// afresh each optimizer step (pipeline depth, write-behind bound)
    /// and each prefetch decision (look-ahead window), and `&mut self`
    /// guarantees no step is in flight while the fields change. Knob
    /// changes are numerically invisible by construction: the pipelined
    /// step is bit-identical to the sequential one at every depth, and
    /// the prefetcher only warms caches.
    pub fn apply_knobs(&mut self, knobs: zi_adapt::Knobs) {
        self.strategy.knobs = zi_adapt::Knobs {
            step_pipeline_depth: knobs.step_pipeline_depth.max(1),
            write_behind: knobs.write_behind.max(1),
            // The re-tier knob: shards whose stored placement drifts
            // from the new policy are moved at the start of the next
            // step (load/store round trip — bit-preserving, like the
            // others).
            optimizer_cpu_permille: knobs.optimizer_cpu_permille.min(1000),
            ..knobs
        };
    }

    /// The overlap knobs currently in force (inverse of
    /// [`ZeroEngine::apply_knobs`]).
    pub fn knobs(&self) -> zi_adapt::Knobs {
        self.strategy.live_knobs()
    }

    /// Read every parameter's optimizer shard out of its tier
    /// (checkpoint save path).
    pub(crate) fn export_optimizer_records(
        &self,
    ) -> Result<Vec<crate::checkpoint::ParamRecord>> {
        let mut out = Vec::with_capacity(self.shards.len());
        for st in &self.shards {
            out.push(crate::checkpoint::ParamRecord {
                step: st.optim.step,
                numel: st.numel as u64,
                master: self.mgr.load_placed(&st.optim.master)?.to_f32_vec(),
                m: self.mgr.load_placed(&st.optim.m)?.to_f32_vec(),
                v: self.mgr.load_placed(&st.optim.v)?.to_f32_vec(),
            });
        }
        Ok(out)
    }

    /// Overwrite optimizer state from checkpoint records and republish
    /// the parameter tensors from the restored masters (checkpoint load
    /// path; collective for replicated-parameter strategies).
    pub(crate) fn import_optimizer_records(
        &mut self,
        records: Vec<crate::checkpoint::ParamRecord>,
    ) -> Result<()> {
        if records.len() != self.shards.len() {
            return Err(Error::InvalidArgument("record count mismatch".into()));
        }
        for (idx, rec) in records.iter().enumerate() {
            let st = &self.shards[idx];
            if rec.master.len() != st.optim.master.numel() {
                return Err(Error::InvalidArgument(format!(
                    "param {idx}: checkpoint shard of {} elements, engine expects {}",
                    rec.master.len(),
                    st.optim.master.numel()
                )));
            }
            if rec.numel != st.numel as u64 {
                return Err(Error::InvalidArgument(format!(
                    "param {idx}: checkpoint numel {}, engine expects {}",
                    rec.numel, st.numel
                )));
            }
        }
        for (idx, rec) in records.into_iter().enumerate() {
            {
                let st = &mut self.shards[idx];
                st.optim.step = rec.step;
                self.mgr.overwrite_placed(
                    &mut st.optim.master,
                    &FlatBuffer::from_f32(DType::F32, &rec.master),
                )?;
                self.mgr
                    .overwrite_placed(&mut st.optim.m, &FlatBuffer::from_f32(DType::F32, &rec.m))?;
                self.mgr
                    .overwrite_placed(&mut st.optim.v, &FlatBuffer::from_f32(DType::F32, &rec.v))?;
            }
            self.publish_master(idx, &rec.master)?;
        }
        Ok(())
    }

    /// Free every device allocation held by this engine. The engine is
    /// consumed; pools return to their empty state.
    pub fn dispose(mut self) -> Result<()> {
        self.prefetcher.clear(&self.mgr);
        self.clear_grads();
        for st in self.shards.drain(..) {
            self.mgr.free_placed(st.param);
            self.mgr.free_placed(st.optim.master);
            self.mgr.free_placed(st.optim.m);
            self.mgr.free_placed(st.optim.v);
        }
        let gpu = self.gpu_device();
        for (_, r) in self.resident.drain() {
            self.mgr.hierarchy().free(gpu, r.gpu_block);
        }
        Ok(())
    }
}

impl ParamStore for ZeroEngine {
    fn get(&mut self, id: ParamId) -> Result<Tensor> {
        self.trace.record(id);
        if let Some(r) = self.resident.get_mut(&id) {
            r.refcount += 1;
            self.stats.cache_hits += 1;
            return Ok(r.tensor.clone());
        }
        let vals = self.gather_values(id)?;
        let st = &self.shards[id.0];
        // Charge the gathered compute tensor against GPU working memory;
        // failure here is the OOM that memory-centric tiling exists to
        // avoid (Sec. 5.1.3).
        let bytes = (st.numel * 4) as u64;
        // The cg hop: the gathered f32 values land in GPU working memory.
        let mut span = self.mgr.tracer().span(Category::CgTransfer, "cg.upload");
        span.set_bytes(bytes);
        span.set_id(id.0 as u64);
        let gpu_block = self.mgr.hierarchy().alloc(self.gpu_device(), bytes)?;
        let tensor = Tensor::from_vec(&st.shape, vals)?;
        drop(span);
        self.mgr.tracer().count(Counter::CgBytes, bytes);
        self.resident.insert(id, Resident { tensor: tensor.clone(), refcount: 1, gpu_block });
        self.prefetch_ahead();
        Ok(tensor)
    }

    fn release(&mut self, id: ParamId) -> Result<()> {
        let Some(r) = self.resident.get_mut(&id) else {
            return Err(Error::Internal(format!("release of non-resident param {id:?}")));
        };
        r.refcount -= 1;
        if r.refcount == 0 {
            if let Some(r) = self.resident.remove(&id) {
                self.mgr.hierarchy().free(self.gpu_device(), r.gpu_block);
                // Recycle the storage if every user dropped its handle
                // before releasing (the runner does).
                if let Ok(vals) = r.tensor.try_into_vec() {
                    self.f32_bufs.put(self.gathered_len(id), vals);
                }
            }
        }
        Ok(())
    }

    fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
        let st = &self.shards[id.0];
        if grad.numel() != st.numel {
            return Err(Error::shape(format!(
                "add_grad: {} elements for param of {}",
                grad.numel(),
                st.numel
            )));
        }
        self.stats.grad_reductions += 1;
        // This rank keeps its reduce-scattered shard of the (implicitly
        // padded) gradient, or the whole allreduced gradient.
        let scatter = self.strategy.partition_grads.then(|| self.part.padded_len(st.numel));
        let grad_device = device_for(self.strategy.placement.grads, self.gpu_index);
        let st = &mut self.shards[id.0];
        deposit_grad(&self.mgr, &self.comm, &mut self.grad_bufs, st, grad_device, grad.data(), scatter)
    }

    fn tracer(&self) -> Option<&zi_trace::Tracer> {
        Some(self.mgr.tracer())
    }

    fn hint_upcoming(&mut self, ids: &[ParamId]) {
        if !self.strategy.prefetch {
            return;
        }
        for &id in ids {
            self.prefetch_shard(id);
        }
    }
}

/// The elements of a gradient buffer as f32.
fn f32_view(buf: &mut FlatBuffer) -> Result<&mut [f32]> {
    buf.as_f32_mut()
        .ok_or_else(|| Error::Internal("gradient storage is not an aligned f32 buffer".into()))
}

/// Allgather `shard` — this rank's `shard_len` elements stored as `dtype`
/// — decoding every rank's contribution once, straight into
/// `dest[rank * shard_len ..]`. A contribution of any other length is a
/// typed error on every rank.
fn gather_decode(
    comm: &Communicator,
    dtype: DType,
    shard: &[u8],
    shard_len: usize,
    dest: &mut [f32],
) -> Result<()> {
    comm.allgather_with(shard, |rank, bytes| {
        let out = dest
            .get_mut(rank * shard_len..(rank + 1) * shard_len)
            .ok_or_else(|| Error::Internal("gather destination shorter than the world".into()))?;
        decode_f32(dtype, bytes, out)
    })
}

/// `dst += sums` when `add`, else `dst = sums`; true when any resulting
/// element is non-finite. Plain functions over two slices, so the loops
/// vectorize wherever this is called from.
fn land_block(dst: &mut [f32], sums: &[f32], add: bool) -> bool {
    if add {
        return accumulate_f32(dst, sums);
    }
    dst.copy_from_slice(sums);
    sums.iter().fold(false, |nonfinite, sum| nonfinite | !sum.is_finite())
}

/// Reduce `grad` across ranks and accumulate this rank's part of the sum
/// — its shard of the gradient padded to `scatter`, or all of it — into
/// `st`'s gradient storage, the overflow scan riding the same pass.
fn deposit_grad(
    mgr: &OffloadManager,
    comm: &Communicator,
    free: &mut FreeList<FlatBuffer>,
    st: &mut ShardState,
    grad_device: Device,
    grad: &[f32],
    scatter: Option<usize>,
) -> Result<()> {
    let len = if scatter.is_some() { st.shard_len } else { st.numel };
    // One pass: each reduced block lands in `dst` (added to what is
    // there, or replacing it) while it is still in cache. True when any
    // resulting element is non-finite.
    let reduce_into = |dst: &mut [f32], add: bool| -> Result<bool> {
        let mut nonfinite = false;
        let consume = |at: usize, sums: &[f32]| {
            let dst = dst
                .get_mut(at..at + sums.len())
                .ok_or_else(|| Error::Internal("reduced range exceeds the gradient shard".into()))?;
            nonfinite |= land_block(dst, sums, add);
            Ok(())
        };
        match scatter {
            Some(padded_len) => comm.reduce_scatter_with(grad, padded_len, consume)?,
            None => comm.allreduce_with(grad, consume)?,
        }
        Ok(nonfinite)
    };
    if st.grad.as_ref().is_some_and(|buf| buf.numel() != len) {
        return Err(Error::Internal("gradient accumulation length drift".into()));
    }
    if let Some(Ok(resident)) = st.grad.as_mut().map(|buf| buf.resident_f32_mut(0, len)) {
        st.grad_nonfinite |= reduce_into(resident, true)?;
        return Ok(());
    }
    // Anything but a RAM-resident, one-segment gradient to add into
    // takes the reduced values whole, in a recycled buffer.
    let mut reduced = free.take(len).unwrap_or_else(|| FlatBuffer::zeros(DType::F32, len));
    let nonfinite = reduce_into(f32_view(&mut reduced)?, false)?;
    match &mut st.grad {
        // NVMe-tier or split gradient storage (no Table-2 strategy):
        // accumulated segment by segment on the gradient tier.
        Some(buf) => {
            st.grad_nonfinite |= mgr.accumulate_f32_placed(buf, f32_view(&mut reduced)?)?;
            free.put(len, reduced);
        }
        // First deposit: the buffer becomes the gradient storage.
        slot @ None => {
            *slot = Some(mgr.store_placed(grad_device, &PlacementPolicy::all_nvme(), reduced)?);
            st.grad_nonfinite = nonfinite;
        }
    }
    Ok(())
}

fn device_for(kind: DeviceKind, rank: usize) -> Device {
    match kind {
        DeviceKind::Gpu => Device::gpu(rank),
        DeviceKind::Cpu => Device::cpu(),
        DeviceKind::Nvme => Device::nvme(),
    }
}

/// Where a streamed update publishes the fresh master values.
enum Publish<'a> {
    /// Collect them (replicated parameters: published by allgather).
    Whole(&'a mut [f32]),
    /// Convert each chunk to the storage dtype and write it behind, as
    /// the chunk's fourth stream (partitioned parameters).
    Stream(PublishStream<'a>),
}

/// The f32 elements of one streamed chunk: the staging buffer the
/// device filled, or the resident shard itself.
fn chunk_f32<'a>(
    staged: &'a mut Option<ScratchVec>,
    buf: &'a mut PlacedBuf,
    start: usize,
    len: usize,
) -> Result<&'a mut [f32]> {
    match staged {
        Some(staging) => Ok(staging.as_f32_mut()),
        None => buf.resident_f32_mut(start, len),
    }
}

/// Stream one shard's optimizer state (master, m, v) through bounded
/// chunks with a `depth`-deep read pipeline and bounded write-behind
/// (Sec. 5.2.2 + overlap-centric design, Sec. 6.2).
///
/// While chunk k runs Adam, the three reads of chunks k+1..k+depth are
/// already in flight and the writes of chunks < k drain asynchronously
/// under back-pressure. One staging buffer carries each NVMe stream of a
/// chunk the whole way: the device reads into it, the CRC is verified
/// over it, Adam updates it in place, and it moves into the write
/// request; RAM-resident chunks are updated in the resident buffer
/// itself. `depth == 1` degenerates to the fully sequential
/// read→update→write loop (each chunk's writes are drained before the
/// next chunk starts).
///
/// Every read is reaped before returning — on the success path and on
/// every error path — and every write is queued on the caller's `wb`,
/// which the step drains before it returns: failures surface as typed
/// errors inside the step (preserving the retry/checksum/failover
/// semantics) and every staging buffer goes back to its pool.
#[allow(clippy::too_many_arguments)]
fn stream_shard_update(
    mgr: &OffloadManager,
    adam: &AdamConfig,
    optim: &mut OptimStorage,
    grad: &[f32],
    chunk: usize,
    depth: usize,
    wb: &mut WriteBehind,
    mut publish: Publish<'_>,
    stats: &mut EngineStats,
) -> Result<()> {
    let total = grad.len();
    let step_no = optim.step;
    let mut pending: VecDeque<(usize, usize, [PlacedPending; 3])> = VecDeque::new();
    let (mut issued, mut updated) = (0usize, 0usize);

    let mut run = || -> Result<()> {
        while updated < total {
            // Keep `depth` chunks' worth of reads in flight ahead of the
            // update. A chunk ends early at a segment boundary of a split
            // shard, so each one lies on a single path: the NVMe ones
            // queue on the device while the CPU-DRAM ones need no
            // transfer — concurrent nc + cp traffic within one step.
            while issued < total && issued - updated < depth.saturating_mul(chunk) {
                let end = [&optim.master, &optim.m, &optim.v]
                    .iter()
                    .fold(issued.saturating_add(chunk).min(total), |end, buf| {
                        end.min(buf.segment_end(issued))
                    });
                let loads = [
                    mgr.begin_load_elems_placed(&optim.master, issued, end - issued)?,
                    mgr.begin_load_elems_placed(&optim.m, issued, end - issued)?,
                    mgr.begin_load_elems_placed(&optim.v, issued, end - issued)?,
                ];
                pending.push_back((issued, end - issued, loads));
                issued = end;
            }
            let (start, len, loads) = pending
                .pop_front()
                .filter(|&(_, len, _)| len > 0)
                .ok_or_else(|| Error::Internal("optimizer stream has no chunk to update".into()))?;
            // All three are reaped before any failure surfaces.
            let [sm, s1, s2] = loads.map(|load| load.wait(mgr));
            let (mut sm, mut s1, mut s2) = (sm?, s1?, s2?);
            // Measured after the waits: anything still in flight now is
            // genuine overlap (later chunks' reads, earlier writes).
            if mgr.nvme().in_flight() > 0 {
                stats.step_io_overlap += 1;
            }
            {
                let resident = [&sm, &s1, &s2].iter().filter(|s| s.is_none()).count();
                let resident = (resident * len * 4) as u64;
                let master = chunk_f32(&mut sm, &mut optim.master, start, len)?;
                let m = chunk_f32(&mut s1, &mut optim.m, start, len)?;
                let v = chunk_f32(&mut s2, &mut optim.v, start, len)?;
                // The cp hop of a resident chunk is the kernel's own
                // traffic over the DRAM-resident state: read and written
                // once each, in place.
                let _cp = (resident > 0).then(|| {
                    mgr.tracer().count(Counter::CpReadBytes, resident);
                    mgr.tracer().count(Counter::CpWriteBytes, resident);
                    let mut span = mgr.tracer().span(Category::CpTransfer, "cp.update");
                    span.set_bytes(2 * resident);
                    span.set_id(start as u64);
                    span
                });
                {
                    // The compute half of the streamed step: I/O hidden
                    // behind these spans is the pipeline's overlap win.
                    let mut span = mgr.tracer().span(Category::Compute, "adam_chunk");
                    span.set_bytes((len * 4) as u64);
                    // ~15 scalar flops per element in the Adam recurrence
                    // (moment updates, bias correction, sqrt, update).
                    span.set_flops(15 * len as u64);
                    span.set_id(start as u64);
                    let grad = &grad[start..start + len];
                    match &mut publish {
                        Publish::Whole(out) => adam_update_chunk_publish(
                            adam, step_no, master, m, v, grad, &mut out[start..start + len],
                        ),
                        Publish::Stream(_) => adam_update_chunk(adam, step_no, master, m, v, grad),
                    }
                }
                if let Publish::Stream(stream) = &mut publish {
                    stream.push(wb, master)?;
                }
            }
            for (staged, buf) in [(sm, &optim.master), (s1, &optim.m), (s2, &optim.v)] {
                if let Some(staging) = staged {
                    wb.submit_staged(mgr, buf, start, staging)?;
                }
            }
            if depth == 1 {
                // Sequential semantics: this chunk's writes completed
                // before the next chunk's reads are even issued.
                wb.drain(mgr)?;
            }
            updated += len;
            stats.optimizer_chunks += 1;
        }
        Ok(())
    };
    let result = run();
    // Reap the reads a failure abandoned.
    for (_, _, loads) in pending.drain(..) {
        for load in loads {
            load.discard(mgr);
        }
    }
    result?;
    match publish {
        Publish::Stream(stream) => stream.finish(),
        Publish::Whole(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::{NodeEnv, NodeResources};
    use zi_memory::NodeMemorySpec;
    use zi_model::ParamRegistry;

    fn tiny_registry() -> ParamRegistry {
        let mut reg = ParamRegistry::new();
        reg.register("w", &[3, 4], 5, 0.2, 0.0);
        reg.register("b", &[5], 6, 0.0, 1.0);
        reg
    }

    fn single_rank(strategy: Strategy) -> (NodeResources, ZeroEngine, ParamRegistry) {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = tiny_registry();
        let engine = ZeroEngine::new(
            &reg,
            strategy,
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        (node, engine, reg)
    }

    #[test]
    fn init_matches_registry_on_every_strategy() {
        for strategy in Strategy::table2() {
            let (_node, mut eng, reg) = single_rank(strategy.with_f32_params());
            for meta in reg.iter() {
                let got = eng.get(meta.id).unwrap();
                let expect = meta.init_tensor();
                assert_eq!(got.shape(), expect.shape(), "{}: {}", strategy.name, meta.name);
                for (a, b) in got.data().iter().zip(expect.data()) {
                    assert!((a - b).abs() < 1e-6, "{}: {}", strategy.name, meta.name);
                }
                eng.release(meta.id).unwrap();
            }
            eng.dispose().unwrap();
        }
    }

    #[test]
    fn fp16_storage_quantizes_but_preserves_magnitude() {
        let (_node, mut eng, reg) = single_rank(Strategy::infinity_nvme());
        let id = reg.find("w").unwrap();
        let got = eng.get(id).unwrap();
        let expect = reg.meta(id).init_tensor();
        for (a, b) in got.data().iter().zip(expect.data()) {
            assert!((a - b).abs() < 1e-3 + b.abs() * 1e-3);
        }
        eng.release(id).unwrap();
        eng.dispose().unwrap();
    }

    #[test]
    fn refcounted_residency() {
        let (node, mut eng, reg) = single_rank(Strategy::infinity_cpu().with_f32_params());
        let id = reg.find("w").unwrap();
        let gpu_used_before = node.hierarchy.stats(Device::gpu(0)).in_use;
        let _a = eng.get(id).unwrap();
        let _b = eng.get(id).unwrap();
        assert_eq!(eng.stats().cache_hits, 1);
        let during = node.hierarchy.stats(Device::gpu(0)).in_use;
        assert!(during > gpu_used_before, "working memory must be charged");
        eng.release(id).unwrap();
        // Still resident (refcount 1): memory held.
        assert_eq!(node.hierarchy.stats(Device::gpu(0)).in_use, during);
        eng.release(id).unwrap();
        assert_eq!(node.hierarchy.stats(Device::gpu(0)).in_use, gpu_used_before);
        eng.dispose().unwrap();
    }

    #[test]
    fn a_failed_forward_leaves_nothing_resident() {
        use zi_model::{GptConfig, GptModel};
        let cfg = GptConfig::tiny();
        let model = GptModel::new(cfg);
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let engine_on = |node: &NodeResources| {
            ZeroEngine::new(
                model.registry(),
                Strategy::infinity_cpu(),
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            )
            .unwrap()
        };
        let good = vec![1usize; cfg.seq];
        let fresh_node = NodeResources::in_memory(&spec, 1);
        let mut fresh = engine_on(&fresh_node);
        let expect = model.forward_logits(&mut fresh, &good, 1).unwrap();

        let node = NodeResources::in_memory(&spec, 1);
        let mut eng = engine_on(&node);
        // One out-of-vocabulary token: the embedding fails after `wte`
        // and `wpe` were gathered.
        let mut bad = good.clone();
        bad[1] = cfg.vocab;
        assert!(model.forward_logits(&mut eng, &bad, 1).is_err());
        assert_eq!(node.hierarchy.stats(Device::gpu(0)).in_use, 0, "gathered blocks leaked");
        let hits = eng.stats().cache_hits;
        let after = model.forward_logits(&mut eng, &good, 1).unwrap();
        assert_eq!(after.data(), expect.data());
        assert_eq!(eng.stats().cache_hits, hits, "a parameter was still resident");
        assert_eq!(node.hierarchy.stats(Device::gpu(0)).in_use, 0);
        eng.dispose().unwrap();
        fresh.dispose().unwrap();
    }

    #[test]
    fn release_without_get_errors() {
        let (_node, mut eng, reg) = single_rank(Strategy::zero_3());
        assert!(eng.release(reg.find("w").unwrap()).is_err());
        eng.dispose().unwrap();
    }

    #[test]
    fn adam_step_moves_params_single_rank() {
        let (_node, mut eng, reg) = single_rank(Strategy::infinity_nvme().with_f32_params());
        let id = reg.find("w").unwrap();
        let before = eng.export_param(id).unwrap();
        let grad = Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap();
        eng.add_grad(id, &grad).unwrap();
        assert!(eng.step().unwrap());
        let after = eng.export_param(id).unwrap();
        // Adam's first step moves each coordinate by ~lr against the grad.
        for (b, a) in before.data().iter().zip(after.data()) {
            assert!((b - a - 1e-3).abs() < 1e-4, "expected ~lr decrease: {b} -> {a}");
        }
        assert_eq!(eng.stats().steps, 1);
        eng.dispose().unwrap();
    }

    #[test]
    fn chunked_step_equals_monolithic_step() {
        let run = |chunk: usize| {
            let (_node, mut eng, reg) =
                single_rank(Strategy::infinity_nvme().with_f32_params().with_optimizer_chunk(chunk));
            let id = reg.find("w").unwrap();
            for s in 0..3 {
                let grad =
                    Tensor::from_vec(&[3, 4], (0..12).map(|i| (i + s) as f32 * 0.1).collect())
                        .unwrap();
                eng.add_grad(id, &grad).unwrap();
                eng.step().unwrap();
            }
            let out = eng.export_param(id).unwrap();
            eng.dispose().unwrap();
            out
        };
        let mono = run(usize::MAX);
        let chunked = run(5);
        assert_eq!(mono.data(), chunked.data(), "chunk streaming must be exact");
    }

    #[test]
    fn overflow_skips_step_and_backs_off_scale() {
        let (_node, mut eng, reg) = single_rank(Strategy::infinity_cpu().with_f32_params());
        let id = reg.find("w").unwrap();
        let before = eng.export_param(id).unwrap();
        let scale_before = eng.loss_scale();
        let grad = Tensor::from_vec(&[3, 4], vec![f32::INFINITY; 12]).unwrap();
        eng.add_grad(id, &grad).unwrap();
        assert!(!eng.step().unwrap(), "overflow must skip the step");
        let after = eng.export_param(id).unwrap();
        assert_eq!(before.data(), after.data());
        assert!(eng.loss_scale() < scale_before);
        assert_eq!(eng.stats().skipped_steps, 1);
        // A healthy step afterwards applies normally.
        let grad = Tensor::from_vec(&[3, 4], vec![0.5; 12]).unwrap();
        eng.add_grad(id, &grad).unwrap();
        assert!(eng.step().unwrap());
        eng.dispose().unwrap();
    }

    #[test]
    fn grad_accumulation_across_micro_batches() {
        let (_node, mut eng, reg) = single_rank(Strategy::zero_3().with_f32_params());
        let id = reg.find("b").unwrap();
        let g1 = Tensor::from_vec(&[5], vec![1.0; 5]).unwrap();
        eng.add_grad(id, &g1).unwrap();
        eng.add_grad(id, &g1).unwrap();
        // Step with accumulated grad = 2.0 everywhere must equal a single
        // deposit of 2.0.
        eng.step().unwrap();
        let a = eng.export_param(id).unwrap();

        let (_node2, mut eng2, reg2) = single_rank(Strategy::zero_3().with_f32_params());
        let id2 = reg2.find("b").unwrap();
        let g2 = Tensor::from_vec(&[5], vec![2.0; 5]).unwrap();
        eng2.add_grad(id2, &g2).unwrap();
        eng2.step().unwrap();
        let b = eng2.export_param(id2).unwrap();
        assert_eq!(a.data(), b.data());
        eng.dispose().unwrap();
        eng2.dispose().unwrap();
    }

    #[test]
    fn dispose_returns_all_memory() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = tiny_registry();
        let mut eng = ZeroEngine::new(
            &reg,
            Strategy::infinity_nvme(),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        let id = reg.find("w").unwrap();
        let g = Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap();
        eng.add_grad(id, &g).unwrap();
        let _p = eng.get(id).unwrap();
        eng.dispose().unwrap();
        for dev in [Device::gpu(0), Device::cpu(), Device::nvme()] {
            assert_eq!(node.hierarchy.stats(dev).in_use, 0, "leak on {dev}");
        }
    }

    #[test]
    fn pipelined_step_is_bit_identical_to_sequential() {
        let run = |depth: usize| {
            let (_node, mut eng, reg) = single_rank(
                Strategy::infinity_nvme()
                    .with_f32_params()
                    .with_optimizer_chunk(5)
                    .with_step_pipeline_depth(depth),
            );
            let id = reg.find("w").unwrap();
            for s in 0..3 {
                let grad =
                    Tensor::from_vec(&[3, 4], (0..12).map(|i| (i + s) as f32 * 0.1).collect())
                        .unwrap();
                eng.add_grad(id, &grad).unwrap();
                eng.step().unwrap();
            }
            let out = eng.export_param(id).unwrap();
            eng.dispose().unwrap();
            out
        };
        let sequential = run(1);
        for depth in [2, 3, 4, 8] {
            assert_eq!(
                sequential.data(),
                run(depth).data(),
                "pipeline depth {depth} must be invisible to the math"
            );
        }
    }

    #[test]
    fn pipelined_step_keeps_multiple_requests_in_flight() {
        use std::time::Duration;
        use zi_nvme::{MemBackend, ThrottledBackend};
        // Slow the device enough that reads genuinely linger in the
        // queue; prefetch off so every in-flight request belongs to the
        // optimizer-step pipeline.
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let backend = zi_sync::Arc::new(ThrottledBackend::new(
            MemBackend::new(),
            2e9,
            Duration::from_millis(2),
        ));
        let node = NodeResources::new(&spec, 1, NodeEnv::new(backend));
        let reg = tiny_registry();
        let mut eng = ZeroEngine::new(
            &reg,
            Strategy::infinity_nvme()
                .with_f32_params()
                .with_prefetch(false)
                .with_optimizer_chunk(3)
                .with_step_pipeline_depth(3),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        let id = reg.find("w").unwrap();
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        let peak_before = node.nvme.stats().in_flight_peak;
        assert!(eng.step().unwrap());
        let stats = eng.stats();
        assert!(
            stats.step_io_overlap > 0,
            "depth-3 pipeline over a slow device must overlap update with I/O: {stats:?}"
        );
        let peak = node.nvme.stats().in_flight_peak;
        assert!(peak >= 2, "expected ≥ 2 concurrent requests, peak was {peak} (before: {peak_before})");
        eng.dispose().unwrap();
    }

    /// Multi-path placement in the regime it exists for: a CPU pool too
    /// small for the optimizer state contributes its path anyway. With a
    /// quarter of the state striped onto CPU DRAM the step drives both
    /// paths at once (a cp span and an nc span open at the same time);
    /// asking the same pool for all of it is a typed OOM, not a slowdown.
    #[test]
    fn split_placement_drives_both_paths_where_all_cpu_cannot_fit() {
        use std::time::Duration;
        use zi_nvme::{MemBackend, ThrottledBackend};
        const NUMEL: usize = 1 << 14;
        let mut reg = ParamRegistry::new();
        let id = reg.register("big", &[NUMEL], 3, 0.1, 0.0);
        // The CPU pool holds ~2.9 f32 images of the parameter: the
        // gradient and half the three-image optimizer state, not all.
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, NUMEL as u64 * 4 * 29 / 10, 1 << 22);
        let node_and_engine = |cpu_permille: usize| {
            let backend = zi_sync::Arc::new(ThrottledBackend::new(
                MemBackend::new(),
                2e9,
                Duration::from_millis(2),
            ));
            let node = NodeResources::new(&spec, 1, NodeEnv::new(backend));
            let engine = ZeroEngine::new(
                &reg,
                Strategy::infinity_nvme()
                    .with_optimizer_chunk(NUMEL / 8)
                    .with_step_pipeline_depth(2)
                    .with_optimizer_cpu_permille(cpu_permille),
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            );
            (node, engine)
        };

        let (_node, all_cpu) = node_and_engine(1000);
        match all_cpu {
            Err(Error::OutOfMemory { device, .. }) => assert_eq!(device, Device::cpu()),
            Err(e) => panic!("all-CPU on the small pool must be a typed OOM, got {e}"),
            Ok(_) => panic!("all-CPU optimizer state fit a pool sized to refuse it"),
        }

        let (node, split) = node_and_engine(250);
        let mut eng = split.expect("a quarter of the state fits the CPU pool");
        let grad = Tensor::randn_seeded(&[NUMEL], 5, 0.1);
        eng.add_grad(id, &grad).unwrap();
        let _ = node.tracer().take_events();
        assert!(eng.step().unwrap());
        let events = node.tracer().take_events();
        let spans = |cat: Category| {
            events
                .iter()
                .filter(move |e| e.cat == cat && e.dur_ns > 0)
                .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
        };
        assert!(spans(Category::CpTransfer).count() > 0, "a 250‰ split moved nothing over cp");
        let concurrent = spans(Category::CpTransfer)
            .any(|(c0, c1)| spans(Category::NcTransfer).any(|(n0, n1)| c0.max(n0) < c1.min(n1)));
        assert!(concurrent, "no cp span was open while an nc span was: the paths took turns");
        eng.dispose().unwrap();
    }

    #[test]
    fn zero_pipeline_depth_rejected() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = tiny_registry();
        assert!(ZeroEngine::new(
            &reg,
            Strategy::infinity_nvme().with_step_pipeline_depth(0),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .is_err());
    }

    #[test]
    fn overflow_flag_clears_after_skipped_and_applied_steps() {
        let (_node, mut eng, reg) = single_rank(Strategy::infinity_nvme().with_f32_params());
        let id = reg.find("w").unwrap();
        // Overflow arrives via accumulation (second deposit).
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![f32::MAX; 12]).unwrap()).unwrap();
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![f32::MAX; 12]).unwrap()).unwrap();
        assert!(!eng.step().unwrap(), "fused flag must catch accumulation overflow");
        // The flag must not poison the next, healthy step.
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![0.1; 12]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        assert_eq!(eng.stats().skipped_steps, 1);
        assert_eq!(eng.stats().steps, 1);
        eng.dispose().unwrap();
    }

    #[test]
    fn step_scratch_buffers_are_recycled() {
        use std::time::Duration;
        use zi_nvme::{MemBackend, ThrottledBackend};
        // A device far slower than the step loop pins the regime: no
        // write completes before the next is queued, so every step
        // drives the staging pool through the same sequence and reaches
        // the same peak (prefetch off: only the step touches the device).
        let depth = 3;
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let backend = zi_sync::Arc::new(ThrottledBackend::new(
            MemBackend::new(),
            2e9,
            Duration::from_millis(1),
        ));
        let node = NodeResources::new(&spec, 1, NodeEnv::new(backend));
        let reg = tiny_registry();
        let mut eng = ZeroEngine::new(
            &reg,
            Strategy::infinity_nvme()
                .with_f32_params()
                .with_prefetch(false)
                .with_optimizer_chunk(4)
                .with_step_pipeline_depth(depth),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        let id = reg.find("w").unwrap();
        let step = |eng: &mut ZeroEngine| {
            eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![0.5; 12]).unwrap()).unwrap();
            eng.step().unwrap();
        };
        step(&mut eng);
        step(&mut eng);
        // Warm: the pool has converged to the pipeline's working set and
        // a further step allocates nothing.
        let warm = eng.mgr.staging().stats();
        step(&mut eng);
        let pool = eng.mgr.staging();
        let st = pool.stats();
        assert_eq!(st.allocated, warm.allocated, "a steady-state step allocated staging: {st:?}");
        assert!(st.reused > warm.reused, "steady-state steps must recycle chunk buffers: {st:?}");
        // Read-ahead (3 streams) plus the chunk in hand (3 + its publish)
        // fit in depth × 4; the rest is the write-behind window.
        let bound = (depth * 4 + eng.strategy.write_behind_bound()) as u64;
        assert!(st.peak_outstanding <= bound, "peak {} over bound {bound}", st.peak_outstanding);
        assert_eq!((pool.outstanding(), pool.idle() as u64), (0, st.allocated));
        eng.dispose().unwrap();
    }

    /// One rank over a scriptable faulty device and a CPU pool of `cpu`
    /// bytes, prefetch off so every device read belongs to the call that
    /// issued it.
    fn faulty_rank(
        chunk: usize,
        cpu: u64,
    ) -> (zi_nvme::FaultPlan, NodeResources, ZeroEngine, ParamId) {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, cpu, 1 << 22);
        let plan = zi_nvme::FaultPlan::new();
        let backend =
            zi_sync::Arc::new(zi_nvme::FaultyBackend::new(zi_nvme::MemBackend::new(), plan.clone()));
        let env = NodeEnv { policy: zi_nvme::RetryPolicy::none(), ..NodeEnv::new(backend) };
        let node = NodeResources::new(&spec, 1, env);
        let reg = tiny_registry();
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_prefetch(false)
            .with_optimizer_chunk(chunk)
            .with_step_pipeline_depth(2);
        let engine = ZeroEngine::new(
            &reg,
            strategy,
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        let id = reg.find("w").unwrap();
        (plan, node, engine, id)
    }

    #[test]
    fn chunk_streamed_publish_keeps_parameter_fetches_checksum_verified() {
        // A CPU pool the gradient of `w` fills exactly: the shard cache is
        // never granted room, so every fetch below is a device read.
        let (plan, _node, mut eng, id) = faulty_rank(5, 12 * 4);
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.step().unwrap(); // publishes w in three chunks
        let clean = eng.export_param(id).unwrap();
        // A silently corrupted fetch is caught by the whole-extent CRC the
        // stream accumulated chunk by chunk, and repaired by a re-read.
        plan.bitflip_next_reads(1);
        assert_eq!(eng.export_param(id).unwrap().data(), clean.data());
        assert_eq!(eng.mgr.health().corruptions_recovered, 1);
        // Corruption that survives every re-read is a typed error.
        plan.bitflip_next_reads(u32::MAX);
        let err = eng.export_param(id).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "got {err}");
        plan.bitflip_next_reads(0);
        assert_eq!(eng.mgr.health().shard_cache_hits, 0);
        eng.dispose().unwrap();
    }

    #[test]
    fn a_published_shard_is_fetched_from_the_cache_not_the_device() {
        // The counterpart with room: the publish wrote `w` through, so
        // the fetch after the step finds no device read to corrupt.
        let (plan, node, mut eng, id) = faulty_rank(5, 1024);
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.step().unwrap();
        let reads = node.nvme.stats().reads;
        plan.bitflip_next_reads(u32::MAX);
        let cached = eng.export_param(id).unwrap();
        assert_eq!(node.nvme.stats().reads, reads, "a cached shard was read from the device");
        plan.bitflip_next_reads(0);
        let health = eng.mgr.health();
        assert_eq!((health.shard_cache_hits, health.shard_cache_bytes), (1, 12 * 4));
        assert_eq!(health.corruptions_recovered + health.corruptions_unrecovered, 0);
        // The cached bytes are the device's: a CPU tenant that needs
        // the room evicts them, and the next fetch reads the device.
        let tenant = FlatBuffer::zeros(DType::F32, 250);
        let tenant =
            eng.mgr.store_placed(Device::cpu(), &PlacementPolicy::all_nvme(), tenant).unwrap();
        eng.mgr.free_placed(tenant);
        assert_eq!(eng.export_param(id).unwrap().data(), cached.data());
        assert_eq!(node.nvme.stats().reads, reads + 1);
        assert_eq!(eng.mgr.health().shard_cache_evictions, 1);
        eng.dispose().unwrap();
        assert_eq!(node.hierarchy.stats(Device::cpu()).in_use, 0);
    }

    #[test]
    fn unconsumed_prefetch_is_reaped_without_verifying_stale_bytes() {
        // A hinted shard nobody fetches (the embedding, in backward) is
        // still in the prefetcher when the step overwrites it. Checking
        // those old bytes against the new checksums used to count a
        // "recovered corruption" and re-read the shard — on a healthy
        // device, every step.
        let (node, mut eng, reg) = single_rank(Strategy::infinity_nvme().with_f32_params());
        let id = reg.find("w").unwrap();
        eng.hint_upcoming(&[id]);
        assert_eq!(eng.stats().prefetch.issued, 1);
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.step().unwrap();
        assert_eq!(eng.mgr.health().corruptions_recovered, 0);
        assert_eq!(node.offload_manager().staging().outstanding(), 0);
        eng.dispose().unwrap();
    }

    #[test]
    fn device_death_mid_stream_is_typed_and_returns_every_staging_buffer() {
        // Calibrate: how many device ops does one healthy step issue?
        let (plan, _node, mut eng, id) = faulty_rank(2, 1 << 22);
        let grad = Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap();
        let before = plan.ops_seen();
        eng.add_grad(id, &grad).unwrap();
        eng.step().unwrap();
        let per_step = plan.ops_seen() - before;
        assert!(per_step >= 12, "six chunks of reads and writes: {per_step}");
        eng.dispose().unwrap();
        // Kill the device at several points inside the stream: reads of
        // later chunks and writes of earlier ones are in flight.
        for frac in [4, 2] {
            let (plan, _node, mut eng, id) = faulty_rank(2, 1 << 22);
            eng.add_grad(id, &grad).unwrap();
            plan.kill_after_ops(per_step / frac);
            let err = eng.step().unwrap_err();
            assert!(err.is_device_failure(), "death at 1/{frac} of the step: got {err}");
            let pool = eng.mgr.staging();
            assert_eq!(pool.outstanding(), 0, "a staging buffer is still checked out");
            assert_eq!(pool.idle() as u64, pool.stats().allocated, "a staging buffer was lost");
        }
    }

    /// The gradient path as it was before the collectives delivered into
    /// the consumer's buffer — pad, reduce into a fresh vector, then store
    /// it (first deposit, with a separate overflow scan) or accumulate it
    /// in place — kept as the reference the fused path must match byte
    /// for byte.
    struct ReferenceGrad {
        comm: Communicator,
        buf: Option<PlacedBuf>,
        nonfinite: bool,
    }

    impl ReferenceGrad {
        fn deposit(&mut self, eng: &ZeroEngine, numel: usize, grad: &[f32]) {
            let delta = if eng.strategy.partition_grads {
                let mut padded = grad.to_vec();
                padded.resize(eng.part.padded_len(numel), 0.0);
                self.comm.reduce_scatter_sum(&padded).unwrap()
            } else {
                let mut full = grad.to_vec();
                self.comm.allreduce_sum(&mut full).unwrap();
                full
            };
            match &mut self.buf {
                Some(buf) => {
                    self.nonfinite |= eng.mgr.accumulate_f32_placed(buf, &delta).unwrap();
                }
                slot @ None => {
                    let device = device_for(eng.strategy.placement.grads, eng.gpu_index);
                    let data = FlatBuffer::from_f32(DType::F32, &delta);
                    *slot =
                        Some(eng.mgr.store_placed(device, &PlacementPolicy::all_nvme(), data).unwrap());
                    self.nonfinite = LossScaler::has_overflow(&delta);
                }
            }
        }

        fn clear(&mut self, eng: &ZeroEngine) {
            self.nonfinite = false;
            if let Some(buf) = self.buf.take() {
                eng.mgr.free_placed(buf);
            }
        }
    }

    #[test]
    fn fused_deposit_matches_reduce_then_accumulate_byte_for_byte() {
        // A shard above the recycling threshold whose length no world
        // here divides (implicit padding), gradients carrying the floats
        // a fused loop could mishandle, and an overflow arriving by
        // accumulation.
        const NUMEL: usize = 7 * 613;
        let grad = |rank: usize, round: usize| -> Vec<f32> {
            (0..NUMEL)
                .map(|i| match (i + rank + round) % 97 {
                    0 => -0.0,
                    1 => 1.0e-40,
                    2 if round == 2 => f32::MAX,
                    k => (k as f32 - 48.0) * 0.01 * (rank + 1) as f32,
                })
                .collect()
        };
        let nvme_grads = Strategy {
            placement: crate::config::Placement {
                grads: DeviceKind::Nvme,
                ..Strategy::infinity_nvme().placement
            },
            ..Strategy::infinity_nvme()
        };
        for strategy in [Strategy::infinity_nvme(), Strategy::data_parallel(), nvme_grads] {
            for world in 1..=3 {
                let spec = NodeMemorySpec::test_spec(world, 1 << 22, 1 << 24, 1 << 24);
                let node = zi_sync::Arc::new(NodeResources::in_memory(&spec, world));
                let reference = zi_comm::CommGroup::new(world);
                let handles: Vec<_> = (0..world)
                    .map(|rank| {
                        let node = zi_sync::Arc::clone(&node);
                        let comm = reference.communicator(rank);
                        zi_sync::thread::spawn(move || {
                            let mut reg = ParamRegistry::new();
                            let id = reg.register("w", &[7, 613], 5, 0.2, 0.0);
                            let mut eng = ZeroEngine::new(
                                &reg,
                                strategy,
                                node.offload_manager(),
                                node.group.communicator(rank),
                                AdamConfig::default(),
                            )
                            .unwrap();
                            let mut expect = ReferenceGrad { comm, buf: None, nonfinite: false };
                            let deposit = |eng: &mut ZeroEngine,
                                           expect: &mut ReferenceGrad,
                                           round: usize,
                                           what: &str| {
                                let g = grad(rank, round);
                                eng.add_grad(id, &Tensor::from_vec(&[7, 613], g.clone()).unwrap())
                                    .unwrap();
                                expect.deposit(eng, NUMEL, &g);
                                let st = &eng.shards[id.0];
                                let got = eng.mgr.load_placed(st.grad.as_ref().unwrap()).unwrap();
                                let want = eng.mgr.load_placed(expect.buf.as_ref().unwrap()).unwrap();
                                let tag = format!("{} world {world} rank {rank}: {what}", strategy.name);
                                assert_eq!(got.as_bytes(), want.as_bytes(), "{tag}");
                                assert_eq!(st.grad_nonfinite, expect.nonfinite, "{tag}: flag");
                                expect.nonfinite
                            };
                            assert!(!deposit(&mut eng, &mut expect, 0, "first deposit"));
                            assert!(!deposit(&mut eng, &mut expect, 1, "second deposit"));
                            assert!(!deposit(&mut eng, &mut expect, 2, "third deposit, f32::MAX once"));
                            assert!(deposit(&mut eng, &mut expect, 2, "fourth deposit overflows by accumulation"));
                            assert!(!eng.step().unwrap(), "overflow skips the step");
                            expect.clear(&eng);
                            assert!(!deposit(&mut eng, &mut expect, 1, "first deposit after a skipped step"));
                            assert!(eng.step().unwrap());
                            expect.clear(&eng);
                            // The buffer the step consumed comes back with
                            // stale, averaged contents: all overwritten.
                            assert!(!deposit(&mut eng, &mut expect, 0, "first deposit into a recycled buffer"));
                            assert!(!deposit(&mut eng, &mut expect, 1, "second deposit into a recycled buffer"));
                            expect.clear(&eng);
                            eng.dispose().unwrap();
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("rank thread");
                }
            }
        }
    }

    #[test]
    fn invalid_stage_combinations_rejected() {
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = tiny_registry();
        let bad = Strategy {
            partition_params: true,
            partition_grads: false,
            ..Strategy::data_parallel()
        };
        assert!(ZeroEngine::new(
            &reg,
            bad,
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .is_err());
    }

    #[test]
    fn gpu_oom_on_gather_surfaces() {
        // GPU pool too small to hold the gathered w (12 f32 = 48 bytes).
        let spec = NodeMemorySpec::test_spec(1, 40, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = tiny_registry();
        let mut eng = ZeroEngine::new(
            &reg,
            Strategy::infinity_cpu(),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        let err = eng.get(reg.find("w").unwrap()).unwrap_err();
        assert!(err.is_oom());
        // The small bias still fits.
        assert!(eng.get(reg.find("b").unwrap()).is_ok());
        eng.release(reg.find("b").unwrap()).unwrap();
        eng.dispose().unwrap();
    }
}
