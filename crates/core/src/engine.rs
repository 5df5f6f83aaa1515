//! The per-rank ZeRO engine: a [`ParamStore`] with partitioning, offload,
//! gather-on-demand, gradient reduce-scatter and an offloaded optimizer.
//!
//! ## Lifecycle of a parameter (ZeRO-3 / ZeRO-Infinity path)
//!
//! 1. **Init** — each rank materializes the deterministic initial values
//!    one parameter at a time, keeps only its own padded shard and writes
//!    it the way a step leaves it: optimizer records one request each,
//!    the shard (cast to the storage dtype) published record by record
//!    into the shard cache, all behind one write-behind window while the
//!    next parameter is initialised. The full model is
//!    never resident on any rank (Sec. 7.2); a device that dies meanwhile
//!    degrades the node, and the state is built again in DRAM.
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
//!    bounded chunks (NVMe→CPU→update→NVMe, Sec. 5.2.2). Master, momentum
//!    and variance of a shard live in one buffer, interleaved by record
//!    ([`RecordLayout`]) — every shard shorter than a record shares one
//!    packed buffer — so a chunk is one device read into one staging
//!    buffer, one Adam pass over its three slices and one write; the
//!    same pass encodes the fresh fp16 shard, record by record, into the
//!    shard cache's image of it, which reaches the parameter tier when the
//!    cache gives it up (or, without room for it, as the second write of
//!    the same pipeline). One read-ahead queue
//!    ([`ReadAhead`]) drives the step and outlives it: the next step's
//!    first records cross the device under the next forward and backward.
//!    Replicated-parameter strategies (ZeRO-1/2/Offload) instead allgather
//!    the updated slices back into every replica.

use std::collections::{HashMap, VecDeque};

use zi_comm::{Communicator, Partitioner};
use zi_memory::{Block, PlacementPolicy, ScratchVec};
use zi_model::{ParamId, ParamRegistry, ParamStore};
use zi_nvme::checksum::{crc32, crc32_update};
use zi_optim::{adam_update, AdamConfig, LossScaler};
use zi_tensor::simd::{GradScale, PublishTo};
use zi_tensor::storage::{accumulate_f32, decode_f32, encode_f32};
use zi_tensor::{FlatBuffer, Tensor};
use zi_trace::{Category, Counter};
use zi_types::{DType, Device, DeviceKind, Error, Result};

use crate::config::Strategy;
use crate::offload::{OffloadManager, PlacedBuf, PlacedPending, PublishStream, WriteBehind};
use crate::prefetch::{PrefetchStats, Prefetcher, TraceMap};

/// State streams interleaved in one optimizer record: fp32 master,
/// momentum, variance.
const STATE_STREAMS: usize = 3;

/// How the optimizer state of one buffer is laid out: the update ranges
/// of its members back to back, `len` elements in one buffer of `3 × len`
/// f32, in records of `per` elements, record k holding `master ‖ m ‖ v` of
/// elements `k·per .. min((k+1)·per, len)` back to back. A record is what
/// the streamed step moves: one contiguous range of the buffer, so one
/// device request each way where three separate buffers cost three. A
/// parameter of at least one record is its buffer's only member, so its
/// records stay its own; every parameter shorter than a record shares one
/// packed buffer, in parameter order, so a record may hold several members
/// and a member may straddle two records. Everything that needs to know
/// where a value sits — the stream, the split policy's record, checkpoint
/// export and import — asks here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RecordLayout {
    len: usize,
    per: usize,
    /// Each member's parameter and update range in the buffer, in order.
    members: Vec<(usize, std::ops::Range<usize>)>,
}

impl RecordLayout {
    /// The layout of the update ranges of `members` — parameter and
    /// length — back to back, streamed `chunk` elements at a time.
    fn new(members: &[(usize, usize)], chunk: usize) -> Self {
        let mut len = 0;
        let members = members
            .iter()
            .map(|&(idx, n)| {
                len += n;
                (idx, len - n..len)
            })
            .collect();
        RecordLayout { len, per: chunk.clamp(1, len.max(1)), members }
    }

    /// The members the record starting at `at` holds a part of, as a
    /// range of `members`: they lie in buffer order, so two binary
    /// searches find them.
    fn meeting(&self, at: usize) -> std::ops::Range<usize> {
        let end = at + self.elems(at);
        let lo = self.members.partition_point(|(_, range)| range.end <= at);
        lo..self.members.partition_point(|(_, range)| range.start < end)
    }

    /// Where the update range `member` meets the record starting at `at`:
    /// the shared part's first element within the member and its range
    /// within the record; `None` when they do not meet.
    fn meet(
        &self,
        at: usize,
        member: &std::ops::Range<usize>,
    ) -> Option<(usize, std::ops::Range<usize>)> {
        let (lo, hi) = (member.start.max(at), member.end.min(at + self.elems(at)));
        (lo < hi).then(|| (lo - member.start, lo - at..hi - at))
    }

    /// Buffer elements a whole record of `chunk` elements spans: the
    /// record a split policy deals to one of its two paths, so no record
    /// straddles them.
    fn stripe(chunk: usize) -> usize {
        chunk.max(1).saturating_mul(STATE_STREAMS)
    }

    /// The first element of every record `range` meets, in order.
    fn starts(&self, range: &std::ops::Range<usize>) -> impl Iterator<Item = usize> {
        (range.start - range.start % self.per..range.end).step_by(self.per)
    }

    /// Elements in the record starting at element `at`.
    fn elems(&self, at: usize) -> usize {
        self.per.min(self.len - at)
    }

    /// The buffer range `(first, count)` of the record starting at
    /// element `at`.
    fn span(&self, at: usize) -> (usize, usize) {
        (STATE_STREAMS * at, STATE_STREAMS * self.elems(at))
    }

    /// One record's elements as its master, momentum and variance.
    fn split(record: &mut [f32]) -> [&mut [f32]; STATE_STREAMS] {
        let (master, rest) = record.split_at_mut(record.len() / STATE_STREAMS);
        let (m, v) = rest.split_at_mut(rest.len() / 2);
        [master, m, v]
    }

    /// One stream's values (0 master, 1 momentum, 2 variance) of the
    /// update range `member`, contiguous, out of the interleaved `state`.
    fn gather(&self, state: &[f32], stream: usize, member: &std::ops::Range<usize>) -> Vec<f32> {
        let mut values = Vec::with_capacity(member.len());
        for at in self.starts(member) {
            if let Some((_, part)) = self.meet(at, member) {
                let lo = STATE_STREAMS * at + stream * self.elems(at);
                values.extend_from_slice(&state[lo + part.start..lo + part.end]);
            }
        }
        values
    }
}

/// The CRC32-C of a staged record's master, momentum and variance: the
/// three tiles its write is recorded under, as the step's kernel
/// computes them while it stores the record.
fn stream_crcs(record: &ScratchVec) -> [u32; STATE_STREAMS] {
    let bytes = record.as_bytes();
    let stream = bytes.len() / STATE_STREAMS;
    std::array::from_fn(|s| crc32(&bytes[s * stream..(s + 1) * stream]))
}

/// Optimizer state (fp32 master/momentum/variance) for the update ranges
/// of one buffer's members on this rank. NVMe-tier state may be split
/// between CPU DRAM and the device record by record, and the streamed step
/// drives both paths at once.
struct OptimStorage {
    /// Master, momentum and variance, interleaved as `layout` says.
    state: PlacedBuf,
    layout: RecordLayout,
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
    /// The optimizer buffer holding this parameter's update range, and
    /// the range in it.
    optim: (usize, std::ops::Range<usize>),
    /// Optimizer steps applied to this parameter.
    step: u64,
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
    /// Optimizer state by buffer, in update order: each parameter of at
    /// least a record, and the pack of every shorter one at its first
    /// member's place. A list of its own: the step holds one parameter's
    /// publish open while it reads ahead in the next buffer.
    optims: Vec<OptimStorage>,
    /// Extra gradient divisor for multi-micro-batch accumulation.
    grad_accum_steps: f32,
    resident: HashMap<ParamId, Resident>,
    /// Storage of released compute tensors (and published masters).
    f32_bufs: FreeList<Vec<f32>>,
    /// Gradient buffers the optimizer step has consumed.
    grad_bufs: FreeList<FlatBuffer>,
    prefetcher: Prefetcher,
    trace: TraceMap,
    /// Whether the optimizer buffers already answer to the node's
    /// degradation latch; a latch set later collapses them at the next step.
    collapsed: bool,
    /// The read-ahead queue the last step carried over ([`Self::carry`]).
    ahead: Option<ReadAhead>,
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
    pub(crate) fn new_with_gpu(
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
        if strategy.step_pipeline_depth == 0 {
            return Err(Error::InvalidArgument(
                "step_pipeline_depth must be at least 1 (1 = sequential)".into(),
            ));
        }
        let mut engine = ZeroEngine {
            part: Partitioner::new(comm.world_size()),
            strategy,
            // Read before the layout: a latch set meanwhile (a failover
            // here or on another rank) collapses at the first step.
            collapsed: mgr.degradation_latched(),
            mgr,
            comm,
            gpu_index,
            adam,
            scaler: LossScaler::default(),
            shards: Vec::with_capacity(registry.len()),
            optims: Vec::with_capacity(registry.len()),
            grad_accum_steps: 1.0,
            resident: HashMap::new(),
            f32_bufs: FreeList::new(),
            grad_bufs: FreeList::new(),
            prefetcher: Prefetcher::new(),
            trace: TraceMap::new(),
            ahead: None,
            stats: EngineStats::default(),
        };
        let tracer = engine.mgr.tracer().clone();
        let mut span = tracer.span(Category::OptimStep, "engine.init");
        let mut built = engine.lay_out(registry);
        if built.as_ref().is_err_and(Error::is_device_failure) {
            // Init is a pure function of the registry: what the dead
            // device lost is built again, on a node now degraded to DRAM.
            engine.release_state();
            engine.mgr.latch_degraded();
            built = engine.lay_out(registry);
        }
        span.set_bytes(built.inspect_err(|_| engine.release_state())?);
        Ok(engine)
    }

    /// Lifecycle step 1 on the step's write path: every parameter's
    /// buffers placed — first, so the shard cache the writes fill gets
    /// only the CPU room the state leaves — then each parameter
    /// initialised and written as a step leaves it while the previous
    /// one's writes are still on the device, within the step's staging
    /// set. Returns the bytes written.
    fn lay_out(&mut self, registry: &ParamRegistry) -> Result<u64> {
        let s = self.strategy;
        // Parameters and gradients are stored whole on their tier, one
        // segment; an NVMe-tier optimizer buffer's records are dealt to
        // DRAM at the configured share, record by record.
        let single = PlacementPolicy::all_nvme();
        let stripe = RecordLayout::stripe(s.optimizer_chunk);
        let policy = PlacementPolicy::split(s.optimizer_cpu_permille.min(1000) as u32, stripe);
        let param_device = device_for(s.placement.params, self.gpu_index);
        let optim_device = device_for(s.placement.optimizer, self.gpu_index);
        let update_len = |n| if s.partition_optimizer { self.part.shard_len(n) } else { n };
        let lens: Vec<usize> = registry.iter().map(|meta| update_len(meta.numel())).collect();
        // Every update range shorter than a record joins the pack, placed
        // where its first member comes; members lie back to back.
        let short = |len: usize| len < s.optimizer_chunk;
        let mut pack: Vec<(usize, usize)> =
            lens.iter().copied().enumerate().filter(|&(_, len)| short(len)).collect();
        // The pack's buffer and where its next member starts.
        let mut packed: Option<(usize, usize)> = None;
        for (idx, meta) in registry.iter().enumerate() {
            let (numel, len) = (meta.numel(), lens[idx]);
            let shard_len = self.part.shard_len(numel);
            let stored = if s.partition_params { shard_len } else { numel };
            let param = self.mgr.place(param_device, &single, s.param_dtype, stored, None)?;
            let optim = match &mut packed {
                Some((b, next)) if short(len) => {
                    *next += len;
                    (*b, *next - len..*next)
                }
                _ => {
                    let members =
                        if short(len) { std::mem::take(&mut pack) } else { vec![(idx, len)] };
                    let layout = RecordLayout::new(&members, s.optimizer_chunk);
                    let elems = STATE_STREAMS * layout.len;
                    let state = self.mgr.place(optim_device, &policy, DType::F32, elems, None)?;
                    self.optims.push(OptimStorage { state, layout });
                    let b = self.optims.len() - 1;
                    if short(len) {
                        packed = Some((b, len));
                    }
                    (b, 0..len)
                }
            };
            self.shards.push(ShardState {
                shape: meta.shape.clone(),
                numel,
                shard_len,
                param,
                grad: None,
                grad_nonfinite: false,
                optim,
                step: 0,
            });
        }
        let mut wb = WriteBehind::new(s.write_behind_bound());
        let zeros = vec![0f32; lens.iter().copied().max().unwrap_or(0)];
        // The pack record being filled, which no write holds yet.
        let mut filling = None;
        let written = registry.iter().enumerate().try_for_each(|(idx, meta)| {
            // The writes in flight and the record being filled hold their
            // part of the set; topped up per parameter, so ranks sharing
            // the pool each get theirs.
            self.reserve_step_staging(wb.in_flight() + usize::from(filling.is_some()));
            // One parameter at a time: peak init memory is a single
            // parameter, never the whole model (Sec. 7.2). Masters start
            // from the stored values; moments from zero.
            let mut values = meta.init_tensor().into_vec();
            let numel = values.len();
            values.resize(self.part.padded_len(numel), 0.0);
            let (shard, whole) = (self.part.shard_range(numel, self.rank()), &values[..numel]);
            let master = if s.partition_optimizer { &values[shard] } else { whole };
            self.write_state(idx, [master, &zeros, &zeros], &mut wb, &mut filling)?;
            if s.partition_params { Ok(()) } else { self.publish(idx, whole, &mut wb) }
        });
        // Construction reaps its own writes; the flush waits on no peer's.
        let drained = wb.drain(&self.mgr);
        written.and(drained)?;
        self.mgr.flush()?;
        Ok(wb.bytes)
    }

    /// Write parameter `idx`'s state as a step leaves it, behind `wb`, a
    /// record at a time: the `src` streams (master, momentum, variance;
    /// each at least the update range long) interleaved straight into each
    /// record the range meets — in place when DRAM-resident, else into the
    /// staging buffer `filling`, written as one request under its own
    /// checksum, exactly the extent the step reads, once the record's last
    /// member is in it — and, for a partitioned parameter, each part's
    /// masters published, into the shard cache while it has room for the
    /// shard, else as the part's second write.
    fn write_state(
        &mut self,
        idx: usize,
        src: [&[f32]; 3],
        wb: &mut WriteBehind,
        filling: &mut Option<ScratchVec>,
    ) -> Result<()> {
        let st = &mut self.shards[idx];
        let (b, member) = st.optim.clone();
        let (OptimStorage { state, layout, .. }, param) = (&mut self.optims[b], &mut st.param);
        let mut publish = self.strategy.partition_params.then(|| self.mgr.begin_publish(param));
        for at in layout.starts(&member) {
            let Some((from, part)) = layout.meet(at, &member) else { continue };
            let ((first, count), values) = (layout.span(at), from..from + part.len());
            // A record of this member alone is staged here; one it shares
            // stays in `filling` until its last member is in.
            let (mut alone, stage) = (None, || self.mgr.staging().acquire(4 * count));
            let staged = if part.len() == layout.elems(at) { &mut alone } else { &mut *filling };
            let record = match state.resident_f32_mut(first, count) {
                Some(resident) => resident,
                None => staged.get_or_insert_with(stage).as_f32_mut(),
            };
            for (to, from) in RecordLayout::split(record).into_iter().zip(src) {
                to[part.clone()].copy_from_slice(&from[values.clone()]);
            }
            if part.end == layout.elems(at) {
                if let Some(staging) = staged.take() {
                    let crcs = stream_crcs(&staging);
                    wb.submit_staged(&self.mgr, state, first, staging, &crcs)?;
                }
            }
            if let Some(publish) = &mut publish {
                publish.push_values(wb, param, &src[0][values])?;
            }
        }
        publish.map_or(Ok(()), |publish| publish.finish(param))
    }

    /// Publish `stored`, all this rank stores of replicated parameter
    /// `idx`, in one piece behind `wb`.
    fn publish(&mut self, idx: usize, stored: &[f32], wb: &mut WriteBehind) -> Result<()> {
        let param = &mut self.shards[idx].param;
        let mut publish = self.mgr.begin_publish(param);
        publish.push_values(wb, param, stored)?;
        publish.finish(param)
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
        let shard = self.prefetcher.fetch(&self.mgr, id, &st.param)?;
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

    /// Issue trace-predicted prefetches for the next parameters (none
    /// with a window of 0).
    fn prefetch_ahead(&mut self) {
        if !self.trace.has_history() {
            return;
        }
        for nid in self.trace.predict_next(self.strategy.prefetch_window) {
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
        self.collapse_on_degradation()?;
        // Global overflow check: any non-finite gradient anywhere skips
        // the step on every rank. The scan itself happened during
        // accumulation (see `ShardState::grad_nonfinite`), so this costs
        // one flag sweep and one collective — no gradient re-load.
        let local_overflow =
            if self.shards.iter().any(|st| st.grad_nonfinite) { 1.0f32 } else { 0.0 };
        let any_overflow = self.comm.sum_scalar(local_overflow)? > 0.0;
        if any_overflow {
            // No optimizer state is written: a carried queue stays valid.
            self.clear_grads();
            self.scaler.update(true);
            self.stats.skipped_steps += 1;
            self.end_iteration()?;
            return Ok(false);
        }
        self.scaler.update(false);

        // One write-behind window and one read-ahead queue — the one the
        // last step carried if it covers the same buffers — span every
        // buffer with a member to update, so the pipeline never drains
        // between two of them. Both are reaped here on every path, so
        // failures surface as the step's own typed error with every
        // staging buffer back in its pool and nothing of this rank's step
        // still on the device.
        let due: Vec<usize> = (0..self.optims.len())
            .filter(|&b| {
                let members = &self.optims[b].layout.members;
                members.iter().any(|(idx, _)| self.shards[*idx].grad.is_some())
            })
            .collect();
        if self.ahead.as_ref().is_some_and(|carried| carried.due != due) {
            self.drop_carry("readahead.drop.due_set");
        }
        let mut ahead = self.ahead.take().unwrap_or(ReadAhead { due, ..Default::default() });
        let records = self.reserve_step_staging(ahead.held(&self.optims).0);
        let mut wb = WriteBehind::new(self.strategy.write_behind_bound());
        let updated = self.stream_update(&mut ahead, &mut wb);
        ahead.rewind(&self.mgr);
        let drained = wb.drain(&self.mgr);
        updated.and(drained)?;
        self.stats.steps += 1;
        self.end_iteration()?;
        self.carry(ahead, records);
        Ok(true)
    }

    /// Put the streamed step's staging set in place before its first
    /// record — a pool that only allocates on a miss keeps allocating,
    /// rarely, for many steps — and return the count of record buffers the
    /// step may carry into the next: `depth` for the read-ahead and the
    /// record in hand, plus the record half of the write-behind window (0
    /// without offloaded optimizer state). The set holds `depth` plus the
    /// whole window record-sized — the window is all record writes when
    /// the publishes go to the shard cache — and publish-sized ones on top
    /// (a larger buffer counts towards a smaller size); the `carried`
    /// reads hold their part of the set.
    fn reserve_step_staging(&self, carried: usize) -> usize {
        let offloaded = self.optims.iter().filter(|opt| opt.state.is_offloaded());
        let Some(longest) = offloaded.map(|opt| opt.layout.per).max() else { return 0 };
        let depth = self.strategy.step_pipeline_depth;
        let window = self.strategy.write_behind_bound();
        let staging = self.mgr.staging();
        let record = DType::F32.bytes_for(STATE_STREAMS * longest);
        let records = depth + window.div_ceil(2);
        staging.reserve((depth + window).saturating_sub(carried), record);
        if self.strategy.partition_params {
            let piece = self.strategy.param_dtype.bytes_for(longest);
            // Written through, the publish-sized ones are one more than
            // the write-behind window, which a packed record may fill
            // with one piece per member.
            staging.reserve((records + window + 1).saturating_sub(carried), piece);
        }
        records
    }

    /// Stream every due record through Adam in the queue's order (Sec.
    /// 5.2.2, 6.2), one member's part at a time, opening a parameter's
    /// update at its first part; a member without a gradient is left as it
    /// was read. One staging buffer carries an NVMe record from device read
    /// through Adam to write-behind, and one kernel pass over each part
    /// averages the gradient, updates the record, encodes the publish piece
    /// and checksums every byte it stores, so the record's write is
    /// recorded under its three streams' checksums without a second read
    /// of it; depth 1 drains its writes before the next read.
    fn stream_update(&mut self, ahead: &mut ReadAhead, wb: &mut WriteBehind) -> Result<()> {
        let depth = self.strategy.step_pipeline_depth;
        let tracer = self.mgr.tracer().clone();
        let scale = GradScale::average_over(self.comm.world_size() as f32 * self.grad_accum_steps);
        let mut open: Option<Update> = None;
        while let Some(record) = ahead.next_record(&self.mgr, &self.optims, depth) {
            let (b, at, load) = record?;
            let mut staged = load.wait(&self.mgr)?;
            // Measured after the wait: this rank's requests still out now
            // are genuine overlap (later records' reads, earlier writes).
            // A peer's on the shared device are not.
            if ahead.reading(&self.mgr) || wb.writing(&self.mgr) {
                self.stats.step_io_overlap += 1;
            }
            let ((first, count), resident) = (self.optims[b].layout.span(at), staged.is_none());
            // The CRC32-C of the staged record's master, momentum and
            // variance so far, then of the part's publish piece.
            let mut crcs = [0u32; 4];
            for k in self.optims[b].layout.meeting(at) {
                let (idx, member) = self.optims[b].layout.members[k].clone();
                let Some((from, part)) = self.optims[b].layout.meet(at, &member) else { continue };
                if open.as_ref().is_none_or(|update| update.idx != idx) {
                    if let Some(done) = open.take() {
                        self.finish_update(done, wb)?;
                    }
                    if self.shards[idx].grad.is_some() {
                        open = Some(self.begin_update(idx)?);
                    }
                }
                let Some(Update { grad, publish, .. }) = &mut open else {
                    // Written back as it was read, under the checksums
                    // the rest of the record is chained into.
                    if let Some(staging) = &staged {
                        let stream = staging.as_bytes().len() / STATE_STREAMS;
                        for (s, crc) in crcs[..STATE_STREAMS].iter_mut().enumerate() {
                            let lo = s * stream + 4 * part.start;
                            *crc = crc32_update(*crc, &staging.as_bytes()[lo..lo + 4 * part.len()]);
                        }
                    }
                    continue;
                };
                let record = match &mut staged {
                    Some(staging) => Some(staging.as_f32_mut()),
                    None => self.optims[b].state.resident_f32_mut(first, count),
                };
                let record = record.ok_or_else(|| {
                    Error::Internal(format!("[{first}, +{count}) is not one resident f32 range"))
                })?;
                let [master, m, v] = RecordLayout::split(record).map(|s| &mut s[part.clone()]);
                let (len, step) = (part.len(), self.shards[idx].step);
                let param = &mut self.shards[idx].param;
                // Whether the kernel itself encodes the part's publish
                // piece: when it goes to the device, into the image a
                // write-back publish holds or the staging buffer it is
                // written from.
                let mut staged = false;
                {
                    // The cp hop of a resident record is the kernel's own
                    // traffic over the DRAM-resident state: read and
                    // written once each, in place — not the publish, whose
                    // write-behind may wait on the device.
                    let _cp = resident.then(|| {
                        let bytes = (STATE_STREAMS * len * 4) as u64;
                        tracer.count(Counter::CpReadBytes, bytes);
                        tracer.count(Counter::CpWriteBytes, bytes);
                        let mut span = tracer.span(Category::CpTransfer, "cp.update");
                        span.set_bytes(2 * bytes);
                        span.set_id(at as u64);
                        span
                    });
                    // The compute half of the streamed step: I/O hidden
                    // behind these spans is the pipeline's overlap win.
                    let mut span = tracer.span(Category::Compute, "adam_chunk");
                    span.set_bytes((len * 4) as u64);
                    // ~15 scalar flops per element in the Adam recurrence
                    // (moment updates, bias correction, sqrt, update).
                    span.set_flops(15 * len as u64);
                    span.set_id(at as u64);
                    let (adam, grad) = (&self.adam, &f32_view(grad)?[from..from + len]);
                    let dtype = param.dtype();
                    let to = match &mut *publish {
                        Publish::Whole(out) => PublishTo::F32(&mut out[from..from + len]),
                        Publish::Stream(stream) if !resident => match stream.stage(param, len) {
                            Some(bytes) => {
                                staged = true;
                                PublishTo::encoded(dtype, bytes).ok_or_else(|| {
                                    Error::Internal("publish piece is not viewable in place".into())
                                })?
                            }
                            None => PublishTo::None,
                        },
                        Publish::Stream(_) => PublishTo::None,
                    };
                    crcs[3] = 0;
                    let crcs = (!resident).then_some(&mut crcs);
                    adam_update(adam, step, scale, master, m, v, grad, to, crcs);
                }
                if let Publish::Stream(stream) = publish {
                    if staged {
                        stream.push(wb, param, len, crcs[3])?;
                    } else {
                        stream.push_values(wb, param, master)?;
                    }
                }
            }
            if let Some(staging) = staged {
                let state = &self.optims[b].state;
                wb.submit_staged(&self.mgr, state, first, staging, &crcs[..STATE_STREAMS])?;
            }
            if depth == 1 {
                // Sequential semantics: this record's writes completed
                // before the next record's read is even issued.
                wb.drain(&self.mgr)?;
            }
            self.stats.optimizer_chunks += 1;
        }
        open.map_or(Ok(()), |done| self.finish_update(done, wb))
    }

    /// Open parameter `idx`'s update: its gradient sum taken out of
    /// storage (the kernel averages it as it reads it), its step counter,
    /// its publish.
    fn begin_update(&mut self, idx: usize) -> Result<Update> {
        let st = &mut self.shards[idx];
        let buf = st.grad.take().ok_or_else(|| Error::Internal(format!("{idx} has no gradient")))?;
        st.grad_nonfinite = false;
        let (numel, shard_len) = (st.numel, st.shard_len);
        let mut grad = self.mgr.take(buf)?;
        if !self.strategy.partition_grads && self.strategy.partition_optimizer {
            // ZeRO-1/2: the slice covering this rank's update range.
            let range = self.part.shard_range(numel, self.comm.rank());
            let end = range.end.min(numel);
            let zeros = || FlatBuffer::zeros(DType::F32, shard_len);
            let mut slice = self.grad_bufs.take(shard_len).unwrap_or_else(zeros);
            let (values, full) = (f32_view(&mut slice)?, f32_view(&mut grad)?);
            values.fill(0.0);
            if range.start < end {
                values[..end - range.start].copy_from_slice(&full[range.start..end]);
            }
            self.grad_bufs.put(grad.numel(), std::mem::replace(&mut grad, slice));
        }
        let (st, values) = (&mut self.shards[idx], f32_view(&mut grad)?);
        let len = st.optim.1.len();
        if values.len() != len {
            return Err(Error::Internal(format!("{idx}: gradient/optimizer length mismatch")));
        }
        st.step += 1;
        let publish = if self.strategy.partition_params {
            Publish::Stream(self.mgr.begin_publish(&st.param))
        } else {
            Publish::Whole(self.f32_bufs.take_f32(len))
        };
        Ok(Update { idx, grad, publish })
    }

    /// Finish a parameter's update: seal its publish and keep its buffers
    /// for the next deposit and publish of their size.
    fn finish_update(&mut self, done: Update, wb: &mut WriteBehind) -> Result<()> {
        let Update { idx, grad, publish } = done;
        self.grad_bufs.put(grad.numel(), grad);
        match publish {
            Publish::Stream(stream) => stream.finish(&self.shards[idx].param),
            Publish::Whole(master) => {
                let published = self.publish_master(idx, &master, wb);
                self.f32_bufs.put(master.len(), master);
                published
            }
        }
    }

    /// Carry the drained queue into the next step, its first records read
    /// (up to `budget` staging buffers) under the next forward and
    /// backward; after every write of this step was reaped, so no read
    /// overtakes one.
    fn carry(&mut self, mut ahead: ReadAhead, budget: usize) {
        if budget > 0 {
            let filled = ahead.top_up(&self.mgr, &self.optims, |a| a.held(&self.optims).0 < budget);
            let (reads, bytes) = ahead.held(&self.optims);
            self.mgr.tracer().instant(Category::OptimStep, "readahead.carry", bytes, reads as u64);
            self.ahead = Some(ahead);
            if filled.is_err() {
                self.drop_carry("readahead.drop.issue");
            }
        }
    }

    /// Close the carried queue unused, reaping its reads; instant `why`.
    fn drop_carry(&mut self, why: &'static str) {
        if let Some(mut ahead) = self.ahead.take() {
            let (reads, bytes) = ahead.held(&self.optims);
            self.mgr.tracer().instant(Category::OptimStep, why, bytes, reads as u64);
            ahead.rewind(&self.mgr);
        }
    }

    /// Reap the reads kept between calls: the carried queue's and the
    /// prefetcher's. [`Self::dispose`] and `Drop` both come here.
    fn reap(&mut self) {
        self.drop_carry("readahead.drop.dispose");
        self.prefetcher.clear(&self.mgr);
    }

    /// [`Self::publish`] a replicated parameter from the fp32 master values
    /// covering this rank's update range. With a partitioned optimizer
    /// (ZeRO-1/2) every rank's slice is first gathered back into the full
    /// replica: a collective.
    fn publish_master(&mut self, idx: usize, master: &[f32], wb: &mut WriteBehind) -> Result<()> {
        if !self.strategy.partition_optimizer {
            return self.publish(idx, master, wb);
        }
        let (dtype, shard_len) = (self.strategy.param_dtype, master.len());
        let mut mine = self.mgr.staging().acquire(dtype.bytes_for(shard_len));
        encode_f32(dtype, master, mine.as_bytes_mut())?;
        let mut full = self.f32_bufs.take_f32(shard_len * self.part.world);
        gather_decode(&self.comm, dtype, mine.as_bytes(), shard_len, &mut full)?;
        let published = self.publish(idx, &full[..self.shards[idx].numel], wb);
        self.f32_bufs.put(full.len(), full);
        published
    }

    /// Collapse every optimizer buffer onto CPU once the node's
    /// degradation latch is set: split buffers re-publish their
    /// NVMe-resident half to CPU instead of dropping it with the store.
    /// Closes the carry, whose reads target the old placement.
    fn collapse_on_degradation(&mut self) -> Result<()> {
        if self.collapsed || !self.mgr.degradation_latched() {
            return Ok(());
        }
        self.drop_carry("readahead.drop.placement");
        for opt in &mut self.optims {
            self.mgr.collapse(&mut opt.state)?;
        }
        self.collapsed = true;
        Ok(())
    }

    /// Close the iteration: the prefetches reaped, then this rank's flush.
    /// The step has already reaped its own reads and writes, and the flush
    /// never waits out a peer's I/O — at world > 1 another rank's carried
    /// read-ahead may still be on the shared device.
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

    /// Read every parameter's optimizer shard out of its tier, one buffer
    /// at a time (checkpoint save path). Records carry the three streams
    /// contiguous, one record per parameter: how this engine packs and
    /// interleaves them never reaches a checkpoint.
    pub(crate) fn export_optimizer_records(
        &self,
    ) -> Result<Vec<crate::checkpoint::ParamRecord>> {
        let mut out: Vec<_> = self.shards.iter().map(|_| None).collect();
        for OptimStorage { state, layout, .. } in &self.optims {
            let state = self.mgr.load_placed(state)?.to_f32_vec();
            for (idx, member) in &layout.members {
                let st = &self.shards[*idx];
                out[*idx] = Some(crate::checkpoint::ParamRecord {
                    step: st.step,
                    numel: st.numel as u64,
                    master: layout.gather(&state, 0, member),
                    m: layout.gather(&state, 1, member),
                    v: layout.gather(&state, 2, member),
                });
            }
        }
        let missing = || Error::Internal("a parameter without optimizer state".into());
        out.into_iter().map(|record| record.ok_or_else(missing)).collect()
    }

    /// Overwrite optimizer state from checkpoint records and republish
    /// the parameter tensors from the restored masters (checkpoint load
    /// path; collective for replicated-parameter strategies) the way
    /// construction writes them. Every record (one per parameter, as the
    /// caller checked) is checked first; a device death is a typed error.
    pub(crate) fn import_optimizer_records(
        &mut self,
        records: Vec<crate::checkpoint::ParamRecord>,
    ) -> Result<()> {
        for (idx, rec) in records.iter().enumerate() {
            let st = &self.shards[idx];
            let (numel, len) = (st.numel, st.optim.1.len());
            let got = [rec.master.len(), rec.m.len(), rec.v.len()];
            if rec.numel != numel as u64 || got != [len; STATE_STREAMS] {
                return Err(Error::InvalidArgument(format!(
                    "param {idx}: checkpoint numel {} and streams {got:?}, engine expects \
                     {numel} and {len} each",
                    rec.numel
                )));
            }
        }
        self.drop_carry("readahead.drop.import");
        let tracer = self.mgr.tracer().clone();
        let mut span = tracer.span(Category::OptimStep, "engine.import");
        let (mut wb, s) = (WriteBehind::new(self.strategy.write_behind_bound()), self.strategy);
        let mut filling = None;
        let written = records.iter().enumerate().try_for_each(|(idx, rec)| {
            self.shards[idx].step = rec.step;
            self.write_state(idx, [&rec.master, &rec.m, &rec.v], &mut wb, &mut filling)?;
            if s.partition_params { Ok(()) } else { self.publish_master(idx, &rec.master, &mut wb) }
        });
        let drained = wb.drain(&self.mgr);
        span.set_bytes(wb.bytes);
        written.and(drained)
    }

    /// Free every device allocation held by this engine. The engine is
    /// consumed; pools return to their empty state.
    pub fn dispose(mut self) -> Result<()> {
        self.reap();
        self.clear_grads();
        self.release_state();
        let gpu = self.gpu_device();
        for (_, r) in self.resident.drain() {
            self.mgr.hierarchy().free(gpu, r.gpu_block);
        }
        Ok(())
    }

    /// Free every parameter's and optimizer shard's storage.
    fn release_state(&mut self) {
        for st in self.shards.drain(..) {
            self.mgr.free_placed(st.param);
        }
        for opt in self.optims.drain(..) {
            self.mgr.free_placed(opt.state);
        }
    }
}

/// An engine abandoned without [`ZeroEngine::dispose`] still reaps its reads.
impl Drop for ZeroEngine {
    fn drop(&mut self) {
        self.reap();
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
        if self.strategy.prefetch_window == 0 {
            return;
        }
        for &id in ids {
            self.prefetch_shard(id);
        }
    }
}

/// The elements of a gradient or optimizer-state buffer as f32.
fn f32_view(buf: &mut FlatBuffer) -> Result<&mut [f32]> {
    buf.as_f32_mut().ok_or_else(|| Error::Internal("not an aligned f32 buffer".into()))
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
    if let Some(resident) = st.grad.as_mut().and_then(|buf| buf.resident_f32_mut(0, len)) {
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
            st.grad_nonfinite |= mgr.accumulate_f32(buf, f32_view(&mut reduced)?)?;
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

/// The parameter the streamed step is updating.
struct Update {
    idx: usize,
    grad: FlatBuffer,
    publish: Publish,
}

/// Where a streamed update publishes the fresh master values.
enum Publish {
    /// Collect them (replicated parameters: published by allgather).
    Whole(Vec<f32>),
    /// Convert each record's masters to the storage dtype into the
    /// shard's published image (partitioned parameters).
    Stream(PublishStream),
}

/// The optimizer step's read-ahead: one queue over every record of every
/// buffer with a member that has a gradient, in update order, feeding the
/// update. It keeps `depth` records issued ahead — the one about to be
/// taken counts — across buffer boundaries; depth counts records because
/// what keeps the device's workers busy is requests in flight, whatever
/// their size. A drained queue is carried into the next step
/// ([`ZeroEngine::carry`]).
#[derive(Default)]
struct ReadAhead {
    /// The buffers to update, ascending.
    due: Vec<usize>,
    /// The next record to issue: a position in `due` and an element.
    next: (usize, usize),
    /// Records issued and not yet taken: buffer, element, load.
    pending: VecDeque<(usize, usize, PlacedPending)>,
}

impl ReadAhead {
    /// Issue records while the queue is `short` and any is left. An NVMe
    /// record queues on the device; a CPU-DRAM one needs no transfer.
    fn top_up(
        &mut self,
        mgr: &OffloadManager,
        optims: &[OptimStorage],
        short: impl Fn(&Self) -> bool,
    ) -> Result<()> {
        while short(self) {
            let (pos, at) = self.next;
            let Some(&b) = self.due.get(pos) else { break };
            let OptimStorage { state, layout, .. } = &optims[b];
            if at >= layout.len {
                self.next = (pos + 1, 0);
                continue;
            }
            let (first, count) = layout.span(at);
            self.pending.push_back((b, at, mgr.begin_load_elems(state, first, count)?));
            self.next = (pos, at + layout.per);
        }
        Ok(())
    }

    /// Top the queue up to `depth` records, then hand over its head — the
    /// record the update reaches next — as buffer, element and load.
    fn next_record(
        &mut self,
        mgr: &OffloadManager,
        optims: &[OptimStorage],
        depth: usize,
    ) -> Option<Result<(usize, usize, PlacedPending)>> {
        self.top_up(mgr, optims, |ahead| ahead.pending.len() < depth)
            .map(|()| self.pending.pop_front())
            .transpose()
    }

    /// The device reads issued and not yet taken, and their bytes.
    fn held(&self, optims: &[OptimStorage]) -> (usize, u64) {
        let reads = self.pending.iter().filter(|(_, _, load)| load.is_read());
        reads.fold((0, 0), |(count, bytes), &(b, at, _)| {
            (count + 1, bytes + DType::F32.bytes_for(optims[b].layout.span(at).1) as u64)
        })
    }

    /// True while a read this queue issued is still on the device.
    fn reading(&self, mgr: &OffloadManager) -> bool {
        self.pending.iter().any(|(_, _, load)| !load.ready(mgr))
    }

    /// Reap every read still out — the staging buffers go back to their
    /// pool — and put the cursor back at the first record.
    fn rewind(&mut self, mgr: &OffloadManager) {
        self.pending.drain(..).for_each(|(_, _, load)| load.discard(mgr));
        self.next = (0, 0);
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
        let scale_before = eng.scaler.scale();
        let grad = Tensor::from_vec(&[3, 4], vec![f32::INFINITY; 12]).unwrap();
        eng.add_grad(id, &grad).unwrap();
        assert!(!eng.step().unwrap(), "overflow must skip the step");
        let after = eng.export_param(id).unwrap();
        assert_eq!(before.data(), after.data());
        assert!(eng.scaler.scale() < scale_before);
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
        // Slow the device enough that reads genuinely linger in the
        // queue; prefetch off so every in-flight request belongs to the
        // optimizer-step pipeline. Records of four elements: `w` is three
        // 48-byte records, `b` one of 48 bytes and one of 12 — the only
        // 12-byte read of the step.
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_prefetch_window(0)
            .with_optimizer_chunk(4)
            .with_step_pipeline_depth(3);
        let (node, mut eng, reg) = throttled_rank(strategy, std::time::Duration::from_millis(2));
        let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.add_grad(b, &Tensor::from_vec(&[5], vec![1.0; 5]).unwrap()).unwrap();
        let peak_before = node.nvme.stats().in_flight_peak;
        let _ = node.tracer().take_events();
        assert!(eng.step().unwrap());
        let stats = eng.stats();
        assert!(
            stats.step_io_overlap > 0,
            "depth-3 pipeline over a slow device must overlap update with I/O: {stats:?}"
        );
        let peak = node.nvme.stats().in_flight_peak;
        assert!(peak >= 2, "expected ≥ 2 concurrent requests, peak was {peak} (before: {peak_before})");
        // The queue spans parameters: `b`'s reads are on the device while
        // `w` still updates. Tickets number requests in submission order
        // and a record is written right after its update, so the read of
        // `b`'s last record was submitted before `w`'s last record was
        // even updated exactly when its ticket is the smaller.
        let events = node.tracer().take_events();
        let tickets = |name: &str, bytes: u64| {
            let mut ids: Vec<u64> = events
                .iter()
                .filter(|e| e.cat == Category::NcTransfer && e.name == name && e.bytes == bytes)
                .map(|e| e.id)
                .collect();
            ids.sort_unstable();
            ids
        };
        let (b_last_read, record_writes) = (tickets("nc.read", 12), tickets("nc.write", 48));
        assert_eq!((b_last_read.len(), record_writes.len()), (1, 4), "three records of w, one of b");
        assert!(
            b_last_read[0] < record_writes[2],
            "b's reads waited for w to finish: read {b_last_read:?}, writes {record_writes:?}"
        );
        eng.dispose().unwrap();
    }

    /// Multi-path placement in the regime it exists for: a CPU pool too
    /// small for the optimizer state contributes its path anyway. With a
    /// quarter of the state striped onto CPU DRAM the step drives both
    /// paths at once (a cp span and an nc span open at the same time);
    /// asking the same pool for all of it is a typed OOM, not a slowdown.
    #[test]
    fn split_placement_drives_both_paths_where_all_cpu_cannot_fit() {
        const NUMEL: usize = 1 << 14;
        let mut reg = ParamRegistry::new();
        let id = reg.register("big", &[NUMEL], 3, 0.1, 0.0);
        // The CPU pool holds ~2.9 f32 images of the parameter: the
        // gradient and half the three-image optimizer state, not all.
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, NUMEL as u64 * 4 * 29 / 10, 1 << 22);
        let node_and_engine = |cpu_permille: usize| {
            // Records 3 and 7 of eight are the DRAM ones. Counted from the
            // step's start, the device holds its first three writes —
            // records 0 to 2 — until the fourth arrives, after record 4
            // updates: their nc spans are open across record 3's update
            // unless the step waits on its writes before a DRAM record,
            // that is, unless the paths take turns. (A clock-timed device
            // made this a race once the publishes stopped queueing writes
            // behind the records'.)
            let door = zi_sync::Arc::new(Door {
                arrived: zi_sync::Mutex::new(0),
                full: zi_sync::Condvar::new(),
                n: 4,
                dev: zi_nvme::MemBackend::new(),
            });
            let node = NodeResources::new(&spec, 1, NodeEnv::new(door.clone()));
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
            (node, door, engine)
        };

        let (_node, _door, all_cpu) = node_and_engine(1000);
        match all_cpu {
            Err(Error::OutOfMemory { device, .. }) => assert_eq!(device, Device::cpu()),
            Err(e) => panic!("all-CPU on the small pool must be a typed OOM, got {e}"),
            Ok(_) => panic!("all-CPU optimizer state fit a pool sized to refuse it"),
        }

        let (node, door, split) = node_and_engine(250);
        let mut eng = split.expect("a quarter of the state fits the CPU pool");
        let grad = Tensor::randn_seeded(&[NUMEL], 5, 0.1);
        eng.add_grad(id, &grad).unwrap();
        let _ = node.tracer().take_events();
        *door.arrived.lock() = 0;
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
        // A device far slower than the step loop pins the regime: no
        // write completes before the next is queued, so every step
        // drives the staging pool through the same sequence and reaches
        // the same peak (prefetch off: only the step touches the device).
        let depth = 3;
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_prefetch_window(0)
            .with_optimizer_chunk(4)
            .with_step_pipeline_depth(depth);
        let (node, mut eng, reg) = throttled_rank(strategy, std::time::Duration::from_millis(1));
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
        // The pool holds the step's reserved set and nothing more: the
        // carried reads took their buffers out of it.
        let window = eng.strategy.write_behind_bound();
        assert_eq!(st.allocated, (depth + window.div_ceil(2) + window + 1) as u64, "{st:?}");
        // Read-ahead plus the record in hand are `depth` buffers, its
        // publish one more; the rest is the write-behind window.
        let bound = (depth + 1 + eng.strategy.write_behind_bound()) as u64;
        assert!(st.peak_outstanding <= bound, "peak {} over bound {bound}", st.peak_outstanding);
        // Between steps only the carried reads hold a buffer: all three
        // records of `w`.
        let carried = eng.ahead.as_ref().map_or(0, |ahead| ahead.held(&eng.optims).0) as u64;
        assert_eq!(carried, 3);
        assert_eq!((pool.outstanding(), pool.idle() as u64), (carried, st.allocated - carried));
        eng.dispose().unwrap();
        let pool = node.offload_manager();
        assert_eq!((pool.staging().outstanding(), pool.staging().idle() as u64), (0, st.allocated));
    }

    /// One rank over a scriptable faulty device and a CPU pool of `cpu`
    /// bytes, prefetch off so every device read belongs to the call that
    /// issued it.
    fn faulty_rank(
        chunk: usize,
        cpu: u64,
    ) -> (zi_nvme::FaultPlan, NodeResources, ZeroEngine, ParamId) {
        let (plan, node) = faulty_node(cpu);
        let engine = faulty_engine(&node, chunk, 0).unwrap();
        (plan, node, engine, tiny_registry().find("w").unwrap())
    }

    /// [`faulty_rank`]'s node, before any engine is built on it.
    fn faulty_node(cpu: u64) -> (zi_nvme::FaultPlan, NodeResources) {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, cpu, 1 << 22);
        let plan = zi_nvme::FaultPlan::new();
        let backend =
            zi_sync::Arc::new(zi_nvme::FaultyBackend::new(zi_nvme::MemBackend::new(), plan.clone()));
        let env = NodeEnv { policy: zi_nvme::RetryPolicy::none(), ..NodeEnv::new(backend) };
        (plan, NodeResources::new(&spec, 1, env))
    }

    /// [`faulty_rank`]'s engine over the tiny registry, built on `node`,
    /// `permille` of each optimizer buffer in DRAM.
    fn faulty_engine(node: &NodeResources, chunk: usize, permille: usize) -> Result<ZeroEngine> {
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_prefetch_window(0)
            .with_optimizer_chunk(chunk)
            .with_optimizer_cpu_permille(permille)
            .with_step_pipeline_depth(2);
        let comm = node.group.communicator(0);
        ZeroEngine::new(&tiny_registry(), strategy, node.offload_manager(), comm, AdamConfig::default())
    }

    #[test]
    fn chunk_streamed_publish_keeps_parameter_fetches_checksum_verified() {
        // A CPU pool the gradient of `w` fills exactly: the shard cache is
        // never granted room, so every fetch below is a device read.
        let (plan, node, mut eng, id) = faulty_rank(5, 12 * 4);
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.step().unwrap(); // publishes w in three chunks
        // The reads the step carried are done before any flip is armed.
        node.nvme.barrier().unwrap();
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
        // The counterpart with room: the publish went to the shard cache,
        // so the fetch after the step finds no device read to corrupt.
        let (plan, node, mut eng, id) = faulty_rank(5, 1024);
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.step().unwrap();
        // Counted once the reads the step carried into the next are done.
        node.nvme.barrier().unwrap();
        let reads = node.nvme.stats().reads;
        plan.bitflip_next_reads(u32::MAX);
        let cached = eng.export_param(id).unwrap();
        assert_eq!(node.nvme.stats().reads, reads, "a cached shard was read from the device");
        plan.bitflip_next_reads(0);
        let health = eng.mgr.health();
        assert_eq!((health.shard_cache_hits, health.shard_cache_bytes), (1, 12 * 4));
        assert_eq!(health.corruptions_recovered + health.corruptions_unrecovered, 0);
        // A CPU tenant that needs the room evicts the entries — `w`'s,
        // and `b`'s from construction — writing each back first, and the
        // next fetch reads the device.
        let tenant = FlatBuffer::zeros(DType::F32, 250);
        let tenant =
            eng.mgr.store_placed(Device::cpu(), &PlacementPolicy::all_nvme(), tenant).unwrap();
        eng.mgr.free_placed(tenant);
        assert_eq!(eng.export_param(id).unwrap().data(), cached.data());
        assert_eq!(node.nvme.stats().reads, reads + 1);
        let health = eng.mgr.health();
        assert_eq!((health.shard_cache_evictions, health.shard_cache_write_backs), (2, 2));
        eng.dispose().unwrap();
        assert_eq!(node.hierarchy.stats(Device::cpu()).in_use, 0);
    }

    #[test]
    fn a_written_back_shard_is_verified_against_the_kernels_checksums() {
        // `w`'s publish is a dirty cache entry; a CPU tenant that needs
        // the room writes it back, under the checksums the kernel computed
        // for its three pieces, and the cache has no room for it again.
        let (plan, node, mut eng, id) = faulty_rank(5, 1024);
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.step().unwrap();
        let published = eng.export_param(id).unwrap();
        let tenant = FlatBuffer::zeros(DType::F32, 250);
        let tenant =
            eng.mgr.store_placed(Device::cpu(), &PlacementPolicy::all_nvme(), tenant).unwrap();
        eng.mgr.free_placed(tenant);
        assert_eq!(eng.mgr.health().shard_cache_write_backs, 2);
        node.nvme.barrier().unwrap();
        // A flipped bit in the fetch of the written-back extent: the piece
        // it hit is re-read once, and the fetch is the published image.
        let before = node.nvme.stats();
        plan.bitflip_next_reads(1);
        assert_eq!(eng.export_param(id).unwrap().data(), published.data());
        let after = node.nvme.stats();
        let reread = after.bytes_read - before.bytes_read - 12 * 4;
        assert_eq!(after.reads - before.reads, 2, "the flipped read and one re-read");
        assert!(reread == 5 * 4 || reread == 2 * 4, "re-read {reread} B: not one piece");
        assert_eq!(eng.mgr.health().corruptions_recovered, 1);
        // Corruption that survives every re-read is a typed error.
        plan.bitflip_next_reads(u32::MAX);
        let err = eng.export_param(id).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "got {err}");
        plan.bitflip_next_reads(0);
        eng.dispose().unwrap();
    }

    #[test]
    fn unconsumed_prefetch_is_reaped_without_verifying_stale_bytes() {
        // A hinted shard nobody fetches (the embedding, in backward) is
        // still in the prefetcher when the step overwrites it. Checking
        // those old bytes against the new checksums used to count a
        // "recovered corruption" and re-read the shard — on a healthy
        // device, every step. (A cached shard is never read at all.)
        let (node, mut eng, reg) = single_rank(Strategy::infinity_nvme().with_f32_params());
        node.crowd_out_shard_cache();
        let id = reg.find("w").unwrap();
        eng.hint_upcoming(&[id]);
        assert_eq!(eng.stats().prefetch.issued, 1);
        eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.step().unwrap();
        assert_eq!(eng.mgr.health().corruptions_recovered, 0);
        // Between steps only the carried read of `w`'s record is out.
        let carried = eng.ahead.as_ref().map_or(0, |ahead| ahead.held(&eng.optims).0);
        assert_eq!(carried, 1);
        assert_eq!(node.offload_manager().staging().outstanding(), carried as u64);
        eng.dispose().unwrap();
        assert_eq!(node.offload_manager().staging().outstanding(), 0);
        assert_eq!(node.offload_manager().load_staging().outstanding(), 0);
    }

    #[test]
    fn device_death_mid_stream_is_typed_and_returns_every_staging_buffer() {
        death_mid_stream(true);
        death_mid_stream(false);
    }

    /// [`faulty_rank`] over a roomy CPU pool: its publishes written back
    /// to the shard cache, or — with `write_back` false, the cache crowded
    /// out before the engine is built — written through to the device.
    fn publishing_rank(
        chunk: usize,
        write_back: bool,
    ) -> (zi_nvme::FaultPlan, NodeResources, ZeroEngine, ParamId) {
        let (plan, node) = faulty_node(1 << 22);
        if !write_back {
            node.crowd_out_shard_cache();
        }
        let engine = faulty_engine(&node, chunk, 0).unwrap();
        (plan, node, engine, tiny_registry().find("w").unwrap())
    }

    fn death_mid_stream(write_back: bool) {
        // Both parameters have a gradient, so with two-element records
        // the first read of `b` is on the device while `w`'s last record
        // updates. Calibrate: how many device ops does one healthy step
        // issue, and how many of the next step's reads does it carry?
        let grads = |eng: &mut ZeroEngine, reg: &ParamRegistry| {
            let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
            eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
            eng.add_grad(b, &Tensor::from_vec(&[5], vec![1.0; 5]).unwrap()).unwrap();
        };
        let reg = tiny_registry();
        let (plan, node, mut eng, _) = publishing_rank(2, write_back);
        let ops = || {
            node.nvme.barrier().unwrap();
            plan.ops_seen()
        };
        // The states a checkpoint would hold before the first, second and
        // third step.
        let mut saved = vec![eng.save_state().unwrap()];
        let before = ops();
        grads(&mut eng, &reg);
        eng.step().unwrap();
        let first = ops() - before;
        let carried = eng.ahead.as_ref().map_or(0, |ahead| ahead.held(&eng.optims).0) as u64;
        assert_eq!(carried, 4, "depth 2 plus the record half of a 4-request write-behind");
        // A read and a write per record, and a publish written through.
        let publishes = if write_back { 0 } else { 3 * 3 };
        assert_eq!(first, 3 * 6 + publishes + carried, "write-back {write_back}");
        saved.push(eng.save_state().unwrap());
        let before = ops();
        grads(&mut eng, &reg);
        eng.step().unwrap();
        let steady = 3 * 6 + publishes;
        assert_eq!(ops() - before, steady, "the carry stands in for the step's first reads");
        saved.push(eng.save_state().unwrap());
        let strategy = eng.strategy;
        eng.dispose().unwrap();
        // Kill the device after every possible number of ops: reads of
        // later records — of `b` too, while `w` is still being written —
        // and writes of earlier ones are in flight; past the step's own
        // ops, the reads it carried are.
        for alive in 0..first {
            let (plan, node, mut eng, _) = publishing_rank(2, write_back);
            grads(&mut eng, &reg);
            plan.kill_after_ops(alive);
            // The step that meets the death fails typed: this one, or —
            // when only the carried reads die — the next.
            let failed = match eng.step() {
                Err(err) => {
                    assert!(err.is_device_failure(), "death after {alive} ops of the step: {err}");
                    0
                }
                Ok(_) => {
                    assert!(alive >= first - carried, "{alive} ops: the step outlived its device");
                    grads(&mut eng, &reg);
                    let err = eng.step().unwrap_err();
                    assert!(err.is_device_failure(), "{alive} ops, death in the carry: {err}");
                    1
                }
            };
            let pool = eng.mgr.staging();
            assert_eq!(pool.outstanding(), 0, "{alive} ops: a staging buffer is still checked out");
            assert_eq!(pool.idle() as u64, pool.stats().allocated, "{alive} ops: a buffer was lost");
            eng.dispose().unwrap();
            // The node has degraded: an engine rebuilt on it, all in DRAM,
            // resumes from the last checkpoint as if nothing had happened.
            let comm = node.group.communicator(0);
            let mut resumed =
                ZeroEngine::new(&reg, strategy, node.offload_manager(), comm, AdamConfig::default())
                    .unwrap();
            resumed.load_state(&saved[failed]).unwrap();
            grads(&mut resumed, &reg);
            assert!(resumed.step().unwrap());
            assert_eq!(resumed.save_state().unwrap(), saved[failed + 1], "{alive} ops: resume");
            assert!(resumed.ahead.is_none() && node.offload_manager().is_degraded());
            resumed.dispose().unwrap();
        }
    }

    #[test]
    fn a_skipped_step_and_a_parameter_without_a_gradient_issue_no_device_request() {
        let (_plan, node, mut eng, w) = faulty_rank(5, 1 << 22);
        let requests = || {
            node.nvme.barrier().unwrap();
            let io = node.nvme.stats();
            (io.reads, io.writes)
        };
        // The loss scaler skips the step: no optimizer state is read.
        let at_rest = requests();
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![f32::INFINITY; 12]).unwrap()).unwrap();
        assert!(!eng.step().unwrap());
        assert_eq!(requests(), at_rest, "a skipped step touched the device");
        // `w` alone has a gradient: its three records are read and written
        // (and published, to the shard cache), and nothing of `b` moves;
        // then the step carries `w`'s three records into the next one.
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        assert_eq!(requests(), (at_rest.0 + 3 + 3, at_rest.1 + 3));
        eng.dispose().unwrap();
    }

    #[test]
    fn a_corrupted_record_is_reread_alone_and_adam_sees_clean_bytes() {
        let grad = |round: usize| {
            Tensor::from_vec(&[3, 4], (0..12).map(|i| (i + round) as f32 * 0.1).collect()).unwrap()
        };
        let w = tiny_registry().find("w").unwrap();
        // The first step writes `w`'s state record by record (60, 60 and
        // 24 bytes), each under one checksum per stream (20, 20 and 8
        // bytes); at 500‰ the middle record lives in DRAM. Each step
        // carries the records on the device into the next: one read of the
        // second step's carry comes back with a flipped bit, and the third
        // step takes it.
        for (permille, carried, carried_bytes) in [(0, 3, 60 + 60 + 24), (500, 2, 60 + 24)] {
            let rank = || {
                let (plan, node) = faulty_node(1 << 22);
                let eng = faulty_engine(&node, 5, permille).unwrap();
                (plan, node, eng)
            };
            // Three steps on a healthy device: the reference.
            let (_plan, _clean_node, mut clean) = rank();
            for round in 0..3 {
                clean.add_grad(w, &grad(round)).unwrap();
                clean.step().unwrap();
            }
            let expect = clean.export_optimizer_records().unwrap();
            let (plan, node, mut eng) = rank();
            eng.add_grad(w, &grad(0)).unwrap();
            eng.step().unwrap();
            node.nvme.barrier().unwrap();
            plan.bitflip_next_reads(1);
            eng.add_grad(w, &grad(1)).unwrap();
            eng.step().unwrap();
            node.nvme.barrier().unwrap();
            let before = node.nvme.stats();
            eng.add_grad(w, &grad(2)).unwrap();
            eng.step().unwrap();
            node.nvme.barrier().unwrap();
            let after = node.nvme.stats();
            let reads = after.reads - before.reads;
            assert_eq!(reads, 1 + carried, "{permille}‰: one re-read, then the carry");
            let reread = after.bytes_read - before.bytes_read - carried_bytes;
            assert!(reread == 20 || reread == 8, "{permille}‰: re-read {reread} B: not one stream tile");
            assert_eq!(eng.mgr.health().corruptions_recovered, 1);
            // A whole-shard read of the record-written extent is verified
            // against the records' checksums, tile by tile.
            plan.bitflip_next_reads(1);
            let got = eng.export_optimizer_records().unwrap();
            assert_eq!(eng.mgr.health().corruptions_recovered, 2);
            for (got, expect) in got.iter().zip(&expect) {
                assert_eq!((&got.master, &got.m, &got.v), (&expect.master, &expect.m, &expect.v));
            }
            plan.bitflip_next_reads(u32::MAX);
            let err = eng.export_optimizer_records().err().expect("corruption that survives re-reads");
            assert!(matches!(err, Error::Corruption { .. }), "got {err}");
            plan.bitflip_next_reads(0);
            eng.dispose().unwrap();
            clean.dispose().unwrap();
        }
    }

    /// One rank of `strategy` over an in-memory device that answers each
    /// request after `latency`.
    fn throttled_rank(
        strategy: Strategy,
        latency: std::time::Duration,
    ) -> (NodeResources, ZeroEngine, ParamRegistry) {
        use zi_nvme::{MemBackend, ThrottledBackend};
        rank_over(strategy, zi_sync::Arc::new(ThrottledBackend::new(MemBackend::new(), 2e9, latency)))
    }

    /// One rank of `strategy` over a [`Door`] `n` writes wide.
    fn door_rank(strategy: Strategy, n: usize) -> (NodeResources, ZeroEngine, ParamRegistry) {
        let door = Door {
            arrived: zi_sync::Mutex::new(0),
            full: zi_sync::Condvar::new(),
            n,
            dev: zi_nvme::MemBackend::new(),
        };
        rank_over(strategy, zi_sync::Arc::new(door))
    }

    /// One rank of `strategy` over `device`.
    fn rank_over(
        strategy: Strategy,
        device: zi_sync::Arc<dyn zi_nvme::StorageBackend>,
    ) -> (NodeResources, ZeroEngine, ParamRegistry) {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let node = NodeResources::new(&spec, 1, NodeEnv::new(device));
        let reg = tiny_registry();
        let comm = node.group.communicator(0);
        let engine =
            ZeroEngine::new(&reg, strategy, node.offload_manager(), comm, AdamConfig::default())
                .unwrap();
        (node, engine, reg)
    }

    /// An in-memory device that holds each of its first `n - 1` writes
    /// until the `n`-th arrives (or a second passes). `n` requests are on
    /// it at once exactly when their submitter did not wait for one to
    /// finish first: submission order decides, not a clock.
    struct Door {
        arrived: zi_sync::Mutex<usize>,
        full: zi_sync::Condvar,
        n: usize,
        dev: zi_nvme::MemBackend,
    }

    impl zi_nvme::StorageBackend for Door {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.dev.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            let mut arrived = self.arrived.lock();
            *arrived += 1;
            self.full.notify_all();
            let until = zi_sync::time::Instant::now() + std::time::Duration::from_secs(1);
            while *arrived < self.n && zi_sync::time::Instant::now() < until {
                let _ = self.full.wait_for(&mut arrived, std::time::Duration::from_millis(10));
            }
            drop(arrived);
            self.dev.write_at(offset, data)
        }
        fn sync(&self) -> Result<()> {
            self.dev.sync()
        }
        fn len(&self) -> Result<u64> {
            self.dev.len()
        }
    }

    /// Instants named `name` in `events`.
    fn instants(events: &[zi_trace::Event], name: &str) -> usize {
        events.iter().filter(|e| e.cat == Category::OptimStep && e.name == name).count()
    }

    #[test]
    fn a_checkpoint_restored_between_steps_is_what_the_next_step_reads() {
        let grad = |round: usize| {
            Tensor::from_vec(&[3, 4], (0..12).map(|i| (i * round) as f32 * 0.05).collect()).unwrap()
        };
        // The checkpoint: one step of another trajectory.
        let (_plan, _other_node, mut other, w) = faulty_rank(5, 1 << 22);
        other.add_grad(w, &grad(7)).unwrap();
        other.step().unwrap();
        let blob = other.save_state().unwrap();
        // The reference: an engine built from it, one step on.
        let (_plan, _fresh_node, mut fresh, _) = faulty_rank(5, 1 << 22);
        fresh.load_state(&blob).unwrap();
        fresh.add_grad(w, &grad(1)).unwrap();
        fresh.step().unwrap();
        // An engine two steps into its own trajectory restores it between
        // steps, its queue carried: what the next step reads is the
        // checkpoint, not the carried bytes — nor are those "repaired".
        let (_plan, node, mut eng, _) = faulty_rank(5, 1 << 22);
        for round in 2..4 {
            eng.add_grad(w, &grad(round)).unwrap();
            eng.step().unwrap();
        }
        assert!(eng.ahead.is_some(), "the step carried its queue");
        let _ = node.tracer().take_events();
        eng.load_state(&blob).unwrap();
        assert_eq!(instants(&node.tracer().take_events(), "readahead.drop.import"), 1);
        eng.add_grad(w, &grad(1)).unwrap();
        eng.step().unwrap();
        assert_eq!(eng.save_state().unwrap(), fresh.save_state().unwrap());
        assert_eq!(eng.export_param(w).unwrap().data(), fresh.export_param(w).unwrap().data());
        assert_eq!(eng.mgr.health().corruptions_recovered, 0);
        for engine in [eng, fresh, other] {
            engine.dispose().unwrap();
        }
    }

    #[test]
    fn a_parameter_without_a_gradient_closes_the_carry_and_the_update_is_bit_identical() {
        // `w` and `b`, then `w` alone, then `b` alone: the due set changes
        // at every step after the first.
        let run = |strategy: Strategy| {
            let strategy = strategy.with_f32_params().with_optimizer_chunk(2);
            let (node, mut eng, reg) = single_rank(strategy);
            let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
            let gw = |s: usize| -> Vec<f32> { (0..12).map(|i| (i + s) as f32 * 0.1).collect() };
            let gb = |s: usize| -> Vec<f32> { (0..5).map(|i| (i * s) as f32 * 0.3).collect() };
            let _ = node.tracer().take_events();
            eng.add_grad(w, &Tensor::from_vec(&[3, 4], gw(0)).unwrap()).unwrap();
            eng.add_grad(b, &Tensor::from_vec(&[5], gb(1)).unwrap()).unwrap();
            assert!(eng.step().unwrap());
            eng.add_grad(w, &Tensor::from_vec(&[3, 4], gw(1)).unwrap()).unwrap();
            assert!(eng.step().unwrap());
            eng.add_grad(b, &Tensor::from_vec(&[5], gb(2)).unwrap()).unwrap();
            assert!(eng.step().unwrap());
            let events = node.tracer().take_events();
            let carried = instants(&events, "readahead.carry");
            let traced = (carried, instants(&events, "readahead.drop.due_set"));
            let state = eng.save_state().unwrap();
            eng.dispose().unwrap();
            (state, traced)
        };
        // CPU-resident optimizer state carries nothing: the reference.
        let (reference, untraced) = run(Strategy::infinity_cpu());
        assert_eq!(untraced, (0, 0));
        let (state, traced) = run(Strategy::infinity_nvme());
        assert_eq!(traced, (3, 2), "every step carries; both changes close the carry");
        assert_eq!(state, reference);
    }

    #[test]
    fn a_skipped_step_keeps_the_carried_queue_and_touches_no_device() {
        let (_plan, node, mut eng, w) = faulty_rank(5, 1 << 22);
        let requests = || {
            node.nvme.barrier().unwrap();
            let io = node.nvme.stats();
            (io.reads, io.writes)
        };
        let ones = Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap();
        eng.add_grad(w, &ones).unwrap();
        assert!(eng.step().unwrap());
        let carried = requests();
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![f32::INFINITY; 12]).unwrap()).unwrap();
        assert!(!eng.step().unwrap());
        assert_eq!(requests(), carried, "a skipped step touched the device");
        assert_eq!(eng.ahead.as_ref().map(|ahead| ahead.pending.len()), Some(3), "the carry went");
        // The next step takes it: `w`'s records are already read, so the
        // step writes them (and publishes them to the shard cache) and
        // reads only the next carry.
        eng.add_grad(w, &ones).unwrap();
        assert!(eng.step().unwrap());
        assert_eq!(requests(), (carried.0 + 3, carried.1 + 3));
        eng.dispose().unwrap();
    }

    #[test]
    fn depth_one_stays_sequential_inside_the_step() {
        // Records of four elements: `w` is three records, `b` two. Depth 1
        // carries two records (depth plus half a write-behind window of 2).
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_prefetch_window(0)
            .with_optimizer_chunk(4)
            .with_step_pipeline_depth(1);
        let (node, mut eng, reg) = throttled_rank(strategy, std::time::Duration::from_millis(2));
        let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
        let step = |eng: &mut ZeroEngine| {
            eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
            eng.add_grad(b, &Tensor::from_vec(&[5], vec![1.0; 5]).unwrap()).unwrap();
            assert!(eng.step().unwrap());
        };
        step(&mut eng);
        assert_eq!(eng.ahead.as_ref().map(|ahead| ahead.held(&eng.optims).0), Some(2));
        // The carried reads land under the next forward and backward.
        node.nvme.barrier().unwrap();
        let _ = node.tracer().take_events();
        step(&mut eng);
        let events = node.tracer().take_events();
        // The step's own requests end at its end-of-iteration barrier; the
        // next carry follows it.
        let barrier = events.iter().find(|e| e.name == "nc.flush").unwrap().start_ns;
        let io: Vec<_> = events
            .iter()
            .filter(|e| e.cat == Category::NcTransfer && e.dur_ns > 0 && e.start_ns < barrier)
            .map(|e| (e.name, e.start_ns, e.start_ns + e.dur_ns))
            .collect();
        let reads: Vec<_> = io.iter().filter(|(name, ..)| *name == "nc.read").collect();
        assert_eq!(reads.len(), 5 - 2, "the step reads what was not carried");
        for &&(_, r0, r1) in &reads {
            let overlapping = io.iter().filter(|&&(_, s0, s1)| r0.max(s0) < r1.min(s1)).count();
            assert_eq!(overlapping, 1, "a read shared the device at depth 1: {io:?}");
        }
        eng.dispose().unwrap();
    }

    #[test]
    fn an_engine_dropped_mid_iteration_reaps_its_reads() {
        let strategy = Strategy::infinity_nvme().with_f32_params().with_optimizer_chunk(4);
        let (node, mut eng, reg) = throttled_rank(strategy, std::time::Duration::from_millis(5));
        node.crowd_out_shard_cache();
        let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        // Mid-iteration: the step's carried reads of `w`, and a prefetch of
        // `b` (the shard cache has no room for it).
        eng.hint_upcoming(&[b]);
        assert_eq!(eng.stats().prefetch.issued, 1);
        let mgr = node.offload_manager();
        assert_eq!(mgr.staging().outstanding(), 3);
        assert_eq!(mgr.load_staging().outstanding(), 1);
        drop(eng);
        mgr.nvme().barrier().unwrap();
        assert_eq!((mgr.staging().outstanding(), mgr.load_staging().outstanding()), (0, 0));
        assert_eq!(mgr.nvme().in_flight(), 0);
    }

    #[test]
    fn construction_writes_one_steps_requests_four_queues_wide_within_the_step_set() {
        // Records of four elements: `w` is three, `b` two (the second of
        // one element). Each is one write of 48 (12) B; its publish of 16
        // (4) B goes to the shard cache, not the device: five writes,
        // 204 B.
        let strategy =
            Strategy::infinity_nvme().with_f32_params().with_prefetch_window(0).with_optimizer_chunk(4);
        let (node, mut eng, reg) = door_rank(strategy, NodeEnv::in_memory().nvme_workers);
        let built = node.nvme.stats();
        assert_eq!((built.writes, built.bytes_written, built.reads), (5, 204, 0));
        let init = node.tracer().take_events().into_iter().find(|e| e.name == "engine.init");
        assert_eq!(init.map(|e| e.bytes), Some(204));
        assert!(built.in_flight_peak >= node.nvme.worker_count() as u64, "{built:?}");
        // Within the staging set the step reserves, and nothing beyond it.
        let window = strategy.write_behind_bound();
        let set = (strategy.step_pipeline_depth + window.div_ceil(2) + window + 1) as u64;
        let pool = eng.mgr.staging().stats();
        assert!(pool.peak_outstanding < set && pool.allocated == set, "{pool:?}");
        // Every shard was published to the cache: the first forward reads
        // nothing.
        let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
        for id in [w, b] {
            eng.get(id).unwrap();
            eng.release(id).unwrap();
        }
        assert_eq!((node.nvme.stats().reads, eng.mgr.health().shard_cache_hits), (0, 2));
        // A healthy step writes exactly what construction did.
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.add_grad(b, &Tensor::from_vec(&[5], vec![1.0; 5]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        let stepped = node.nvme.stats();
        assert_eq!((stepped.writes - 5, stepped.bytes_written - 204), (5, 204));
        assert_eq!(eng.mgr.staging().stats().allocated, set);
        eng.dispose().unwrap();
        // Both parameters shorter than a record: one packed buffer of 17
        // elements, records of 16 and 1. `w` (elements 0..12) publishes in
        // one piece, `b` (12..17) in one per record, both into the cache;
        // the first record goes out once `b` completes it. Two writes of
        // the same 204 B, on the device at once only while a parameter is
        // initialised and written under the write of the one before: a
        // door two writes wide opens.
        let (node, eng, _) = door_rank(strategy.with_optimizer_chunk(16), 2);
        let built = node.nvme.stats();
        assert_eq!((built.writes, built.bytes_written), (2, 204));
        assert!(built.in_flight_peak >= 2, "{built:?}");
        eng.dispose().unwrap();
    }

    /// Two parameters of several 8-element records around three shorter
    /// ones, which share one buffer: `g` (5) fills most of its first
    /// record, `b` (6) straddles the first two, `c` (7) the last two.
    fn mixed_registry() -> ParamRegistry {
        let mut reg = ParamRegistry::new();
        reg.register("a", &[4, 4], 11, 0.2, 0.0);
        reg.register("g", &[5], 0, 0.0, 1.0);
        reg.register("w", &[3, 8], 12, 0.2, 0.0);
        reg.register("b", &[6], 13, 0.1, 0.0);
        reg.register("c", &[7], 14, 0.1, 0.0);
        reg
    }

    /// One rank of `strategy` over the mixed registry, prefetch off.
    fn mixed_rank(strategy: Strategy) -> (NodeResources, ZeroEngine, ParamRegistry) {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let node = NodeResources::in_memory(&spec, 1);
        let reg = mixed_registry();
        let comm = node.group.communicator(0);
        let strategy = strategy.with_prefetch_window(0);
        let engine =
            ZeroEngine::new(&reg, strategy, node.offload_manager(), comm, AdamConfig::default())
                .unwrap();
        (node, engine, reg)
    }

    /// Round `round`'s gradient of the parameters named in `names`.
    fn mixed_grads(eng: &mut ZeroEngine, reg: &ParamRegistry, names: &[&str], round: usize) {
        for meta in reg.iter().filter(|meta| names.contains(&meta.name.as_str())) {
            let g = (0..meta.numel()).map(|i| ((i * 7 + round) % 11) as f32 * 0.05 - 0.25);
            eng.add_grad(meta.id, &Tensor::from_vec(&meta.shape, g.collect()).unwrap()).unwrap();
        }
    }

    const MIXED: [&str; 5] = ["a", "g", "w", "b", "c"];

    #[test]
    fn packed_parameters_share_records_and_train_as_if_unpacked() {
        // Per step, 8-element records: `a` two, the pack three (8, 8, 2
        // elements), `w` three — eight reads and eight record writes — and
        // one publish per part, each into the shard cache: two of `a`, one
        // of `g`, two each of `b` and `c`, three of `w`. Records of one
        // element pack nothing.
        let run = |chunk: usize| {
            let strategy = Strategy::infinity_nvme().with_f32_params().with_optimizer_chunk(chunk);
            let (node, mut eng, reg) = mixed_rank(strategy);
            let requests = || {
                node.nvme.barrier().unwrap();
                let io = node.nvme.stats();
                (io.reads, io.writes)
            };
            let built = requests();
            let mut per_step = Vec::new();
            for round in 0..4 {
                let before = requests();
                mixed_grads(&mut eng, &reg, &MIXED, round);
                assert!(eng.step().unwrap());
                let after = requests();
                per_step.push((after.0 - before.0, after.1 - before.1));
            }
            let params: Vec<_> = reg.iter().map(|m| eng.export_param(m.id).unwrap()).collect();
            let params: Vec<Vec<f32>> = params.iter().map(|p| p.data().to_vec()).collect();
            let state = (eng.save_state().unwrap(), params);
            eng.dispose().unwrap();
            (built, per_step, state)
        };
        let (built, per_step, packed) = run(8);
        assert_eq!(built, (0, 8), "construction writes one step's requests");
        // The first step reads its records and carries all eight into the
        // next (depth 4 plus half a write-behind window of 8).
        assert_eq!(per_step, vec![(8 + 8, 8), (8, 8), (8, 8), (8, 8)]);
        let (_, unpacked_steps, unpacked) = run(1);
        assert_eq!(unpacked_steps[3], (58, 58), "one record per element");
        assert_eq!(packed, unpacked, "packing changed the state");
    }

    #[test]
    fn a_packed_member_without_a_gradient_keeps_its_state_and_an_idle_pack_moves_nothing() {
        let strategy = Strategy::infinity_nvme().with_f32_params().with_optimizer_chunk(8);
        let (node, mut eng, reg) = mixed_rank(strategy);
        let requests = || {
            node.nvme.barrier().unwrap();
            let io = node.nvme.stats();
            (io.reads, io.writes)
        };
        let state = |eng: &ZeroEngine| {
            let records = eng.export_optimizer_records().unwrap();
            let rec = |name: &str| {
                let r = &records[reg.find(name).unwrap().0];
                (r.step, r.master.clone(), r.m.clone(), r.v.clone())
            };
            MIXED.map(rec)
        };
        // No member of the pack has a gradient: `a` and `w` move, two and
        // three records, each read and written (and carried into the next
        // step), and published to the shard cache; the pack issues no
        // request at all.
        let built = state(&eng);
        let at_rest = requests();
        mixed_grads(&mut eng, &reg, &["a", "w"], 0);
        assert!(eng.step().unwrap());
        assert_eq!(requests(), (at_rest.0 + 5 + 5, at_rest.1 + 5));
        // `g`, `b` and `c` are as built; `a` and `w` are one step on.
        let after = state(&eng);
        assert_eq!([&after[1], &after[3], &after[4]], [&built[1], &built[3], &built[4]]);
        assert!(after[0].0 == 1 && after[2].0 == 1 && after[0].1 != built[0].1);
        // `g` and `c` update around `b`, which shares a record with each:
        // its master, moments and step count stay those it had.
        for round in 1..3 {
            mixed_grads(&mut eng, &reg, &["g", "c"], round);
            assert!(eng.step().unwrap());
        }
        let [_, g, _, b, c] = state(&eng);
        assert_eq!(b, after[3], "a member without a gradient changed");
        assert!(g.0 == 2 && c.0 == 2 && g.1 != after[1].1 && c.1 != after[4].1);
        eng.dispose().unwrap();
    }

    /// Four steps of the mixed registry at world 2, `permille` of each
    /// optimizer buffer in DRAM, the node degraded before step
    /// `degrade_before`: every rank's saved state. Per rank the pack is
    /// `g`, `b`, `c` of 3, 3 and 4 elements: a record of 8 on the device
    /// and one of 2 in DRAM under a 500‰ split, which `c` straddles.
    fn packed_at_world_two(permille: usize, degrade_before: Option<usize>) -> Vec<Vec<u8>> {
        let spec = NodeMemorySpec::test_spec(2, 1 << 22, 1 << 22, 1 << 22);
        let node = zi_sync::Arc::new(NodeResources::in_memory(&spec, 2));
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let node = zi_sync::Arc::clone(&node);
                zi_sync::thread::spawn(move || {
                    let reg = mixed_registry();
                    let strategy = Strategy::infinity_nvme()
                        .with_optimizer_chunk(8)
                        .with_optimizer_cpu_permille(permille);
                    let comm = node.group.communicator(rank);
                    let (mgr, adam) = (node.offload_manager(), AdamConfig::default());
                    let mut eng = ZeroEngine::new(&reg, strategy, mgr, comm, adam).unwrap();
                    // The pack's elements (on the device, in DRAM), asked
                    // record by record.
                    let paths = |eng: &mut ZeroEngine| {
                        let b = eng.shards[reg.find("g").unwrap().0].optim.0;
                        let OptimStorage { state, layout, .. } = &mut eng.optims[b];
                        let records = layout.starts(&(0..layout.len)).map(|at| layout.span(at));
                        records.fold((0, 0), |(nvme, cpu), (first, count)| {
                            match state.resident_f32_mut(first, count) {
                                Some(_) => (nvme, cpu + count),
                                None => (nvme + count, cpu),
                            }
                        })
                    };
                    assert_eq!(paths(&mut eng), if permille == 500 { (24, 6) } else { (30, 0) });
                    for round in 0..4 {
                        if degrade_before == Some(round) {
                            eng.comm.barrier().unwrap();
                            if rank == 0 {
                                node.degrade();
                            }
                            eng.comm.barrier().unwrap();
                        }
                        mixed_grads(&mut eng, &reg, &MIXED, round + rank);
                        assert!(eng.step().unwrap());
                    }
                    if degrade_before.is_some() {
                        assert_eq!(paths(&mut eng), (0, 30), "the pack is still on the device");
                    }
                    let saved = eng.save_state().unwrap();
                    eng.dispose().unwrap();
                    saved
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank thread")).collect()
    }

    #[test]
    fn a_pack_split_across_both_paths_trains_as_on_the_device_alone() {
        let on_the_device = packed_at_world_two(0, None);
        assert_eq!(packed_at_world_two(500, None), on_the_device);
        assert_eq!(packed_at_world_two(500, Some(2)), on_the_device, "through a collapse");
    }

    /// An in-memory device whose reads of `held` bytes wait until it opens.
    struct Gate {
        dev: zi_nvme::MemBackend,
        held: usize,
        open: zi_sync::Mutex<bool>,
        opened: zi_sync::Condvar,
    }

    impl zi_nvme::StorageBackend for Gate {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            let mut open = self.open.lock();
            while buf.len() == self.held && !*open {
                self.opened.wait(&mut open);
            }
            drop(open);
            self.dev.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.dev.write_at(offset, data)
        }
        fn sync(&self) -> Result<()> {
            self.dev.sync()
        }
        fn len(&self) -> Result<u64> {
            self.dev.len()
        }
    }

    #[test]
    fn io_overlap_counts_this_ranks_requests_not_a_peers() {
        // A peer's read waits at the gate for the whole step; at depth 1
        // nothing of this rank's is on the device while a record updates.
        const HELD: usize = 4096;
        let gate = zi_sync::Arc::new(Gate {
            dev: zi_nvme::MemBackend::new(),
            held: HELD,
            open: zi_sync::Mutex::new(false),
            opened: zi_sync::Condvar::new(),
        });
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_prefetch_window(0)
            .with_optimizer_chunk(4)
            .with_step_pipeline_depth(1);
        let (node, mut eng, reg) = rank_over(strategy, gate.clone());
        let peer = node.offload_manager();
        let zeros = FlatBuffer::zeros(DType::F32, HELD / 4);
        let parked = peer.store_placed(Device::nvme(), &PlacementPolicy::all_nvme(), zeros).unwrap();
        let read = peer.begin_load_elems(&parked, 0, HELD / 4).unwrap();
        let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.add_grad(b, &Tensor::from_vec(&[5], vec![1.0; 5]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        let (peer_in_flight, stats) = (node.nvme.in_flight(), eng.stats());
        *gate.open.lock() = true;
        gate.opened.notify_all();
        assert!(read.wait(&peer).unwrap().is_some());
        peer.free_placed(parked);
        assert!(peer_in_flight >= 1, "the peer's read left the device during the step");
        assert_eq!((stats.optimizer_chunks, stats.step_io_overlap), (5, 0), "{stats:?}");
        eng.dispose().unwrap();
    }

    fn w_grad() -> Tensor {
        Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.1).collect()).unwrap()
    }

    /// Whole-buffer writes used to record one checksum per buffer, so the
    /// step's record reads found no exact tiling and went unverified until
    /// the step had written each record itself. The first step after
    /// `prepare`, run clean and then with one of its reads flipped: the
    /// flip is caught and re-read, and the state is the clean run's.
    fn first_step_reads_verified_records(prepare: impl Fn(&mut ZeroEngine)) {
        let first_step = |flip: bool| {
            let (plan, node, mut eng, w) = faulty_rank(5, 1 << 22);
            prepare(&mut eng);
            node.nvme.barrier().unwrap();
            plan.bitflip_next_reads(u32::from(flip));
            eng.add_grad(w, &w_grad()).unwrap();
            assert!(eng.step().unwrap());
            node.nvme.barrier().unwrap();
            plan.bitflip_next_reads(0);
            let seen = (eng.save_state().unwrap(), eng.mgr.health().corruptions_recovered);
            eng.dispose().unwrap();
            seen
        };
        let (clean, recovered) = first_step(false);
        assert_eq!(recovered, 0);
        assert_eq!(first_step(true), (clean, 1));
    }

    #[test]
    fn the_first_step_after_construction_reads_verified_records() {
        first_step_reads_verified_records(|_| {});
    }

    #[test]
    fn the_first_step_after_a_restore_reads_verified_records() {
        let (_plan, _node, mut saved, w) = faulty_rank(5, 1 << 22);
        saved.add_grad(w, &w_grad()).unwrap();
        saved.step().unwrap();
        let blob = saved.save_state().unwrap();
        saved.dispose().unwrap();
        first_step_reads_verified_records(|eng| eng.load_state(&blob).unwrap());
    }

    #[test]
    fn device_death_in_construction_fails_over_and_in_import_is_typed() {
        death_in_construction(true);
        death_in_construction(false);
    }

    fn death_in_construction(write_back: bool) {
        let (plan, node, mut healthy, _) = publishing_rank(5, write_back);
        let built = plan.ops_seen();
        // Four records, and four publishes unless the shard cache takes
        // them.
        assert_eq!(built, if write_back { 4 } else { 8 });
        let reg = tiny_registry();
        let state = |eng: &mut ZeroEngine| {
            let params: Vec<_> = reg.iter().map(|m| eng.export_param(m.id).unwrap()).collect();
            (params.iter().map(|p| p.data().to_vec()).collect::<Vec<_>>(), eng.save_state().unwrap())
        };
        let expect = state(&mut healthy);
        let drained = |node: &NodeResources| {
            // A reaped request leaves the in-flight gauge once its worker
            // is done with it: the node-wide barrier waits for that, and a
            // ticket nobody waited would still hold its staging buffer.
            node.nvme.barrier().unwrap();
            let mgr = node.offload_manager();
            assert_eq!((mgr.staging().outstanding(), mgr.nvme().in_flight()), (0, 0));
        };
        for alive in 0..built {
            let (plan, node) = faulty_node(1 << 22);
            if !write_back {
                node.crowd_out_shard_cache();
            }
            plan.kill_after_ops(alive);
            let mut eng = faulty_engine(&node, 5, 0).expect("construction fails over");
            assert!(node.offload_manager().is_degraded(), "{alive} ops");
            assert_eq!(state(&mut eng), expect, "{alive} ops");
            drained(&node);
            eng.dispose().unwrap();
        }
        // A restore writes what construction does, and a death under it
        // is the caller's typed error.
        let blob = expect.1;
        let before = plan.ops_seen();
        healthy.load_state(&blob).unwrap();
        assert_eq!(plan.ops_seen() - before, built);
        for alive in 0..built {
            let (plan, node, mut eng, _) = publishing_rank(5, write_back);
            plan.kill_after_ops(alive);
            let err = eng.load_state(&blob).unwrap_err();
            assert!(err.is_device_failure(), "{alive} ops: {err}");
            drained(&node);
            eng.dispose().unwrap();
        }
        healthy.dispose().unwrap();
        drained(&node);
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
                    self.nonfinite |= eng.mgr.accumulate_f32(buf, &delta).unwrap();
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
