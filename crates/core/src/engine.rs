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
//!    copied, in the storage dtype and never decoded, into the gathered
//!    tensor, which is charged against GPU working memory at that
//!    dtype's bytes (2 B per fp16 parameter, Eq. 4), beside the kernels'
//!    fixed decode buffer (`zi_tensor::ops::DECODE_BYTES`) while any fp16
//!    parameter is gathered.
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
//!    the same pipeline). One read-ahead queue ([`ReadAhead`]) drives
//!    the step, in the order opposite to the last step's, and the step
//!    keeps its last records, updated and not written, in the node's
//!    cache beside the images: the next step starts with them, and a kept
//!    record reaches the device only when the kept set is dropped.
//!    Replicated-parameter strategies (ZeRO-1/2/Offload) instead allgather
//!    the updated slices back into every replica.

use std::collections::{HashMap, VecDeque};

use zi_comm::{Communicator, Partitioner};
use zi_memory::{Block, PlacementPolicy, ScratchVec};
use zi_model::{ParamId, ParamRegistry, ParamStore};
use zi_nvme::checksum::{crc32, crc32_update};
use zi_optim::{adam_update, AdamConfig, LossScaler};
use zi_tensor::simd::{GradScale, PublishTo};
use zi_tensor::ops::DECODE_BYTES;
use zi_tensor::storage::{accumulate_f32, copy_f16, decode_f32, encode_f32};
use zi_tensor::{FlatBuffer, Tensor, F16};
use zi_trace::{Category, Counter};
use zi_types::{DType, Device, DeviceKind, Error, Result};

use crate::config::Strategy;
use crate::offload::{
    OffloadManager, PlacedBuf, PlacedPending, PublishStream, WriteBehind, RECORDS, SHARDS,
};
use crate::prefetch::{self, PrefetchStats, Prefetcher, TraceMap};

/// State streams interleaved in one optimizer record: fp32 master,
/// momentum, variance.
const STATE_STREAMS: usize = 3;

/// Writes the chunked optimizer step queues per record: the record
/// itself (fp32 master, momentum and variance, interleaved) and the
/// parameter published in storage dtype — when the publish is written
/// through, not into the shard cache.
const WRITES_PER_RECORD: usize = 2;

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

impl<T: Copy + Default> FreeList<Vec<T>> {
    /// A vector of exactly `len` elements.
    fn take_vec(&mut self, len: usize) -> Vec<T> {
        let mut buf = self.take(len).unwrap_or_default();
        buf.resize(len, T::default());
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

/// This rank's device traffic in a steady [`ZeroEngine::step`] — one whose
/// parameters with a gradient are the last applied step's, which ran in
/// the other order — as [`ZeroEngine::traffic_plan`] states it. Each array
/// is indexed by the step's record order, ascending then descending, and
/// holds a count and its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficPlan {
    /// Device reads: every device record the last step did not keep.
    pub reads: [(u64, u64); 2],
    /// Device writes: every device record the step does not keep, and one
    /// per publish piece of every offloaded shard the cache does not hold.
    pub writes: [(u64, u64); 2],
    /// The device records the step keeps.
    pub kept: [(u64, u64); 2],
    /// Per parameter, the bytes one fetch reads from the device: 0 when
    /// its shard is resident or cached.
    pub fetch_bytes: Vec<u64>,
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
    /// The GPU charge of the kernels' fp16 decode buffer, held while any
    /// fp16 parameter is resident.
    decode_buffer: Option<Block>,
    /// Storage of released f32 parameters (and published masters).
    f32_bufs: FreeList<Vec<f32>>,
    /// Storage of released fp16 parameters.
    f16_bufs: FreeList<Vec<F16>>,
    /// Gradient buffers the optimizer step has consumed.
    grad_bufs: FreeList<FlatBuffer>,
    prefetcher: Prefetcher,
    trace: TraceMap,
    /// Whether the optimizer buffers already answer to the node's
    /// degradation latch; a latch set later collapses them at the next step.
    collapsed: bool,
    /// Whether the next step runs its records in descending order.
    descending: bool,
    /// The due buffers of the last applied step, when it kept records in
    /// the node's cache: which ones, [`step_order`] says.
    carry: Option<Vec<usize>>,
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
            decode_buffer: None,
            f32_bufs: FreeList::new(),
            f16_bufs: FreeList::new(),
            grad_bufs: FreeList::new(),
            prefetcher: Prefetcher::new(),
            trace: TraceMap::new(),
            descending: false,
            carry: None,
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
    /// buffers placed, then the rank's staging set sized for them and
    /// charged — both first, so the shard cache the writes fill gets only
    /// the CPU room they leave — then each parameter initialised and
    /// written as a step leaves it while the previous one's writes are
    /// still on the device, through the set. Returns the bytes written.
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
        let set = self.staging_set();
        self.mgr.provision_staging(set)?;
        let mut wb = WriteBehind::new(self.window());
        let zeros = vec![0f32; lens.iter().copied().max().unwrap_or(0)];
        // The pack record being filled, which no write holds yet.
        let mut filling = None;
        let written = registry.iter().enumerate().try_for_each(|(idx, meta)| {
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
        // Construction reaps its own writes.
        let drained = wb.drain(&self.mgr);
        written.and(drained)?;
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
            let (mut alone, staging) = (None, self.mgr.staging());
            let staged = if part.len() == layout.elems(at) { &mut alone } else { &mut *filling };
            let record = match state.resident_f32_mut(first, count) {
                Some(resident) => resident,
                None => {
                    if staged.is_none() {
                        *staged = Some(staging.acquire(RECORDS, 4 * count)?);
                    }
                    staged.as_mut().map_or(&mut [][..], ScratchVec::as_f32_mut)
                }
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
                publish.push_values(wb, param, from, &src[0][values])?;
            }
        }
        publish.map_or(Ok(()), |publish| publish.finish(param))
    }

    /// Publish `stored`, all this rank stores of replicated parameter
    /// `idx`, in one piece behind `wb`.
    fn publish(&mut self, idx: usize, stored: &[f32], wb: &mut WriteBehind) -> Result<()> {
        let param = &mut self.shards[idx].param;
        let mut publish = self.mgr.begin_publish(param);
        publish.push_values(wb, param, 0, stored)?;
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

    /// Charge `bytes` of a gathered `dtype` parameter to the GPU pool, and
    /// the kernels' decode buffer with an fp16 one when it is not charged
    /// yet; on failure nothing the call charged stays charged.
    fn charge_gathered(&mut self, dtype: DType, bytes: u64) -> Result<Block> {
        let gpu = self.gpu_device();
        if dtype == DType::F16 && self.decode_buffer.is_none() {
            self.decode_buffer = Some(self.mgr.hierarchy().alloc(gpu, DECODE_BYTES as u64)?);
        }
        let block = self.mgr.hierarchy().alloc(gpu, bytes);
        if block.is_err() {
            self.uncharge_decode_buffer();
        }
        block
    }

    /// Free the decode buffer's charge once no parameter is resident.
    fn uncharge_decode_buffer(&mut self) {
        if self.resident.is_empty() {
            if let Some(block) = self.decode_buffer.take() {
                self.mgr.hierarchy().free(self.gpu_device(), block);
            }
        }
    }

    /// Elements of the buffer `id` is gathered into: every rank's padded
    /// shard, or the replica itself.
    fn gathered_len(&self, id: ParamId) -> usize {
        let st = &self.shards[id.0];
        if self.strategy.partition_params { st.shard_len * self.part.world } else { st.numel }
    }

    /// Gather parameter `id` in its storage dtype from wherever it lives,
    /// into a recycled buffer: every rank's stored elements copied in rank
    /// order — an allgather of the shards, or the replica itself — and
    /// never decoded.
    fn gather(&mut self, id: ParamId) -> Result<Tensor> {
        let (len, shape) = (self.gathered_len(id), self.shards[id.0].shape.clone());
        match self.strategy.param_dtype {
            DType::F32 => {
                let mut vals = self.f32_bufs.take_vec(len);
                self.gather_into(id, &mut vals, |bytes, out| decode_f32(DType::F32, bytes, out))?;
                Tensor::from_vec(&shape, vals)
            }
            DType::F16 => {
                let mut halves = self.f16_bufs.take_vec(len);
                self.gather_into(id, &mut halves, copy_f16)?;
                Tensor::from_f16(&shape, halves)
            }
        }
    }

    /// Land `id`'s stored elements in `dest`, [`Self::gathered_len`] long,
    /// through `land` (bytes into elements of the storage dtype), and cut
    /// it to the parameter.
    fn gather_into<T>(
        &mut self,
        id: ParamId,
        dest: &mut Vec<T>,
        land: impl Fn(&[u8], &mut [T]) -> Result<()>,
    ) -> Result<()> {
        let st = &self.shards[id.0];
        if !self.strategy.partition_params {
            return land(self.mgr.fetch_placed(&st.param)?.as_bytes(), dest);
        }
        // A resident shard is borrowed for the collective, an NVMe one is
        // the staging buffer its (pre)fetch filled.
        let shard = self.prefetcher.fetch(&self.mgr, id, &st.param)?;
        gather_shards(&self.comm, shard.as_bytes(), st.shard_len, dest, land)?;
        drop(shard);
        self.stats.allgathers += 1;
        self.stats.gathered_elems += dest.len() as u64;
        dest.truncate(st.numel);
        Ok(())
    }

    /// Start an asynchronous load of `id`'s shard unless it is resident
    /// or already on its way.
    fn prefetch_shard(&mut self, id: ParamId) {
        if self.strategy.partition_params && !self.resident.contains_key(&id) {
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
            // No optimizer state is written: the kept set stays valid.
            self.clear_grads();
            self.scaler.update(true);
            self.stats.skipped_steps += 1;
            self.end_iteration();
            return Ok(false);
        }
        self.scaler.update(false);

        // One write-behind window and one read-ahead queue span every
        // buffer with a member to update, so the pipeline never drains
        // between two of them, in the order opposite to the last applied
        // step's: it starts with the records that step kept — dirty
        // entries of the node's cache, neither read nor waited for — and
        // keeps its own last ones there, unwritten (see [`ReadAhead`]). A
        // changed due set writes the kept records back first, waited out
        // before the step's first read. The step drains its window before
        // it returns, so the kept records are the only optimizer state a
        // step leaves outside its tier, and no request of it is in flight
        // between two calls. A failure reaps every request, every record
        // the rank keeps written back behind it, so it surfaces as the
        // step's own typed error with every staging buffer back in its
        // pool.
        let due: Vec<usize> = (0..self.optims.len())
            .filter(|&b| {
                let members = &self.optims[b].layout.members;
                members.iter().any(|(idx, _)| self.shards[*idx].grad.is_some())
            })
            .collect();
        let window = self.window();
        let mut wb = WriteBehind::new(window);
        let changed = self.carry.as_ref().is_some_and(|carried| *carried != due);
        let written_back = changed && self.drop_carry("carry.drop.due_set");
        let held = self.carry.take().is_some();
        let budget = self.depth() + window;
        let mut ahead = ReadAhead::new(&self.optims, &due, self.descending, budget, held, written_back);
        let written = match written_back {
            true => self.write_back_kept(&mut wb, "carry.write_back.due_set"),
            false => Ok(()),
        };
        let updated = written.and_then(|()| self.stream_update(&mut ahead, &mut wb));
        ahead.rewind(&self.mgr, &self.optims);
        if let Err(e) = updated.and_then(|()| wb.drain(&self.mgr)) {
            let _ = self.write_back_kept(&mut wb, "carry.write_back.write");
            let _ = wb.drain(&self.mgr);
            return Err(e);
        }
        debug_assert_eq!(ahead.held, 0, "a kept record was not reached");
        self.stats.steps += 1;
        self.descending = !self.descending;
        if ahead.kept > 0 {
            let (kept, bytes) = device_records(&self.optims, &ahead.order[ahead.tail..]);
            self.mgr.tracer().instant(Category::OptimStep, "carry.keep", bytes, kept);
            self.carry = Some(due);
        }
        self.end_iteration();
        Ok(true)
    }

    /// The optimizer step's pipeline depth (Sec. 5.2.2): records — one
    /// chunk's master, momentum and variance, a single device request —
    /// read ahead of the update, the one being updated included, across
    /// parameter boundaries, while earlier records write back. It counts
    /// requests, not bytes, so it is the device's worker count: fewer
    /// leave workers idle. It changes no numerics.
    fn depth(&self) -> usize {
        self.mgr.nvme().worker_count()
    }

    /// Bound on the streamed step's write-behind requests in flight: both
    /// writes of every record in the pipeline.
    fn window(&self) -> usize {
        WRITES_PER_RECORD * self.depth()
    }

    /// The device traffic of a steady [`Self::step`] on this rank, by the
    /// step's own rule: the records and kept tail [`step_order`] gives, for
    /// the last applied step's due buffers (every buffer before the first),
    /// the publish mode and the shard cache's images as they stand. It does
    /// no I/O and counts nothing: the cache is probed as the prefetcher
    /// probes it, with no hit counted.
    pub fn traffic_plan(&self) -> TrafficPlan {
        let due = self.carry.clone().unwrap_or_else(|| (0..self.optims.len()).collect());
        let budget = self.depth() + self.window();
        let orders = [false, true].map(|descending| step_order(&self.optims, &due, descending, budget));
        let (records, bytes) = device_records(&self.optims, &orders[0].0);
        let kept = orders.map(|(order, tail)| device_records(&self.optims, &order[tail..]));
        // A due shard on the device publishes one piece per record its
        // update range meets — a replica in one — into its cached image,
        // else each as a write.
        let (mut pieces, mut fetch_bytes) = ((0, 0), Vec::new());
        for st in &self.shards {
            let cached = self.mgr.cached(&st.param, false).is_some();
            let read = if st.param.is_offloaded() && !cached { st.param.size_in_bytes() as u64 } else { 0 };
            if read > 0 && due.contains(&st.optim.0) {
                let parts = self.optims[st.optim.0].layout.starts(&st.optim.1).count() as u64;
                pieces = (pieces.0 + if self.strategy.partition_params { parts } else { 1 }, pieces.1 + read);
            }
            fetch_bytes.push(read);
        }
        TrafficPlan {
            reads: [kept[1], kept[0]].map(|(n, b)| (records - n, bytes - b)),
            writes: kept.map(|(n, b)| (records - n + pieces.0, bytes - b + pieces.1)),
            kept,
            fetch_bytes,
        }
    }

    /// The rank's staging set, per shelf `(count, bytes)`, sized once from
    /// the placed state; each count is the most its users hold at once
    /// (DESIGN.md §7): records for the step's reads, kept tail and window
    /// (`depth + window`, [`ReadAhead`]), construction's window plus two,
    /// or an NVMe gradient's chunk beside the tail; publish pieces written
    /// through, a window and the one being staged; shards for a fetch and
    /// the prefetches its look-ahead keeps in flight.
    fn staging_set(&self) -> [(usize, usize); 3] {
        let s = &self.strategy;
        let (depth, window) = (self.depth(), self.window());
        let nvme_grads = s.placement.grads == DeviceKind::Nvme;
        let streamed = self.optims.iter().filter(|opt| nvme_grads || opt.state.is_offloaded());
        let records = match streamed.map(|opt| opt.layout.per).max() {
            Some(per) => (
                (depth + window + usize::from(nvme_grads)).max(window + 2),
                DType::F32.bytes_for(STATE_STREAMS * per),
            ),
            None => (0, 0),
        };
        let stored = self.shards.iter().map(|st| s.param_dtype.bytes_for(st.param.numel()));
        let (stored, offloaded) =
            (stored.max().unwrap_or(0), self.shards.iter().any(|st| st.param.is_offloaded()));
        let per = self.optims.iter().map(|opt| opt.layout.per).max().unwrap_or(0);
        let piece = if s.partition_params { s.param_dtype.bytes_for(per) } else { stored };
        let pieces = if offloaded { (window + 1, piece) } else { (0, 0) };
        let shards = match (offloaded, s.partition_params) {
            (true, true) => s.prefetch_window.min(prefetch::MAX_PENDING) + 1,
            (true, false) => 1,
            (false, _) => usize::from(s.partition_optimizer && !s.partition_params),
        };
        [records, pieces, (shards, stored)]
    }

    /// Stream every due record through Adam in the queue's order (Sec.
    /// 5.2.2, 6.2), one member's part at a time, opening a parameter's
    /// update at its first part; a member without a gradient is left as it
    /// was read; the queue's tail is kept, unwritten. One staging buffer
    /// carries an NVMe record from device read (or the last step's kept
    /// set) through Adam to write-behind (or this step's), and one kernel
    /// pass over each part averages the gradient, updates the record,
    /// encodes the publish piece and checksums every byte it stores, so
    /// the record's write is recorded under its three streams' checksums
    /// without a second read of it.
    fn stream_update(&mut self, ahead: &mut ReadAhead, wb: &mut WriteBehind) -> Result<()> {
        let depth = self.depth();
        let tracer = self.mgr.tracer().clone();
        let scale = GradScale::average_over(self.comm.world_size() as f32 * self.grad_accum_steps);
        let mut open: Option<Update> = None;
        while let Some(record) = ahead.next_record(&self.mgr, &self.optims, depth, wb) {
            let (pos, mut staged) = record?;
            let (b, at) = ahead.order[pos];
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
            let meeting = self.optims[b].layout.meeting(at);
            for i in 0..meeting.len() {
                // Members in the step's order too, so each one's parts
                // stay consecutive.
                let k = if ahead.descending { meeting.end - 1 - i } else { meeting.start + i };
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
                        Publish::Stream(s) if !resident => match s.stage(param, from, len)? {
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
                        stream.push(wb, param, from, len, crcs[3])?;
                    } else {
                        stream.push_values(wb, param, from, master)?;
                    }
                }
            }
            if let Some(staging) = staged {
                // The kernel chains each stream's checksum over the parts
                // in the order it met them: byte order only when ascending.
                let crcs = match ahead.descending && meeting.len() > 1 {
                    true => stream_crcs(&staging),
                    false => std::array::from_fn(|s| crcs[s]),
                };
                if pos < ahead.tail {
                    wb.submit_staged(&self.mgr, &self.optims[b].state, first, staging, &crcs)?;
                } else {
                    ahead.kept += 1;
                    self.mgr.keep(&self.optims[b].state, first, staging, &crcs)?;
                }
            }
            self.stats.optimizer_chunks += 1;
        }
        if let Some(done) = open {
            self.finish_update(done, wb)?;
        }
        Ok(())
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
            Publish::Whole(self.f32_bufs.take_vec(len))
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

    /// Close the kept set, instant `why`; true when there was one. Its
    /// records stay in the node's cache for the caller to write back,
    /// discard or read. Never the degradation latch's to absorb: a lost
    /// record update is not a degraded read.
    fn drop_carry(&mut self, why: &'static str) -> bool {
        let Some(due) = self.carry.take() else { return false };
        let (order, tail) = step_order(&self.optims, &due, !self.descending, self.depth() + self.window());
        let (kept, bytes) = device_records(&self.optims, &order[tail..]);
        self.mgr.tracer().instant(Category::OptimStep, why, bytes, kept);
        true
    }

    /// Put every record this rank keeps in the node's cache on `wb`, in the
    /// step's order; instant `why` (bytes, records) when there were any.
    fn write_back_kept(&self, wb: &mut WriteBehind, why: &'static str) -> Result<()> {
        let states = self.optims.iter().map(|opt| &opt.state);
        let (bytes, kept) = self.mgr.unkeep(states, self.descending, Some(wb))?;
        if kept > 0 {
            self.mgr.tracer().instant(Category::OptimStep, why, bytes, kept);
        }
        Ok(())
    }

    /// Send every record this rank keeps in the node's cache home to the
    /// staging set unwritten.
    fn discard_kept(&self) {
        let _ = self.mgr.unkeep(self.optims.iter().map(|opt| &opt.state), false, None);
    }

    /// Reap what is kept between calls: the prefetcher's reads; the kept
    /// records go unwritten. [`Self::dispose`] and `Drop` both come here.
    fn reap(&mut self) {
        self.drop_carry("carry.drop.dispose");
        self.discard_kept();
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
        let mut mine = self.mgr.staging().acquire(SHARDS, dtype.bytes_for(shard_len))?;
        encode_f32(dtype, master, mine.as_bytes_mut())?;
        let mut full = self.f32_bufs.take_vec(shard_len * self.part.world);
        let decode = |bytes: &[u8], out: &mut [f32]| decode_f32(dtype, bytes, out);
        gather_shards(&self.comm, mine.as_bytes(), shard_len, &mut full, decode)?;
        let published = self.publish(idx, &full[..self.shards[idx].numel], wb);
        self.f32_bufs.put(full.len(), full);
        published
    }

    /// Collapse every optimizer buffer onto CPU once the node's
    /// degradation latch is set: split buffers re-publish their
    /// NVMe-resident half to CPU instead of dropping it with the store.
    /// Drops the kept set: the collapse reads the kept records, newer than
    /// the device's copy, from the node's cache, and frees them with their
    /// extents, their buffers home. The staging set is handed back (the
    /// prefetches holding its shard buffers reaped) before the state moves
    /// into DRAM, which reads no staging buffer, and sized again for what
    /// the new placement streams.
    fn collapse_on_degradation(&mut self) -> Result<()> {
        if self.collapsed || !self.mgr.degradation_latched() {
            return Ok(());
        }
        self.drop_carry("carry.drop.placement");
        self.prefetcher.clear(&self.mgr);
        self.mgr.release_staging();
        let moved = self.optims.iter_mut().try_for_each(|opt| self.mgr.collapse(&mut opt.state));
        // A set for the state where it now lies, also when a read failed.
        let set = self.staging_set();
        moved.and(self.mgr.provision_staging(set))?;
        self.collapsed = true;
        Ok(())
    }

    /// Close the iteration: the prefetches reaped. The step has already
    /// reaped its own reads.
    fn end_iteration(&mut self) {
        self.trace.end_iteration();
        self.prefetcher.clear(&self.mgr);
    }

    /// Gather the full value of a parameter, in f32 (collective: every
    /// rank must call this in the same order).
    pub fn export_param(&mut self, id: ParamId) -> Result<Tensor> {
        Ok(self.gather(id)?.to_f32())
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
    /// interleaves them never reaches a checkpoint. Each record is one
    /// read into bytes of its own — never a staging buffer, which the kept
    /// set may hold every one of — and a kept record, newer than the
    /// device's copy, is served by its entry in the node's cache, and
    /// stays kept.
    pub(crate) fn export_optimizer_records(&self) -> Result<Vec<crate::checkpoint::ParamRecord>> {
        let mut out: Vec<_> = self.shards.iter().map(|_| None).collect();
        for OptimStorage { state, layout } in &self.optims {
            let records = (0..layout.len).step_by(layout.per).map(|at| layout.span(at));
            let state = self.mgr.load_elems(state, records)?.to_f32_vec();
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
        // Discarded unwritten: the import overwrites every record.
        self.drop_carry("carry.drop.import");
        self.discard_kept();
        let tracer = self.mgr.tracer().clone();
        let mut span = tracer.span(Category::OptimStep, "engine.import");
        let (mut wb, s) = (WriteBehind::new(self.window()), self.strategy);
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
    /// consumed; pools return to their empty state. No request of the
    /// engine is in flight between calls, so nothing here can fail.
    pub fn dispose(mut self) -> Result<()> {
        self.reap();
        self.clear_grads();
        self.release_state();
        let gpu = self.gpu_device();
        for (_, r) in self.resident.drain() {
            self.mgr.hierarchy().free(gpu, r.gpu_block);
        }
        if let Some(block) = self.decode_buffer.take() {
            self.mgr.hierarchy().free(gpu, block);
        }
        Ok(())
    }

    /// Free every parameter's and optimizer shard's storage, and the
    /// staging set sized for it.
    fn release_state(&mut self) {
        for st in self.shards.drain(..) {
            self.mgr.free_placed(st.param);
        }
        for opt in self.optims.drain(..) {
            self.mgr.free_placed(opt.state);
        }
        self.mgr.release_staging();
    }
}

/// An engine abandoned without [`ZeroEngine::dispose`] still reaps its
/// requests, silently.
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
        let tensor = self.gather(id)?;
        // Charge the gathered parameter against GPU working memory at its
        // storage dtype's bytes — 2 B per fp16 element, the paper's Eq. 4
        // — beside, with the first fp16 one, the buffer the kernels decode
        // it into; failure here is the OOM that memory-centric tiling
        // exists to avoid (Sec. 5.1.3).
        let bytes = tensor.dtype().bytes_for(tensor.numel()) as u64;
        // The cg hop: the gathered elements land in GPU working memory.
        let tracer = self.mgr.tracer().clone();
        let mut span = tracer.span(Category::CgTransfer, "cg.upload");
        span.set_bytes(bytes);
        span.set_id(id.0 as u64);
        let gpu_block = self.charge_gathered(tensor.dtype(), bytes)?;
        drop(span);
        tracer.count(Counter::CgBytes, bytes);
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
                let len = self.gathered_len(id);
                match r.tensor.try_into_vec() {
                    Ok(vals) => self.f32_bufs.put(len, vals),
                    Err(tensor) => {
                        if let Ok(halves) = tensor.try_into_f16_vec() {
                            self.f16_bufs.put(len, halves);
                        }
                    }
                }
                self.uncharge_decode_buffer();
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
        let st = &self.shards[id.0];
        // This rank keeps its reduce-scattered shard of the (implicitly
        // padded) gradient, or the whole allreduced gradient.
        let scatter = self.strategy.partition_grads.then(|| self.part.padded_len(st.numel));
        let grad_device = device_for(self.strategy.placement.grads, self.gpu_index);
        let st = &mut self.shards[id.0];
        deposit_grad(&self.mgr, &self.comm, &mut self.grad_bufs, st, grad_device, grad.storage(), scatter)
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

/// Allgather `shard` — this rank's `shard_len` stored elements — landing
/// every rank's contribution once, through `land` (a decode, or a copy in
/// the storage dtype), straight into `dest[rank * shard_len ..]`. A
/// contribution of any other length is a typed error on every rank.
fn gather_shards<T>(
    comm: &Communicator,
    shard: &[u8],
    shard_len: usize,
    dest: &mut [T],
    land: impl Fn(&[u8], &mut [T]) -> Result<()>,
) -> Result<()> {
    comm.allgather_with(shard, |rank, bytes| {
        let out = dest
            .get_mut(rank * shard_len..(rank + 1) * shard_len)
            .ok_or_else(|| Error::Internal("gather destination shorter than the world".into()))?;
        land(bytes, out)
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
    grad: &zi_sync::Arc<Vec<f32>>,
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

/// A step's records of the `due` buffers in its order — ascending over
/// buffers and records, or `descending` — as buffer and element, and where
/// its tail starts: the last `min(budget, device records)` device records,
/// which the step keeps. The one rule [`ReadAhead`] runs and
/// [`ZeroEngine::traffic_plan`] counts.
fn step_order(
    optims: &[OptimStorage],
    due: &[usize],
    descending: bool,
    budget: usize,
) -> (Vec<(usize, usize)>, usize) {
    let records = |b: usize| (0..optims[b].layout.len).step_by(optims[b].layout.per);
    let mut order: Vec<_> = due.iter().flat_map(|&b| records(b).map(move |at| (b, at))).collect();
    if descending {
        order.reverse();
    }
    let keep = budget.min(order.iter().filter(|&&r| on_device(optims, r)).count());
    let mut staged = 0;
    let tail = order.iter().rposition(|&record| {
        staged += usize::from(on_device(optims, record));
        staged > keep
    });
    (order, tail.map_or(0, |k| k + 1))
}

/// Whether the record at element `at` of buffer `b` lies on the device.
fn on_device(optims: &[OptimStorage], (b, at): (usize, usize)) -> bool {
    optims[b].state.device_offset(optims[b].layout.span(at).0, 0).is_some()
}

/// How many of `records` lie on the device, and their bytes.
fn device_records(optims: &[OptimStorage], records: &[(usize, usize)]) -> (u64, u64) {
    let spans = records.iter().filter(|&&r| on_device(optims, r)).map(|&(b, at)| optims[b].layout.span(at));
    spans.fold((0, 0), |(n, bytes), (_, count)| (n + 1, bytes + DType::F32.bytes_for(count) as u64))
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
/// buffer with a member that has a gradient, feeding the update. It keeps
/// `depth` records issued ahead — the one about to be taken counts —
/// across buffer boundaries; depth counts records because what keeps the
/// device's workers busy is requests in flight, whatever their size.
///
/// The order alternates between steps (MLP-Offload's reuse-aware order):
/// ascending over buffers and records, then descending. A step's last
/// `budget` device records — `depth + window`, which the rank's staging
/// set holds record buffers for — are its *tail*: each is updated and
/// kept in its staging buffer as a dirty entry of the node's cache, and
/// not written. The next step starts with those same records, taken out
/// of the cache without a read or a wait: a rank whose device records fit
/// the budget keeps them all and neither reads nor writes one in a steady
/// step. A read takes a buffer of the set: reads, the kept records and
/// the window's writes together never hold more than `budget`.
struct ReadAhead {
    /// The records to update, in this step's order: buffer, element.
    order: Vec<(usize, usize)>,
    descending: bool,
    /// Where the tail starts in `order`.
    tail: usize,
    budget: usize,
    /// The next record to issue, a position in `order`.
    next: usize,
    /// Records issued and not yet taken: position and load.
    pending: VecDeque<(usize, Load)>,
    /// Records the last step kept that this one has not reached yet: still
    /// in the node's cache.
    held: usize,
    /// The tail records this step has kept so far.
    kept: usize,
    /// Whether the window holds the write-back of the set the last step
    /// kept, waited out before the first device read: a read of one of
    /// those records must not overtake its write.
    written_back: bool,
}

/// A record the read-ahead has issued.
enum Load {
    /// A device read in flight, or a record resident in CPU DRAM.
    Read(PlacedPending),
    /// Taken out of the node's cache, where the last step kept it, with
    /// the checksums it was kept under.
    Kept(ScratchVec, Vec<u32>),
}

impl ReadAhead {
    /// The queue over the records of the `due` buffers in this step's
    /// order, its tail as [`step_order`] says, starting — when `held` —
    /// from the records the last step, of the same buffers, kept: as many
    /// as this one keeps. Or, `written_back`, behind their write-back.
    fn new(
        optims: &[OptimStorage],
        due: &[usize],
        descending: bool,
        budget: usize,
        held: bool,
        written_back: bool,
    ) -> Self {
        let (order, tail) = step_order(optims, due, descending, budget);
        let held = if held { device_records(optims, &order[tail..]).0 as usize } else { 0 };
        let (next, pending, kept) = (0, VecDeque::new(), 0);
        ReadAhead { order, descending, tail, budget, next, pending, held, kept, written_back }
    }

    /// Issue records up to `depth`. A record the last step kept is taken
    /// out of the node's cache, with no transfer, and a CPU-DRAM one needs
    /// none either; an NVMe one queues on the device once a buffer of the
    /// set is free — with the set out, the queue stops short while another
    /// record is pending, else waits the oldest write out — and the first
    /// one once the window's write-back has landed.
    fn top_up(
        &mut self,
        mgr: &OffloadManager,
        optims: &[OptimStorage],
        depth: usize,
        wb: &mut WriteBehind,
    ) -> Result<()> {
        while let (true, Some(&(b, at))) = (self.pending.len() < depth, self.order.get(self.next)) {
            let OptimStorage { state, layout } = &optims[b];
            let (first, count) = layout.span(at);
            let kept = if self.held > 0 { mgr.take_kept(state, first) } else { None };
            let load = match kept {
                Some((staging, crcs)) => {
                    self.held -= 1;
                    Load::Kept(staging, crcs)
                }
                None => {
                    let full = |ahead: &Self, wb: &WriteBehind| {
                        let out = ahead.pending.iter().filter(|(_, load)| match load {
                            Load::Read(read) => read.is_read(),
                            Load::Kept(..) => true,
                        });
                        out.count() + ahead.kept + ahead.held + wb.in_flight() >= ahead.budget
                    };
                    let on_device = state.device_offset(first, 0).is_some();
                    if on_device && std::mem::take(&mut self.written_back) {
                        wb.drain(mgr)?;
                    }
                    if on_device && full(self, wb) {
                        wb.reap(mgr)?;
                        if full(self, wb) && !self.pending.is_empty() {
                            break;
                        }
                        while full(self, wb) && wb.land_oldest(mgr)? {}
                    }
                    Load::Read(mgr.begin_load_elems(state, first, count)?)
                }
            };
            self.pending.push_back((self.next, load));
            self.next += 1;
        }
        Ok(())
    }

    /// Top the queue up, then hand over its head — the record the update
    /// reaches next — as its position and staging buffer (`None` when it
    /// is resident in CPU DRAM).
    fn next_record(
        &mut self,
        mgr: &OffloadManager,
        optims: &[OptimStorage],
        depth: usize,
        wb: &mut WriteBehind,
    ) -> Option<Result<(usize, Option<ScratchVec>)>> {
        if let Err(e) = self.top_up(mgr, optims, depth, wb) {
            return Some(Err(e));
        }
        let (pos, load) = self.pending.pop_front()?;
        Some(match load {
            Load::Read(read) => read.wait(mgr).map(|staged| (pos, staged)),
            Load::Kept(staging, _) => Ok((pos, Some(staging))),
        })
    }

    /// True while a read this queue issued is still on the device.
    fn reading(&self, mgr: &OffloadManager) -> bool {
        self.pending.iter().any(|(_, load)| matches!(load, Load::Read(read) if !read.ready(mgr)))
    }

    /// Reap every read still out, its staging buffer back in its pool, and
    /// put every kept record taken and not reached back in the node's
    /// cache.
    fn rewind(&mut self, mgr: &OffloadManager, optims: &[OptimStorage]) {
        for (pos, load) in self.pending.drain(..) {
            match load {
                Load::Read(read) => read.discard(mgr),
                Load::Kept(staging, crcs) => {
                    let (b, at) = self.order[pos];
                    let _ = mgr.keep(&optims[b].state, optims[b].layout.span(at).0, staging, &crcs);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::{NodeEnv, NodeResources};
    use zi_memory::NodeMemorySpec;
    use zi_model::ParamRegistry;
    use zi_nvme::StorageBackend;

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
        assert_eq!(got.dtype(), DType::F16, "a gathered parameter keeps its storage dtype");
        let expect = reg.meta(id).init_tensor();
        for (a, b) in got.to_f32().data().iter().zip(expect.data()) {
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
        // The pipeline is as deep as the device has workers; the CPU tier
        // reads nothing, so its step updates one resident record at a time.
        let run = |strategy: Strategy, workers: usize| {
            let strategy = strategy.with_f32_params().with_optimizer_chunk(5);
            let env = NodeEnv { nvme_workers: workers, ..NodeEnv::in_memory() };
            let (_node, mut eng, reg) = rank_over(strategy, env);
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
        let sequential = run(Strategy::infinity_cpu(), 1);
        for workers in [1, 2, 3, 4, 8] {
            assert_eq!(
                sequential.data(),
                run(Strategy::infinity_nvme(), workers).data(),
                "a pipeline {workers} records deep must be invisible to the math"
            );
        }
    }

    #[test]
    fn pipelined_step_keeps_multiple_requests_in_flight() {
        // Slow the device enough that reads genuinely linger in the
        // queue; prefetch off so every in-flight request belongs to the
        // optimizer-step pipeline. Records of four elements: `w` is three
        // 48-byte records, `b` one of 48 bytes and one of 12 — the only
        // 12-byte read of the step. The step keeps all five records, so
        // the shard cache is crowded out: each part's publish, 16 B but for
        // `b`'s last, is the write that follows its update.
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_prefetch_window(0)
            .with_optimizer_chunk(4);
        let (node, mut eng, reg) = throttled_rank(strategy, std::time::Duration::from_millis(2), 3);
        node.crowd_out_shard_cache();
        let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.add_grad(b, &Tensor::from_vec(&[5], vec![1.0; 5]).unwrap()).unwrap();
        let peak_before = node.nvme.stats().in_flight_peak;
        let _ = node.tracer().take_events();
        assert!(eng.step().unwrap());
        let stats = eng.stats();
        assert!(
            stats.step_io_overlap > 0,
            "a 3-worker pipeline over a slow device must overlap update with I/O: {stats:?}"
        );
        let peak = node.nvme.stats().in_flight_peak;
        assert!(peak >= 2, "expected ≥ 2 concurrent requests, peak was {peak} (before: {peak_before})");
        // The queue spans parameters: `b`'s reads are on the device while
        // `w` still updates. Tickets number requests in submission order.
        node.nvme.barrier().unwrap();
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
        let (publishes, b_last_read) = (tickets("nc.write", 16), tickets("nc.read", 12));
        assert_eq!((b_last_read.len(), publishes.len()), (1, 4), "three parts of w, one of b");
        assert!(
            b_last_read[0] < publishes[2],
            "b's reads waited for w to finish: read {b_last_read:?}, publishes {publishes:?}"
        );
        eng.dispose().unwrap();
    }

    /// Multi-path placement in the regime it exists for: a CPU pool too
    /// small for the optimizer state contributes its path anyway. With a
    /// quarter of the state striped onto CPU DRAM the step drives both
    /// paths at once (a DRAM record's cp update runs while the device
    /// holds a write), whether the publishes go to the shard cache or
    /// through to the device; asking the same pool for all of it is a
    /// typed OOM, not a slowdown.
    #[test]
    fn split_placement_drives_both_paths_where_all_cpu_cannot_fit() {
        const NUMEL: usize = 1 << 14;
        let mut reg = ParamRegistry::new();
        let id = reg.register("big", &[NUMEL], 3, 0.1, 0.0);
        // The CPU pool holds ~2.9 f32 images of the parameter beside a
        // rank's staging set: the gradient and half the three-image
        // optimizer state, not all.
        let strategy = |cpu_permille| {
            Strategy::infinity_nvme()
                .with_optimizer_chunk(NUMEL / 16)
                .with_optimizer_cpu_permille(cpu_permille)
        };
        let node_and_engine = |cpu: u64, cpu_permille: usize| {
            let relay = zi_sync::Arc::new(Over::from(Relay::default()));
            let tracer = relay.tracer.clone();
            let env = NodeEnv { nvme_workers: 2, tracer, ..NodeEnv::new(relay.clone()) };
            let spec = NodeMemorySpec::test_spec(1, 1 << 22, cpu, 1 << 22);
            let node = NodeResources::new(&spec, 1, env);
            let engine = ZeroEngine::new(
                &reg,
                strategy(cpu_permille),
                node.offload_manager(),
                node.group.communicator(0),
                AdamConfig::default(),
            );
            (node, relay, engine)
        };
        let beside_set = |cpu_permille| {
            let (_, _, roomy) = node_and_engine(1 << 22, cpu_permille);
            NUMEL as u64 * 4 * 29 / 10 + roomy.unwrap().mgr.staging().held_bytes()
        };

        let (_node, _relay, all_cpu) = node_and_engine(beside_set(1000), 1000);
        match all_cpu {
            Err(Error::OutOfMemory { device, .. }) => assert_eq!(device, Device::cpu()),
            Err(e) => panic!("all-CPU on the small pool must be a typed OOM, got {e}"),
            Ok(_) => panic!("all-CPU optimizer state fit a pool sized to refuse it"),
        }

        // Beside the split's own set the shard cache has room for the
        // image; beside the smaller all-DRAM one it has none, and every
        // publish is written through.
        for sized_from in [250, 1000] {
            let (node, relay, split) = node_and_engine(beside_set(sized_from), 250);
            let mut eng = split.expect("a quarter of the state fits the CPU pool");
            let grad = Tensor::randn_seeded(&[NUMEL], 5, 0.1);
            eng.add_grad(id, &grad).unwrap();
            let _ = node.tracer().take_events();
            // Records 3, 7, 11 and 15 of sixteen are the DRAM ones. The
            // device holds each write until the next one arrives, so a
            // DRAM record's update opens while it holds one unless the
            // step waited its writes out first: unless the paths take turns.
            relay.close();
            assert!(eng.step().unwrap());
            relay.open();
            let events = node.tracer().take_events();
            let updates: Vec<_> = events
                .iter()
                .filter(|e| e.cat == Category::CpTransfer && e.name == "cp.update")
                .map(|e| e.start_ns)
                .collect();
            assert_eq!(updates.len(), 4, "from {sized_from}: the DRAM records' updates");
            let held = updates.iter().filter(|&&at| relay.holds_at(at)).count();
            assert!(held > 0, "from {sized_from}: every cp update waited the writes out");
            eng.dispose().unwrap();
        }
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
        // drives the staging set through the same sequence and reaches
        // the same peak (prefetch off: only the step touches the device).
        // Records of one element: `w`'s twelve outnumber the nine a step
        // keeps, so every step reads three.
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_prefetch_window(0)
            .with_optimizer_chunk(1);
        let (_node, mut eng, reg) = throttled_rank(strategy, std::time::Duration::from_millis(1), 3);
        let id = reg.find("w").unwrap();
        let step = |eng: &mut ZeroEngine| {
            eng.add_grad(id, &Tensor::from_vec(&[3, 4], vec![0.5; 12]).unwrap()).unwrap();
            eng.step().unwrap();
        };
        step(&mut eng);
        step(&mut eng);
        let warm = eng.mgr.staging().stats();
        step(&mut eng);
        let pool = eng.mgr.staging().clone();
        let st = pool.stats();
        assert!(st.reused > warm.reused, "steady-state steps must recycle chunk buffers: {st:?}");
        // The set: `depth + window` record buffers, a window of publish
        // pieces and the one being staged, one shard buffer for a fetch.
        let (depth, window) = (eng.depth(), eng.window());
        assert_eq!((depth, window), (3, 6));
        assert_eq!((st.allocated, st.waits), ((depth + window) as u64 + 7 + 1, 0), "{st:?}");
        // Read-ahead plus the record in hand are `depth` buffers, its
        // publish one more; the rest is the write-behind window.
        let bound = (depth + 1 + window) as u64;
        assert!(st.peak_outstanding <= bound, "peak {} over bound {bound}", st.peak_outstanding);
        // Once the step's last writes are reaped, only the kept records
        // hold a buffer: the last nine of `w`'s twelve, every record
        // buffer of the set.
        let carried = kept_records(&eng) as u64;
        assert_eq!(carried, (depth + window) as u64);
        assert_eq!((pool.outstanding(), pool.idle(RECORDS)), (carried, 0));
        eng.dispose().unwrap();
        assert_eq!((pool.outstanding(), pool.idle(RECORDS)), (0, depth + window));
    }

    #[test]
    fn the_staging_gauges_report_the_step_set_at_world_one() {
        // Records of four elements, the fp16 publishes written back to the
        // shard cache: the set is depth 4 plus a window of 8 record buffers
        // of 48 B, a window of publish pieces of 8 B and the one being
        // staged, and one buffer for a fetch of `w`'s 24 B shard, charged
        // to the CPU pool from construction to dispose. Nothing is
        // allocated, and nothing waits, in three iterations.
        let strategy = Strategy::infinity_nvme().with_prefetch_window(0).with_optimizer_chunk(4);
        let (node, mut eng, reg) = single_rank(strategy);
        let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
        for round in 0..3 {
            let g = |n: usize| (0..n).map(|i| (i + round) as f32 * 0.1).collect::<Vec<f32>>();
            eng.add_grad(w, &Tensor::from_vec(&[3, 4], g(12)).unwrap()).unwrap();
            eng.add_grad(b, &Tensor::from_vec(&[5], g(5)).unwrap()).unwrap();
            assert!(eng.step().unwrap());
        }
        let health = eng.mgr.health();
        let (held, peak) = (health.staging_held_bytes, health.staging_peak_buffers);
        assert_eq!((eng.mgr.staging().stats().allocated, held), (22, 12 * 48 + 9 * 8 + 24));
        assert_eq!(health.staging_waits, 0);
        // One buffer per record, a read or a write, never both at once.
        assert_eq!(peak, 5);
        let cpu = || node.hierarchy.stats(Device::cpu());
        assert!(cpu().peak_in_use >= held && cpu().in_use >= held, "the set is a CPU tenant");
        eng.dispose().unwrap();
        assert_eq!(cpu().in_use, 0, "the set's charge went with the engine");
    }

    #[test]
    fn a_cpu_pool_without_room_for_the_staging_set_fails_construction_naming_it() {
        // Inf-NVMe keeps no state in CPU memory: the set is the only
        // tenant construction charges there.
        let strategy = Strategy::infinity_nvme().with_prefetch_window(0);
        let (_, eng, reg) = single_rank(strategy);
        let set = eng.mgr.staging().held_bytes();
        eng.dispose().unwrap();
        let build = |cpu: u64| {
            let node = NodeResources::in_memory(&NodeMemorySpec::test_spec(1, 1 << 22, cpu, 1 << 22), 1);
            let comm = node.group.communicator(0);
            ZeroEngine::new(&reg, strategy, node.offload_manager(), comm, AdamConfig::default())
                .map(|eng| eng.dispose().unwrap())
        };
        match build(set - 4) {
            Err(e @ Error::OutOfMemory { device, requested, tenant: "staging set", .. }) => {
                assert_eq!((device, requested as u64), (Device::cpu(), set));
                assert!(e.to_string().contains("for the staging set"), "{e}");
            }
            other => panic!("a pool 4 B short of the set built an engine: {other:?}"),
        }
        build(set).expect("a pool that holds the set");
    }

    /// An engine over one 8 × 8 parameter in records of four, prefetch
    /// off, on `node`: its state in DRAM outweighs the set that streams it
    /// from NVMe.
    fn square_engine(node: &NodeResources) -> Result<ZeroEngine> {
        let mut reg = ParamRegistry::new();
        reg.register("w", &[8, 8], 5, 0.2, 0.0);
        let strategy =
            Strategy::infinity_nvme().with_f32_params().with_prefetch_window(0).with_optimizer_chunk(4);
        let comm = node.group.communicator(0);
        ZeroEngine::new(&reg, strategy, node.offload_manager(), comm, AdamConfig::default())
    }

    #[test]
    fn a_device_death_in_construction_rebuilds_in_a_pool_that_holds_just_the_dram_state() {
        // The DRAM layout's footprint: an engine built on a dead device.
        let (plan, roomy) = faulty_node(1 << 22);
        plan.kill();
        let eng = square_engine(&roomy).unwrap();
        assert!(eng.mgr.health().degraded);
        let dram = roomy.hierarchy.stats(Device::cpu()).in_use;
        eng.dispose().unwrap();
        // The device dies once the NVMe layout's set is charged and its
        // writes have begun: the set goes with the failed layout, so the
        // DRAM one is built in a pool of exactly its size.
        let (plan, node) = faulty_node(dram);
        plan.kill_after_ops(2);
        let eng = square_engine(&node).expect("the DRAM layout in a pool of its size");
        assert!(eng.mgr.health().degraded);
        assert_eq!(node.hierarchy.stats(Device::cpu()).in_use, dram);
        eng.dispose().unwrap();
    }

    #[test]
    fn a_collapse_hands_its_record_buffers_back_before_the_state_moves_into_dram() {
        // The gradient deposited, the node degrades and the step collapses
        // the state into DRAM. Returns the CPU bytes in use before the step
        // (the streamed set and the gradient) and after it (the state in
        // DRAM and the set it streams with), and both sets.
        let collapse = |cpu: u64| -> Result<[u64; 4]> {
            let (_, node) = faulty_node(cpu);
            let mut eng = square_engine(&node)?;
            node.crowd_out_shard_cache();
            eng.add_grad(ParamId(0), &Tensor::from_vec(&[8, 8], vec![0.5; 64])?)?;
            let in_use = || node.hierarchy.stats(Device::cpu()).in_use;
            let (before, streamed) = (in_use(), eng.mgr.staging().held_bytes());
            node.degrade();
            assert!(eng.step()?);
            let out = [before, in_use(), streamed, eng.mgr.staging().held_bytes()];
            eng.dispose()?;
            Ok(out)
        };
        let [before, after, streamed, shrunk] = collapse(1 << 22).unwrap();
        assert!(shrunk < streamed, "the record shelf stayed: {shrunk} of {streamed} B");
        // A pool of exactly the collapse's need — the gradient beside the
        // state in DRAM and the set that streams it — where the streamed
        // set, still charged, would not fit.
        let grad = before - streamed;
        assert!(grad + after < after + before - shrunk, "the pool would hold both sets");
        assert_eq!(collapse(grad + after).unwrap(), [before, after, streamed, shrunk]);
    }

    /// One rank over a scriptable faulty device of two workers — a
    /// pipeline two records deep — and a CPU pool of `cpu` bytes beside its
    /// staging set, prefetch off so every device read belongs to the call
    /// that issued it.
    fn faulty_rank(
        chunk: usize,
        cpu: u64,
    ) -> (zi_nvme::FaultPlan, NodeResources, ZeroEngine, ParamId) {
        let (_, roomy) = faulty_node(1 << 22);
        let set = faulty_engine(&roomy, chunk, 0).unwrap().mgr.staging().held_bytes();
        let (plan, node) = faulty_node(cpu + set);
        let engine = faulty_engine(&node, chunk, 0).unwrap();
        (plan, node, engine, tiny_registry().find("w").unwrap())
    }

    /// [`faulty_rank`]'s node, before any engine is built on it.
    fn faulty_node(cpu: u64) -> (zi_nvme::FaultPlan, NodeResources) {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, cpu, 1 << 22);
        let plan = zi_nvme::FaultPlan::new();
        let backend =
            zi_sync::Arc::new(zi_nvme::FaultyBackend::new(zi_nvme::MemBackend::new(), plan.clone()));
        let env = NodeEnv {
            policy: zi_nvme::RetryPolicy::none(),
            nvme_workers: 2,
            ..NodeEnv::new(backend)
        };
        (plan, NodeResources::new(&spec, 1, env))
    }

    /// [`faulty_rank`]'s engine over the tiny registry, built on `node`,
    /// `permille` of each optimizer buffer in DRAM.
    fn faulty_engine(node: &NodeResources, chunk: usize, permille: usize) -> Result<ZeroEngine> {
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_prefetch_window(0)
            .with_optimizer_chunk(chunk)
            .with_optimizer_cpu_permille(permille);
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
        // Nothing of the step is on the device when a flip is armed.
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
        // Counted once the device has finished every request; each fetch
        // reads what the plan says.
        node.nvme.barrier().unwrap();
        let (before, planned) = (node.nvme.stats(), eng.traffic_plan().fetch_bytes[id.0]);
        plan.bitflip_next_reads(u32::MAX);
        let cached = eng.export_param(id).unwrap();
        let read = node.nvme.stats().bytes_read - before.bytes_read;
        assert_eq!(read, planned, "a cached shard was read from the device");
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
        let planned = eng.traffic_plan().fetch_bytes[id.0];
        assert_eq!(eng.export_param(id).unwrap().data(), cached.data());
        let after = node.nvme.stats();
        assert_eq!((after.reads, after.bytes_read), (before.reads + 1, before.bytes_read + planned));
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
        let (before, fetch) = (node.nvme.stats(), eng.traffic_plan().fetch_bytes[id.0]);
        plan.bitflip_next_reads(1);
        assert_eq!(eng.export_param(id).unwrap().data(), published.data());
        let after = node.nvme.stats();
        let reread = after.bytes_read - before.bytes_read - fetch;
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
        // `w` is one record: the step keeps it, so its buffer is the only
        // one out.
        let carried = kept_records(&eng);
        assert_eq!(carried, 1);
        let pool = eng.mgr.staging().clone();
        assert_eq!(pool.outstanding(), carried as u64);
        eng.dispose().unwrap();
        assert_eq!(pool.outstanding(), 0);
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
        // With two-element records `w` is six records and `b` three, and
        // two device workers make the kept set six. A step of both starts
        // from the other order's last six, writes the three it does not
        // keep again and reads three, while the first read of the next
        // parameter is on the device as the last record of one updates. A
        // step in which no parameter has a gradient drops the kept set:
        // its write-back, six writes through a window of four, is all it
        // does.
        let grads = |eng: &mut ZeroEngine, reg: &ParamRegistry, both: bool| -> Result<()> {
            if !both {
                return Ok(());
            }
            let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
            eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap())?;
            eng.add_grad(b, &Tensor::from_vec(&[5], vec![1.0; 5]).unwrap())
        };
        let reg = tiny_registry();
        for steady in [true, false] {
            // The killed step is the second of three; the others train both.
            let kinds = [true, steady, true];
            let (plan, _node, mut eng, _) = publishing_rank(2, write_back);
            // The states a checkpoint would hold after each step; calibrate
            // how many device ops the second one issues.
            let (mut saved, mut second, mut planned) = (Vec::new(), 0, 0);
            for (k, &both) in kinds.iter().enumerate() {
                let before = plan.ops_seen();
                let steady = eng.traffic_plan();
                planned = if k == 1 { steady.reads[1].0 + steady.writes[1].0 } else { planned };
                grads(&mut eng, &reg, both).unwrap();
                eng.step().unwrap();
                if k == 1 {
                    second = plan.ops_seen() - before;
                }
                let kept = if both { eng.depth() + eng.window() } else { 0 };
                assert_eq!(kept_records(&eng), kept);
                saved.push(eng.save_state().unwrap());
            }
            // A read and a write per record not kept, and a publish written
            // through, as planned; or the write-back.
            let expect = if steady { planned } else { 6 };
            assert_eq!(second, expect, "write-back {write_back}, steady {steady}");
            let strategy = eng.strategy;
            eng.dispose().unwrap();
            // Kill the device after every possible number of ops of the
            // second step: the step waits each of them out, so it fails
            // itself, with the device error.
            for alive in 0..second {
                let (plan, node, mut eng, _) = publishing_rank(2, write_back);
                grads(&mut eng, &reg, true).unwrap();
                eng.step().unwrap();
                grads(&mut eng, &reg, steady).unwrap();
                assert_eq!(kept_records(&eng), 6);
                plan.kill_after_ops(alive);
                let outlived = || panic!("{alive} ops: the step outlived its device");
                let err = eng.step().err().unwrap_or_else(outlived);
                assert!(err.is_device_failure(), "death after {alive} ops of the step: {err}");
                let pool = eng.mgr.staging().clone();
                assert_eq!(pool.outstanding(), 0, "{alive} ops: a staging buffer is checked out");
                eng.dispose().unwrap();
                let idle = (RECORDS..=SHARDS).map(|shelf| pool.idle(shelf) as u64).sum::<u64>();
                assert_eq!(idle, pool.stats().allocated, "{alive} ops: a buffer was lost");
                drop(pool);
                // The node has degraded: an engine rebuilt on it, all in
                // DRAM, resumes from the last checkpoint as if nothing had
                // happened.
                let comm = node.group.communicator(0);
                let mut resumed =
                    ZeroEngine::new(&reg, strategy, node.offload_manager(), comm, AdamConfig::default())
                        .unwrap();
                resumed.load_state(&saved[0]).unwrap();
                for &both in &kinds[1..] {
                    grads(&mut resumed, &reg, both).unwrap();
                    assert!(resumed.step().unwrap());
                }
                assert_eq!(resumed.save_state().unwrap(), saved[2], "{alive} ops: resume");
                assert!(resumed.carry.is_none() && node.offload_manager().is_degraded());
                resumed.dispose().unwrap();
            }
        }
    }

    #[test]
    fn a_skipped_step_and_a_parameter_without_a_gradient_issue_no_device_request() {
        let (_plan, node, mut eng, w) = faulty_rank(5, 1 << 22);
        // The loss scaler skips the step: no optimizer state is read.
        let at_rest = requests(&node);
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![f32::INFINITY; 12]).unwrap()).unwrap();
        assert!(!eng.step().unwrap());
        assert_eq!(requests(&node), at_rest, "a skipped step touched the device");
        // `w` alone has a gradient: its three records are read (and
        // published, to the shard cache), and nothing of `b` moves; the
        // step keeps all three for the next one, unwritten.
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        assert_eq!(requests(&node), (at_rest.0 + 3, at_rest.1));
        assert_eq!(kept_records(&eng), 3);
        eng.dispose().unwrap();
    }

    #[test]
    fn a_corrupted_record_is_reread_alone_and_adam_sees_clean_bytes() {
        let grad = |round: usize| {
            Tensor::from_vec(&[3, 4], (0..12).map(|i| (i + round) as f32 * 0.1).collect()).unwrap()
        };
        let w = tiny_registry().find("w").unwrap();
        // Records of one element: `w` is twelve records of 12 bytes, each
        // written under one checksum per stream (4 bytes). Each step keeps
        // its last six device records, so the second step reads the other
        // device records: the first of those reads comes back with a
        // flipped bit. At 250‰ a quarter of the records live in DRAM.
        for permille in [0, 250] {
            let rank = || {
                let (plan, node) = faulty_node(1 << 22);
                let eng = faulty_engine(&node, 1, permille).unwrap();
                (plan, node, eng)
            };
            // The device reads and bytes of the second step, `arm`ed first,
            // and those it plans.
            let second_step = |eng: &mut ZeroEngine, node: &NodeResources, arm: &dyn Fn()| {
                eng.add_grad(w, &grad(0)).unwrap();
                eng.step().unwrap();
                arm();
                let (before, plan) = (node.nvme.stats(), eng.traffic_plan());
                eng.add_grad(w, &grad(1)).unwrap();
                eng.step().unwrap();
                let after = node.nvme.stats();
                let read = (after.reads - before.reads, after.bytes_read - before.bytes_read);
                (read, plan.reads[1])
            };
            // Two steps on a healthy device: the reference.
            let (_plan, clean_node, mut clean) = rank();
            let ((reads, bytes), planned) = second_step(&mut clean, &clean_node, &|| {});
            assert!(reads > 0 && (reads, bytes) == planned, "{permille}‰: the second step read {reads}");
            let expect = clean.export_optimizer_records().unwrap();
            let (plan, node, mut eng) = rank();
            let flip = || plan.bitflip_next_reads(1);
            let ((got_reads, got_bytes), _) = second_step(&mut eng, &node, &flip);
            assert_eq!(got_reads, reads + 1, "{permille}‰: one re-read");
            assert_eq!(got_bytes - bytes, 4, "{permille}‰: the re-read is not one stream tile");
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

    /// One rank of `strategy` over an in-memory device of `workers`
    /// workers that answers each request after `latency`.
    fn throttled_rank(
        strategy: Strategy,
        latency: std::time::Duration,
        workers: usize,
    ) -> (NodeResources, ZeroEngine, ParamRegistry) {
        use zi_nvme::{MemBackend, ThrottledBackend};
        let device = zi_sync::Arc::new(ThrottledBackend::new(MemBackend::new(), 2e9, latency));
        rank_over(strategy, NodeEnv { nvme_workers: workers, ..NodeEnv::new(device) })
    }

    /// One rank of `strategy` over a [`Door`] `n` writes wide.
    fn door_rank(strategy: Strategy, n: usize) -> (NodeResources, ZeroEngine, ParamRegistry) {
        rank_over(strategy, NodeEnv::new(zi_sync::Arc::new(Over::from(Door::new(n, 0)))))
    }

    /// One rank of `strategy` over a [`Door`] wider than any step, built
    /// open: once [`Door::close`]d, every write waits its second.
    fn held_rank(
        strategy: Strategy,
    ) -> (zi_sync::Arc<Over<Door>>, NodeResources, ZeroEngine, ParamRegistry) {
        let door = zi_sync::Arc::new(Over::from(Door::new(1 << 10, 1 << 10)));
        let (node, engine, reg) = rank_over(strategy, NodeEnv::new(door.clone()));
        (door, node, engine, reg)
    }

    /// One rank of `strategy` over the node `env` describes.
    fn rank_over(strategy: Strategy, env: NodeEnv) -> (NodeResources, ZeroEngine, ParamRegistry) {
        let spec = NodeMemorySpec::test_spec(1, 1 << 22, 1 << 22, 1 << 22);
        let node = NodeResources::new(&spec, 1, env);
        let reg = tiny_registry();
        let comm = node.group.communicator(0);
        let engine =
            ZeroEngine::new(&reg, strategy, node.offload_manager(), comm, AdamConfig::default())
                .unwrap();
        (node, engine, reg)
    }

    /// What a test device does with a request on its way to the in-memory
    /// device it wraps: by default, nothing.
    trait Intercept: Send + Sync {
        fn read(&self, dev: &zi_nvme::MemBackend, offset: u64, buf: &mut [u8]) -> Result<()> {
            dev.read_at(offset, buf)
        }
        fn write(&self, dev: &zi_nvme::MemBackend, offset: u64, data: &[u8]) -> Result<()> {
            dev.write_at(offset, data)
        }
    }

    /// A test device: `on`'s interceptions over an in-memory device, which
    /// answers `sync` and `len` itself. Derefs to `on`.
    struct Over<I> {
        dev: zi_nvme::MemBackend,
        on: I,
    }

    impl<I> From<I> for Over<I> {
        fn from(on: I) -> Self {
            Over { dev: zi_nvme::MemBackend::new(), on }
        }
    }

    impl<I> std::ops::Deref for Over<I> {
        type Target = I;
        fn deref(&self) -> &I {
            &self.on
        }
    }

    impl<I: Intercept> StorageBackend for Over<I> {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.on.read(&self.dev, offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            self.on.write(&self.dev, offset, data)
        }
        fn sync(&self) -> Result<()> {
            self.dev.sync()
        }
        fn len(&self) -> Result<u64> {
            self.dev.len()
        }
    }

    /// An in-memory device that, while closed, holds each write until the
    /// next one arrives (or a second passes), and logs each write's stay
    /// on its tracer's clock: while the writes keep coming it holds one,
    /// and it holds none once its submitter waits them all out.
    #[derive(Default)]
    struct Relay {
        tracer: zi_trace::Tracer,
        state: zi_sync::Mutex<RelayState>,
        next: zi_sync::Condvar,
    }

    /// Whether a [`Relay`] holds writes, how many have arrived, and each
    /// held write's arrival and departure.
    #[derive(Default)]
    struct RelayState {
        closed: bool,
        arrived: usize,
        stays: Vec<(u64, u64)>,
    }

    impl Relay {
        fn close(&self) {
            self.state.lock().closed = true;
        }

        /// Let every held write through, and hold none from here on.
        fn open(&self) {
            self.state.lock().closed = false;
            self.next.notify_all();
        }

        /// True when a write was held at `at`.
        fn holds_at(&self, at: u64) -> bool {
            self.state.lock().stays.iter().any(|&(arrived, left)| arrived <= at && at < left)
        }
    }

    impl Intercept for Relay {
        fn write(&self, dev: &zi_nvme::MemBackend, offset: u64, data: &[u8]) -> Result<()> {
            let mut state = self.state.lock();
            if state.closed {
                let arrived = self.tracer.now_ns();
                state.arrived += 1;
                let me = state.arrived;
                self.next.notify_all();
                let until = zi_sync::time::Instant::now() + std::time::Duration::from_secs(1);
                while state.closed && state.arrived == me && zi_sync::time::Instant::now() < until {
                    let _ = self.next.wait_for(&mut state, std::time::Duration::from_millis(10));
                }
                let left = self.tracer.now_ns();
                state.stays.push((arrived, left));
            }
            drop(state);
            dev.write_at(offset, data)
        }
    }

    /// An in-memory device that holds each of its first `n - 1` writes
    /// until the `n`-th arrives (or a second passes). `n` requests are on
    /// it at once exactly when their submitter did not wait for one to
    /// finish first: submission order decides, not a clock.
    struct Door {
        arrived: zi_sync::Mutex<usize>,
        full: zi_sync::Condvar,
        n: usize,
    }

    impl Door {
        /// A door `n` writes wide that `arrived` writes have reached.
        fn new(n: usize, arrived: usize) -> Self {
            Door { arrived: zi_sync::Mutex::new(arrived), full: zi_sync::Condvar::new(), n }
        }

        /// Hold the writes from here on, as if none had arrived.
        fn close(&self) {
            *self.arrived.lock() = 0;
        }
    }

    impl Intercept for Door {
        fn write(&self, dev: &zi_nvme::MemBackend, offset: u64, data: &[u8]) -> Result<()> {
            let mut arrived = self.arrived.lock();
            *arrived += 1;
            self.full.notify_all();
            let until = zi_sync::time::Instant::now() + std::time::Duration::from_secs(1);
            while *arrived < self.n && zi_sync::time::Instant::now() < until {
                let _ = self.full.wait_for(&mut arrived, std::time::Duration::from_millis(10));
            }
            drop(arrived);
            dev.write_at(offset, data)
        }
    }

    /// An in-memory device whose writes each take `delay` and whose reads
    /// take none: a read issued under a write of its extent overtakes it.
    struct SlowWrites {
        delay: std::time::Duration,
    }

    impl Intercept for SlowWrites {
        fn write(&self, dev: &zi_nvme::MemBackend, offset: u64, data: &[u8]) -> Result<()> {
            zi_sync::thread::sleep(self.delay);
            dev.write_at(offset, data)
        }
    }

    /// One rank of `strategy` over [`SlowWrites`] of two milliseconds.
    fn slow_write_rank(strategy: Strategy) -> (NodeResources, ZeroEngine, ParamRegistry) {
        let delay = std::time::Duration::from_millis(2);
        let device = Over::from(SlowWrites { delay });
        rank_over(strategy, NodeEnv::new(zi_sync::Arc::new(device)))
    }

    /// Instants named `name` in `events`.
    fn instants(events: &[zi_trace::Event], name: &str) -> usize {
        events.iter().filter(|e| e.cat == Category::OptimStep && e.name == name).count()
    }

    /// The device's reads and writes once it has finished every request.
    fn requests(node: &NodeResources) -> (u64, u64) {
        node.nvme.barrier().unwrap();
        (node.nvme.stats().reads, node.nvme.stats().writes)
    }

    /// Records the last step kept, by the step's rule.
    fn kept_records(eng: &ZeroEngine) -> usize {
        eng.carry.as_ref().map_or(0, |_| eng.traffic_plan().kept[usize::from(!eng.descending)].0 as usize)
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
        assert!(eng.carry.is_some(), "the step kept its records");
        let _ = node.tracer().take_events();
        eng.load_state(&blob).unwrap();
        assert_eq!(instants(&node.tracer().take_events(), "carry.drop.import"), 1);
        assert_eq!((eng.carry.is_some(), kept_records(&eng)), (false, 0));
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
            let carried = instants(&events, "carry.keep");
            let traced = (carried, instants(&events, "carry.drop.due_set"));
            let state = eng.save_state().unwrap();
            eng.dispose().unwrap();
            (state, traced)
        };
        // CPU-resident optimizer state carries nothing: the reference.
        let (reference, untraced) = run(Strategy::infinity_cpu());
        assert_eq!(untraced, (0, 0));
        let (state, traced) = run(Strategy::infinity_nvme());
        assert_eq!(traced, (3, 2), "every step keeps records; both changes drop them");
        assert_eq!(state, reference);
    }

    #[test]
    fn a_written_through_publish_is_on_the_device_when_the_next_fetch_reads_it() {
        // The shard cache crowded out, `w`'s publish is written through,
        // and the door holds the step's writes past the step's last
        // submission. The step waits its writes out, so the next forward's
        // fetch of `w` reads — and verifies — the new bytes.
        let strategy = Strategy::infinity_nvme().with_f32_params().with_prefetch_window(0);
        let strategy = strategy.with_optimizer_chunk(4);
        let grad = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.1).collect()).unwrap();
        let (_reference_node, mut reference, reg) = single_rank(strategy);
        let w = reg.find("w").unwrap();
        reference.add_grad(w, &grad).unwrap();
        assert!(reference.step().unwrap());
        let expect = reference.export_param(w).unwrap();
        reference.dispose().unwrap();
        let (door, node, mut eng, _) = held_rank(strategy);
        node.crowd_out_shard_cache();
        door.close();
        eng.add_grad(w, &grad).unwrap();
        assert!(eng.step().unwrap());
        assert_eq!(node.nvme.in_flight(), 0, "the step returned with a write in flight");
        assert_eq!(eng.get(w).unwrap().data(), expect.data());
        eng.release(w).unwrap();
        let health = eng.mgr.health();
        assert_eq!((health.shard_cache_hits, health.corruptions_recovered), (0, 0));
        eng.dispose().unwrap();
    }

    #[test]
    fn a_rank_whose_records_fit_the_set_reads_nothing_in_a_steady_step() {
        // In records of four elements `w` is three records and `b` two:
        // five device records, fewer than depth 4 plus a write-behind
        // window of 8. The first step reads them all; every later one
        // takes them all from the buffers the step before kept them in,
        // and neither reads nor writes one, as the plan says. The
        // publishes go to the shard cache.
        let strategy = Strategy::infinity_nvme()
            .with_f32_params()
            .with_prefetch_window(0)
            .with_optimizer_chunk(4);
        let (node, mut eng, reg) = single_rank(strategy);
        for round in 0..4 {
            let (before, plan) = (requests(&node), eng.traffic_plan());
            for meta in reg.iter() {
                let grad = (0..meta.numel()).map(|i| (i + round) as f32 * 0.1).collect();
                eng.add_grad(meta.id, &Tensor::from_vec(&meta.shape, grad).unwrap()).unwrap();
            }
            assert!(eng.step().unwrap());
            assert_eq!(kept_records(&eng), 5, "round {round}: the step kept fewer than all");
            let after = requests(&node);
            let planned = if round == 0 { (5, 0) } else { (plan.reads[round % 2].0, plan.writes[round % 2].0) };
            assert_eq!((after.0 - before.0, after.1 - before.1), planned, "round {round}");
        }
        eng.dispose().unwrap();
    }

    #[test]
    fn a_model_shorter_than_the_carry_trains_as_if_every_step_drained() {
        // The tiny registry in records of four elements is five records,
        // fewer than depth 4 plus a write-behind window of 8: every step
        // keeps them all, and the next one takes them from their buffers
        // and reads nothing.
        // A quadratic loss pulls every parameter towards a moving target;
        // the reference leaves nothing on the device between steps, its
        // engine disposed and restored from a checkpoint after each.
        let strategy = Strategy::infinity_nvme().with_f32_params().with_prefetch_window(0);
        let strategy = strategy.with_optimizer_chunk(4);
        let train = |drained: bool| {
            let (node, mut eng, reg) = slow_write_rank(strategy);
            let mut losses = Vec::new();
            for step in 0..4 {
                let (reads, plan) = (node.nvme.stats().reads, eng.traffic_plan());
                let mut loss = 0f32;
                for meta in reg.iter() {
                    let param = eng.get(meta.id).unwrap();
                    let target = |i: usize| (i + step) as f32 * 0.01;
                    let diff: Vec<f32> =
                        param.data().iter().enumerate().map(|(i, x)| x - target(i)).collect();
                    drop(param);
                    eng.release(meta.id).unwrap();
                    loss += diff.iter().map(|d| d * d).sum::<f32>();
                    let grad = diff.iter().map(|d| 2.0 * d).collect();
                    eng.add_grad(meta.id, &Tensor::from_vec(&meta.shape, grad).unwrap()).unwrap();
                }
                losses.push(loss.to_bits());
                assert!(eng.step().unwrap());
                if !drained && step > 0 {
                    let read = node.nvme.stats().reads - reads;
                    let planned = (plan.reads[step % 2].0, 5);
                    assert_eq!((read, kept_records(&eng)), planned, "step {step} read a kept record");
                }
                if drained {
                    let blob = eng.save_state().unwrap();
                    eng.dispose().unwrap();
                    let comm = node.group.communicator(0);
                    let mgr = node.offload_manager();
                    let adam = AdamConfig::default();
                    eng = ZeroEngine::new(&reg, strategy, mgr, comm, adam).unwrap();
                    eng.load_state(&blob).unwrap();
                }
            }
            let health = eng.mgr.health();
            assert_eq!(health.corruptions_recovered + health.corruptions_unrecovered, 0);
            let state = eng.save_state().unwrap();
            eng.dispose().unwrap();
            (losses, state)
        };
        assert_eq!(train(false), train(true));
    }

    /// An in-memory device that silently flips one bit of the `n`-th write
    /// after [`FlipWrite::arm`] (0: none): what lands is not what was sent.
    struct FlipWrite {
        countdown: zi_sync::Mutex<u64>,
    }

    impl FlipWrite {
        fn arm(&self, n: u64) {
            *self.countdown.lock() = n;
        }
    }

    impl Intercept for FlipWrite {
        fn write(&self, dev: &zi_nvme::MemBackend, offset: u64, data: &[u8]) -> Result<()> {
            let mut countdown = self.countdown.lock();
            if *countdown == 0 || data.is_empty() {
                return dev.write_at(offset, data);
            }
            *countdown -= 1;
            if *countdown > 0 {
                return dev.write_at(offset, data);
            }
            let mut flipped = data.to_vec();
            flipped[0] ^= 1;
            dev.write_at(offset, &flipped)
        }
    }

    #[test]
    fn a_kept_records_corrupted_write_back_is_never_used_by_the_next_read() {
        // Records of one element, one device worker, which serves requests
        // in order: `w` is twelve records of 12 B, and a step keeps its
        // last three (depth 1 plus a write-behind window of 2). A step of
        // `w` and `b` drops the set a step of `w` alone kept: the three go
        // to the device as plain writes, the last kept first, and the step
        // reads `w`'s records behind them — `b`'s five first, descending.
        // The first write-back lands with a flipped bit in its master
        // tile.
        let strategy = Strategy::infinity_nvme().with_f32_params().with_prefetch_window(0);
        let strategy = strategy.with_optimizer_chunk(1);
        let grad = |shape: &[usize], round: usize| {
            let values = (0..shape.iter().product()).map(|i: usize| (i * round) as f32 * 0.1);
            Tensor::from_vec(shape, values.collect()).unwrap()
        };
        let rank = || {
            let dev = zi_sync::Arc::new(Over::from(FlipWrite { countdown: zi_sync::Mutex::new(0) }));
            let env = NodeEnv { nvme_workers: 1, ..NodeEnv::new(dev.clone()) };
            let (node, eng, reg) = rank_over(strategy, env);
            (dev, node, eng, reg.find("w").unwrap(), reg.find("b").unwrap())
        };
        let stepped = |eng: &mut ZeroEngine, w: ParamId, b: Option<ParamId>, round: usize| {
            eng.add_grad(w, &grad(&[3, 4], round))?;
            if let Some(b) = b {
                eng.add_grad(b, &grad(&[5], round))?;
            }
            eng.step()
        };
        // A clean run: the write-back lands as sent, and the next read of
        // every record passes its checksums.
        let (_dev, node, mut clean, w, b) = rank();
        stepped(&mut clean, w, None, 1).unwrap();
        let _ = node.tracer().take_events();
        stepped(&mut clean, w, Some(b), 2).unwrap();
        let events = node.tracer().take_events();
        let write_backs: Vec<_> = events.iter().filter(|e| e.name == "carry.write_back.due_set").collect();
        assert_eq!(write_backs.len(), 1);
        assert_eq!((write_backs[0].bytes, write_backs[0].id), (3 * 12, 3));
        assert_eq!(clean.mgr.health().corruptions_recovered, 0);
        clean.dispose().unwrap();
        // The flipped bit is on the device: the read of that record
        // re-reads its master tile alone, four bytes at a time, and ends
        // the step in a typed error — the bad bytes are never updated.
        let (dev, node, mut eng, w, b) = rank();
        stepped(&mut eng, w, None, 1).unwrap();
        let before = node.nvme.stats();
        dev.arm(1);
        let err = stepped(&mut eng, w, Some(b), 2).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "got {err}");
        assert_eq!(*dev.countdown.lock(), 0, "no write-back was corrupted");
        node.nvme.barrier().unwrap();
        let after = node.nvme.stats();
        let rereads = u64::from(crate::offload::CORRUPTION_REREADS);
        // `b`'s five records, `w`'s first (the corrupted one), then the
        // re-reads.
        assert_eq!(after.reads - before.reads, 5 + 1 + rereads);
        assert_eq!(after.bytes_read - before.bytes_read, (5 + 1) * 12 + rereads * 4);
        let health = eng.mgr.health();
        assert_eq!((health.corruptions_recovered, health.corruptions_unrecovered), (0, 1));
        let pool = eng.mgr.staging().clone();
        assert_eq!(pool.outstanding(), 0, "a staging buffer is checked out");
        eng.dispose().unwrap();
    }

    /// `strategy` in records of one element, f32 parameters, prefetch off:
    /// the tiny registry's `w` and `b` are seventeen records, and a step
    /// keeps its last twelve.
    fn one_element_records(strategy: Strategy) -> Strategy {
        strategy.with_f32_params().with_prefetch_window(0).with_optimizer_chunk(1)
    }

    /// Round `round`'s gradients of every parameter of `reg`.
    fn every_grad(eng: &mut ZeroEngine, reg: &ParamRegistry, round: usize) {
        for meta in reg.iter() {
            let grad = (0..meta.numel()).map(|i| ((i * 5 + round) % 7) as f32 * 0.1 - 0.3).collect();
            eng.add_grad(meta.id, &Tensor::from_vec(&meta.shape, grad).unwrap()).unwrap();
        }
    }

    #[test]
    fn a_traced_steps_carry_keep_instant_is_the_plans_kept_tail() {
        // Seventeen one-element records, more than a step keeps: each
        // step's `carry.keep` instant names the records and bytes the plan
        // states for that step's order, ascending then descending.
        let (node, mut eng, reg) = single_rank(one_element_records(Strategy::infinity_nvme()));
        for round in 0..3 {
            every_grad(&mut eng, &reg, round);
            let (plan, order) = (eng.traffic_plan(), usize::from(eng.descending));
            let _ = node.tracer().take_events();
            assert!(eng.step().unwrap());
            let keep: Vec<(u64, u64)> = node
                .tracer()
                .take_events()
                .iter()
                .filter(|e| e.cat == Category::OptimStep && e.name == "carry.keep")
                .map(|e| (e.id, e.bytes))
                .collect();
            assert_eq!(keep, [plan.kept[order]], "step {round}");
            assert!((1..17).contains(&plan.kept[order].0), "a proper tail: {plan:?}");
        }
        eng.dispose().unwrap();
    }

    #[test]
    fn save_and_load_over_a_dirty_set_see_the_kept_bytes_and_write_none_of_them() {
        // CPU-resident optimizer state keeps nothing: the reference. Each
        // of four steps, ascending and descending in turn, leaves twelve
        // of the seventeen records dirty; a checkpoint export takes them
        // from their buffers, and keeps them, and reads the other five
        // alone.
        let cpu_resident = one_element_records(Strategy::infinity_cpu());
        let (_reference_node, mut reference, reg) = single_rank(cpu_resident);
        let (node, mut eng, _) = single_rank(one_element_records(Strategy::infinity_nvme()));
        let mut saved = Vec::new();
        for round in 0..4 {
            every_grad(&mut reference, &reg, round);
            every_grad(&mut eng, &reg, round);
            assert!(reference.step().unwrap() && eng.step().unwrap());
            assert_eq!(kept_records(&eng), 12, "round {round}: the step kept another count");
            let before = node.nvme.stats();
            let blob = eng.save_state().unwrap();
            let after = node.nvme.stats();
            let read = (after.reads - before.reads, after.bytes_read - before.bytes_read);
            assert_eq!(read, (5, 5 * 12), "round {round}: the export read a kept record");
            assert_eq!(blob, reference.save_state().unwrap(), "round {round}: not the kept bytes");
            assert_eq!(kept_records(&eng), 12, "round {round}: the export dropped the kept set");
            saved.push(blob);
        }
        // A restore over the kept set discards it unwritten: it writes what
        // a restore into an engine that keeps nothing writes, and the
        // next step goes on from the checkpoint.
        let writes = |node: &NodeResources| {
            node.nvme.barrier().unwrap();
            node.nvme.stats().writes
        };
        let (fresh_node, mut fresh, _) = single_rank(one_element_records(Strategy::infinity_nvme()));
        let before = writes(&fresh_node);
        fresh.load_state(&saved[1]).unwrap();
        let import = writes(&fresh_node) - before;
        assert_eq!(import, 17, "the import writes every record once");
        let _ = node.tracer().take_events();
        let before = writes(&node);
        eng.load_state(&saved[1]).unwrap();
        assert_eq!(writes(&node) - before, import, "the restore wrote a kept record");
        let events = node.tracer().take_events();
        assert_eq!(instants(&events, "carry.drop.import"), 1);
        let written_back = events.iter().filter(|e| e.name.starts_with("carry.write_back")).count();
        assert_eq!((written_back, kept_records(&eng)), (0, 0));
        every_grad(&mut eng, &reg, 2);
        assert!(eng.step().unwrap());
        assert_eq!(eng.save_state().unwrap(), saved[2]);
        for engine in [eng, fresh, reference] {
            engine.dispose().unwrap();
        }
    }

    #[test]
    fn degrading_while_a_dirty_set_is_held_collapses_it_into_dram_bit_identically() {
        // The node degrades between steps while twelve of the seventeen
        // records are dirty, after an ascending step or a descending one:
        // the next step collapses the state into DRAM, the kept records
        // copied over the device's older copy, and every later step is
        // the reference's, CPU-resident throughout.
        let cpu_resident = one_element_records(Strategy::infinity_cpu());
        let (_reference_node, mut reference, reg) = single_rank(cpu_resident);
        let mut expect = Vec::new();
        for round in 0..4 {
            every_grad(&mut reference, &reg, round);
            assert!(reference.step().unwrap());
            expect.push(reference.save_state().unwrap());
        }
        reference.dispose().unwrap();
        for degrade_after in [1, 2] {
            let (node, mut eng, _) = single_rank(one_element_records(Strategy::infinity_nvme()));
            for (round, expect) in expect.iter().enumerate() {
                if round == degrade_after {
                    assert_eq!(kept_records(&eng), 12);
                    node.degrade();
                }
                every_grad(&mut eng, &reg, round);
                assert!(eng.step().unwrap());
                let state = eng.save_state().unwrap();
                assert_eq!(&state, expect, "degraded after {degrade_after}: round {round}");
            }
            assert_eq!((eng.carry.is_some(), kept_records(&eng)), (false, 0));
            let health = eng.mgr.health();
            assert_eq!((health.corruptions_recovered, health.corruptions_unrecovered), (0, 0));
            eng.dispose().unwrap();
        }
    }

    /// One rank of `one_element_records(strategy)` over a scriptable
    /// device that does not retry, four workers deep: a step keeps twelve
    /// of the seventeen records.
    fn flipping_rank(strategy: Strategy) -> (zi_nvme::FaultPlan, NodeResources, ZeroEngine) {
        let plan = zi_nvme::FaultPlan::new();
        let backend =
            zi_sync::Arc::new(zi_nvme::FaultyBackend::new(zi_nvme::MemBackend::new(), plan.clone()));
        let env = NodeEnv { policy: zi_nvme::RetryPolicy::none(), ..NodeEnv::new(backend) };
        let (node, eng, _) = rank_over(one_element_records(strategy), env);
        (plan, node, eng)
    }

    #[test]
    fn an_export_rereads_a_corrupted_record_alone_and_reads_no_kept_one() {
        // Twelve of the seventeen records kept: the export reads the other
        // five, one request each, and serves the twelve from the cache. The
        // first read comes back with a flipped bit: its tile alone is read
        // again, once. A flip that persists is a typed error. Either way
        // no kept record is read, and the kept set stays.
        let (_reference_node, mut reference, reg) =
            single_rank(one_element_records(Strategy::infinity_cpu()));
        let (plan, node, mut eng) = flipping_rank(Strategy::infinity_nvme());
        every_grad(&mut reference, &reg, 0);
        every_grad(&mut eng, &reg, 0);
        assert!(reference.step().unwrap() && eng.step().unwrap());
        assert_eq!(kept_records(&eng), 12);
        node.nvme.barrier().unwrap();
        let before = node.nvme.stats();
        plan.bitflip_next_reads(1);
        assert_eq!(eng.save_state().unwrap(), reference.save_state().unwrap());
        let after = node.nvme.stats();
        // Five records of 12 B, then one 4 B tile of the flipped one.
        let read = (after.reads - before.reads, after.bytes_read - before.bytes_read);
        assert_eq!(read, (5 + 1, 5 * 12 + 4));
        assert_eq!(eng.mgr.health().corruptions_recovered, 1);
        plan.bitflip_next_reads(u32::MAX);
        let err = eng.save_state().unwrap_err();
        plan.bitflip_next_reads(0);
        assert!(matches!(err, Error::Corruption { .. }), "got {err}");
        assert_eq!(kept_records(&eng), 12, "the export dropped the kept set");
        // The next step takes the kept set as the first one left it.
        every_grad(&mut reference, &reg, 1);
        every_grad(&mut eng, &reg, 1);
        assert!(reference.step().unwrap() && eng.step().unwrap());
        assert_eq!(eng.save_state().unwrap(), reference.save_state().unwrap());
        for engine in [eng, reference] {
            engine.dispose().unwrap();
        }
    }

    #[test]
    fn a_collapse_over_a_kept_set_verifies_each_segment_read_whole() {
        // The node degrades while twelve of the seventeen records are kept:
        // the collapse reads each optimizer buffer's segment — `w`'s twelve
        // records and `b`'s five — whole, one request verified under every
        // record's checksums, the kept records' bytes taken from the
        // cache. The first read comes back with a flipped bit, and its
        // tile alone is read again. The state is the CPU-resident
        // reference's.
        let (_reference_node, mut reference, reg) =
            single_rank(one_element_records(Strategy::infinity_cpu()));
        let (plan, node, mut eng) = flipping_rank(Strategy::infinity_nvme());
        every_grad(&mut reference, &reg, 0);
        every_grad(&mut eng, &reg, 0);
        assert!(reference.step().unwrap() && eng.step().unwrap());
        assert_eq!(kept_records(&eng), 12);
        node.nvme.barrier().unwrap();
        node.degrade();
        every_grad(&mut reference, &reg, 1);
        every_grad(&mut eng, &reg, 1);
        let before = node.nvme.stats();
        plan.bitflip_next_reads(1);
        assert!(reference.step().unwrap() && eng.step().unwrap());
        plan.bitflip_next_reads(0);
        node.nvme.barrier().unwrap();
        let after = node.nvme.stats();
        let read = (after.reads - before.reads, after.bytes_read - before.bytes_read);
        assert_eq!(read, (2 + 1, (12 + 5) * 12 + 4));
        assert_eq!(eng.mgr.health().corruptions_recovered, 1);
        assert_eq!((eng.carry.is_some(), kept_records(&eng)), (false, 0));
        assert_eq!(eng.save_state().unwrap(), reference.save_state().unwrap());
        for engine in [eng, reference] {
            engine.dispose().unwrap();
        }
    }

    #[test]
    fn every_reader_of_optimizer_state_sees_the_kept_records() {
        // Right after the step its records are kept, unwritten: a
        // checkpoint export, and the collapse of a node degraded between
        // steps, each read the kept bytes, not the device's older copy.
        let strategy = Strategy::infinity_nvme().with_f32_params().with_prefetch_window(0);
        let strategy = strategy.with_optimizer_chunk(4);
        let grad = Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.1).collect()).unwrap();
        let w = tiny_registry().find("w").unwrap();
        let stepped = |eng: &mut ZeroEngine| {
            eng.add_grad(w, &grad).unwrap();
            assert!(eng.step().unwrap());
        };
        let (_reference_node, mut reference, _) = single_rank(strategy);
        stepped(&mut reference);
        let after_one = reference.save_state().unwrap();
        stepped(&mut reference);
        stepped(&mut reference);
        let after_three = reference.save_state().unwrap();
        reference.dispose().unwrap();
        let (node, mut eng, _) = slow_write_rank(strategy);
        stepped(&mut eng);
        assert_eq!(kept_records(&eng), 3, "the step wrote a record");
        assert_eq!(eng.save_state().unwrap(), after_one, "the export read the device's copy");
        stepped(&mut eng);
        assert_eq!(kept_records(&eng), 3, "the step wrote a record");
        node.degrade();
        stepped(&mut eng);
        // The collapse copied the kept records; DRAM-resident state keeps
        // none.
        assert_eq!((eng.carry.is_some(), kept_records(&eng)), (false, 0));
        assert_eq!(eng.save_state().unwrap(), after_three, "the collapse read the device's copy");
        let health = eng.mgr.health();
        assert_eq!((health.corruptions_recovered, health.corruptions_unrecovered), (0, 0));
        eng.dispose().unwrap();
    }

    #[test]
    fn a_skipped_step_keeps_the_carried_queue_and_touches_no_device() {
        let (_plan, node, mut eng, w) = faulty_rank(5, 1 << 22);
        let ones = Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap();
        eng.add_grad(w, &ones).unwrap();
        assert!(eng.step().unwrap());
        let carried = requests(&node);
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![f32::INFINITY; 12]).unwrap()).unwrap();
        assert!(!eng.step().unwrap());
        assert_eq!(requests(&node), carried, "a skipped step touched the device");
        // The kept records stay, and so does the order: the next applied
        // step is the descending one.
        assert_eq!(kept_records(&eng), 3, "the kept records went");
        assert!(eng.carry.is_some() && eng.descending, "the skipped step flipped the order");
        // The next step takes them: all three of `w`'s records are already
        // in their buffers, so the step reads none, writes none (it
        // publishes them to the shard cache) and keeps all three again,
        // as planned.
        let plan = eng.traffic_plan();
        eng.add_grad(w, &ones).unwrap();
        assert!(eng.step().unwrap());
        assert_eq!(requests(&node), (carried.0 + plan.reads[1].0, carried.1 + plan.writes[1].0));
        assert!(!eng.descending);
        eng.dispose().unwrap();
    }

    #[test]
    fn an_engine_dropped_mid_iteration_reaps_its_reads() {
        let strategy = Strategy::infinity_nvme().with_f32_params().with_optimizer_chunk(4);
        let (node, mut eng, reg) = throttled_rank(strategy, std::time::Duration::from_millis(5), 4);
        node.crowd_out_shard_cache();
        let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        // Mid-iteration: the buffers of the three records of `w` the step
        // kept, and a prefetch of `b` (the shard cache has no room for it).
        eng.hint_upcoming(&[b]);
        assert_eq!(eng.stats().prefetch.issued, 1);
        let (mgr, pool) = (node.offload_manager(), eng.mgr.staging().clone());
        assert_eq!((pool.outstanding(), pool.idle(SHARDS)), (4, 3), "3 records and a shard");
        drop(eng);
        mgr.nvme().barrier().unwrap();
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(mgr.nvme().in_flight(), 0);
    }

    #[test]
    fn a_step_that_drops_its_kept_set_returns_with_the_write_back_landed() {
        // A step of `w` keeps its three records; a step of `b` alone drops
        // them and writes them back on a device whose writes are slow,
        // then reads only `b`'s records, which no write-back is over. The
        // step returns with all three landed: no request is in flight, and
        // each is counted, with no barrier.
        let strategy = Strategy::infinity_nvme().with_f32_params().with_prefetch_window(0);
        let (node, mut eng, reg) = slow_write_rank(strategy.with_optimizer_chunk(4));
        let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        assert_eq!(kept_records(&eng), 3);
        let writes = node.nvme.stats().writes;
        eng.add_grad(b, &Tensor::from_vec(&[5], vec![1.0; 5]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        assert_eq!(node.nvme.in_flight(), 0, "the step returned with a request in flight");
        assert_eq!(node.nvme.stats().writes, writes + 3, "the write-back had not landed");
        assert_eq!(kept_records(&eng), 2);
        eng.dispose().unwrap();
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
        // Within the staging set sized before the first write: `depth +
        // window` record buffers, a window of pieces and the one being
        // staged, and no shard buffer (prefetch off) but the demand
        // fetch's.
        let (depth, window) = (eng.depth(), eng.window());
        let set = (depth + window + window + 1 + 1) as u64;
        let pool = eng.mgr.staging().stats();
        assert!(pool.peak_outstanding < set && pool.allocated == set, "{pool:?}");
        assert_eq!(pool.waits, 0);
        // Every shard was published to the cache: the first forward reads
        // nothing.
        let (w, b) = (reg.find("w").unwrap(), reg.find("b").unwrap());
        for id in [w, b] {
            eng.get(id).unwrap();
            eng.release(id).unwrap();
        }
        assert_eq!((node.nvme.stats().reads, eng.mgr.health().shard_cache_hits), (0, 2));
        // A healthy step reads construction's five records and keeps them
        // all: it writes nothing.
        eng.add_grad(w, &Tensor::from_vec(&[3, 4], vec![1.0; 12]).unwrap()).unwrap();
        eng.add_grad(b, &Tensor::from_vec(&[5], vec![1.0; 5]).unwrap()).unwrap();
        assert!(eng.step().unwrap());
        node.nvme.barrier().unwrap();
        let stepped = node.nvme.stats();
        assert_eq!((stepped.writes - 5, stepped.bytes_written - 204), (0, 0));
        assert_eq!((stepped.reads, stepped.bytes_read), (5, 204));
        assert_eq!(eng.mgr.staging().stats().waits, 0);
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
        // elements), `w` three — eight reads or eight kept records — and
        // one publish per part, each into the shard cache: two of `a`, one
        // of `g`, two each of `b` and `c`, three of `w`. Records of one
        // element pack nothing. Every step after the first moves what the
        // plan says.
        let run = |chunk: usize| {
            let strategy = Strategy::infinity_nvme().with_f32_params().with_optimizer_chunk(chunk);
            let (node, mut eng, reg) = mixed_rank(strategy);
            let built = requests(&node);
            let mut per_step = Vec::new();
            for round in 0..4 {
                let (before, plan) = (requests(&node), eng.traffic_plan());
                mixed_grads(&mut eng, &reg, &MIXED, round);
                assert!(eng.step().unwrap());
                let after = requests(&node);
                let planned = (plan.reads[round % 2].0, plan.writes[round % 2].0);
                per_step.push((after.0 - before.0, after.1 - before.1));
                assert!(round == 0 || per_step[round] == planned, "{chunk}: round {round}");
            }
            let params: Vec<_> = reg.iter().map(|m| eng.export_param(m.id).unwrap()).collect();
            let params: Vec<Vec<f32>> = params.iter().map(|p| p.data().to_vec()).collect();
            let state = (eng.save_state().unwrap(), params);
            eng.dispose().unwrap();
            (built, per_step, state)
        };
        let (built, per_step, packed) = run(8);
        assert_eq!(built, (0, 8), "construction writes one step's requests");
        // The first step reads its records and keeps them all for the next
        // (up to depth 4 plus a write-behind window of 8), which neither
        // reads nor writes one.
        assert_eq!(per_step[..2], [(8, 0), (0, 0)]);
        let (_, unpacked_steps, unpacked) = run(1);
        assert_eq!(unpacked_steps[3], (58 - 12, 58 - 12), "one record per element, twelve kept");
        assert_eq!(packed, unpacked, "packing changed the state");
    }

    #[test]
    fn a_packed_member_without_a_gradient_keeps_its_state_and_an_idle_pack_moves_nothing() {
        let strategy = Strategy::infinity_nvme().with_f32_params().with_optimizer_chunk(8);
        let (node, mut eng, reg) = mixed_rank(strategy);
        let state = |eng: &mut ZeroEngine| {
            let records = eng.export_optimizer_records().unwrap();
            let rec = |name: &str| {
                let r = &records[reg.find(name).unwrap().0];
                (r.step, r.master.clone(), r.m.clone(), r.v.clone())
            };
            MIXED.map(rec)
        };
        // No member of the pack has a gradient: `a` and `w` move, two and
        // three records, each read (and all kept for the next step,
        // unwritten), and published to the shard cache; the pack issues no
        // request at all.
        let built = state(&mut eng);
        let at_rest = requests(&node);
        mixed_grads(&mut eng, &reg, &["a", "w"], 0);
        assert!(eng.step().unwrap());
        assert_eq!(requests(&node), (at_rest.0 + 5, at_rest.1));
        // `g`, `b` and `c` are as built; `a` and `w` are one step on.
        let after = state(&mut eng);
        assert_eq!([&after[1], &after[3], &after[4]], [&built[1], &built[3], &built[4]]);
        assert!(after[0].0 == 1 && after[2].0 == 1 && after[0].1 != built[0].1);
        // `g` and `c` update around `b`, which shares a record with each:
        // its master, moments and step count stay those it had.
        for round in 1..3 {
            mixed_grads(&mut eng, &reg, &["g", "c"], round);
            assert!(eng.step().unwrap());
        }
        let [_, g, _, b, c] = state(&mut eng);
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
        held: usize,
        open: zi_sync::Mutex<bool>,
        opened: zi_sync::Condvar,
    }

    impl Intercept for Gate {
        fn read(&self, dev: &zi_nvme::MemBackend, offset: u64, buf: &mut [u8]) -> Result<()> {
            let mut open = self.open.lock();
            while buf.len() == self.held && !*open {
                self.opened.wait(&mut open);
            }
            drop(open);
            dev.read_at(offset, buf)
        }
    }

    #[test]
    fn io_overlap_counts_this_ranks_requests_not_a_peers() {
        // A peer's read waits at the gate for the whole step, holding one
        // of two workers. Both parameters fit one packed record, so the
        // step reads it, updates it and writes it: nothing else of this
        // rank's is on the device while it updates.
        const HELD: usize = 4096;
        let gate = zi_sync::Arc::new(Over::from(Gate {
            held: HELD,
            open: zi_sync::Mutex::new(false),
            opened: zi_sync::Condvar::new(),
        }));
        let strategy = Strategy::infinity_nvme().with_f32_params().with_prefetch_window(0);
        let env = NodeEnv { nvme_workers: 2, ..NodeEnv::new(gate.clone()) };
        let (node, mut eng, reg) = rank_over(strategy, env);
        let mut peer = node.offload_manager();
        peer.provision_staging([(1, HELD), (0, 0), (0, 0)]).unwrap();
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
        assert_eq!((stats.optimizer_chunks, stats.step_io_overlap), (1, 0), "{stats:?}");
        eng.dispose().unwrap();
    }

    fn w_grad() -> Tensor {
        Tensor::from_vec(&[3, 4], (0..12).map(|i| i as f32 * 0.1).collect()).unwrap()
    }

    /// Whole-buffer writes used to record one checksum per buffer, so the
    /// step's record reads found no exact tiling and went unverified until
    /// the step had written each record itself. The first step after
    /// `prepare`, run clean and then with one of its reads flipped: the
    /// flip is caught and its tile alone (five elements of `w`'s first
    /// record) read again, once, and the state is the clean run's.
    fn first_step_reads_verified_records(prepare: impl Fn(&mut ZeroEngine)) {
        let first_step = |flip: bool| {
            let (plan, node, mut eng, w) = faulty_rank(5, 1 << 22);
            prepare(&mut eng);
            node.nvme.barrier().unwrap();
            let before = node.nvme.stats();
            plan.bitflip_next_reads(u32::from(flip));
            eng.add_grad(w, &w_grad()).unwrap();
            assert!(eng.step().unwrap());
            node.nvme.barrier().unwrap();
            plan.bitflip_next_reads(0);
            let after = node.nvme.stats();
            let read = (after.reads - before.reads, after.bytes_read - before.bytes_read);
            let seen = (eng.save_state().unwrap(), eng.mgr.health().corruptions_recovered, read);
            eng.dispose().unwrap();
            seen
        };
        let (clean, recovered, (reads, bytes)) = first_step(false);
        assert_eq!(recovered, 0);
        assert_eq!(first_step(true), (clean, 1, (reads + 1, bytes + 5 * 4)));
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
    fn a_construction_write_landed_corrupted_fails_the_first_step_typed() {
        // Records of one element, one device worker: construction's first
        // write, `w`'s first record, lands with a flipped bit in its master
        // tile. The first step reads it first, re-reads that tile alone
        // until the re-reads run out and fails typed, every buffer home.
        let countdown = zi_sync::Mutex::new(1);
        let dev = zi_sync::Arc::new(Over::from(FlipWrite { countdown }));
        let env = NodeEnv { nvme_workers: 1, ..NodeEnv::new(dev.clone()) };
        let (node, mut eng, reg) = rank_over(one_element_records(Strategy::infinity_nvme()), env);
        assert_eq!(*dev.countdown.lock(), 0, "no construction write was corrupted");
        let before = node.nvme.stats();
        every_grad(&mut eng, &reg, 0);
        let err = eng.step().unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "got {err}");
        node.nvme.barrier().unwrap();
        let (after, rereads) = (node.nvme.stats(), u64::from(crate::offload::CORRUPTION_REREADS));
        let read = (after.reads - before.reads, after.bytes_read - before.bytes_read);
        assert_eq!(read, (1 + rereads, 12 + rereads * 4));
        assert_eq!(eng.mgr.health().corruptions_unrecovered, 1);
        assert_eq!(eng.mgr.staging().outstanding(), 0, "a staging buffer is checked out");
        eng.dispose().unwrap();
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
        // GPU pool too small to hold the gathered w (12 fp16 = 24 bytes)
        // beside the kernels' decode buffer.
        let spec = NodeMemorySpec::test_spec(1, DECODE_BYTES as u64 + 20, 1 << 20, 1 << 20);
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
        assert_eq!(node.hierarchy.stats(Device::gpu(0)).in_use, 0, "a failed gather charges nothing");
        // The small bias (10 bytes) still fits.
        assert!(eng.get(reg.find("b").unwrap()).is_ok());
        eng.release(reg.find("b").unwrap()).unwrap();
        eng.dispose().unwrap();
    }
}
