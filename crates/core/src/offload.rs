//! The infinity offload engine: placement-aware device buffers.
//!
//! A [`DeviceBuf`] is one tensor's worth of bytes resident on a specific
//! memory tier. GPU and CPU buffers hold their bytes in process memory and
//! charge the corresponding capacity pool; NVMe buffers own an extent of
//! the backing device and move bytes through the asynchronous
//! [`zi_nvme::NvmeEngine`]. Whole-shard transfers check a staging buffer
//! out of the pinned pool for their submission, bounding staging memory
//! the way the paper's pinned-memory management layer does (Sec. 6.3);
//! the chunk-streamed optimizer step instead carries each chunk in one
//! recycled [`ScratchVec`] from device read to device write.

use std::collections::{BTreeMap, VecDeque};
use zi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use zi_sync::Arc;

use zi_sync::Mutex;
use zi_comm::{CommConfig, CommGroup, Membership};
use zi_memory::{
    Block, MemoryHierarchy, NodeMemorySpec, PathKind, PinnedBufferPool, PlacementPolicy, PlanCell,
    ScratchPool, ScratchVec,
};
use zi_nvme::checksum::{crc32, crc32_update};
use zi_nvme::{FileBackend, IoBuf, MemBackend, NvmeEngine, RetryPolicy, StorageBackend, Ticket};
use zi_tensor::storage::encode_f32;
use zi_tensor::FlatBuffer;
use zi_trace::{Category, Counter, Tracer};
use zi_types::{DType, Device, DeviceKind, Error, Result, WorldSize};

/// Re-reads attempted when a checksum mismatch is detected before the
/// corruption is surfaced as [`Error::Corruption`].
const CORRUPTION_REREADS: u32 = 3;

/// Node-shared resilience state: the shard-checksum registry and the
/// NVMe→CPU degradation latch. Shared by every [`OffloadManager`] clone
/// on the node (they share the device, so they must share its health).
#[derive(Default)]
struct ResilienceState {
    /// CRC32 per written NVMe extent, keyed by device offset. Extents
    /// never overlap (each records the latest write covering exactly
    /// that range; overlapping older extents are invalidated).
    checksums: Mutex<BTreeMap<u64, (u64, u32)>>,
    /// Once set, new NVMe stores are transparently placed on CPU.
    degraded: AtomicBool,
    /// Stores redirected NVMe→CPU.
    failovers: AtomicU64,
    /// Checksum mismatches that a re-read repaired.
    corruptions_recovered: AtomicU64,
    /// Checksum mismatches that re-reads could not repair.
    corruptions_unrecovered: AtomicU64,
}

impl ResilienceState {
    /// Record the checksum of a just-written extent, invalidating any
    /// previously recorded extent it overlaps.
    fn record(&self, offset: u64, data: &[u8]) {
        self.record_crc(offset, data.len() as u64, crc32(data));
    }

    /// [`Self::record`] for an extent whose checksum the caller already
    /// holds (accumulated over in-order chunk writes).
    fn record_crc(&self, offset: u64, len: u64, crc: u32) {
        let mut map = self.checksums.lock();
        Self::invalidate_locked(&mut map, offset, len);
        map.insert(offset, (len, crc));
    }

    /// Forget checksums overlapping `[offset, offset + len)`.
    fn invalidate(&self, offset: u64, len: u64) {
        Self::invalidate_locked(&mut self.checksums.lock(), offset, len);
    }

    fn invalidate_locked(map: &mut BTreeMap<u64, (u64, u32)>, offset: u64, len: u64) {
        let end = offset + len;
        // One extent may start before `offset` and reach into the range;
        // stored extents are disjoint, so it is the only such candidate.
        let before = map
            .range(..offset)
            .next_back()
            .filter(|(start, (elen, _))| *start + elen > offset)
            .map(|(start, _)| *start);
        if let Some(start) = before {
            map.remove(&start);
        }
        let inside: Vec<u64> = map.range(offset..end).map(|(start, _)| *start).collect();
        for start in inside {
            map.remove(&start);
        }
    }

    /// Checksum recorded for exactly the extent `[offset, offset+len)`,
    /// if any. Reads of sub-ranges are not verified (no recorded CRC
    /// covers them exactly).
    fn lookup(&self, offset: u64, len: u64) -> Option<u32> {
        self.checksums
            .lock()
            .get(&offset)
            .filter(|(elen, _)| *elen == len)
            .map(|(_, crc)| *crc)
    }
}

/// Health snapshot of a node's offload path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffloadHealth {
    /// True once NVMe stores are being redirected to CPU memory.
    pub degraded: bool,
    /// Number of stores redirected NVMe→CPU.
    pub failovers: u64,
    /// Checksum mismatches repaired by re-reading the device.
    pub corruptions_recovered: u64,
    /// Checksum mismatches that survived every re-read.
    pub corruptions_unrecovered: u64,
    /// NVMe engine counters, including per-request `retries` and
    /// `gave_up` from the retry layer.
    pub io: zi_nvme::IoStats,
}

/// Shared per-node resources: memory pools, the NVMe engine, the pinned
/// staging pool, and the communicator group.
pub struct NodeResources {
    /// Capacity pools for every device tier.
    pub hierarchy: Arc<MemoryHierarchy>,
    /// Asynchronous NVMe engine (shared by all ranks on the node).
    pub nvme: Arc<NvmeEngine>,
    /// Pinned staging buffers for NVMe transfers.
    pub pinned: PinnedBufferPool,
    /// Data-parallel communicator group.
    pub group: CommGroup,
    /// Recycled staging buffers the chunk-streamed step reads into,
    /// updates in place, and writes from (node-wide, like the engine).
    staging: ScratchPool,
    /// Shared checksum registry and degradation latch.
    resilience: Arc<ResilienceState>,
    /// Node-wide placement-policy cell: degradation (and re-tiering)
    /// publish whole policies here so readers never see a torn one.
    placement: Arc<PlanCell>,
    /// Node-wide tracer; the NVMe engine, pinned pool, comm group and
    /// every [`OffloadManager`] clone record into the same stream.
    tracer: Tracer,
}

/// Default pinned staging buffer size (bytes).
const PINNED_BUF_BYTES: usize = 1 << 20;
/// Default number of pinned staging buffers.
const PINNED_BUF_COUNT: usize = 8;
/// Default NVMe worker threads.
const NVME_WORKERS: usize = 4;

impl NodeResources {
    /// Node with an in-memory NVMe device (deterministic tests).
    pub fn in_memory(spec: &NodeMemorySpec, world: WorldSize) -> Self {
        let backend = Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>;
        Self::with_backend(spec, world, backend)
    }

    /// Node whose NVMe device is a real file at `path` (benchmarks).
    pub fn with_file_nvme(
        spec: &NodeMemorySpec,
        world: WorldSize,
        path: &std::path::Path,
    ) -> Result<Self> {
        let backend = Arc::new(FileBackend::create(path)?) as Arc<dyn StorageBackend>;
        Ok(Self::with_backend(spec, world, backend))
    }

    /// Node over an explicit storage backend.
    pub fn with_backend(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
    ) -> Self {
        Self::with_backend_policy(spec, world, backend, RetryPolicy::default())
    }

    /// Node over an explicit storage backend and NVMe retry policy
    /// (chaos tests shorten the backoffs; production uses the default).
    pub fn with_backend_policy(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
    ) -> Self {
        let comm = CommConfig::default();
        Self::with_backend_policy_comm_tracer(spec, world, backend, policy, comm, Tracer::new())
    }

    /// [`Self::with_backend_policy`] with an explicit communicator
    /// configuration (collective deadline + comm fault plan), recording
    /// every subsystem's spans and counters into an externally owned
    /// tracer — the trainer passes one tracer here so a whole node
    /// (engine workers, pinned pool, collectives, all ranks) shares a
    /// single event stream.
    pub fn with_backend_policy_comm_tracer(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
        comm: CommConfig,
        tracer: Tracer,
    ) -> Self {
        let group = CommGroup::with_config_tracer(world, comm, tracer.clone());
        Self::assemble(spec, backend, policy, group, tracer)
    }

    /// [`Self::with_backend_policy_comm_tracer`] whose comm group is
    /// registered with a [`Membership`]: ranks queued to join latch a
    /// resize on this node's group, retiring it with
    /// `Error::MembershipChange` so the elastic trainer can rebuild at
    /// the grown world.
    pub fn with_membership(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
        comm: CommConfig,
        tracer: Tracer,
        membership: &Membership,
    ) -> Self {
        let group = CommGroup::with_membership_tracer(world, comm, tracer.clone(), membership);
        Self::assemble(spec, backend, policy, group, tracer)
    }

    fn assemble(
        spec: &NodeMemorySpec,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
        group: CommGroup,
        tracer: Tracer,
    ) -> Self {
        NodeResources {
            hierarchy: Arc::new(MemoryHierarchy::new(spec)),
            nvme: Arc::new(NvmeEngine::with_policy_tracer(
                backend,
                NVME_WORKERS,
                policy,
                tracer.clone(),
            )),
            pinned: PinnedBufferPool::with_tracer(
                PINNED_BUF_COUNT,
                PINNED_BUF_BYTES,
                tracer.clone(),
            ),
            group,
            staging: ScratchPool::new(),
            resilience: Arc::new(ResilienceState::default()),
            placement: Arc::new(PlanCell::new(PlacementPolicy::all_nvme())),
            tracer,
        }
    }

    /// The node-wide tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The node's placement-policy cell (see [`PlanCell`]): degradation
    /// publishes the all-CPU collapse here, and engines poll it at step
    /// boundaries to re-tier split shards.
    pub fn placement_cell(&self) -> &Arc<PlanCell> {
        &self.placement
    }

    /// Start (or force) this node into degraded mode: every NVMe store
    /// is placed on CPU instead. Used when restarting after a device
    /// death — the replacement run must not trust the dead device.
    /// Publishes the all-CPU policy so split shards collapse too.
    pub fn degrade(&self) {
        if !self.resilience.degraded.swap(true, Ordering::Release) {
            self.tracer.count(Counter::DegradedTransitions, 1);
            self.placement.publish(PlacementPolicy::all_cpu());
        }
    }

    /// A per-rank offload manager handle.
    pub fn offload_manager(&self) -> OffloadManager {
        OffloadManager {
            hierarchy: Arc::clone(&self.hierarchy),
            nvme: Arc::clone(&self.nvme),
            pinned: self.pinned.clone(),
            staging: self.staging.clone(),
            resilience: Arc::clone(&self.resilience),
            placement: Arc::clone(&self.placement),
            tracer: self.tracer.clone(),
        }
    }
}

/// The typed error for a buffer that came back from the engine as the
/// wrong [`IoBuf`] kind (heap bytes where staging was submitted, or the
/// reverse) — an engine bug, never a device fault.
fn wrong_buf_kind() -> Error {
    Error::Internal("engine returned a different buffer kind than was submitted".into())
}

/// One tensor's bytes, resident on a device tier.
#[derive(Debug)]
pub struct DeviceBuf {
    device: Device,
    dtype: DType,
    numel: usize,
    block: Block,
    /// Present for GPU/CPU placements; NVMe bytes live on the device.
    ram: Option<FlatBuffer>,
}

impl DeviceBuf {
    /// Device this buffer lives on.
    pub fn device(&self) -> Device {
        self.device
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.numel
    }

    /// Size in bytes.
    pub fn size_in_bytes(&self) -> usize {
        self.dtype.bytes_for(self.numel)
    }

    /// True when the bytes live on the NVMe device (loading them costs an
    /// nc-transfer); GPU/CPU buffers resolve from process memory.
    pub fn is_offloaded(&self) -> bool {
        self.ram.is_none()
    }

    /// The placement path this buffer resolves through: NVMe extents go
    /// over the nc path, everything RAM-resident over the cp path.
    pub fn path(&self) -> PathKind {
        if self.is_offloaded() {
            PathKind::Nvme
        } else {
            PathKind::Cpu
        }
    }
}

/// An NVMe load in flight; resolves to the bytes when waited.
///
/// The pinned staging buffer is held only while the request is being
/// submitted, never across the life of the pending load — holding it
/// longer can deadlock ranks that block inside collectives while a
/// sibling rank waits for staging (the pinned pool is a node-shared
/// resource).
pub struct PendingLoad(Loading);

enum Loading {
    /// Outstanding NVMe read and its device extent (for verification).
    Read { dtype: DType, ticket: Ticket, offset: u64, len: usize },
    /// Immediate result for GPU/CPU sources.
    Ready(FlatBuffer),
}

impl PendingLoad {
    /// Block until the data is available. NVMe loads are verified
    /// against the checksum recorded at store time; a mismatch triggers
    /// synchronous re-reads before surfacing [`Error::Corruption`], so a
    /// prefetched buffer is never silently poisoned.
    pub fn wait(self, mgr: &OffloadManager) -> Result<FlatBuffer> {
        match self.0 {
            Loading::Read { dtype, ticket, offset, len } => {
                let buf = mgr.verify_or_reread(offset, len, mgr.nvme.wait_buf(ticket)?)?;
                FlatBuffer::from_bytes(dtype, buf.into_bytes().ok_or_else(wrong_buf_kind)?)
            }
            Loading::Ready(buf) => Ok(buf),
        }
    }

    /// True if this load still has an outstanding NVMe request.
    pub fn is_async(&self) -> bool {
        matches!(self.0, Loading::Read { .. })
    }

    /// True once the data is available without blocking: the NVMe read
    /// completed (successfully or not), or the load was immediate. The
    /// prefetcher uses this to tell a timely hit from a late one.
    pub fn ready(&self, mgr: &OffloadManager) -> bool {
        match &self.0 {
            Loading::Read { ticket, .. } => mgr.nvme.is_ready(*ticket),
            Loading::Ready(_) => true,
        }
    }
}

/// Handle for storing/loading tensors on any tier.
#[derive(Clone)]
pub struct OffloadManager {
    hierarchy: Arc<MemoryHierarchy>,
    nvme: Arc<NvmeEngine>,
    pinned: PinnedBufferPool,
    staging: ScratchPool,
    resilience: Arc<ResilienceState>,
    placement: Arc<PlanCell>,
    tracer: Tracer,
}

impl OffloadManager {
    /// Capacity pools (for stats and fragmentation experiments).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// The NVMe engine (for stats).
    pub fn nvme(&self) -> &NvmeEngine {
        &self.nvme
    }

    /// The node's staging-buffer pool (for reuse statistics).
    pub fn staging(&self) -> &ScratchPool {
        &self.staging
    }

    /// The node-wide tracer this manager records into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The node's placement-policy cell (shared with [`NodeResources`]).
    pub fn placement_cell(&self) -> &Arc<PlanCell> {
        &self.placement
    }

    /// Latch the degradation flag, counting the first transition and
    /// publishing the all-CPU collapse policy so plan readers re-tier.
    fn latch_degraded(&self) {
        if !self.resilience.degraded.swap(true, Ordering::Release) {
            self.tracer.count(Counter::DegradedTransitions, 1);
            self.placement.publish(PlacementPolicy::all_cpu());
        }
    }

    /// True once NVMe stores are redirected to CPU — either because a
    /// request exhausted its retry budget (the engine latched device
    /// death) or because the node was explicitly degraded.
    pub fn is_degraded(&self) -> bool {
        self.resilience.degraded.load(Ordering::Acquire) || self.nvme.device_failed()
    }

    /// Health snapshot: degradation state, failover and corruption
    /// counters.
    pub fn health(&self) -> OffloadHealth {
        OffloadHealth {
            degraded: self.is_degraded(),
            failovers: self.resilience.failovers.load(Ordering::Relaxed),
            corruptions_recovered: self.resilience.corruptions_recovered.load(Ordering::Relaxed),
            corruptions_unrecovered: self
                .resilience
                .corruptions_unrecovered
                .load(Ordering::Relaxed),
            io: self.nvme.stats(),
        }
    }

    /// Redirect an NVMe store to CPU, counting the failover.
    fn store_failover(&self, data: FlatBuffer) -> Result<DeviceBuf> {
        self.latch_degraded();
        self.resilience.failovers.fetch_add(1, Ordering::Relaxed);
        self.store(Device::cpu(), data)
    }

    /// Allocate on `device` and store `data` there.
    ///
    /// NVMe stores degrade gracefully: once the device is declared dead
    /// (or the node was degraded explicitly), the shard is placed in CPU
    /// memory instead and the failover is counted in [`Self::health`].
    /// Training slows down (the paper's NVMe capacity win is lost) but
    /// does not abort.
    pub fn store(&self, device: Device, data: FlatBuffer) -> Result<DeviceBuf> {
        if device.kind == DeviceKind::Nvme && self.is_degraded() {
            return self.store_failover(data);
        }
        let bytes = data.size_in_bytes() as u64;
        let block = self.hierarchy.alloc(device, bytes)?;
        let numel = data.numel();
        let dtype = data.dtype();
        let ram = match device.kind {
            DeviceKind::Gpu | DeviceKind::Cpu => Some(data),
            DeviceKind::Nvme => {
                // Stage through a pinned buffer for the duration of the
                // write, then hand the bytes to the async engine and wait:
                // stores must be durable before the shard is dropped.
                let _staging = self.pinned.acquire();
                let ticket = self.nvme.submit_write(block.offset, data.as_bytes().to_vec());
                match self.nvme.wait(ticket) {
                    Ok(_) => {
                        self.resilience.record(block.offset, data.as_bytes());
                        None
                    }
                    Err(e) if e.is_device_failure() => {
                        // The device died under this store; the data is
                        // still in hand — fail over to CPU.
                        self.hierarchy.free(device, block);
                        return self.store_failover(data);
                    }
                    Err(e) => {
                        self.hierarchy.free(device, block);
                        return Err(e);
                    }
                }
            }
        };
        Ok(DeviceBuf { device, dtype, numel, block, ram })
    }

    /// One synchronous device read of `[offset, offset+len)`, reusing
    /// `into` when it is a staging buffer (already `len` bytes long).
    fn read_once(&self, offset: u64, len: usize, into: IoBuf) -> Result<IoBuf> {
        let _staging = self.pinned.acquire();
        let ticket = match into {
            IoBuf::Staging(buf) => self.nvme.submit_read_into(offset, buf),
            IoBuf::Bytes(_) => self.nvme.submit_read(offset, len),
        };
        self.nvme.wait_buf(ticket)
    }

    /// Verify `buf` against the checksum recorded for the extent, if
    /// any. On mismatch, re-read the device up to [`CORRUPTION_REREADS`]
    /// times (silent transfer corruption is transient — the device still
    /// holds clean data); persistent mismatch surfaces as
    /// [`Error::Corruption`].
    fn verify_or_reread(&self, offset: u64, len: usize, mut buf: IoBuf) -> Result<IoBuf> {
        let Some(expected) = self.resilience.lookup(offset, len as u64) else { return Ok(buf) };
        let mut actual = crc32(buf.as_bytes());
        let mut rereads = 0;
        while actual != expected {
            if rereads == CORRUPTION_REREADS {
                self.resilience.corruptions_unrecovered.fetch_add(1, Ordering::Relaxed);
                return Err(Error::Corruption {
                    context: format!("NVMe extent [{offset:#x}, +{len} B) after {rereads} re-reads"),
                    expected,
                    actual,
                });
            }
            buf = self.read_once(offset, len, buf)?;
            actual = crc32(buf.as_bytes());
            rereads += 1;
        }
        if rereads > 0 {
            self.resilience.corruptions_recovered.fetch_add(1, Ordering::Relaxed);
        }
        Ok(buf)
    }

    /// Checksum-verified synchronous read.
    fn read_verified(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let buf = self.read_once(offset, len, IoBuf::Bytes(Vec::new()))?;
        self.verify_or_reread(offset, len, buf)?.into_bytes().ok_or_else(wrong_buf_kind)
    }

    /// Load the entire buffer.
    pub fn load(&self, buf: &DeviceBuf) -> Result<FlatBuffer> {
        match &buf.ram {
            Some(data) => Ok(data.clone()),
            None => {
                let bytes = self.read_verified(buf.block.offset, buf.size_in_bytes())?;
                FlatBuffer::from_bytes(buf.dtype, bytes)
            }
        }
    }

    /// Consume the buffer: hand back its contents (RAM-resident data is
    /// moved out, not copied) and release its device memory.
    pub fn take(&self, mut buf: DeviceBuf) -> Result<FlatBuffer> {
        let data = match buf.ram.take() {
            Some(data) => Ok(data),
            None => self.load(&buf),
        };
        self.free(buf);
        data
    }

    /// Begin an asynchronous load of the whole buffer. NVMe sources issue
    /// the read immediately and return; GPU/CPU sources resolve instantly.
    /// This is the `nc-transfer` stage the prefetcher overlaps with
    /// compute (Sec. 6.2).
    pub fn begin_load(&self, buf: &DeviceBuf) -> Result<PendingLoad> {
        let Some(data) = &buf.ram else {
            // Staging is charged transiently for the submission only.
            let _staging = self.pinned.acquire();
            let (offset, len) = (buf.block.offset, buf.size_in_bytes());
            let ticket = self.nvme.submit_read(offset, len);
            return Ok(PendingLoad(Loading::Read { dtype: buf.dtype, ticket, offset, len }));
        };
        Ok(PendingLoad(Loading::Ready(data.clone())))
    }

    /// Accumulate `delta` into the buffer in place, returning whether any
    /// accumulated element is non-finite.
    ///
    /// This fuses the overflow scan into gradient accumulation: a
    /// non-finite term makes every later running sum non-finite (inf/NaN
    /// propagate through addition), so OR-ing the per-call flags is
    /// exactly equivalent to scanning the fully accumulated gradient
    /// once at step time — without the extra full-gradient pass.
    pub fn accumulate_f32(&self, buf: &mut DeviceBuf, delta: &[f32]) -> Result<bool> {
        if buf.dtype != DType::F32 || delta.len() != buf.numel {
            return Err(Error::shape("accumulate_f32 size/dtype mismatch"));
        }
        match &mut buf.ram {
            Some(ram) => ram.accumulate_f32(delta),
            None => {
                // One recycled staging buffer carries every chunk of the
                // read-modify-write pass — device read, in-place add,
                // device write — bounding its transfer memory (Sec. 6.3);
                // the pinned buffer size sets the chunk granularity.
                let chunk = (self.pinned.buffer_size() / DType::F32.size_in_bytes()).max(1);
                let mut nonfinite = false;
                for start in (0..buf.numel).step_by(chunk) {
                    let len = chunk.min(buf.numel - start);
                    let off = buf.block.offset + DType::F32.bytes_for(start) as u64;
                    let nbytes = DType::F32.bytes_for(len);
                    let read = self.nvme.submit_read_into(off, self.staging.acquire(nbytes));
                    let sums = self.verify_or_reread(off, nbytes, self.nvme.wait_buf(read)?)?;
                    let mut sums = sums.into_staging().ok_or_else(wrong_buf_kind)?;
                    for (sum, d) in sums.as_f32_mut().iter_mut().zip(&delta[start..start + len]) {
                        *sum += d;
                        nonfinite |= !sum.is_finite();
                    }
                    self.resilience.record(off, sums.as_bytes());
                    self.nvme.wait_buf(self.nvme.submit_write_from(off, sums))?;
                }
                Ok(nonfinite)
            }
        }
    }

    /// Replace the buffer's entire contents.
    pub fn overwrite(&self, buf: &mut DeviceBuf, data: &FlatBuffer) -> Result<()> {
        self.overwrite_whole(buf, data, false)
    }

    /// Asynchronously overwrite the buffer (gradient offload overlap,
    /// Sec. 6.2); completion is guaranteed only after [`Self::flush`].
    pub fn overwrite_async(&self, buf: &mut DeviceBuf, data: &FlatBuffer) -> Result<()> {
        self.overwrite_whole(buf, data, true)
    }

    fn overwrite_whole(&self, buf: &mut DeviceBuf, data: &FlatBuffer, detached: bool) -> Result<()> {
        if data.numel() != buf.numel || data.dtype() != buf.dtype {
            return Err(Error::shape("overwrite size/dtype mismatch"));
        }
        let Some(ram) = &mut buf.ram else {
            // Record the CRC at submission: the write either lands these
            // exact bytes or reports failure (here, or at `flush` when
            // detached). The one copy hands the engine bytes it owns.
            self.resilience.record(buf.block.offset, data.as_bytes());
            let bytes = data.as_bytes().to_vec();
            if detached {
                self.nvme.submit_write_detached(buf.block.offset, bytes);
                return Ok(());
            }
            let _staging = self.pinned.acquire();
            return self.nvme.wait(self.nvme.submit_write(buf.block.offset, bytes)).map(drop);
        };
        ram.as_bytes_mut().copy_from_slice(data.as_bytes());
        Ok(())
    }

    /// Drain all outstanding NVMe requests: a completion barrier —
    /// nothing in flight, detached-write errors surfaced — not a
    /// durability sync. The offload region has no on-device index (its
    /// extents live in the in-process allocator), so nothing could re-read
    /// it after a crash; durability belongs to the `CheckpointStore`,
    /// which syncs the backend itself at each of its publish points.
    ///
    /// A device failure here degrades the node instead of erroring: new
    /// stores already avoid the device, and lost detached writes are
    /// caught by the checksum registry when (if ever) the extent is read.
    pub fn flush(&self) -> Result<()> {
        match self.nvme.barrier() {
            Err(e) if e.is_device_failure() => {
                self.latch_degraded();
                Ok(())
            }
            r => r,
        }
    }

    /// Release the buffer's device memory.
    pub fn free(&self, buf: DeviceBuf) {
        if buf.device.kind == DeviceKind::Nvme {
            // Drop stale checksums so a future tenant of this extent is
            // not verified against our data.
            self.resilience.invalidate(buf.block.offset, buf.block.len);
        }
        self.hierarchy.free(buf.device, buf.block);
    }
}

/// Bounded asynchronous write-behind for chunk-streamed updates.
///
/// The pipelined optimizer step hands each updated staging buffer to the
/// NVMe engine as a *ticketed* write and keeps going; at most `window`
/// writes are in flight at once, and submitting into a full window first
/// waits out the oldest one (back-pressure), so a slow device throttles
/// the pipeline instead of ballooning queued memory. Each buffer moves
/// into its write request by value and goes home to the staging pool
/// when the ticket is reaped — on success and on every error path.
///
/// Unlike [`OffloadManager::overwrite_async`]'s detached writes — whose
/// failures are deferred to the `flush` barrier — every write-behind
/// ticket is waited in [`WriteBehind::drain`] (or during back-pressure),
/// so write failures surface as typed errors on the step path itself:
/// transient faults are retried inside the engine exactly as before, and
/// a device-death error reaches the trainer's recovery loop rather than
/// being discovered at end-of-iteration.
pub struct WriteBehind {
    window: usize,
    inflight: VecDeque<Ticket>,
}

impl WriteBehind {
    /// Write-behind with at most `window` NVMe writes in flight
    /// (clamped to ≥ 1).
    pub fn new(window: usize) -> WriteBehind {
        WriteBehind { window: window.max(1), inflight: VecDeque::new() }
    }

    /// NVMe writes currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Queue `staging` for device offset `offset`, first making room in
    /// the window. A failure here drops `staging` back into its pool.
    fn push(&mut self, mgr: &OffloadManager, offset: u64, staging: ScratchVec) -> Result<()> {
        // Harvest writes that already completed before deciding to
        // block: FIFO service completes the oldest tickets first, so
        // reaping from the front retires everything the device has
        // finished. This keeps the window bound meaningful (in-flight
        // requests, not unclaimed completions) and makes the stall
        // counter a true back-pressure signal — it fires only when the
        // device is genuinely behind.
        while let Some(&oldest) = self.inflight.front() {
            if !mgr.nvme.is_ready(oldest) {
                if self.inflight.len() < self.window {
                    break;
                }
                // Back-pressure: the device is behind the pipeline.
                mgr.tracer.count(Counter::WbStalls, 1);
            }
            self.inflight.pop_front();
            mgr.nvme.wait_buf(oldest)?;
        }
        self.inflight.push_back(mgr.nvme.submit_write_from(offset, staging));
        Ok(())
    }

    /// Queue `staging` as the new contents of `buf[start ..]` — a range
    /// inside one NVMe segment, normally the extent the buffer was read
    /// from. The CRC is recorded at submission over these exact bytes:
    /// the ticketed write either lands them or a wait surfaces the
    /// failure.
    pub fn submit_staged(
        &mut self,
        mgr: &OffloadManager,
        buf: &PlacedBuf,
        start: usize,
        staging: ScratchVec,
    ) -> Result<()> {
        let offset = buf
            .device_offset(start, staging.as_bytes().len())
            .ok_or_else(|| Error::Internal("write-behind range is not one NVMe extent".into()))?;
        mgr.resilience.record(offset, staging.as_bytes());
        self.push(mgr, offset, staging)
    }

    /// Wait out every queued write, surfacing the first failure as a
    /// typed error. All tickets are waited regardless of earlier
    /// failures, so no request leaks into the engine's flush barrier
    /// and every staging buffer is back in its pool.
    pub fn drain(&mut self, mgr: &OffloadManager) -> Result<()> {
        let mut first_err = None;
        while let Some(ticket) = self.inflight.pop_front() {
            if let Err(e) = mgr.nvme.wait_buf(ticket) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        debug_assert!(
            self.inflight.is_empty(),
            "WriteBehind dropped with {} writes un-drained",
            self.inflight.len()
        );
    }
}

/// One contiguous piece of a placed shard: a [`DeviceBuf`] plus its
/// element offset within the logical shard.
#[derive(Debug)]
pub struct PlacedSegment {
    start: usize,
    buf: DeviceBuf,
}

impl PlacedSegment {
    /// First shard element this segment covers.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Elements in this segment.
    pub fn len(&self) -> usize {
        self.buf.numel()
    }

    /// True when the segment holds no elements (never constructed).
    pub fn is_empty(&self) -> bool {
        self.buf.numel() == 0
    }

    /// One past the last shard element this segment covers.
    pub fn end(&self) -> usize {
        self.start + self.buf.numel()
    }

    /// The path the segment currently resolves through. A segment
    /// *planned* for NVMe reports [`PathKind::Cpu`] after a failover
    /// moved its bytes to DRAM — readers care where the bytes are, not
    /// where the plan wanted them.
    pub fn path(&self) -> PathKind {
        self.buf.path()
    }

    /// The backing buffer.
    pub fn buf(&self) -> &DeviceBuf {
        &self.buf
    }
}

/// One logical shard stored under a placement plan: an ordered,
/// disjoint, exhaustive list of per-path [`DeviceBuf`] segments.
///
/// This is the "placement plan per shard" generalization of the old
/// one-backing-store model: a [`PlacementPolicy`] split places part of
/// the shard in CPU DRAM (the cp path) and the rest on NVMe (the nc
/// path), and a streamed pass walks the segments piece by piece — so it
/// drives both paths concurrently.
#[derive(Debug)]
pub struct PlacedBuf {
    dtype: DType,
    numel: usize,
    segments: Vec<PlacedSegment>,
}

impl PlacedBuf {
    /// Element type.
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of elements across all segments.
    pub fn numel(&self) -> usize {
        self.numel
    }

    /// Size in bytes across all segments.
    pub fn size_in_bytes(&self) -> usize {
        self.dtype.bytes_for(self.numel)
    }

    /// The segments, ordered by `start`, disjoint and exhaustive.
    pub fn segments(&self) -> &[PlacedSegment] {
        &self.segments
    }

    /// Elements currently resolving through `path`.
    pub fn elems_on(&self, path: PathKind) -> usize {
        self.segments.iter().filter(|s| s.path() == path).map(|s| s.len()).sum()
    }

    /// True when the shard is split across both paths.
    pub fn is_split(&self) -> bool {
        self.elems_on(PathKind::Nvme) > 0 && self.elems_on(PathKind::Cpu) > 0
    }

    /// True when any part of the shard still lives on the NVMe device.
    pub fn is_offloaded(&self) -> bool {
        self.segments.iter().any(|s| s.buf.is_offloaded())
    }

    /// Index of the segment holding element `at`.
    fn segment_index(&self, at: usize) -> usize {
        self.segments.partition_point(|s| s.end() <= at)
    }

    /// One past the last element of the segment holding `at` (the shard
    /// length when `at` is past the end): the farthest a piece starting
    /// at `at` can reach while staying on one path.
    pub fn segment_end(&self, at: usize) -> usize {
        self.segments.get(self.segment_index(at)).map_or(self.numel, PlacedSegment::end)
    }

    /// Device offset of elements `[start, ..)` spanning `nbytes`, when
    /// that range lies inside one NVMe-resident segment.
    fn device_offset(&self, start: usize, nbytes: usize) -> Option<u64> {
        let seg = self.segments.get(self.segment_index(start))?;
        let lo = self.dtype.bytes_for(start - seg.start);
        (seg.buf.is_offloaded() && lo + nbytes <= seg.buf.size_in_bytes())
            .then_some(seg.buf.block.offset + lo as u64)
    }

    /// The RAM-resident F32 elements `[start, start+len)` as a mutable
    /// slice of the resident buffer itself — Adam updates a cp-path
    /// piece in place here, with no slice → decode → encode → write-back.
    /// The range must lie inside one resident segment.
    pub fn resident_f32_mut(&mut self, start: usize, len: usize) -> Result<&mut [f32]> {
        let i = self.segment_index(start);
        self.segments
            .get_mut(i)
            .and_then(|seg| {
                let lo = start - seg.start;
                seg.buf.ram.as_mut()?.as_f32_mut()?.get_mut(lo..lo + len)
            })
            .ok_or_else(|| {
                Error::Internal(format!("[{start}, +{len}) is not one resident f32 range"))
            })
    }
}

/// One piece of a streamed chunk — a range inside a single segment of
/// a placed shard. A RAM-resident piece has nothing to wait for (the
/// caller updates it in place through [`PlacedBuf::resident_f32_mut`]);
/// an NVMe piece is a device read in flight *into* a staging buffer.
pub struct PlacedPending {
    /// Outstanding NVMe read and its device extent (for verification).
    read: Option<(Ticket, u64, usize)>,
}

impl PlacedPending {
    /// Block until the piece is available. An NVMe piece yields the
    /// staging buffer the device filled, verified against the checksum
    /// recorded for its extent (a mismatch re-reads into the same
    /// buffer before surfacing [`Error::Corruption`]); a resident piece
    /// yields `None`.
    pub fn wait(self, mgr: &OffloadManager) -> Result<Option<ScratchVec>> {
        let Some((ticket, offset, len)) = self.read else { return Ok(None) };
        let buf = mgr.verify_or_reread(offset, len, mgr.nvme.wait_buf(ticket)?)?;
        buf.into_staging().map(Some).ok_or_else(wrong_buf_kind)
    }

    /// Reap the piece without looking at it (a failed stream abandoning
    /// its read-ahead): the staging buffer goes back to its pool.
    pub fn discard(self, mgr: &OffloadManager) {
        if let Some((ticket, ..)) = self.read {
            let _ = mgr.nvme.wait_buf(ticket);
        }
    }
}

/// An in-order, chunk-at-a-time overwrite of one whole parameter buffer
/// in its storage dtype: the chunk-streamed step's fourth stream.
///
/// Each pushed chunk is converted into a staging buffer and queued on
/// the caller's [`WriteBehind`], so the publish overlaps the next
/// chunk's update instead of costing a whole-shard vector plus a
/// blocking write per parameter. Parameter fetches verify the *whole*
/// extent, so the checksum is accumulated incrementally over the
/// in-order chunks and recorded once by [`PublishStream::finish`] —
/// at submission, like every write-behind CRC: each ticketed write
/// either lands those exact bytes or a wait surfaces the failure. A
/// whole-buffer overwrite is the one-chunk case.
pub struct PublishStream<'a> {
    buf: &'a mut DeviceBuf,
    next: usize,
    crc: u32,
}

impl PublishStream<'_> {
    /// Overwrite the next `values.len()` elements with `values`.
    pub fn push(
        &mut self,
        mgr: &OffloadManager,
        wb: &mut WriteBehind,
        values: &[f32],
    ) -> Result<()> {
        let dtype = self.buf.dtype;
        if self.next + values.len() > self.buf.numel {
            return Err(Error::shape("publish past the end of the parameter buffer"));
        }
        let (lo, nbytes) = (dtype.bytes_for(self.next), dtype.bytes_for(values.len()));
        self.next += values.len();
        match &mut self.buf.ram {
            Some(ram) => encode_f32(dtype, values, &mut ram.as_bytes_mut()[lo..lo + nbytes]),
            None => {
                let mut staging = mgr.staging.acquire(nbytes);
                encode_f32(dtype, values, staging.as_bytes_mut())?;
                self.crc = crc32_update(self.crc, staging.as_bytes());
                wb.push(mgr, self.buf.block.offset + lo as u64, staging)
            }
        }
    }

    /// Seal the overwrite: every element was pushed, and the
    /// whole-extent checksum that parameter fetches verify is recorded.
    pub fn finish(self, mgr: &OffloadManager) -> Result<()> {
        if self.next != self.buf.numel {
            return Err(Error::Internal(format!(
                "publish covered {} of {} elements",
                self.next, self.buf.numel
            )));
        }
        if self.buf.is_offloaded() {
            let len = self.buf.size_in_bytes() as u64;
            mgr.resilience.record_crc(self.buf.block.offset, len, self.crc);
        }
        Ok(())
    }
}

impl OffloadManager {
    /// The device a placement path maps to.
    fn path_device(path: PathKind) -> Device {
        match path {
            PathKind::Cpu => Device::cpu(),
            PathKind::Nvme => Device::nvme(),
        }
    }

    /// Store `data` on `device` under `policy`.
    ///
    /// Only NVMe-tier stores split: `policy` decides what fraction of
    /// the shard stays in CPU DRAM (interleaved at the policy's stripe),
    /// and the rest goes to the device. GPU/CPU-tier stores ignore the
    /// policy (one RAM segment). A degraded node collapses the plan to
    /// all-CPU up front, and an NVMe segment whose write dies mid-store
    /// fails over *alone* — the other segments keep their placement
    /// (this is the placement-aware fix for the old whole-shard
    /// failover assumption).
    pub fn store_placed(
        &self,
        device: Device,
        policy: &PlacementPolicy,
        data: FlatBuffer,
    ) -> Result<PlacedBuf> {
        let dtype = data.dtype();
        let numel = data.numel();
        if device.kind != DeviceKind::Nvme {
            let buf = self.store(device, data)?;
            return Ok(PlacedBuf { dtype, numel, segments: vec![PlacedSegment { start: 0, buf }] });
        }
        let policy = if self.is_degraded() { PlacementPolicy::all_cpu() } else { *policy };
        let plan = policy.plan(numel);
        let mut segments: Vec<PlacedSegment> = Vec::with_capacity(plan.segments().len());
        let mut whole = Some(data);
        for seg in plan.segments() {
            // A single-path plan stores the caller's buffer itself.
            let part = match &whole {
                Some(data) if seg.len < numel => data.slice(seg.start, seg.len)?,
                _ => whole.take().ok_or_else(|| Error::Internal("plan repeats a segment".into()))?,
            };
            let target = Self::path_device(seg.path);
            if seg.path == PathKind::Cpu {
                let mut span = self.tracer.span(Category::CpTransfer, "cp.store");
                span.set_bytes(part.size_in_bytes() as u64);
                self.tracer.count(Counter::CpWriteBytes, part.size_in_bytes() as u64);
            }
            // `store` handles the per-segment failover: a device death
            // mid-write moves only this segment's bytes to CPU.
            match self.store(target, part) {
                Ok(buf) => segments.push(PlacedSegment { start: seg.start, buf }),
                Err(e) => {
                    for stored in segments {
                        self.free(stored.buf);
                    }
                    return Err(e);
                }
            }
        }
        Ok(PlacedBuf { dtype, numel, segments })
    }

    /// Load the entire placed shard, reassembling split segments.
    pub fn load_placed(&self, buf: &PlacedBuf) -> Result<FlatBuffer> {
        if buf.segments.len() == 1 {
            return self.load(&buf.segments[0].buf);
        }
        let mut bytes = vec![0u8; buf.size_in_bytes()];
        for seg in &buf.segments {
            let fb = self.load(&seg.buf)?;
            let lo = buf.dtype.bytes_for(seg.start);
            bytes[lo..lo + fb.size_in_bytes()].copy_from_slice(fb.as_bytes());
        }
        FlatBuffer::from_bytes(buf.dtype, bytes)
    }

    /// Begin streaming elements `[start, start+len)` of a placed shard —
    /// a piece inside one segment (see [`PlacedBuf::segment_end`]). An
    /// NVMe piece is issued to the device immediately, reading into a
    /// recycled staging buffer; a CPU-DRAM piece needs no transfer at
    /// all — so a pipelined caller streams both paths concurrently.
    pub fn begin_load_elems_placed(
        &self,
        buf: &PlacedBuf,
        start: usize,
        len: usize,
    ) -> Result<PlacedPending> {
        if start + len > buf.segment_end(start) {
            return Err(Error::shape(format!(
                "begin_load_elems_placed [{start}, {}) crosses a segment of a {}-element shard",
                start + len,
                buf.numel
            )));
        }
        let nbytes = buf.dtype.bytes_for(len);
        let read = buf.device_offset(start, nbytes).map(|offset| {
            let staging = self.staging.acquire(nbytes);
            (self.nvme.submit_read_into(offset, staging), offset, nbytes)
        });
        Ok(PlacedPending { read })
    }

    /// Replace the placed shard's entire contents, each segment over its
    /// own path.
    pub fn overwrite_placed(&self, buf: &mut PlacedBuf, data: &FlatBuffer) -> Result<()> {
        self.overwrite_segments(buf, data, Self::overwrite)
    }

    /// Asynchronously overwrite the placed shard: NVMe segments go out
    /// as detached writes (completion at [`Self::flush`]), CPU segments
    /// land synchronously under a cp-hop span.
    pub fn overwrite_async_placed(&self, buf: &mut PlacedBuf, data: &FlatBuffer) -> Result<()> {
        self.overwrite_segments(buf, data, Self::overwrite_async)
    }

    /// Apply `write` to every segment with its share of `data` — the
    /// caller's buffer itself when the shard is one segment.
    fn overwrite_segments(
        &self,
        buf: &mut PlacedBuf,
        data: &FlatBuffer,
        write: fn(&Self, &mut DeviceBuf, &FlatBuffer) -> Result<()>,
    ) -> Result<()> {
        if data.numel() != buf.numel || data.dtype() != buf.dtype {
            return Err(Error::shape("placed overwrite size/dtype mismatch"));
        }
        let single = buf.segments.len() == 1;
        for seg in &mut buf.segments {
            let sliced;
            let part = if single {
                data
            } else {
                sliced = data.slice(seg.start, seg.buf.numel())?;
                &sliced
            };
            if seg.path() == PathKind::Cpu {
                let mut span = self.tracer.span(Category::CpTransfer, "cp.write");
                span.set_bytes(part.size_in_bytes() as u64);
                self.tracer.count(Counter::CpWriteBytes, part.size_in_bytes() as u64);
            }
            write(self, &mut seg.buf, part)?;
        }
        Ok(())
    }

    /// Re-publish every NVMe-resident segment of a split shard to CPU
    /// DRAM, leaving DRAM-resident segments untouched, then release the
    /// NVMe extents. This is the graceful degradation path: when the
    /// node degrades while the device still answers reads (explicit
    /// degrade, health-driven collapse), the NVMe-resident *half* of a
    /// split shard is preserved rather than dropped with the store.
    /// Reads are checksum-verified; a dead device surfaces its typed
    /// error so the caller falls back to checkpoint recovery.
    pub fn collapse_placed(&self, buf: &mut PlacedBuf) -> Result<()> {
        for seg in &mut buf.segments {
            if !seg.buf.is_offloaded() {
                continue;
            }
            let data = self.load(&seg.buf)?;
            let cpu = self.store(Device::cpu(), data)?;
            self.resilience.failovers.fetch_add(1, Ordering::Relaxed);
            let old = std::mem::replace(&mut seg.buf, cpu);
            self.free(old);
        }
        Ok(())
    }

    /// Move a placed shard to a new placement: load it whole, store it
    /// under `policy`, free the old segments. The re-tier knob's
    /// mechanism — bit-preserving by construction (load/store round
    /// trip), so placement moves are numerically invisible.
    pub fn retier_placed(
        &self,
        buf: &mut PlacedBuf,
        device: Device,
        policy: &PlacementPolicy,
    ) -> Result<()> {
        let data = self.load_placed(buf)?;
        let fresh = self.store_placed(device, policy, data)?;
        let old = std::mem::replace(buf, fresh);
        self.free_placed(old);
        Ok(())
    }

    /// Release every segment of a placed shard.
    pub fn free_placed(&self, buf: PlacedBuf) {
        for seg in buf.segments {
            self.free(seg.buf);
        }
    }

    /// Begin overwriting `buf` chunk by chunk (see [`PublishStream`]).
    /// The whole-extent checksum is dropped until the stream finishes:
    /// the device holds a mix of old and new chunks in between.
    pub fn begin_publish<'a>(&self, buf: &'a mut DeviceBuf) -> PublishStream<'a> {
        if buf.is_offloaded() {
            self.resilience.invalidate(buf.block.offset, buf.size_in_bytes() as u64);
        }
        PublishStream { buf, next: 0, crc: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeResources {
        let spec = NodeMemorySpec::test_spec(2, 1 << 20, 1 << 20, 1 << 20);
        NodeResources::in_memory(&spec, 2)
    }

    fn buf_f32(vals: &[f32]) -> FlatBuffer {
        FlatBuffer::from_f32(DType::F32, vals)
    }

    #[test]
    fn store_load_round_trip_every_tier() {
        let node = node();
        let mgr = node.offload_manager();
        for device in [Device::gpu(0), Device::cpu(), Device::nvme()] {
            let data = buf_f32(&[1.0, -2.0, 3.5]);
            let buf = mgr.store(device, data.clone()).unwrap();
            assert_eq!(buf.device(), device);
            assert_eq!(buf.numel(), 3);
            let back = mgr.load(&buf).unwrap();
            assert_eq!(back.to_f32_vec(), data.to_f32_vec(), "tier {device}");
            mgr.free(buf);
            assert_eq!(mgr.hierarchy().stats(device).in_use, 0);
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let spec = NodeMemorySpec::test_spec(1, 16, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let mgr = node.offload_manager();
        // 5 f32 = 20 bytes > 16-byte GPU pool.
        let err = mgr.store(Device::gpu(0), buf_f32(&[0.0; 5])).unwrap_err();
        assert!(err.is_oom());
        // Same data fits on CPU.
        let buf = mgr.store(Device::cpu(), buf_f32(&[0.0; 5])).unwrap();
        mgr.free(buf);
    }

    #[test]
    fn async_load_overlaps() {
        let node = node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), buf_f32(&[7.0; 64])).unwrap();
        let pending = mgr.begin_load(&buf).unwrap();
        assert!(pending.is_async());
        // ... compute would happen here ...
        let data = pending.wait(&mgr).unwrap();
        assert_eq!(data.to_f32_vec(), vec![7.0; 64]);
        mgr.free(buf);
    }

    #[test]
    fn cpu_loads_resolve_immediately() {
        let node = node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::cpu(), buf_f32(&[1.0, 2.0])).unwrap();
        let pending = mgr.begin_load(&buf).unwrap();
        assert!(!pending.is_async());
        assert_eq!(pending.wait(&mgr).unwrap().to_f32_vec(), vec![1.0, 2.0]);
        mgr.free(buf);
    }

    #[test]
    fn async_overwrite_visible_after_flush() {
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::nvme(), buf_f32(&[0.0; 8])).unwrap();
        mgr.overwrite_async(&mut buf, &buf_f32(&[5.0; 8])).unwrap();
        mgr.flush().unwrap();
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![5.0; 8]);
        mgr.free(buf);
    }

    fn faulty_node() -> (zi_nvme::FaultPlan, NodeResources) {
        use std::time::Duration;
        let spec = NodeMemorySpec::test_spec(2, 1 << 20, 1 << 20, 1 << 20);
        let plan = zi_nvme::FaultPlan::new();
        let backend = Arc::new(zi_nvme::FaultyBackend::new(MemBackend::new(), plan.clone()));
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            deadline: Duration::from_secs(5),
            jitter_seed: 5,
        };
        (plan, NodeResources::with_backend_policy(&spec, 1, backend, policy))
    }

    #[test]
    fn silent_corruption_is_detected_and_repaired_by_reread() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), buf_f32(&[3.25; 128])).unwrap();
        plan.bitflip_next_reads(1); // first read returns a poisoned buffer
        let data = mgr.load(&buf).unwrap();
        assert_eq!(data.to_f32_vec(), vec![3.25; 128]);
        let health = mgr.health();
        assert_eq!(health.corruptions_recovered, 1);
        assert_eq!(health.corruptions_unrecovered, 0);
        assert!(!health.degraded);
        mgr.free(buf);
    }

    #[test]
    fn persistent_corruption_surfaces_typed_error() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), buf_f32(&[1.0; 64])).unwrap();
        // Poison the initial read and every re-read.
        plan.bitflip_next_reads(1 + super::CORRUPTION_REREADS);
        let err = mgr.load(&buf).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "got {err}");
        assert_eq!(mgr.health().corruptions_unrecovered, 1);
        mgr.free(buf);
    }

    #[test]
    fn prefetched_load_verifies_too() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), buf_f32(&[9.0; 32])).unwrap();
        plan.bitflip_next_reads(1);
        let pending = mgr.begin_load(&buf).unwrap();
        let data = pending.wait(&mgr).unwrap();
        assert_eq!(data.to_f32_vec(), vec![9.0; 32]);
        assert_eq!(mgr.health().corruptions_recovered, 1);
        mgr.free(buf);
    }

    #[test]
    fn dead_device_fails_stores_over_to_cpu() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        // A store that dies mid-write falls back to CPU with the data.
        plan.kill();
        let buf = mgr.store(Device::nvme(), buf_f32(&[2.5; 16])).unwrap();
        assert_eq!(buf.device(), Device::cpu());
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![2.5; 16]);
        let health = mgr.health();
        assert!(health.degraded);
        assert_eq!(health.failovers, 1);
        // Later stores skip the dead device entirely.
        let buf2 = mgr.store(Device::nvme(), buf_f32(&[4.0; 8])).unwrap();
        assert_eq!(buf2.device(), Device::cpu());
        assert_eq!(mgr.health().failovers, 2);
        // NVMe capacity was returned when the first store failed over.
        assert_eq!(mgr.hierarchy().stats(Device::nvme()).in_use, 0);
        mgr.free(buf);
        mgr.free(buf2);
    }

    #[test]
    fn explicit_degrade_redirects_before_any_failure() {
        let (_plan, node) = faulty_node();
        node.degrade();
        let mgr = node.offload_manager();
        let buf = mgr.store(Device::nvme(), buf_f32(&[1.5; 4])).unwrap();
        assert_eq!(buf.device(), Device::cpu());
        assert!(mgr.health().degraded);
        mgr.free(buf);
    }

    #[test]
    fn transient_store_faults_recover_without_failover() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        plan.fail_next_writes(2); // < max_attempts
        let buf = mgr.store(Device::nvme(), buf_f32(&[8.0; 8])).unwrap();
        assert_eq!(buf.device(), Device::nvme());
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![8.0; 8]);
        let health = mgr.health();
        assert!(!health.degraded);
        assert_eq!(health.failovers, 0);
        assert!(mgr.nvme().stats().retries >= 2);
        mgr.free(buf);
    }

    /// A staging buffer holding `vals`.
    fn staged(mgr: &OffloadManager, vals: &[f32]) -> ScratchVec {
        let mut buf = mgr.staging().acquire(vals.len() * 4);
        buf.as_f32_mut().copy_from_slice(vals);
        buf
    }

    fn store_nvme(mgr: &OffloadManager, policy: PlacementPolicy, vals: &[f32]) -> PlacedBuf {
        mgr.store_placed(Device::nvme(), &policy, buf_f32(vals)).unwrap()
    }

    #[test]
    fn bounds_checked() {
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = mgr.store(Device::cpu(), buf_f32(&[0.0; 4])).unwrap();
        assert!(mgr.overwrite(&mut buf, &buf_f32(&[0.0; 5])).is_err());
        mgr.free(buf);
        let mut split = store_nvme(&mgr, PlacementPolicy::split(500, 8), &[0.0; 32]);
        let seg_end = split.segment_end(0);
        assert!(mgr.begin_load_elems_placed(&split, 0, seg_end + 1).is_err(), "crosses a segment");
        assert!(mgr.begin_load_elems_placed(&split, 30, 4).is_err(), "past the end");
        assert!(split.resident_f32_mut(0, seg_end + 1).is_err());
        // Write-behind only takes ranges inside one NVMe extent.
        let cpu_start = split.segments().iter().find(|s| s.path() == PathKind::Cpu).unwrap().start();
        let mut wb = WriteBehind::new(2);
        assert!(wb.submit_staged(&mgr, &split, cpu_start, staged(&mgr, &[0.0; 2])).is_err());
        assert_eq!(mgr.staging().outstanding(), 0, "a refused buffer still goes home");
        mgr.free_placed(split);
    }

    #[test]
    fn streamed_pieces_read_into_staging_and_update_ram_in_place() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..256).map(|i| (i as f32) * 0.25).collect();
        let mut buf = store_nvme(&mgr, PlacementPolicy::split(500, 16), &vals);
        let mut wb = WriteBehind::new(2);
        let mut at = 0;
        while at < 256 {
            // Pieces of at most 10 elements, cut at segment boundaries.
            let len = (buf.segment_end(at) - at).min(10);
            match mgr.begin_load_elems_placed(&buf, at, len).unwrap().wait(&mgr).unwrap() {
                Some(mut staging) => {
                    assert_eq!(staging.as_f32(), &vals[at..at + len], "nc piece at {at}");
                    staging.as_f32_mut().iter_mut().for_each(|x| *x = -*x);
                    wb.submit_staged(&mgr, &buf, at, staging).unwrap();
                    assert!(wb.in_flight() <= 2, "window respected");
                }
                None => {
                    let resident = buf.resident_f32_mut(at, len).unwrap();
                    assert_eq!(resident, &vals[at..at + len], "cp piece at {at}");
                    resident.iter_mut().for_each(|x| *x = -*x);
                }
            }
            at += len;
        }
        wb.drain(&mgr).unwrap();
        assert_eq!(wb.in_flight(), 0);
        let want: Vec<f32> = vals.iter().map(|x| -x).collect();
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), want);
        let pool = mgr.staging();
        assert_eq!((pool.outstanding(), pool.idle() as u64), (0, pool.stats().allocated));
        assert!(pool.stats().reused > 0, "staging buffers are recycled across pieces");
        mgr.free_placed(buf);
    }

    #[test]
    fn steady_state_chunk_reads_are_checksum_verified() {
        // Once a chunk has been written back (recording a sub-extent
        // CRC), a later chunk read of that exact extent is verified —
        // and repaired on a transient bitflip, into the same buffer.
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = store_nvme(&mgr, PlacementPolicy::all_nvme(), &[0.0; 32]);
        let mut wb = WriteBehind::new(1);
        wb.submit_staged(&mgr, &buf, 8, staged(&mgr, &[4.0; 8])).unwrap();
        wb.drain(&mgr).unwrap();
        plan.bitflip_next_reads(1);
        let data = mgr.begin_load_elems_placed(&buf, 8, 8).unwrap().wait(&mgr).unwrap().unwrap();
        assert_eq!(data.as_f32(), [4.0; 8]);
        assert_eq!(mgr.health().corruptions_recovered, 1);
        drop(data);
        assert_eq!(mgr.staging().stats().allocated, 1, "the re-read reused the staging buffer");
        mgr.free_placed(buf);
    }

    #[test]
    fn write_behind_surfaces_device_death_as_typed_error() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = store_nvme(&mgr, PlacementPolicy::all_nvme(), &[0.0; 16]);
        let mut wb = WriteBehind::new(4);
        plan.kill();
        // Submission harvests already-completed tickets before queuing,
        // so the death can surface at the second submit (when the worker
        // retired the first failed write in between) or at drain — the
        // same typed error either way.
        let early = wb
            .submit_staged(&mgr, &buf, 0, staged(&mgr, &[1.0; 8]))
            .and_then(|()| wb.submit_staged(&mgr, &buf, 8, staged(&mgr, &[2.0; 8])));
        let err = match early {
            Ok(()) => wb.drain(&mgr).unwrap_err(),
            Err(e) => {
                let _ = wb.drain(&mgr);
                e
            }
        };
        assert!(err.is_device_failure(), "got {err}");
        assert_eq!(wb.in_flight(), 0, "drain consumes every ticket even on failure");
        assert_eq!(mgr.staging().outstanding(), 0, "failed writes return their buffers");
        mgr.free_placed(buf);
    }

    #[test]
    fn write_behind_transient_faults_retry_invisibly() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = store_nvme(&mgr, PlacementPolicy::all_nvme(), &[0.0; 16]);
        let mut wb = WriteBehind::new(2);
        plan.fail_next_writes(2); // < max_attempts
        wb.submit_staged(&mgr, &buf, 0, staged(&mgr, &[3.0; 16])).unwrap();
        wb.drain(&mgr).unwrap();
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vec![3.0; 16]);
        assert!(mgr.nvme().stats().retries >= 2);
        mgr.free_placed(buf);
    }

    #[test]
    fn chunked_publish_equals_whole_overwrite_and_keeps_fetches_verified() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..37).map(|i| (i as f32) * 0.5 - 9.0).collect();
        for device in [Device::cpu(), Device::nvme()] {
            let mut whole = mgr.store(device, FlatBuffer::zeros(DType::F16, 37)).unwrap();
            mgr.overwrite(&mut whole, &FlatBuffer::from_f32(DType::F16, &vals)).unwrap();
            let mut chunked = mgr.store(device, FlatBuffer::zeros(DType::F16, 37)).unwrap();
            let mut wb = WriteBehind::new(2);
            let mut publish = mgr.begin_publish(&mut chunked);
            for chunk in vals.chunks(5) {
                publish.push(&mgr, &mut wb, chunk).unwrap();
            }
            wb.drain(&mgr).unwrap();
            publish.finish(&mgr).unwrap();
            assert_eq!(mgr.load(&chunked).unwrap(), mgr.load(&whole).unwrap(), "tier {device}");
            if device == Device::nvme() {
                // The incrementally accumulated checksum covers the whole
                // extent a parameter fetch reads: corruption is caught.
                let recovered = mgr.health().corruptions_recovered;
                plan.bitflip_next_reads(1);
                assert_eq!(mgr.load(&chunked).unwrap(), mgr.load(&whole).unwrap());
                assert_eq!(mgr.health().corruptions_recovered, recovered + 1);
                plan.bitflip_next_reads(1 + super::CORRUPTION_REREADS);
                assert!(matches!(mgr.load(&chunked), Err(Error::Corruption { .. })));
            }
            // An unfinished stream is a typed error, not a short shard.
            let mut short = mgr.begin_publish(&mut chunked);
            short.push(&mgr, &mut wb, &vals[..5]).unwrap();
            wb.drain(&mgr).unwrap();
            assert!(matches!(short.finish(&mgr), Err(Error::Internal(_))));
            mgr.free(whole);
            mgr.free(chunked);
        }
    }

    #[test]
    fn accumulate_in_place_fuses_overflow_scan() {
        let node = node();
        let mgr = node.offload_manager();
        for device in [Device::cpu(), Device::nvme()] {
            let mut buf = mgr.store(device, buf_f32(&[1.0; 40])).unwrap();
            assert!(!mgr.accumulate_f32(&mut buf, &[0.5; 40]).unwrap(), "tier {device}");
            assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), vec![1.5; 40]);
            let mut delta = vec![0.0f32; 40];
            delta[17] = f32::INFINITY;
            assert!(mgr.accumulate_f32(&mut buf, &delta).unwrap(), "tier {device}");
            mgr.free(buf);
        }
        // Shape/dtype errors are typed, not silent.
        let mut small = mgr.store(Device::cpu(), buf_f32(&[0.0; 4])).unwrap();
        assert!(mgr.accumulate_f32(&mut small, &[0.0; 5]).is_err());
        mgr.free(small);
    }

    #[test]
    fn nvme_accumulate_chunks_through_small_staging() {
        // A tiny pinned pool forces the NVMe accumulate path to stream
        // in multiple chunks through a single held staging buffer.
        let spec = NodeMemorySpec::test_spec(2, 1 << 20, 1 << 20, 1 << 20);
        let node = NodeResources {
            hierarchy: Arc::new(MemoryHierarchy::new(&spec)),
            nvme: Arc::new(NvmeEngine::with_policy(
                Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
                2,
                RetryPolicy::default(),
            )),
            pinned: PinnedBufferPool::new(2, 64), // 16 f32 per chunk
            group: CommGroup::new(1),
            staging: ScratchPool::new(),
            resilience: Arc::new(ResilienceState::default()),
            placement: Arc::new(PlanCell::new(PlacementPolicy::all_nvme())),
            tracer: Tracer::new(),
        };
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let delta: Vec<f32> = (0..100).map(|i| 0.25 * i as f32).collect();
        let mut buf = mgr.store(Device::nvme(), buf_f32(&vals)).unwrap();
        assert!(!mgr.accumulate_f32(&mut buf, &delta).unwrap());
        let want: Vec<f32> = vals.iter().zip(&delta).map(|(a, b)| a + b).collect();
        assert_eq!(mgr.load(&buf).unwrap().to_f32_vec(), want);
        mgr.free(buf);
    }

    #[test]
    fn placed_split_round_trips_and_interleaves() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let policy = PlacementPolicy::split(500, 16);
        let buf = mgr.store_placed(Device::nvme(), &policy, buf_f32(&vals)).unwrap();
        assert!(buf.is_split());
        assert!(buf.segments().len() >= 4, "stripes should interleave, not partition");
        let cpu = buf.elems_on(PathKind::Cpu);
        assert!((112..=144).contains(&cpu), "cpu share {cpu} far from 50%");
        assert_eq!(buf.elems_on(PathKind::Cpu) + buf.elems_on(PathKind::Nvme), 256);
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.free_placed(buf);
        assert_eq!(mgr.hierarchy().stats(Device::cpu()).in_use, 0);
        assert_eq!(mgr.hierarchy().stats(Device::nvme()).in_use, 0);
    }

    #[test]
    fn placed_single_path_policies_behave_like_plain_stores() {
        let node = node();
        let mgr = node.offload_manager();
        let vals = vec![1.5f32; 32];
        let nv = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::all_nvme(), buf_f32(&vals))
            .unwrap();
        assert_eq!(nv.segments().len(), 1);
        assert!(nv.is_offloaded());
        let cp =
            mgr.store_placed(Device::nvme(), &PlacementPolicy::all_cpu(), buf_f32(&vals)).unwrap();
        assert_eq!(cp.segments().len(), 1);
        assert!(!cp.is_offloaded());
        // A non-NVMe target ignores the policy entirely.
        let gpu =
            mgr.store_placed(Device::gpu(0), &PlacementPolicy::split(500, 4), buf_f32(&vals)).unwrap();
        assert_eq!(gpu.segments().len(), 1);
        assert_eq!(gpu.segments()[0].buf().device(), Device::gpu(0));
        for b in [nv, cp, gpu] {
            mgr.free_placed(b);
        }
    }

    #[test]
    fn placed_async_overwrite_visible_after_flush() {
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::split(250, 4), buf_f32(&[0.0; 64]))
            .unwrap();
        mgr.overwrite_async_placed(&mut buf, &buf_f32(&[4.5; 64])).unwrap();
        mgr.flush().unwrap();
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vec![4.5; 64]);
        mgr.free_placed(buf);
    }

    #[test]
    fn explicit_degrade_collapses_split_shard_preserving_nvme_half() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..200).map(|i| (i as f32).sin()).collect();
        let mut buf = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::split(250, 8), buf_f32(&vals))
            .unwrap();
        assert!(buf.elems_on(PathKind::Nvme) > 0);
        node.degrade();
        // Degradation publishes the collapse policy through the plan cell
        // so every reader sees a whole (never torn) all-CPU policy.
        let (version, policy) = mgr.placement_cell().read();
        assert!(version >= 1);
        assert_eq!(policy, PlacementPolicy::all_cpu());
        mgr.collapse_placed(&mut buf).unwrap();
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert!(!buf.is_offloaded());
        // The NVMe-resident half came across bit-identical; the CPU half
        // was never touched.
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        assert!(mgr.health().failovers > 0);
        mgr.free_placed(buf);
    }

    #[test]
    fn dead_device_fails_split_store_over_per_segment() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        plan.kill();
        let vals: Vec<f32> = (0..64).map(|i| i as f32).collect();
        // Each planned-NVMe segment fails over alone, bytes in hand; the
        // DRAM segments never saw the device at all.
        let buf = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::split(500, 8), buf_f32(&vals))
            .unwrap();
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert!(mgr.is_degraded());
        assert_eq!(mgr.placement_cell().read().1, PlacementPolicy::all_cpu());
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.free_placed(buf);
        // Once degraded, later placed stores collapse their plan up front.
        let after = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::split(500, 8), buf_f32(&vals))
            .unwrap();
        assert_eq!(after.segments().len(), 1);
        assert!(!after.is_offloaded());
        mgr.free_placed(after);
    }

    #[test]
    fn retier_moves_placement_without_changing_bits() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..300).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let mut buf = mgr
            .store_placed(Device::nvme(), &PlacementPolicy::all_nvme(), buf_f32(&vals))
            .unwrap();
        assert_eq!(buf.elems_on(PathKind::Cpu), 0);
        mgr.retier_placed(&mut buf, Device::nvme(), &PlacementPolicy::split(500, 16)).unwrap();
        assert!(buf.is_split());
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.retier_placed(&mut buf, Device::nvme(), &PlacementPolicy::all_cpu()).unwrap();
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.free_placed(buf);
        assert_eq!(mgr.hierarchy().stats(Device::cpu()).in_use, 0);
        assert_eq!(mgr.hierarchy().stats(Device::nvme()).in_use, 0);
    }
}
