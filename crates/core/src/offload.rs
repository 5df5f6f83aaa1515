//! The infinity offload engine: one residency mechanism for every model
//! state.
//!
//! A [`PlacedBuf`] is one tensor's worth of bytes — an fp16 parameter
//! shard or replica, a gradient shard, an optimizer-state shard, an
//! activation checkpoint — held as an ordered list of segments, each
//! resident on one memory tier. GPU and CPU segments keep their bytes in
//! process memory and charge the tier's capacity pool; NVMe segments own
//! an extent of the backing device and move bytes through the
//! asynchronous [`zi_nvme::NvmeEngine`]. All-GPU, all-CPU and all-NVMe
//! are the one-segment plans; a [`PlacementPolicy`] split stripes an
//! NVMe-tier buffer over CPU DRAM (the cp path) and the device (the nc
//! path). Every operation — store, load, take, accumulate, overwrite,
//! chunked publish, collapse, re-tier, free — is defined once per segment
//! and applied to each segment of the buffer, so a multi-segment buffer
//! is legal input to all of them.
//!
//! Device reads land in recycled [`ScratchVec`] staging buffers and are
//! verified against the checksum registry (see
//! [`OffloadManager::verify_or_reread`]); synchronous whole-segment
//! writes hold a pinned buffer for their duration, bounding concurrent
//! staging the way the paper's pinned-memory layer does (Sec. 6.3).
//!
//! A parameter shard on the NVMe tier changes once per optimizer step,
//! so the verified bytes of one fetch answer every later fetch until the
//! next publish. The node keeps them in a shard cache in whatever CPU
//! memory the other tenants leave free (see [`ShardCache`]): the device
//! holds the authoritative copy, the CPU copy is reclaimable.

use std::collections::{BTreeMap, VecDeque};
use zi_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use zi_sync::Arc;

use zi_sync::Mutex;
use zi_comm::{CommConfig, CommGroup, Membership};
use zi_memory::{
    Block, MemoryHierarchy, NodeMemorySpec, PathKind, PinnedBufferPool, PlacementPolicy, PlanCell,
    ScratchPool, ScratchVec,
};
use zi_nvme::checksum::crc32;
use zi_nvme::{MemBackend, NvmeEngine, RetryPolicy, StorageBackend, Ticket};
use zi_tensor::storage::{accumulate_f32, encode_f32};
use zi_tensor::FlatBuffer;
use zi_trace::{Category, Counter, Tracer};
use zi_types::{DType, Device, DeviceKind, Error, Result, WorldSize};

/// Re-reads attempted when a checksum mismatch is detected before the
/// corruption is surfaced as [`Error::Corruption`].
const CORRUPTION_REREADS: u32 = 3;

/// The recorded extents tiling a device range, in order, as `(len, crc)`.
type Tiles = Vec<(u64, u32)>;

/// The keys of the extents in `map` that overlap `[offset, offset + len)`.
/// Extents are disjoint, so at most one starts before `offset` and
/// reaches into the range.
fn overlapping<V>(
    map: &BTreeMap<u64, V>,
    len_of: impl Fn(&V) -> u64,
    offset: u64,
    len: u64,
) -> Vec<u64> {
    let before = map.range(..offset).next_back().filter(|(start, v)| *start + len_of(v) > offset);
    before.into_iter().chain(map.range(offset..offset + len)).map(|(start, _)| *start).collect()
}

/// One cached parameter shard: the verified bytes of one NVMe extent,
/// shared with whoever is reading them. Storage an evicted or invalidated
/// entry leaves behind lives until its last reader drops it, and is then
/// freed. An entry charges its length to the CPU pool until the moment
/// it leaves the cache.
type CachedShard = Arc<ScratchVec>;

fn shard_len(shard: &CachedShard) -> u64 {
    shard.as_bytes().len() as u64
}

/// What the shard cache's lock guards.
#[derive(Default)]
struct CacheState {
    /// Entries by the device offset of the extent they mirror.
    entries: BTreeMap<u64, CachedShard>,
    /// CPU-pool bytes charged to the cache: the sum over its entries.
    charged: u64,
    /// High-water mark of what the CPU pool's *other* tenants had in use
    /// at once. The cache stays out of that much room, so a tenant coming
    /// back to its own earlier peak (gradients, every backward pass)
    /// evicts nothing.
    firm_peak: u64,
}

impl CacheState {
    /// Drop the entry at `start`, returning its charge to the CPU pool.
    fn remove(&mut self, hierarchy: &MemoryHierarchy, start: u64) -> Option<CachedShard> {
        let shard = self.entries.remove(&start)?;
        self.release(hierarchy, shard_len(&shard));
        Some(shard)
    }

    /// True when `len` more bytes fit beside the other tenants' peak.
    fn has_room(&self, hierarchy: &MemoryHierarchy, len: u64) -> bool {
        self.charged + len + self.firm_peak <= hierarchy.stats(Device::cpu()).capacity
    }

    /// Charge `len` bytes to the CPU pool if there is room for them: its
    /// capacity, not its address space, so the cache never moves where
    /// first-fit places anyone else.
    fn charge(&mut self, hierarchy: &MemoryHierarchy, len: u64) -> bool {
        let granted = self.has_room(hierarchy, len) && hierarchy.reserve(Device::cpu(), len).is_ok();
        if granted {
            self.charged += len;
        }
        granted
    }

    fn release(&mut self, hierarchy: &MemoryHierarchy, len: u64) {
        self.charged -= len;
        hierarchy.unreserve(Device::cpu(), len);
    }
}

/// The node's cache of **verified parameter-shard bytes**, in free CPU
/// memory, keyed by the shard's NVMe extent.
///
/// * **Filled by move.** A fetch that misses hands over the verified
///   staging buffer it already owns; [`PublishStream::finish`] hands over
///   the fp16 image it assembled while writing it (write-through), so the
///   first fetch after an update is a hit.
/// * **Admission only.** Parameter access is a fixed cycle; on a cycle
///   any recency policy evicts the shard about to be re-read, while
///   keeping what was admitted hits on every use of every cached shard.
///   An entry leaves by invalidation or under CPU pressure, never to make
///   room for another entry.
/// * **Never stale.** An entry is installed only while the checksum
///   registry still holds exactly the checksums its bytes were verified
///   against (or written under), and every later write to — or free of —
///   an overlapping extent drops it inside the registry's own
///   `record`/`invalidate`. A hit is therefore never checked again.
/// * **Reclaimable.** Entries are charged to the CPU pool's capacity
///   like every tenant, but take no place in its address space; a CPU
///   store the pool refuses evicts the whole cache and retries, in one
///   critical section, against a pool that is then exactly what it would
///   be without a cache — so nothing that fits without one fails with
///   one. The budget is the pool itself: there is no option.
#[derive(Default)]
struct ShardCache {
    shards: Mutex<CacheState>,
    /// Fetches answered from the cache.
    hits: AtomicU64,
    /// Bytes those fetches did not read from the device.
    hit_bytes: AtomicU64,
    /// Entries dropped because another CPU tenant needed the room.
    evictions: AtomicU64,
}

/// The fp16 image of a shard being published, on its way into the cache.
struct Deposit {
    /// Device offset of the extent being overwritten.
    offset: u64,
    image: ScratchVec,
    /// Checksums of the pieces written so far, as the registry recorded
    /// them.
    tiles: Tiles,
}

/// Node-shared resilience state: the shard-checksum registry, the shard
/// cache it keeps coherent, and the NVMe→CPU degradation latch. Shared by
/// every [`OffloadManager`] clone on the node (they share the device, so
/// they must share its health). Lock order: `checksums`, then the cache's
/// `shards`, then the CPU capacity pool.
struct ResilienceState {
    /// CRC32 per written NVMe extent, keyed by device offset. Extents
    /// never overlap (each records the latest write covering exactly
    /// that range; overlapping older extents are invalidated).
    checksums: Mutex<BTreeMap<u64, (u64, u32)>>,
    cache: ShardCache,
    /// Where cache entries are charged.
    hierarchy: Arc<MemoryHierarchy>,
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
    fn new(hierarchy: Arc<MemoryHierarchy>) -> Self {
        ResilienceState {
            checksums: Mutex::default(),
            cache: ShardCache::default(),
            hierarchy,
            degraded: AtomicBool::new(false),
            failovers: AtomicU64::new(0),
            corruptions_recovered: AtomicU64::new(0),
            corruptions_unrecovered: AtomicU64::new(0),
        }
    }

    /// Record the checksum of a just-written extent, invalidating any
    /// previously recorded extent — and dropping any cached shard — it
    /// overlaps. Returns the checksum.
    fn record(&self, offset: u64, data: &[u8]) -> u32 {
        let crc = crc32(data);
        let mut map = self.checksums.lock();
        self.invalidate_locked(&mut map, offset, data.len() as u64);
        map.insert(offset, (data.len() as u64, crc));
        crc
    }

    /// Forget checksums, and cached shards, overlapping
    /// `[offset, offset + len)`.
    fn invalidate(&self, offset: u64, len: u64) {
        self.invalidate_locked(&mut self.checksums.lock(), offset, len);
    }

    fn invalidate_locked(&self, map: &mut BTreeMap<u64, (u64, u32)>, offset: u64, len: u64) {
        for start in overlapping(map, |&(elen, _)| elen, offset, len) {
            map.remove(&start);
        }
        let mut cache = self.cache.shards.lock();
        for start in overlapping(&cache.entries, shard_len, offset, len) {
            cache.remove(&self.hierarchy, start);
        }
    }

    /// The recorded extents that exactly tile `[offset, offset + len)`,
    /// in order. A whole-extent write is one tile; a chunk-written extent
    /// is one tile per chunk. `None` when the registry does not tile the
    /// range (nothing recorded, a gap, or an extent straddling either
    /// end): such a read is not verified.
    fn tiles(&self, offset: u64, len: u64) -> Option<Tiles> {
        Self::tiles_locked(&self.checksums.lock(), offset, len)
    }

    fn tiles_locked(map: &BTreeMap<u64, (u64, u32)>, offset: u64, len: u64) -> Option<Tiles> {
        let end = offset + len;
        let mut at = offset;
        let mut tiles = Vec::new();
        for (&start, &(elen, crc)) in map.range(offset..end) {
            if start != at || start + elen > end {
                return None;
            }
            tiles.push((elen, crc));
            at += elen;
        }
        (at == end && !tiles.is_empty()).then_some(tiles)
    }

    /// True when the cache holds the extent `[offset, offset + len)`.
    fn is_cached(&self, offset: u64, len: u64) -> bool {
        self.cache.shards.lock().entries.get(&offset).is_some_and(|shard| shard_len(shard) == len)
    }

    /// The cached bytes of the extent `[offset, offset + len)`: a hit.
    fn cached(&self, offset: u64, len: u64) -> Option<CachedShard> {
        let cache = self.cache.shards.lock();
        let shard = cache.entries.get(&offset).filter(|shard| shard_len(shard) == len)?;
        self.cache.hits.fetch_add(1, Ordering::Relaxed);
        self.cache.hit_bytes.fetch_add(len, Ordering::Relaxed);
        Some(Arc::clone(shard))
    }

    /// Install `image` — bytes checked against, or written under, `tiles`
    /// — as the cache entry of the extent at `offset`, charging the CPU
    /// pool for it. Refused (the image handed back) when the registry no
    /// longer holds exactly `tiles` for the extent, or the pool has no
    /// room beside its other tenants.
    fn admit(
        &self,
        offset: u64,
        tiles: &[(u64, u32)],
        image: ScratchVec,
    ) -> std::result::Result<CachedShard, ScratchVec> {
        let len = image.as_bytes().len() as u64;
        let registry = self.checksums.lock();
        let mut cache = self.cache.shards.lock();
        if Self::tiles_locked(&registry, offset, len).is_none_or(|now| now != tiles) {
            return Err(image);
        }
        if let Some(shard) = cache.entries.get(&offset) {
            // Two fills of one extent: the first one's entry stands.
            return Ok(Arc::clone(shard));
        }
        if !cache.charge(&self.hierarchy, len) {
            return Err(image);
        }
        let shard = Arc::new(image.detach());
        cache.entries.insert(offset, Arc::clone(&shard));
        Ok(shard)
    }

    /// Begin the write-through of a publish over the extent
    /// `[offset, offset + len)`: the entry it supersedes goes now, so the
    /// pool is never charged for the old and the new image at once, and —
    /// when no reader still holds it — its storage carries the new image.
    /// `None` when the pool has no room for the image.
    fn begin_deposit(&self, offset: u64, len: u64, fresh: &ScratchPool) -> Option<Deposit> {
        let old = {
            let mut cache = self.cache.shards.lock();
            let old = cache.remove(&self.hierarchy, offset);
            if !cache.has_room(&self.hierarchy, len) {
                return None;
            }
            old
        };
        let reused = old.and_then(|shard| Arc::try_unwrap(shard).ok());
        let image = match reused.filter(|image| image.as_bytes().len() as u64 == len) {
            Some(image) => image,
            None => fresh.acquire(len as usize).detach(),
        };
        Some(Deposit { offset, image, tiles: Vec::new() })
    }

    /// Evict every entry, so the CPU pool is exactly what it would be
    /// without a cache. Returns the number of entries evicted.
    fn evict_all(&self, cache: &mut CacheState, tracer: &Tracer) -> usize {
        let evicted = std::mem::take(&mut cache.entries);
        for (offset, shard) in &evicted {
            tracer.instant(Category::Retry, "cache.evict", shard_len(shard), *offset);
            cache.release(&self.hierarchy, shard_len(shard));
        }
        self.cache.evictions.fetch_add(evicted.len() as u64, Ordering::Relaxed);
        evicted.len()
    }

    /// CPU-pool room for a tenant other than the cache. The cache holds
    /// CPU memory only while nobody else wants it: a request the pool
    /// refuses evicts every entry and asks again, with admissions locked
    /// out in between.
    fn alloc_cpu_tenant(&self, bytes: u64, tracer: &Tracer) -> Result<Block> {
        let mut cache = self.cache.shards.lock();
        let block = match self.hierarchy.alloc(Device::cpu(), bytes) {
            Err(e) if e.is_oom() && self.evict_all(&mut cache, tracer) > 0 => {
                self.hierarchy.alloc(Device::cpu(), bytes)?
            }
            granted => granted?,
        };
        let firm = self.hierarchy.stats(Device::cpu()).in_use.saturating_sub(cache.charged);
        cache.firm_peak = cache.firm_peak.max(firm);
        Ok(block)
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
    /// Parameter fetches answered from the CPU shard cache — no device
    /// read. (Not [`crate::EngineStats::cache_hits`], which counts `get`s
    /// of a tensor still resident on the GPU.)
    pub shard_cache_hits: u64,
    /// Bytes those fetches did not read from the device.
    pub shard_cache_bytes: u64,
    /// Cached shards dropped because another CPU tenant needed the room.
    pub shard_cache_evictions: u64,
    /// NVMe engine counters, including per-request `retries` and
    /// `gave_up` from the retry layer.
    pub io: zi_nvme::IoStats,
}

/// What a node is built from besides its memory spec and world size.
/// Fill the fields that differ from [`NodeEnv::new`]'s defaults by
/// struct update: `NodeEnv { policy, ..NodeEnv::new(backend) }`.
pub struct NodeEnv<'a> {
    /// Storage backend standing in for the NVMe device.
    pub backend: Arc<dyn StorageBackend>,
    /// Retry policy wrapped around every NVMe request (chaos tests
    /// shorten the backoffs; production uses the default).
    pub policy: RetryPolicy,
    /// Collective deadline and communication fault plan.
    pub comm: CommConfig,
    /// Tracer every subsystem of the node records into (engine workers,
    /// pinned pool, collectives, all ranks): one event stream per node.
    pub tracer: Tracer,
    /// Register the comm group with this membership: ranks queued to
    /// join latch a resize on the group, retiring it with
    /// `Error::MembershipChange` so the elastic trainer can rebuild at
    /// the grown world.
    pub membership: Option<&'a Membership>,
    /// Pinned staging pool as `(buffer count, bytes per buffer)`.
    pub pinned: (usize, usize),
    /// NVMe engine worker threads.
    pub nvme_workers: usize,
}

impl NodeEnv<'_> {
    /// Defaults over `backend`: default retry policy and comm config, a
    /// private tracer, no membership, 8 × 1 MiB pinned buffers, 4 NVMe
    /// workers.
    pub fn new(backend: Arc<dyn StorageBackend>) -> Self {
        NodeEnv {
            backend,
            policy: RetryPolicy::default(),
            comm: CommConfig::default(),
            tracer: Tracer::new(),
            membership: None,
            pinned: (8, 1 << 20),
            nvme_workers: 4,
        }
    }

    /// [`NodeEnv::new`] over an in-memory device (deterministic tests).
    pub fn in_memory() -> Self {
        Self::new(Arc::new(MemBackend::new()))
    }
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
    /// Recycled staging buffers device reads land in and chunk writes
    /// leave from (node-wide, like the engine).
    staging: ScratchPool,
    /// Recycled staging for whole-segment loads (parameter fetches and
    /// prefetches). A pool of its own because these buffers are
    /// shard-sized: mixed into the chunk pool they are handed out for
    /// chunk reads, and every chunk buffer ends up as large as the
    /// largest shard.
    load_staging: ScratchPool,
    /// Shared checksum registry, shard cache and degradation latch.
    resilience: Arc<ResilienceState>,
    /// Node-wide placement-policy cell: degradation (and re-tiering)
    /// publish whole policies here so readers never see a torn one.
    placement: Arc<PlanCell>,
    /// Node-wide tracer; the NVMe engine, pinned pool, comm group and
    /// every [`OffloadManager`] clone record into the same stream.
    tracer: Tracer,
}

impl NodeResources {
    /// Build a node of `world` ranks over `spec`'s memory pools.
    pub fn new(spec: &NodeMemorySpec, world: WorldSize, env: NodeEnv<'_>) -> Self {
        let NodeEnv { backend, policy, comm, tracer, membership, pinned, nvme_workers } = env;
        let group = match membership {
            Some(m) => CommGroup::with_membership_tracer(world, comm, tracer.clone(), m),
            None => CommGroup::with_config_tracer(world, comm, tracer.clone()),
        };
        let hierarchy = Arc::new(MemoryHierarchy::new(spec));
        NodeResources {
            resilience: Arc::new(ResilienceState::new(Arc::clone(&hierarchy))),
            hierarchy,
            nvme: Arc::new(NvmeEngine::with_policy_tracer(
                backend,
                nvme_workers,
                policy,
                tracer.clone(),
            )),
            pinned: PinnedBufferPool::with_tracer(pinned.0, pinned.1, tracer.clone()),
            group,
            staging: ScratchPool::new(),
            load_staging: ScratchPool::new(),
            placement: Arc::new(PlanCell::new(PlacementPolicy::all_nvme())),
            tracer,
        }
    }

    /// Node with an in-memory NVMe device (deterministic tests).
    pub fn in_memory(spec: &NodeMemorySpec, world: WorldSize) -> Self {
        Self::new(spec, world, NodeEnv::in_memory())
    }

    /// [`NodeResources::new`] by position (the perf ledger's entry point).
    pub fn with_backend_policy_comm_tracer(
        spec: &NodeMemorySpec,
        world: WorldSize,
        backend: Arc<dyn StorageBackend>,
        policy: RetryPolicy,
        comm: CommConfig,
        tracer: Tracer,
    ) -> Self {
        Self::new(spec, world, NodeEnv { policy, comm, tracer, ..NodeEnv::new(backend) })
    }

    /// The node-wide tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Start (or force) this node into degraded mode: every NVMe store
    /// is placed on CPU instead. Used when restarting after a device
    /// death — the replacement run must not trust the dead device.
    /// Publishes the all-CPU policy so split shards collapse too.
    pub fn degrade(&self) {
        self.offload_manager().latch_degraded();
    }

    /// A per-rank offload manager handle. It and its clones flush only
    /// their own writes (see [`OffloadManager::flush`]).
    pub fn offload_manager(&self) -> OffloadManager {
        OffloadManager {
            hierarchy: Arc::clone(&self.hierarchy),
            nvme: Arc::clone(&self.nvme),
            pinned: self.pinned.clone(),
            staging: self.staging.clone(),
            load_staging: self.load_staging.clone(),
            resilience: Arc::clone(&self.resilience),
            placement: Arc::clone(&self.placement),
            tracer: self.tracer.clone(),
            unwaited: Arc::default(),
        }
    }
}

/// One contiguous piece of a [`PlacedBuf`], resident on one device.
#[derive(Debug)]
struct Segment {
    /// First buffer element this segment covers.
    start: usize,
    /// Elements in the segment.
    len: usize,
    /// Where the bytes are now. A segment *planned* for NVMe sits on the
    /// CPU device after a failover moved its bytes to DRAM.
    device: Device,
    block: Block,
    /// Present for GPU/CPU residency; NVMe bytes live on the device.
    ram: Option<FlatBuffer>,
}

impl Segment {
    /// One past the last buffer element this segment covers.
    fn end(&self) -> usize {
        self.start + self.len
    }

    /// The path the segment resolves through: NVMe extents go over the
    /// nc path, everything RAM-resident over the cp path.
    fn path(&self) -> PathKind {
        if self.ram.is_some() {
            PathKind::Cpu
        } else {
            PathKind::Nvme
        }
    }
}

/// One tensor's bytes under a placement plan: an ordered, disjoint,
/// exhaustive list of per-device segments. The only residency handle —
/// a GPU-, CPU- or NVMe-resident buffer is the one-segment plan; a
/// [`PlacementPolicy`] split places part of an NVMe-tier buffer in CPU
/// DRAM (the cp path) and the rest on the device (the nc path), and a
/// streamed pass walks the segments piece by piece, driving both paths
/// concurrently.
#[derive(Debug)]
pub struct PlacedBuf {
    dtype: DType,
    numel: usize,
    segments: Vec<Segment>,
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

    /// Elements currently resolving through `path`.
    pub fn elems_on(&self, path: PathKind) -> usize {
        self.segments.iter().filter(|s| s.path() == path).map(|s| s.len).sum()
    }

    /// True when the buffer is split across both paths.
    pub fn is_split(&self) -> bool {
        self.elems_on(PathKind::Nvme) > 0 && self.elems_on(PathKind::Cpu) > 0
    }

    /// True when any part of the buffer lives on the NVMe device
    /// (loading it costs an nc-transfer).
    pub fn is_offloaded(&self) -> bool {
        self.segments.iter().any(|s| s.ram.is_none())
    }

    /// The device extent `(offset, bytes)` the shard cache knows this
    /// buffer by: a buffer that is exactly one NVMe segment.
    fn extent(&self) -> Option<(u64, u64)> {
        match &self.segments[..] {
            [seg] if seg.ram.is_none() => Some((seg.block.offset, seg.block.len)),
            _ => None,
        }
    }

    /// Index of the segment holding element `at`.
    fn segment_index(&self, at: usize) -> usize {
        self.segments.partition_point(|s| s.end() <= at)
    }

    /// One past the last element of the segment holding `at` (the buffer
    /// length when `at` is past the end): the farthest a piece starting
    /// at `at` can reach while staying on one path.
    pub fn segment_end(&self, at: usize) -> usize {
        self.segments.get(self.segment_index(at)).map_or(self.numel, Segment::end)
    }

    /// Device offset of elements `[start, ..)` spanning `nbytes`, when
    /// that range lies inside one NVMe-resident segment.
    fn device_offset(&self, start: usize, nbytes: usize) -> Option<u64> {
        let seg = self.segments.get(self.segment_index(start))?;
        let lo = self.dtype.bytes_for(start - seg.start);
        (seg.ram.is_none() && lo + nbytes <= self.dtype.bytes_for(seg.len))
            .then_some(seg.block.offset + lo as u64)
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
                seg.ram.as_mut()?.as_f32_mut()?.get_mut(lo..lo + len)
            })
            .ok_or_else(|| {
                Error::Internal(format!("[{start}, +{len}) is not one resident f32 range"))
            })
    }
}

/// One load in flight — a range inside a single segment of a
/// [`PlacedBuf`]. A RAM-resident piece has nothing to wait for (the
/// caller reads or updates it in place); an NVMe piece is a device read
/// in flight *into* a staging buffer. Nothing but the request is held
/// while it is pending: a rank may block inside a collective with loads
/// outstanding without starving a sibling of a node-shared resource.
pub struct PlacedPending {
    /// Outstanding NVMe read and the device offset it reads from.
    read: Option<(Ticket, u64)>,
}

impl PlacedPending {
    /// Block until the piece is available. An NVMe piece yields the
    /// staging buffer the device filled, checksum-verified (see
    /// [`OffloadManager::verify_or_reread`]), so a prefetched buffer is
    /// never silently poisoned; a resident piece yields `None`.
    pub fn wait(self, mgr: &OffloadManager) -> Result<Option<ScratchVec>> {
        Ok(self.wait_verified(mgr)?.map(|(buf, _)| buf))
    }

    /// [`Self::wait`], also handing back the checksums the buffer was
    /// verified against (`None` for a range the registry does not tile).
    fn wait_verified(self, mgr: &OffloadManager) -> Result<Option<(ScratchVec, Option<Tiles>)>> {
        let Some((ticket, offset)) = self.read else { return Ok(None) };
        let buf = mgr.nvme.wait_buf(ticket)?.into_staging().ok_or_else(wrong_buf_kind)?;
        mgr.verify_or_reread(offset, buf).map(Some)
    }

    /// True once [`Self::wait`] will not block: the NVMe read completed
    /// (successfully or not), or the piece is resident. The prefetcher
    /// uses this to tell a timely hit from a late one.
    pub fn ready(&self, mgr: &OffloadManager) -> bool {
        self.read.is_none_or(|(ticket, _)| mgr.nvme.is_ready(ticket))
    }

    /// True for an NVMe piece: a device read, holding a staging buffer.
    pub(crate) fn is_read(&self) -> bool {
        self.read.is_some()
    }

    /// Reap the piece without looking at it (a failed stream abandoning
    /// its read-ahead, an unconsumed prefetch): the staging buffer goes
    /// back to its pool.
    pub fn discard(self, mgr: &OffloadManager) {
        if let Some((ticket, _)) = self.read {
            let _ = mgr.nvme.wait_buf(ticket);
        }
    }
}

/// A whole buffer's bytes, contiguous, for a read-only consumer: the
/// resident buffer itself, or the staging buffer the device filled
/// (back in its pool when this drops).
pub enum LoadedBytes<'a> {
    /// The one RAM-resident segment, borrowed — no copy.
    Resident(&'a [u8]),
    /// Verified bytes read from the device (or assembled from several
    /// segments).
    Staged(ScratchVec),
    /// The shard cache's copy of an NVMe-resident parameter shard,
    /// shared — no copy, no device read. It stays valid for this holder
    /// even if the entry is evicted or invalidated meanwhile.
    Cached(Arc<ScratchVec>),
}

impl LoadedBytes<'_> {
    /// The bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            LoadedBytes::Resident(bytes) => bytes,
            LoadedBytes::Staged(staging) => staging.as_bytes(),
            LoadedBytes::Cached(shard) => shard.as_bytes(),
        }
    }
}

/// The typed error for a read that came back from the engine as heap
/// bytes where a staging buffer was submitted — an engine bug, never a
/// device fault.
fn wrong_buf_kind() -> Error {
    Error::Internal("engine returned a different buffer kind than was submitted".into())
}

/// The typed error for load pieces that do not line up with the buffer
/// they are resolved against.
fn piece_mismatch() -> Error {
    Error::Internal("load pieces do not match the buffer's segments".into())
}

/// Handle for storing/loading tensors on any tier.
#[derive(Clone)]
pub struct OffloadManager {
    hierarchy: Arc<MemoryHierarchy>,
    nvme: Arc<NvmeEngine>,
    pinned: PinnedBufferPool,
    staging: ScratchPool,
    load_staging: ScratchPool,
    resilience: Arc<ResilienceState>,
    placement: Arc<PlanCell>,
    tracer: Tracer,
    /// The writes [`Self::overwrite_async_placed`] left unwaited, shared
    /// by clones; [`Self::flush`] reaps them.
    unwaited: Arc<Mutex<Vec<Ticket>>>,
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

    /// The node's placement-policy cell (see [`PlanCell`]): degradation
    /// publishes the all-CPU collapse here, and engines poll it at step
    /// boundaries to re-tier split shards.
    pub fn placement_cell(&self) -> &Arc<PlanCell> {
        &self.placement
    }

    /// Latch the degradation flag, counting the first transition and
    /// publishing the all-CPU collapse policy so plan readers re-tier.
    pub(crate) fn latch_degraded(&self) {
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
            shard_cache_hits: self.resilience.cache.hits.load(Ordering::Relaxed),
            shard_cache_bytes: self.resilience.cache.hit_bytes.load(Ordering::Relaxed),
            shard_cache_evictions: self.resilience.cache.evictions.load(Ordering::Relaxed),
            io: self.nvme.stats(),
        }
    }

    /// Latch degradation and count one store redirected NVMe→CPU.
    fn count_failover(&self) {
        self.latch_degraded();
        self.resilience.failovers.fetch_add(1, Ordering::Relaxed);
    }

    // ----- per-segment operations -------------------------------------

    /// Allocate on `device` and store `data` there as the segment
    /// starting at buffer element `start`. An NVMe store goes out as one
    /// request per `stripe` elements, all in flight at once, each under
    /// its own checksum, and is durable on return; if the device dies
    /// under it the data is still in hand and the segment fails over to
    /// CPU *alone* — other segments of the buffer keep their placement.
    fn store_segment(
        &self,
        device: Device,
        start: usize,
        data: FlatBuffer,
        stripe: usize,
    ) -> Result<Segment> {
        let bytes = data.size_in_bytes() as u64;
        let block = if device == Device::cpu() {
            self.resilience.alloc_cpu_tenant(bytes, &self.tracer)?
        } else {
            self.hierarchy.alloc(device, bytes)?
        };
        let len = data.numel();
        if device.kind != DeviceKind::Nvme {
            return Ok(Segment { start, len, device, block, ram: Some(data) });
        }
        // Hold a pinned buffer while the pieces are on the device.
        let _pinned = self.pinned.acquire();
        let piece = stripe.max(1).saturating_mul(data.dtype().size_in_bytes());
        let at = |i: usize| block.offset + (i * piece) as u64;
        let pieces = data.as_bytes().chunks(piece).enumerate();
        let tickets: Vec<Ticket> =
            pieces.clone().map(|(i, p)| self.nvme.submit_write(at(i), p.to_vec())).collect();
        // Every request is reaped before a failure surfaces.
        let waited = tickets.into_iter().map(|ticket| self.nvme.wait(ticket).map(drop));
        let Err(e) = waited.fold(Ok(()), Result::and) else {
            for (i, p) in pieces {
                self.resilience.record(at(i), p);
            }
            return Ok(Segment { start, len, device, block, ram: None });
        };
        self.hierarchy.free(device, block);
        if !e.is_device_failure() {
            return Err(e);
        }
        self.count_failover();
        self.store_segment(Device::cpu(), start, data, stripe)
    }

    /// Issue the device read behind elements `[lo, lo+len)` of `seg`
    /// (segment-relative) into a buffer from `pool`; a resident segment
    /// has nothing to read.
    fn begin_segment_read(
        &self,
        pool: &ScratchPool,
        dtype: DType,
        seg: &Segment,
        lo: usize,
        len: usize,
    ) -> PlacedPending {
        let read = seg.ram.is_none().then(|| {
            let offset = seg.block.offset + dtype.bytes_for(lo) as u64;
            let staging = pool.acquire(dtype.bytes_for(len));
            (self.nvme.submit_read_into(offset, staging), offset)
        });
        PlacedPending { read }
    }

    /// One synchronous device read at `offset`, filling `into`.
    fn read_once(&self, offset: u64, into: ScratchVec) -> Result<ScratchVec> {
        let _pinned = self.pinned.acquire();
        let ticket = self.nvme.submit_read_into(offset, into);
        self.nvme.wait_buf(ticket)?.into_staging().ok_or_else(wrong_buf_kind)
    }

    /// Verify `buf`, just read from `offset`, against the recorded
    /// extents that exactly tile it: one checksum when the range was
    /// written whole, one per chunk when it was written by a chunked
    /// stream. A mismatching tile alone is re-read, up to
    /// [`CORRUPTION_REREADS`] times (silent transfer corruption is
    /// transient — the device still holds clean data); a persistent
    /// mismatch surfaces as [`Error::Corruption`]. A range the registry
    /// does not tile is returned unverified. The checksums the buffer
    /// passed come back with it.
    fn verify_or_reread(
        &self,
        offset: u64,
        mut buf: ScratchVec,
    ) -> Result<(ScratchVec, Option<Tiles>)> {
        let len = buf.as_bytes().len();
        let Some(tiles) = self.resilience.tiles(offset, len as u64) else { return Ok((buf, None)) };
        let mut lo = 0;
        for &(tile_len, expected) in &tiles {
            let (tile, hi) = (offset + lo as u64, lo + tile_len as usize);
            let mut actual = crc32(&buf.as_bytes()[lo..hi]);
            let mut rereads = 0;
            while actual != expected {
                if rereads == CORRUPTION_REREADS {
                    self.resilience.corruptions_unrecovered.fetch_add(1, Ordering::Relaxed);
                    return Err(Error::Corruption {
                        context: format!(
                            "NVMe extent [{tile:#x}, +{tile_len} B) after {rereads} re-reads"
                        ),
                        expected,
                        actual,
                    });
                }
                if hi - lo == len {
                    buf = self.read_once(offset, buf)?;
                } else {
                    let fresh = self.read_once(tile, self.staging.acquire(hi - lo))?;
                    buf.as_bytes_mut()[lo..hi].copy_from_slice(fresh.as_bytes());
                }
                actual = crc32(&buf.as_bytes()[lo..hi]);
                rereads += 1;
            }
            if rereads > 0 {
                self.resilience.corruptions_recovered.fetch_add(1, Ordering::Relaxed);
            }
            lo = hi;
        }
        Ok((buf, Some(tiles)))
    }

    /// Replace `seg`'s contents with `bytes`. An NVMe write left
    /// unwaited (`wait` false) completes at [`Self::flush`].
    fn overwrite_segment(&self, seg: &mut Segment, bytes: &[u8], wait: bool) -> Result<()> {
        let Some(ram) = &mut seg.ram else {
            // Record the CRC at submission: the write either lands these
            // exact bytes or reports failure (here, or at `flush` when
            // unwaited). The one copy hands the engine bytes it owns.
            self.resilience.record(seg.block.offset, bytes);
            let _pinned = wait.then(|| self.pinned.acquire());
            let ticket = self.nvme.submit_write(seg.block.offset, bytes.to_vec());
            if wait {
                return self.nvme.wait(ticket).map(drop);
            }
            self.unwaited.lock().push(ticket);
            return Ok(());
        };
        ram.as_bytes_mut().copy_from_slice(bytes);
        Ok(())
    }

    /// Add `delta` into the F32 segment in place; true when any sum is
    /// non-finite.
    fn accumulate_segment(&self, seg: &mut Segment, delta: &[f32]) -> Result<bool> {
        if let Some(ram) = &mut seg.ram {
            return ram.accumulate_f32(delta);
        }
        // One recycled staging buffer carries every chunk of the
        // read-modify-write pass — device read, in-place add, device
        // write — bounding its transfer memory (Sec. 6.3); the pinned
        // buffer size sets the chunk granularity.
        let chunk = (self.pinned.buffer_size() / DType::F32.size_in_bytes()).max(1);
        let mut nonfinite = false;
        for (i, delta) in delta.chunks(chunk).enumerate() {
            let (lo, off) = (i * chunk, seg.block.offset + DType::F32.bytes_for(i * chunk) as u64);
            let read = self.begin_segment_read(&self.staging, DType::F32, seg, lo, delta.len());
            let mut sums = read.wait(self)?.ok_or_else(piece_mismatch)?;
            nonfinite |= accumulate_f32(sums.as_f32_mut(), delta);
            self.resilience.record(off, sums.as_bytes());
            self.nvme.wait_buf(self.nvme.submit_write_from(off, sums))?;
        }
        Ok(nonfinite)
    }

    /// Release the segment's device memory.
    fn free_segment(&self, seg: Segment) {
        if seg.device.kind == DeviceKind::Nvme {
            // Drop stale checksums so a future tenant of this extent is
            // not verified against our data.
            self.resilience.invalidate(seg.block.offset, seg.block.len);
        }
        self.hierarchy.free(seg.device, seg.block);
    }

    // ----- whole-buffer operations ------------------------------------

    /// Store `data` on `device` under `policy`.
    ///
    /// Only NVMe-tier stores split: `policy` decides what fraction of
    /// the buffer stays in CPU DRAM (interleaved at the policy's stripe)
    /// and the rest goes to the device. A GPU/CPU-tier store is the
    /// one-segment plan on that device. NVMe stores degrade gracefully:
    /// on a degraded node the plan collapses to one CPU segment up
    /// front, and an NVMe segment whose write dies mid-store fails over
    /// alone — either way counted in [`Self::health`]. Training slows
    /// down (the paper's NVMe capacity win is lost) but does not abort.
    pub fn store_placed(
        &self,
        device: Device,
        policy: &PlacementPolicy,
        data: FlatBuffer,
    ) -> Result<PlacedBuf> {
        self.place(device, policy, data.dtype(), data.numel(), Some(data))
    }

    /// [`Self::store_placed`], or without `data` its layout alone, for a
    /// caller that writes the buffer itself: DRAM segments start out
    /// zeroed and NVMe extents unwritten, no checksum recorded over them.
    pub(crate) fn place(
        &self,
        device: Device,
        policy: &PlacementPolicy,
        dtype: DType,
        numel: usize,
        data: Option<FlatBuffer>,
    ) -> Result<PlacedBuf> {
        let targets: Vec<(usize, usize, Device)> = if device.kind != DeviceKind::Nvme {
            vec![(0, numel, device)]
        } else {
            let policy = if self.is_degraded() {
                self.count_failover();
                PlacementPolicy::all_cpu()
            } else {
                *policy
            };
            let device_of = |path| if path == PathKind::Cpu { Device::cpu() } else { device };
            let plan = policy.plan(numel);
            plan.segments().iter().map(|s| (s.start, s.len, device_of(s.path))).collect()
        };
        let mut buf = PlacedBuf { dtype, numel, segments: Vec::with_capacity(targets.len()) };
        let mut whole = data;
        for (start, len, target) in targets {
            // A one-segment plan stores the caller's buffer itself; without
            // one a DRAM segment starts out zeroed, an NVMe one unwritten.
            let part = match &whole {
                Some(data) if len < numel => data.slice(start, len).map(Some),
                Some(_) => Ok(whole.take()),
                None if target.kind == DeviceKind::Nvme => Ok(None),
                None => Ok(Some(FlatBuffer::zeros(dtype, len))),
            };
            if device.kind == DeviceKind::Nvme && target.kind == DeviceKind::Cpu {
                // The DRAM stripe of an NVMe-tier buffer travels the cp hop.
                let bytes = dtype.bytes_for(len) as u64;
                self.tracer.span(Category::CpTransfer, "cp.store").set_bytes(bytes);
                self.tracer.count(Counter::CpWriteBytes, bytes);
            }
            let seg = part.and_then(|part| match part {
                Some(part) => self.store_segment(target, start, part, policy.stripe),
                None => self.hierarchy.alloc(target, dtype.bytes_for(len) as u64).map(|block| {
                    Segment { start, len, device: target, block, ram: None }
                }),
            });
            match seg {
                Ok(seg) => buf.segments.push(seg),
                Err(e) => {
                    self.free_placed(buf);
                    return Err(e);
                }
            }
        }
        Ok(buf)
    }

    /// Begin an asynchronous load of the whole buffer: one piece per
    /// segment, every NVMe-resident segment's read issued immediately.
    /// This is the `nc-transfer` stage the prefetcher overlaps with
    /// compute (Sec. 6.2). The reads are issued whether or not the shard
    /// cache holds the buffer: a caller that wants no read for a cached
    /// shard asks [`Self::cached_placed`] first, as [`Self::fetch_placed`]
    /// and the prefetcher do.
    pub fn begin_load_placed(&self, buf: &PlacedBuf) -> Vec<PlacedPending> {
        buf.segments
            .iter()
            .map(|seg| self.begin_segment_read(&self.load_staging, buf.dtype, seg, 0, seg.len))
            .collect()
    }

    /// Resolve the pieces of [`Self::begin_load_placed`] into the
    /// buffer's contiguous bytes — the parameter-fetch path. A
    /// one-segment buffer costs no copy: a resident segment is borrowed,
    /// an NVMe one is the verified staging buffer itself, which moves
    /// into the shard cache when the CPU pool has room for it. Several
    /// segments are assembled into one staging buffer.
    pub fn finish_load_placed<'a>(
        &self,
        buf: &'a PlacedBuf,
        pieces: Vec<PlacedPending>,
    ) -> Result<LoadedBytes<'a>> {
        self.finish_load(buf, pieces, true)
    }

    fn finish_load<'a>(
        &self,
        buf: &'a PlacedBuf,
        pieces: Vec<PlacedPending>,
        fill_cache: bool,
    ) -> Result<LoadedBytes<'a>> {
        // Every read is reaped before any failure surfaces.
        let staged: Vec<_> = pieces.into_iter().map(|piece| piece.wait_verified(self)).collect();
        let mut staged = staged.into_iter().collect::<Result<Vec<_>>>()?;
        if staged.len() != buf.segments.len() {
            return Err(piece_mismatch());
        }
        if let [seg] = &buf.segments[..] {
            return match (staged.pop().flatten(), &seg.ram) {
                (Some((staging, Some(tiles))), _) if fill_cache => {
                    Ok(match self.resilience.admit(seg.block.offset, &tiles, staging) {
                        Ok(shard) => LoadedBytes::Cached(shard),
                        Err(staging) => LoadedBytes::Staged(staging),
                    })
                }
                (Some((staging, _)), _) => Ok(LoadedBytes::Staged(staging)),
                (None, Some(ram)) => Ok(LoadedBytes::Resident(ram.as_bytes())),
                (None, None) => Err(piece_mismatch()),
            };
        }
        let mut whole = self.load_staging.acquire(buf.size_in_bytes());
        for (seg, piece) in buf.segments.iter().zip(&staged) {
            let src = match (piece, &seg.ram) {
                (Some((staging, _)), _) => staging.as_bytes(),
                (None, Some(ram)) => ram.as_bytes(),
                (None, None) => return Err(piece_mismatch()),
            };
            let lo = buf.dtype.bytes_for(seg.start);
            whole.as_bytes_mut()[lo..lo + src.len()].copy_from_slice(src);
        }
        Ok(LoadedBytes::Staged(whole))
    }

    /// The buffer's bytes from the shard cache, when it holds them: no
    /// device read, no copy.
    pub fn cached_placed<'a>(&self, buf: &PlacedBuf) -> Option<LoadedBytes<'a>> {
        let (offset, len) = buf.extent()?;
        let shard = self.resilience.cached(offset, len)?;
        self.tracer.count(Counter::ShardCacheBytes, len);
        Some(LoadedBytes::Cached(shard))
    }

    /// True when [`Self::cached_placed`] would answer; counts no hit.
    pub fn is_cached_placed(&self, buf: &PlacedBuf) -> bool {
        buf.extent().is_some_and(|(offset, len)| self.resilience.is_cached(offset, len))
    }

    /// A parameter shard's bytes: the shard cache's copy, else read now —
    /// every NVMe segment's read in flight before the first is waited on
    /// — and kept for the next fetch when the CPU pool has room.
    pub fn fetch_placed<'a>(&self, buf: &'a PlacedBuf) -> Result<LoadedBytes<'a>> {
        match self.cached_placed(buf) {
            Some(hit) => Ok(hit),
            None => self.finish_load_placed(buf, self.begin_load_placed(buf)),
        }
    }

    /// Load the entire buffer into a fresh [`FlatBuffer`]. Always a
    /// device read for NVMe segments: optimizer state, gradients and
    /// activation checkpoints are read once per write, so they neither
    /// consult nor fill the shard cache.
    pub fn load_placed(&self, buf: &PlacedBuf) -> Result<FlatBuffer> {
        let loaded = self.finish_load(buf, self.begin_load_placed(buf), false)?;
        FlatBuffer::from_bytes(buf.dtype, loaded.as_bytes().to_vec())
    }

    /// Consume the buffer: hand back its contents (a resident
    /// one-segment buffer is moved out, not copied) and release its
    /// device memory.
    pub fn take_placed(&self, mut buf: PlacedBuf) -> Result<FlatBuffer> {
        let resident = match &mut buf.segments[..] {
            [seg] => seg.ram.take(),
            _ => None,
        };
        let data = match resident {
            Some(data) => Ok(data),
            None => self.load_placed(&buf),
        };
        self.free_placed(buf);
        data
    }

    /// Begin streaming elements `[start, start+len)` of a buffer — a
    /// piece inside one segment (see [`PlacedBuf::segment_end`]). An
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
        Ok(match buf.segments.get(buf.segment_index(start)) {
            Some(seg) => {
                self.begin_segment_read(&self.staging, buf.dtype, seg, start - seg.start, len)
            }
            None => PlacedPending { read: None },
        })
    }

    /// Accumulate `delta` into the F32 buffer in place, returning
    /// whether any accumulated element is non-finite.
    ///
    /// This fuses the overflow scan into gradient accumulation: a
    /// non-finite term makes every later running sum non-finite (inf/NaN
    /// propagate through addition), so OR-ing the per-call flags is
    /// exactly equivalent to scanning the fully accumulated gradient
    /// once at step time — without the extra full-gradient pass.
    pub fn accumulate_f32_placed(&self, buf: &mut PlacedBuf, delta: &[f32]) -> Result<bool> {
        if buf.dtype != DType::F32 || delta.len() != buf.numel {
            return Err(Error::shape("accumulate_f32 size/dtype mismatch"));
        }
        let mut nonfinite = false;
        for seg in &mut buf.segments {
            nonfinite |= self.accumulate_segment(seg, &delta[seg.start..seg.start + seg.len])?;
        }
        Ok(nonfinite)
    }

    /// Replace the buffer's entire contents, each segment over its own
    /// path.
    pub fn overwrite_placed(&self, buf: &mut PlacedBuf, data: &FlatBuffer) -> Result<()> {
        self.overwrite_segments(buf, data, true)
    }

    /// Asynchronously overwrite the buffer (gradient offload overlap,
    /// Sec. 6.2): NVMe segments go out as writes this manager's
    /// [`Self::flush`] completes and reports, RAM segments land
    /// synchronously under a cp-hop span.
    pub fn overwrite_async_placed(&self, buf: &mut PlacedBuf, data: &FlatBuffer) -> Result<()> {
        self.overwrite_segments(buf, data, false)
    }

    fn overwrite_segments(&self, buf: &mut PlacedBuf, data: &FlatBuffer, wait: bool) -> Result<()> {
        if data.numel() != buf.numel || data.dtype() != buf.dtype {
            return Err(Error::shape("overwrite size/dtype mismatch"));
        }
        for seg in &mut buf.segments {
            let (lo, hi) = (buf.dtype.bytes_for(seg.start), buf.dtype.bytes_for(seg.end()));
            if seg.ram.is_some() {
                let mut span = self.tracer.span(Category::CpTransfer, "cp.write");
                span.set_bytes((hi - lo) as u64);
                self.tracer.count(Counter::CpWriteBytes, (hi - lo) as u64);
            }
            self.overwrite_segment(seg, &data.as_bytes()[lo..hi], wait)?;
        }
        Ok(())
    }

    /// Begin overwriting `buf` chunk by chunk (see [`PublishStream`]).
    pub fn begin_publish(&self, buf: &PlacedBuf) -> PublishStream {
        let deposit = buf.extent().and_then(|(offset, len)| {
            self.resilience.begin_deposit(offset, len, &self.load_staging)
        });
        PublishStream { mgr: self.clone(), next: 0, deposit }
    }

    /// Re-publish every NVMe-resident segment to CPU DRAM, leaving
    /// DRAM-resident segments untouched, then release the NVMe extents.
    /// This is the graceful degradation path: when the node degrades
    /// while the device still answers reads (explicit degrade,
    /// health-driven collapse), the NVMe-resident *half* of a split
    /// buffer is preserved rather than dropped with the store. Reads are
    /// checksum-verified; a dead device surfaces its typed error so the
    /// caller falls back to checkpoint recovery.
    pub fn collapse_placed(&self, buf: &mut PlacedBuf) -> Result<()> {
        for seg in &mut buf.segments {
            let read = self.begin_segment_read(&self.load_staging, buf.dtype, seg, 0, seg.len);
            let Some(bytes) = read.wait(self)? else { continue };
            let data = FlatBuffer::from_bytes(buf.dtype, bytes.as_bytes().to_vec())?;
            let cpu = self.store_segment(Device::cpu(), seg.start, data, seg.len)?;
            self.resilience.failovers.fetch_add(1, Ordering::Relaxed);
            self.free_segment(std::mem::replace(seg, cpu));
        }
        Ok(())
    }

    /// Move a buffer to a new placement: load it whole, store it under
    /// `policy`, free the old segments. The re-tier knob's mechanism —
    /// bit-preserving by construction (load/store round trip), so
    /// placement moves are numerically invisible.
    pub fn retier_placed(
        &self,
        buf: &mut PlacedBuf,
        device: Device,
        policy: &PlacementPolicy,
    ) -> Result<()> {
        let data = self.load_placed(buf)?;
        let fresh = self.store_placed(device, policy, data)?;
        self.free_placed(std::mem::replace(buf, fresh));
        Ok(())
    }

    /// Release every segment of a buffer.
    pub fn free_placed(&self, buf: PlacedBuf) {
        for seg in buf.segments {
            self.free_segment(seg);
        }
    }

    /// Complete the writes this manager and its clones left unwaited
    /// ([`Self::overwrite_async_placed`]'s) and surface the first one's
    /// error. A completion barrier over this rank's own requests — every
    /// other request is waited by whoever issued it — so it never waits
    /// out another rank's I/O ([`NvmeEngine::barrier`] is the node-wide
    /// quiesce). Not a durability sync: the offload region has no
    /// on-device index (its extents live in the in-process allocator), so
    /// nothing could re-read it after a crash; durability belongs to the
    /// `CheckpointStore`, which syncs the backend itself at each of its
    /// publish points.
    ///
    /// A device failure here degrades the node instead of erroring: new
    /// stores already avoid the device, and lost writes are caught by the
    /// checksum registry when (if ever) the extent is read.
    pub fn flush(&self) -> Result<()> {
        // An instant, like the engine's barrier: its wait is idle time.
        self.tracer.instant(Category::NcTransfer, "nc.flush", 0, 0);
        let tickets = std::mem::take(&mut *self.unwaited.lock());
        // Every write is reaped before a failure surfaces.
        let waited = tickets.into_iter().map(|ticket| self.nvme.wait(ticket).map(drop));
        match waited.fold(Ok(()), Result::and) {
            Err(e) if e.is_device_failure() => {
                self.latch_degraded();
                Ok(())
            }
            r => r,
        }
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
/// Unlike [`OffloadManager::overwrite_async_placed`]'s writes — whose
/// failures are deferred to the manager's `flush` — every write-behind
/// ticket is waited in [`WriteBehind::drain`] (or during back-pressure),
/// so write failures surface as typed errors on the step path itself:
/// transient faults are retried inside the engine exactly as before, and
/// a device-death error reaches the trainer's recovery loop rather than
/// being discovered at end-of-iteration.
pub struct WriteBehind {
    window: usize,
    inflight: VecDeque<Ticket>,
    /// Bytes handed to the device so far.
    pub(crate) bytes: u64,
}

impl WriteBehind {
    /// Write-behind with at most `window` NVMe writes in flight
    /// (clamped to ≥ 1).
    pub fn new(window: usize) -> WriteBehind {
        WriteBehind { window: window.max(1), inflight: VecDeque::new(), bytes: 0 }
    }

    /// NVMe writes currently in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// True while a write of this window is still on the device.
    pub(crate) fn writing(&self, mgr: &OffloadManager) -> bool {
        self.inflight.iter().any(|&ticket| !mgr.nvme.is_ready(ticket))
    }

    /// Queue `staging` as the new contents of `buf[start ..]` — a range
    /// inside one NVMe segment, normally the extent the buffer was read
    /// from — first making room in the window. The CRC is recorded at
    /// submission over these exact bytes: the ticketed write either
    /// lands them or a wait surfaces the failure. A failure here drops
    /// `staging` back into its pool.
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
        self.submit_at(mgr, offset, staging).map(drop)
    }

    /// [`Self::submit_staged`] by device offset; returns the checksum
    /// recorded for the bytes.
    fn submit_at(&mut self, mgr: &OffloadManager, offset: u64, staging: ScratchVec) -> Result<u32> {
        let crc = mgr.resilience.record(offset, staging.as_bytes());
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
        self.bytes += staging.as_bytes().len() as u64;
        self.inflight.push_back(mgr.nvme.submit_write_from(offset, staging));
        Ok(crc)
    }

    /// Wait out every queued write, surfacing the first failure as a
    /// typed error. All tickets are waited regardless of earlier
    /// failures, so no request outlives the step that issued it and
    /// every staging buffer is back in its pool.
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

/// An in-order, chunk-at-a-time overwrite of one whole buffer in its
/// storage dtype: the chunk-streamed step's second write per record.
///
/// Each pushed chunk is cut at the buffer's segment boundaries; a piece
/// on a resident segment is encoded in place, a piece on an NVMe segment
/// is converted into a staging buffer and queued on the caller's
/// [`WriteBehind`], so the publish overlaps the next chunk's update
/// instead of costing a whole-shard vector plus a blocking write per
/// parameter. Every queued piece records its own checksum at
/// submission, like all write-behind traffic; a later whole-segment
/// fetch is verified against the chunk checksums that tile it. A
/// whole-buffer overwrite is the one-chunk case.
///
/// Write-through: when the buffer is one NVMe extent and the CPU pool
/// has room, the stream also assembles the bytes it writes into the
/// image that [`Self::finish`] installs in the shard cache, so the next
/// fetch of the shard is a hit. The entry the publish supersedes leaves
/// the cache when the stream begins and the new one is charged at
/// `finish`; a stream dropped before that installs nothing.
pub struct PublishStream {
    mgr: OffloadManager,
    next: usize,
    deposit: Option<Deposit>,
}

impl PublishStream {
    /// Overwrite the next `values.len()` elements of `buf`, the buffer the
    /// stream was begun on (it borrows none), with `values`.
    pub fn push(
        &mut self,
        wb: &mut WriteBehind,
        buf: &mut PlacedBuf,
        mut values: &[f32],
    ) -> Result<()> {
        let (mgr, dtype) = (&self.mgr, buf.dtype);
        if self.next + values.len() > buf.numel {
            return Err(Error::shape("publish past the end of the parameter buffer"));
        }
        while !values.is_empty() {
            let in_segment = buf.segment_end(self.next) - self.next;
            let (piece, rest) = values.split_at(values.len().min(in_segment));
            let nbytes = dtype.bytes_for(piece.len());
            let i = buf.segment_index(self.next);
            let seg = &mut buf.segments[i];
            let lo = dtype.bytes_for(self.next - seg.start);
            match &mut seg.ram {
                Some(ram) => encode_f32(dtype, piece, &mut ram.as_bytes_mut()[lo..lo + nbytes])?,
                None => {
                    let mut staging = mgr.staging.acquire(nbytes);
                    encode_f32(dtype, piece, staging.as_bytes_mut())?;
                    if let Some(deposit) = &mut self.deposit {
                        deposit.image.as_bytes_mut()[lo..lo + nbytes]
                            .copy_from_slice(staging.as_bytes());
                    }
                    let crc = wb.submit_at(mgr, seg.block.offset + lo as u64, staging)?;
                    if let Some(deposit) = &mut self.deposit {
                        deposit.tiles.push((nbytes as u64, crc));
                    }
                }
            }
            self.next += piece.len();
            values = rest;
        }
        Ok(())
    }

    /// Seal the overwrite of `buf`: every element was pushed. The
    /// assembled image becomes the shard's cache entry.
    pub fn finish(self, buf: &PlacedBuf) -> Result<()> {
        if self.next != buf.numel {
            return Err(Error::Internal(format!(
                "publish covered {} of {} elements",
                self.next, buf.numel
            )));
        }
        if let Some(Deposit { offset, image, tiles }) = self.deposit {
            // A refusal only means the next fetch reads the device.
            let _ = self.mgr.resilience.admit(offset, &tiles, image);
        }
        Ok(())
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

    /// Store `data` whole on `device`: the one-segment plan.
    fn store_on(mgr: &OffloadManager, device: Device, data: FlatBuffer) -> Result<PlacedBuf> {
        mgr.store_placed(device, &PlacementPolicy::all_nvme(), data)
    }

    fn store_nvme(mgr: &OffloadManager, policy: PlacementPolicy, vals: &[f32]) -> PlacedBuf {
        mgr.store_placed(Device::nvme(), &policy, buf_f32(vals)).unwrap()
    }

    /// The device holding the one segment of `buf`.
    fn device_of(buf: &PlacedBuf) -> Device {
        assert_eq!(buf.segments.len(), 1);
        buf.segments[0].device
    }

    /// Evict every cached shard, as a CPU tenant short of room would.
    fn evict_shard_cache(mgr: &OffloadManager) -> usize {
        let mut cache = mgr.resilience.cache.shards.lock();
        mgr.resilience.evict_all(&mut cache, mgr.tracer())
    }

    fn in_use(mgr: &OffloadManager) -> (u64, u64) {
        let h = mgr.hierarchy();
        (h.stats(Device::cpu()).in_use, h.stats(Device::nvme()).in_use)
    }

    impl OffloadManager {
        /// The pool whole-buffer loads (fetches, prefetches) read into.
        pub(crate) fn load_staging(&self) -> &ScratchPool {
            &self.load_staging
        }
    }

    impl NodeResources {
        /// Take the shard cache's room away for good, as a CPU tenant that
        /// once needed the whole (otherwise empty) CPU pool does: every
        /// later fetch of an NVMe shard is a device read.
        pub(crate) fn crowd_out_shard_cache(&self) {
            let mgr = self.offload_manager();
            evict_shard_cache(&mgr);
            let free = self.hierarchy.stats(Device::cpu()).largest_free;
            let tenant = FlatBuffer::zeros(DType::F32, free as usize / 4);
            mgr.free_placed(store_on(&mgr, Device::cpu(), tenant).unwrap());
        }
    }

    #[test]
    fn store_load_round_trip_every_tier() {
        let node = node();
        let mgr = node.offload_manager();
        for device in [Device::gpu(0), Device::cpu(), Device::nvme()] {
            let data = buf_f32(&[1.0, -2.0, 3.5]);
            let buf = store_on(&mgr, device, data.clone()).unwrap();
            assert_eq!(device_of(&buf), device);
            assert_eq!(buf.numel(), 3);
            let back = mgr.load_placed(&buf).unwrap();
            assert_eq!(back.to_f32_vec(), data.to_f32_vec(), "tier {device}");
            mgr.free_placed(buf);
            assert_eq!(mgr.hierarchy().stats(device).in_use, 0);
        }
    }

    #[test]
    fn capacity_is_enforced() {
        let spec = NodeMemorySpec::test_spec(1, 16, 1 << 20, 1 << 20);
        let node = NodeResources::in_memory(&spec, 1);
        let mgr = node.offload_manager();
        // 5 f32 = 20 bytes > 16-byte GPU pool.
        let err = store_on(&mgr, Device::gpu(0), buf_f32(&[0.0; 5])).unwrap_err();
        assert!(err.is_oom());
        // Same data fits on CPU.
        let buf = store_on(&mgr, Device::cpu(), buf_f32(&[0.0; 5])).unwrap();
        mgr.free_placed(buf);
    }

    #[test]
    fn async_load_overlaps() {
        let node = node();
        let mgr = node.offload_manager();
        let buf = store_on(&mgr, Device::nvme(), buf_f32(&[7.0; 64])).unwrap();
        let pending = mgr.begin_load_placed(&buf);
        assert!(buf.is_offloaded() && pending.len() == 1);
        // ... compute would happen here ...
        let data = mgr.finish_load_placed(&buf, pending).unwrap();
        assert_eq!(data.as_bytes(), buf_f32(&[7.0; 64]).as_bytes());
        drop(data);
        mgr.free_placed(buf);
    }

    #[test]
    fn cpu_loads_resolve_immediately() {
        let node = node();
        let mgr = node.offload_manager();
        let buf = store_on(&mgr, Device::cpu(), buf_f32(&[1.0, 2.0])).unwrap();
        let pending = mgr.begin_load_placed(&buf);
        assert!(!buf.is_offloaded() && pending.iter().all(|p| p.ready(&mgr)));
        // The resident buffer itself is handed out: no copy, no staging.
        let data = mgr.finish_load_placed(&buf, pending).unwrap();
        assert!(matches!(data, LoadedBytes::Resident(_)));
        assert_eq!(data.as_bytes(), buf_f32(&[1.0, 2.0]).as_bytes());
        assert_eq!(mgr.staging().stats().allocated, 0);
        mgr.free_placed(buf);
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
        (plan, NodeResources::new(&spec, 1, NodeEnv { policy, ..NodeEnv::new(backend) }))
    }

    #[test]
    fn silent_corruption_is_detected_and_repaired_by_reread() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = store_on(&mgr, Device::nvme(), buf_f32(&[3.25; 128])).unwrap();
        plan.bitflip_next_reads(1); // first read returns a poisoned buffer
        let data = mgr.load_placed(&buf).unwrap();
        assert_eq!(data.to_f32_vec(), vec![3.25; 128]);
        let health = mgr.health();
        assert_eq!(health.corruptions_recovered, 1);
        assert_eq!(health.corruptions_unrecovered, 0);
        assert!(!health.degraded);
        mgr.free_placed(buf);
    }

    #[test]
    fn persistent_corruption_surfaces_typed_error() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = store_on(&mgr, Device::nvme(), buf_f32(&[1.0; 64])).unwrap();
        // Poison the initial read and every re-read.
        plan.bitflip_next_reads(1 + super::CORRUPTION_REREADS);
        let err = mgr.load_placed(&buf).unwrap_err();
        assert!(matches!(err, Error::Corruption { .. }), "got {err}");
        assert_eq!(mgr.health().corruptions_unrecovered, 1);
        mgr.free_placed(buf);
    }

    #[test]
    fn prefetched_load_verifies_too() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let buf = store_on(&mgr, Device::nvme(), buf_f32(&[9.0; 32])).unwrap();
        plan.bitflip_next_reads(1);
        let pending = mgr.begin_load_placed(&buf);
        let data = mgr.finish_load_placed(&buf, pending).unwrap();
        assert_eq!(data.as_bytes(), buf_f32(&[9.0; 32]).as_bytes());
        assert_eq!(mgr.health().corruptions_recovered, 1);
        drop(data);
        mgr.free_placed(buf);
    }

    /// Stream `passes` negating update passes over `buf` in chunks of
    /// `chunk` elements through the write-behind window, as the
    /// optimizer step does.
    fn stream_negate(mgr: &OffloadManager, buf: &mut PlacedBuf, chunk: usize, passes: usize) {
        let mut wb = WriteBehind::new(2);
        for _ in 0..passes {
            let mut at = 0;
            while at < buf.numel() {
                let len = (buf.segment_end(at) - at).min(chunk);
                match mgr.begin_load_elems_placed(buf, at, len).unwrap().wait(mgr).unwrap() {
                    Some(mut staging) => {
                        staging.as_f32_mut().iter_mut().for_each(|x| *x = -*x);
                        wb.submit_staged(mgr, buf, at, staging).unwrap();
                    }
                    None => {
                        buf.resident_f32_mut(at, len).unwrap().iter_mut().for_each(|x| *x = -*x)
                    }
                }
                at += len;
            }
            wb.drain(mgr).unwrap();
        }
    }

    #[test]
    fn whole_read_of_a_chunk_written_extent_is_verified() {
        // The streamed step records one checksum per chunk it writes
        // back; a later whole-segment read (checkpoint export, re-tier,
        // collapse) is verified against the chunk checksums tiling it.
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..96).map(|i| i as f32 - 40.0).collect();
        let mut buf = store_nvme(&mgr, PlacementPolicy::all_nvme(), &vals);
        stream_negate(&mgr, &mut buf, 32, 2); // 3 chunks, two passes: back to `vals`
        plan.bitflip_next_reads(1);
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        assert_eq!(mgr.health().corruptions_recovered, 1);
        // Only the mismatching chunk was re-read, not the whole extent.
        let reads = mgr.nvme().stats();
        plan.bitflip_next_reads(1);
        mgr.load_placed(&buf).unwrap();
        let after = mgr.nvme().stats();
        let (reads, bytes) = (after.reads - reads.reads, after.bytes_read - reads.bytes_read);
        assert_eq!((reads, bytes), (2, 96 * 4 + 32 * 4));
        plan.bitflip_next_reads(u32::MAX);
        assert!(matches!(mgr.load_placed(&buf), Err(Error::Corruption { .. })));
        plan.bitflip_next_reads(0);
        mgr.free_placed(buf);
    }

    #[test]
    fn dead_device_fails_stores_over_to_cpu() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        // A store that dies mid-write falls back to CPU with the data.
        plan.kill();
        let buf = store_on(&mgr, Device::nvme(), buf_f32(&[2.5; 16])).unwrap();
        assert_eq!(device_of(&buf), Device::cpu());
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vec![2.5; 16]);
        let health = mgr.health();
        assert!(health.degraded);
        assert_eq!(health.failovers, 1);
        // Later stores skip the dead device entirely.
        let buf2 = store_on(&mgr, Device::nvme(), buf_f32(&[4.0; 8])).unwrap();
        assert_eq!(device_of(&buf2), Device::cpu());
        assert_eq!(mgr.health().failovers, 2);
        // NVMe capacity was returned when the first store failed over.
        assert_eq!(mgr.hierarchy().stats(Device::nvme()).in_use, 0);
        mgr.free_placed(buf);
        mgr.free_placed(buf2);
    }

    #[test]
    fn explicit_degrade_redirects_before_any_failure() {
        let (_plan, node) = faulty_node();
        node.degrade();
        let mgr = node.offload_manager();
        let buf = store_on(&mgr, Device::nvme(), buf_f32(&[1.5; 4])).unwrap();
        assert_eq!(device_of(&buf), Device::cpu());
        assert!(mgr.health().degraded);
        mgr.free_placed(buf);
    }

    #[test]
    fn transient_store_faults_recover_without_failover() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        plan.fail_next_writes(2); // < max_attempts
        let buf = store_on(&mgr, Device::nvme(), buf_f32(&[8.0; 8])).unwrap();
        assert_eq!(device_of(&buf), Device::nvme());
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vec![8.0; 8]);
        let health = mgr.health();
        assert!(!health.degraded);
        assert_eq!(health.failovers, 0);
        assert!(mgr.nvme().stats().retries >= 2);
        mgr.free_placed(buf);
    }

    /// A staging buffer holding `vals`.
    fn staged(mgr: &OffloadManager, vals: &[f32]) -> ScratchVec {
        let mut buf = mgr.staging().acquire(vals.len() * 4);
        buf.as_f32_mut().copy_from_slice(vals);
        buf
    }

    #[test]
    fn bounds_checked() {
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = store_on(&mgr, Device::cpu(), buf_f32(&[0.0; 4])).unwrap();
        assert!(mgr.overwrite_placed(&mut buf, &buf_f32(&[0.0; 5])).is_err());
        mgr.free_placed(buf);
        let mut split = store_nvme(&mgr, PlacementPolicy::split(500, 8), &[0.0; 32]);
        let seg_end = split.segment_end(0);
        assert!(mgr.begin_load_elems_placed(&split, 0, seg_end + 1).is_err(), "crosses a segment");
        assert!(mgr.begin_load_elems_placed(&split, 30, 4).is_err(), "past the end");
        assert!(split.resident_f32_mut(0, seg_end + 1).is_err());
        // Write-behind only takes ranges inside one NVMe extent.
        let cpu_start = split.segments.iter().find(|s| s.path() == PathKind::Cpu).unwrap().start;
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
        let pool = mgr.staging();
        assert_eq!((pool.outstanding(), pool.idle() as u64), (0, pool.stats().allocated));
        assert!(pool.stats().reused > 0, "staging buffers are recycled across pieces");
        let want: Vec<f32> = vals.iter().map(|x| -x).collect();
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), want);
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

    /// `vals` published into `buf` in chunks of 5 through a write-behind.
    fn publish_chunked(mgr: &OffloadManager, buf: &mut PlacedBuf, vals: &[f32]) -> Result<()> {
        let mut wb = WriteBehind::new(2);
        let mut publish = mgr.begin_publish(buf);
        let pushed = vals.chunks(5).try_for_each(|chunk| publish.push(&mut wb, buf, chunk));
        wb.drain(mgr).unwrap();
        pushed.and_then(|()| publish.finish(buf))
    }

    #[test]
    fn chunked_publish_equals_whole_overwrite_and_keeps_fetches_verified() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..37).map(|i| (i as f32) * 0.5 - 9.0).collect();
        let whole_overwrite = FlatBuffer::from_f32(DType::F16, &vals);
        // Each tier as a one-segment plan, then a buffer striped over
        // both paths: chunks are cut at its segment boundaries.
        let zeros = || FlatBuffer::zeros(DType::F16, 37);
        let split = PlacementPolicy::split(500, 8);
        for (tier, mut chunked) in [
            ("cpu", store_on(&mgr, Device::cpu(), zeros()).unwrap()),
            ("nvme", store_on(&mgr, Device::nvme(), zeros()).unwrap()),
            ("split", mgr.store_placed(Device::nvme(), &split, zeros()).unwrap()),
        ] {
            publish_chunked(&mgr, &mut chunked, &vals).unwrap();
            assert_eq!(mgr.load_placed(&chunked).unwrap(), whole_overwrite, "tier {tier}");
            // The chunk checksums tile every NVMe segment a parameter
            // fetch reads: corruption of each is caught.
            for seg in chunked.segments.iter().filter(|s| s.ram.is_none()) {
                let tiles = mgr.resilience.tiles(seg.block.offset, 2 * seg.len as u64);
                assert!(tiles.is_some(), "tier {tier}: segment at {} unverified", seg.start);
                let recovered = mgr.health().corruptions_recovered;
                plan.bitflip_next_reads(1);
                assert_eq!(mgr.load_placed(&chunked).unwrap(), whole_overwrite);
                assert_eq!(mgr.health().corruptions_recovered, recovered + 1);
            }
            if chunked.is_offloaded() {
                plan.bitflip_next_reads(u32::MAX);
                assert!(matches!(mgr.load_placed(&chunked), Err(Error::Corruption { .. })));
                plan.bitflip_next_reads(0);
            }
            // An unfinished stream is a typed error, not a short shard.
            assert!(matches!(
                publish_chunked(&mgr, &mut chunked, &vals[..5]),
                Err(Error::Internal(_))
            ));
            mgr.free_placed(chunked);
        }
    }

    /// Every way an NVMe extent's bytes change or its tenant leaves, and
    /// what a parameter fetch must see afterwards.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Writer {
        ChunkedPublish,
        OneChunkPublish,
        Overwrite,
        OverwriteAsyncThenFlush,
        Retier,
        Collapse,
        FreeThenNewTenant,
        PublishDroppedHalfWay,
    }

    /// The stale-bytes matrix, cached-read column: every writer × {the
    /// shard was cached before the write, it was not} → the next parameter
    /// fetch returns what the device now holds, never the old image.
    #[test]
    fn no_writer_leaves_a_stale_shard_in_the_cache() {
        use Writer::*;
        let old: Vec<f32> = (0..40).map(|i| i as f32 * 0.25).collect();
        let new: Vec<f32> = (0..40).map(|i| -1.0 - i as f32).collect();
        let f16 = |vals: &[f32]| FlatBuffer::from_f32(DType::F16, vals);
        let writers = [
            ChunkedPublish,
            OneChunkPublish,
            Overwrite,
            OverwriteAsyncThenFlush,
            Retier,
            Collapse,
            FreeThenNewTenant,
            PublishDroppedHalfWay,
        ];
        for writer in writers {
            for cached_before in [true, false] {
                let tag = format!("{writer:?}, cached before: {cached_before}");
                let node = node();
                let mgr = node.offload_manager();
                let cpu_in_use = || mgr.hierarchy().stats(Device::cpu()).in_use;
                let mut buf = store_on(&mgr, Device::nvme(), f16(&[0.0; 40])).unwrap();
                // Chunk-written, like every shard after its first step.
                publish_chunked(&mgr, &mut buf, &old).unwrap();
                if !cached_before {
                    evict_shard_cache(&mgr);
                }
                assert_eq!(mgr.is_cached_placed(&buf), cached_before, "{tag}");
                assert_eq!(cpu_in_use(), if cached_before { 80 } else { 0 }, "{tag}");

                let mut want = f16(&new);
                match writer {
                    ChunkedPublish => publish_chunked(&mgr, &mut buf, &new).unwrap(),
                    OneChunkPublish => {
                        let mut wb = WriteBehind::new(1);
                        let mut publish = mgr.begin_publish(&buf);
                        publish.push(&mut wb, &mut buf, &new).unwrap();
                        wb.drain(&mgr).unwrap();
                        publish.finish(&buf).unwrap();
                    }
                    Overwrite => mgr.overwrite_placed(&mut buf, &want).unwrap(),
                    OverwriteAsyncThenFlush => {
                        mgr.overwrite_async_placed(&mut buf, &want).unwrap();
                        mgr.flush().unwrap();
                    }
                    Retier => {
                        want = f16(&old);
                        mgr.retier_placed(&mut buf, Device::nvme(), &PlacementPolicy::all_nvme())
                            .unwrap();
                    }
                    Collapse => {
                        want = f16(&old);
                        mgr.collapse_placed(&mut buf).unwrap();
                        assert_eq!(cpu_in_use(), 80, "{tag}: only the collapsed shard is charged");
                    }
                    FreeThenNewTenant => {
                        let extent = buf.extent();
                        mgr.free_placed(buf);
                        buf = store_on(&mgr, Device::nvme(), want.clone()).unwrap();
                        assert_eq!(buf.extent(), extent, "{tag}: the new tenant reuses the extent");
                    }
                    PublishDroppedHalfWay => {
                        let mut wb = WriteBehind::new(2);
                        let mut publish = mgr.begin_publish(&buf);
                        for c in new[..20].chunks(5) {
                            publish.push(&mut wb, &mut buf, c).unwrap();
                        }
                        wb.drain(&mgr).unwrap();
                        drop(publish);
                        want = f16(&[&new[..20], &old[20..]].concat());
                        assert_eq!(cpu_in_use(), 0, "{tag}: a dropped stream holds no charge");
                    }
                }
                let written_through = matches!(writer, ChunkedPublish | OneChunkPublish);
                assert_eq!(mgr.is_cached_placed(&buf), written_through, "{tag}");

                let before = mgr.health();
                let fetched = mgr.fetch_placed(&buf).unwrap();
                assert_eq!(fetched.as_bytes(), want.as_bytes(), "{tag}: fetch after the write");
                drop(fetched);
                let after = mgr.health();
                let device_reads = after.io.reads - before.io.reads;
                let hits = after.shard_cache_hits - before.shard_cache_hits;
                let expect = match writer {
                    _ if written_through => (0, 1),
                    Collapse => (0, 0), // resident now: neither device nor cache
                    _ => (1, 0),
                };
                assert_eq!((device_reads, hits), expect, "{tag}: (device reads, cache hits)");
                // The cache agrees with the device, and keeps doing so.
                assert_eq!(mgr.load_placed(&buf).unwrap(), want, "{tag}: device contents");
                assert_eq!(mgr.fetch_placed(&buf).unwrap().as_bytes(), want.as_bytes(), "{tag}");
                assert_eq!(after.corruptions_recovered + after.corruptions_unrecovered, 0, "{tag}");
                mgr.free_placed(buf);
                assert_eq!(in_use(&mgr), (0, 0), "{tag}: charges returned");
            }
        }
    }

    #[test]
    fn a_corrupt_fill_is_reread_once_and_the_entry_holds_clean_bytes() {
        let (plan, node) = faulty_node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..64).map(|i| i as f32 - 7.5).collect();
        let buf = store_on(&mgr, Device::nvme(), buf_f32(&vals)).unwrap();
        let reads = mgr.nvme().stats().reads;
        plan.bitflip_next_reads(1);
        let filled = mgr.fetch_placed(&buf).unwrap();
        assert!(matches!(filled, LoadedBytes::Cached(_)), "a verified read fills the cache");
        assert_eq!(filled.as_bytes(), buf_f32(&vals).as_bytes());
        drop(filled);
        assert_eq!(mgr.nvme().stats().reads - reads, 2, "the poisoned read and one re-read");
        assert_eq!(mgr.health().corruptions_recovered, 1);
        // The entry holds the clean bytes, and is not checked again: a
        // device that now corrupts every read is never asked.
        plan.bitflip_next_reads(u32::MAX);
        assert_eq!(mgr.fetch_placed(&buf).unwrap().as_bytes(), buf_f32(&vals).as_bytes());
        plan.bitflip_next_reads(0);
        let health = mgr.health();
        assert_eq!((health.shard_cache_hits, health.corruptions_recovered), (1, 1));
        assert_eq!(mgr.nvme().stats().reads - reads, 2);
        // Unrecoverable corruption fills nothing.
        evict_shard_cache(&mgr);
        plan.bitflip_next_reads(u32::MAX);
        assert!(matches!(mgr.fetch_placed(&buf), Err(Error::Corruption { .. })));
        plan.bitflip_next_reads(0);
        assert!(!mgr.is_cached_placed(&buf));
        mgr.free_placed(buf);
        assert_eq!(in_use(&mgr), (0, 0));
    }

    #[test]
    fn cache_pressure_partial_admission_and_device_death() {
        // A CPU pool of 1000 B; shards of 400 B.
        let spec = NodeMemorySpec::test_spec(1, 1 << 20, 1000, 1 << 20);
        let (plan, _) = faulty_node();
        let backend = Arc::new(zi_nvme::FaultyBackend::new(MemBackend::new(), plan.clone()));
        let env = NodeEnv { policy: RetryPolicy::none(), ..NodeEnv::new(backend) };
        let node = NodeResources::new(&spec, 1, env);
        let mgr = node.offload_manager();
        let cpu = || mgr.hierarchy().stats(Device::cpu());
        let shard = |v: f32| store_on(&mgr, Device::nvme(), buf_f32(&[v; 100])).unwrap();
        let (a, b, c) = (shard(1.0), shard(2.0), shard(3.0));
        // Initial stores fill nothing; fetches admit while there is room:
        // two of the three shards.
        assert_eq!(cpu().in_use, 0);
        for buf in [&a, &b, &c] {
            mgr.fetch_placed(buf).unwrap();
        }
        let cached = |buf: &PlacedBuf| mgr.is_cached_placed(buf);
        assert_eq!((cached(&a), cached(&b), cached(&c)), (true, true, false));
        assert_eq!((cpu().in_use, cpu().largest_free), (800, 200));
        // Admission only: the uncached shard never displaces an entry.
        for _ in 0..3 {
            assert!(matches!(mgr.fetch_placed(&c).unwrap(), LoadedBytes::Staged(_)));
        }
        assert_eq!(mgr.health().shard_cache_evictions, 0);
        // A tenant that needs the cache's room gets it, not an OOM ...
        let tenant = store_on(&mgr, Device::cpu(), buf_f32(&[0.0; 150])).unwrap();
        assert_eq!(mgr.health().shard_cache_evictions, 2);
        assert_eq!((cpu().in_use, device_of(&tenant)), (600, Device::cpu()));
        // ... and the cache then stays out of the room that tenant took,
        // even while it is away: its return evicts nothing.
        mgr.free_placed(tenant);
        for buf in [&a, &b, &c] {
            mgr.fetch_placed(buf).unwrap();
        }
        assert_eq!((cached(&a), cached(&b), cached(&c)), (true, false, false));
        let tenant = store_on(&mgr, Device::cpu(), buf_f32(&[0.0; 150])).unwrap();
        assert_eq!(mgr.health().shard_cache_evictions, 2, "a returning tenant evicted an entry");
        // A reader keeps an evicted entry's bytes.
        let held = mgr.fetch_placed(&a).unwrap();
        assert_eq!(evict_shard_cache(&mgr), 1);
        assert_eq!(held.as_bytes(), buf_f32(&[1.0; 100]).as_bytes());
        drop(held);
        // Device death leaves hits working; only a miss needs the device.
        mgr.fetch_placed(&a).unwrap();
        plan.kill();
        assert_eq!(mgr.fetch_placed(&a).unwrap().as_bytes(), buf_f32(&[1.0; 100]).as_bytes());
        assert!(mgr.fetch_placed(&b).is_err_and(|e| e.is_device_failure()));
        for buf in [a, b, c, tenant] {
            mgr.free_placed(buf);
        }
        assert_eq!(in_use(&mgr), (0, 0));
        assert_eq!(mgr.staging().outstanding() + mgr.load_staging.outstanding(), 0);
    }

    #[test]
    fn accumulate_in_place_fuses_overflow_scan() {
        let node = node();
        let mgr = node.offload_manager();
        let split = PlacementPolicy::split(500, 8);
        // The flag is set exactly when a dense accumulate would set it,
        // whichever segment the non-finite element lands in.
        for at in [0, 17, 39] {
            for (tier, mut buf) in [
                ("cpu", store_on(&mgr, Device::cpu(), buf_f32(&[1.0; 40])).unwrap()),
                ("nvme", store_on(&mgr, Device::nvme(), buf_f32(&[1.0; 40])).unwrap()),
                ("split", store_nvme(&mgr, split, &[1.0; 40])),
            ] {
                assert!(!mgr.accumulate_f32_placed(&mut buf, &[0.5; 40]).unwrap(), "tier {tier}");
                assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vec![1.5; 40]);
                let mut delta = vec![0.0f32; 40];
                delta[at] = f32::INFINITY;
                assert!(mgr.accumulate_f32_placed(&mut buf, &delta).unwrap(), "tier {tier}");
                mgr.free_placed(buf);
            }
        }
        // Shape/dtype errors are typed, not silent.
        let mut small = store_on(&mgr, Device::cpu(), buf_f32(&[0.0; 4])).unwrap();
        assert!(mgr.accumulate_f32_placed(&mut small, &[0.0; 5]).is_err());
        mgr.free_placed(small);
    }

    #[test]
    fn nvme_accumulate_chunks_through_small_staging() {
        // A tiny pinned pool forces the NVMe accumulate path to stream
        // in multiple chunks through a single held staging buffer.
        let spec = NodeMemorySpec::test_spec(2, 1 << 20, 1 << 20, 1 << 20);
        let env = NodeEnv { pinned: (2, 64), nvme_workers: 2, ..NodeEnv::in_memory() };
        let node = NodeResources::new(&spec, 1, env); // 16 f32 per chunk
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let delta: Vec<f32> = (0..100).map(|i| 0.25 * i as f32).collect();
        let mut buf = store_on(&mgr, Device::nvme(), buf_f32(&vals)).unwrap();
        assert!(!mgr.accumulate_f32_placed(&mut buf, &delta).unwrap());
        let want: Vec<f32> = vals.iter().zip(&delta).map(|(a, b)| a + b).collect();
        assert_eq!(mgr.take_placed(buf).unwrap().to_f32_vec(), want);
    }

    #[test]
    fn placed_split_round_trips_and_interleaves() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let policy = PlacementPolicy::split(500, 16);
        let buf = mgr.store_placed(Device::nvme(), &policy, buf_f32(&vals)).unwrap();
        assert!(buf.is_split());
        assert!(buf.segments.len() >= 4, "stripes should interleave, not partition");
        let cpu = buf.elems_on(PathKind::Cpu);
        assert!((112..=144).contains(&cpu), "cpu share {cpu} far from 50%");
        assert_eq!(buf.elems_on(PathKind::Cpu) + buf.elems_on(PathKind::Nvme), 256);
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.free_placed(buf);
        assert_eq!(in_use(&mgr), (0, 0));
    }

    #[test]
    fn whole_buffer_prefetch_of_a_split_buffer_reads_each_nvme_segment_once() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let buf = store_nvme(&mgr, PlacementPolicy::split(500, 16), &vals);
        let nvme_segments = buf.segments.iter().filter(|s| s.ram.is_none()).count() as u64;
        let before = mgr.nvme().stats();
        let pending = mgr.begin_load_placed(&buf);
        let data = mgr.finish_load_placed(&buf, pending).unwrap();
        assert_eq!(data.as_bytes(), buf_f32(&vals).as_bytes());
        let after = mgr.nvme().stats();
        assert_eq!(after.reads - before.reads, nvme_segments);
        assert_eq!(after.bytes_read - before.bytes_read, 4 * buf.elems_on(PathKind::Nvme) as u64);
        drop(data);
        assert_eq!(mgr.staging().outstanding(), 0);
        // Taking the buffer returns the same bytes and frees both tiers.
        assert_eq!(mgr.take_placed(buf).unwrap().to_f32_vec(), vals);
        assert_eq!(in_use(&mgr), (0, 0));
    }

    #[test]
    fn every_op_on_a_one_segment_plan_equals_the_op_on_a_split_buffer() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..32).map(|i| 1.5 * i as f32).collect();
        let delta: Vec<f32> = (0..32).map(|i| 0.125 * i as f32).collect();
        let fresh: Vec<f32> = (0..32).map(|i| -(i as f32)).collect();
        let store = |device: Device, policy: PlacementPolicy| {
            mgr.store_placed(device, &policy, buf_f32(&vals)).unwrap()
        };
        let reference = store(Device::nvme(), PlacementPolicy::split(500, 8));
        assert!(reference.is_split());
        let nv = store(Device::nvme(), PlacementPolicy::all_nvme());
        assert!(nv.is_offloaded() && device_of(&nv) == Device::nvme());
        let cp = store(Device::nvme(), PlacementPolicy::all_cpu());
        assert!(!cp.is_offloaded() && device_of(&cp) == Device::cpu());
        // A non-NVMe target ignores the policy entirely.
        let gpu = store(Device::gpu(0), PlacementPolicy::split(500, 4));
        assert_eq!(device_of(&gpu), Device::gpu(0));
        // The same op sequence on each buffer: every observation equal.
        let run = |mut buf: PlacedBuf| {
            let mut seen = vec![mgr.load_placed(&buf).unwrap()];
            let nonfinite = mgr.accumulate_f32_placed(&mut buf, &delta).unwrap();
            let fetched = mgr.fetch_placed(&buf).unwrap().as_bytes().to_vec();
            seen.push(FlatBuffer::from_bytes(DType::F32, fetched).unwrap());
            mgr.overwrite_placed(&mut buf, &buf_f32(&fresh)).unwrap();
            seen.push(mgr.load_placed(&buf).unwrap());
            mgr.overwrite_async_placed(&mut buf, &buf_f32(&delta)).unwrap();
            mgr.flush().unwrap();
            seen.push(mgr.load_placed(&buf).unwrap());
            publish_chunked(&mgr, &mut buf, &vals).unwrap();
            seen.push(mgr.take_placed(buf).unwrap());
            (nonfinite, seen)
        };
        let want = run(reference);
        for buf in [nv, cp, gpu] {
            assert_eq!(run(buf), want);
        }
        assert_eq!(in_use(&mgr), (0, 0));
        assert_eq!(mgr.hierarchy().stats(Device::gpu(0)).in_use, 0);
    }

    #[test]
    fn placed_async_overwrite_visible_after_flush() {
        let node = node();
        let mgr = node.offload_manager();
        let mut buf = store_nvme(&mgr, PlacementPolicy::split(250, 4), &[0.0; 64]);
        mgr.overwrite_async_placed(&mut buf, &buf_f32(&[4.5; 64])).unwrap();
        mgr.flush().unwrap();
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vec![4.5; 64]);
        mgr.free_placed(buf);
    }

    /// A device whose reads wait until the gate opens, and whose writes
    /// at the refused offset fail with a permanent error that is not a
    /// device failure: no retry, no degradation.
    struct Gate {
        dev: MemBackend,
        open: Mutex<bool>,
        opened: zi_sync::Condvar,
        refused: AtomicU64,
    }

    impl Gate {
        fn open(&self) {
            *self.open.lock() = true;
            self.opened.notify_all();
        }
    }

    impl StorageBackend for Gate {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            let mut open = self.open.lock();
            while !*open {
                self.opened.wait(&mut open);
            }
            drop(open);
            self.dev.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
            if offset == self.refused.load(Ordering::Relaxed) {
                return Err(Error::InvalidArgument(format!("write at {offset:#x} refused")));
            }
            self.dev.write_at(offset, data)
        }
        fn sync(&self) -> Result<()> {
            self.dev.sync()
        }
        fn len(&self) -> Result<u64> {
            self.dev.len()
        }
    }

    /// A two-rank node over a [`Gate`], open or closed.
    fn gated_node(open: bool) -> (Arc<Gate>, NodeResources) {
        let gate = Arc::new(Gate {
            dev: MemBackend::new(),
            open: Mutex::new(open),
            opened: zi_sync::Condvar::new(),
            refused: AtomicU64::new(u64::MAX),
        });
        let spec = NodeMemorySpec::test_spec(2, 1 << 20, 1 << 20, 1 << 20);
        let env = NodeEnv { policy: RetryPolicy::none(), ..NodeEnv::new(gate.clone()) };
        (gate, NodeResources::new(&spec, 2, env))
    }

    #[test]
    fn a_flush_waits_for_its_own_io_only() {
        let (gate, node) = gated_node(false);
        let (a, b) = (node.offload_manager(), node.offload_manager());
        let vals: Vec<f32> = (0..64).map(|i| i as f32 - 9.5).collect();
        let record = store_on(&b, Device::nvme(), buf_f32(&vals)).unwrap();
        let mut mine = store_on(&a, Device::nvme(), buf_f32(&[0.0; 8])).unwrap();
        // B's record read waits at the closed gate; A's own write lands
        // and A's flush returns around it.
        let read = b.begin_load_elems_placed(&record, 0, 64).unwrap();
        a.overwrite_async_placed(&mut mine, &buf_f32(&[5.0; 8])).unwrap();
        a.flush().unwrap();
        assert!(a.nvme().in_flight() >= 1, "B's read is still on the device");
        gate.open();
        let (staged, tiles) = read.wait_verified(&b).unwrap().expect("a device read");
        assert_eq!((staged.as_f32(), tiles.map(|t| t.len())), (&vals[..], Some(1)));
        drop(staged);
        assert_eq!(a.load_placed(&mine).unwrap().to_f32_vec(), vec![5.0; 8]);
        b.flush().unwrap();
        a.free_placed(mine);
        b.free_placed(record);
        assert_eq!(in_use(&a), (0, 0));
    }

    #[test]
    fn a_failed_async_write_is_reported_to_the_manager_that_issued_it() {
        let (gate, node) = gated_node(true);
        let (a, b) = (node.offload_manager(), node.offload_manager());
        let mut mine = store_on(&a, Device::nvme(), buf_f32(&[1.0; 16])).unwrap();
        let mut theirs = store_on(&b, Device::nvme(), buf_f32(&[2.0; 16])).unwrap();
        gate.refused.store(theirs.extent().unwrap().0, Ordering::Relaxed);
        a.overwrite_async_placed(&mut mine, &buf_f32(&[3.0; 16])).unwrap();
        b.overwrite_async_placed(&mut theirs, &buf_f32(&[4.0; 16])).unwrap();
        a.flush().unwrap();
        let err = b.flush().unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
        b.flush().unwrap();
        assert!(!a.is_degraded());
        assert_eq!(a.load_placed(&mine).unwrap().to_f32_vec(), vec![3.0; 16]);
        a.free_placed(mine);
        b.free_placed(theirs);
        // A device failure under B's write is still no error: B's flush
        // degrades the node instead.
        let (plan, node) = faulty_node();
        let (a, b) = (node.offload_manager(), node.offload_manager());
        let mut theirs = store_on(&b, Device::nvme(), buf_f32(&[2.0; 16])).unwrap();
        plan.kill();
        b.overwrite_async_placed(&mut theirs, &buf_f32(&[4.0; 16])).unwrap();
        a.flush().unwrap();
        assert!(!a.is_degraded(), "A's flush saw B's write");
        b.flush().unwrap();
        assert!(b.is_degraded());
        b.free_placed(theirs);
    }

    #[test]
    fn explicit_degrade_collapses_split_shard_preserving_nvme_half() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..200).map(|i| (i as f32).sin()).collect();
        let mut buf = store_nvme(&mgr, PlacementPolicy::split(250, 8), &vals);
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
        let buf = store_nvme(&mgr, PlacementPolicy::split(500, 8), &vals);
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert!(mgr.is_degraded());
        assert_eq!(mgr.placement_cell().read().1, PlacementPolicy::all_cpu());
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.free_placed(buf);
        // Once degraded, later placed stores collapse their plan up front.
        let after = store_nvme(&mgr, PlacementPolicy::split(500, 8), &vals);
        assert_eq!(after.segments.len(), 1);
        assert!(!after.is_offloaded());
        mgr.free_placed(after);
    }

    #[test]
    fn retier_moves_placement_without_changing_bits() {
        let node = node();
        let mgr = node.offload_manager();
        let vals: Vec<f32> = (0..300).map(|i| 1.0 / (i as f32 + 1.0)).collect();
        let mut buf = store_nvme(&mgr, PlacementPolicy::all_nvme(), &vals);
        assert_eq!(buf.elems_on(PathKind::Cpu), 0);
        mgr.retier_placed(&mut buf, Device::nvme(), &PlacementPolicy::split(500, 16)).unwrap();
        assert!(buf.is_split());
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.retier_placed(&mut buf, Device::nvme(), &PlacementPolicy::all_cpu()).unwrap();
        assert_eq!(buf.elems_on(PathKind::Nvme), 0);
        assert_eq!(mgr.load_placed(&buf).unwrap().to_f32_vec(), vals);
        mgr.free_placed(buf);
        assert_eq!(in_use(&mgr), (0, 0));
    }
}
