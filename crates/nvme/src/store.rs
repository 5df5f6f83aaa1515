//! Crash-consistent, versioned checkpoint store on a [`StorageBackend`].
//!
//! Real elastic training (DeepSpeed's constant checkpointing lineage)
//! needs checkpoints that survive the very failure they exist for: a
//! rank can die *during* a save, tearing the write. This store makes a
//! torn save invisible instead of fatal:
//!
//! * **Versioned slots** — each rank owns `slots_per_rank` fixed-size
//!   slots; version `v` lands in slot `v % slots_per_rank`, so a save
//!   never overwrites the most recent *other* version. With ≥ 2 slots a
//!   torn save can only destroy the oldest rotation, never the last
//!   durable state.
//! * **Atomic publish** — a slot's 64-byte CRC32-C manifest is
//!   invalidated (zeroed + synced) *before* the payload is written and
//!   rewritten (+ synced) only *after* the payload is durable. The
//!   manifest write is the commit point; a crash at any other moment
//!   leaves a slot that scans as empty, not as garbage.
//! * **Latest-complete-wins recovery** — [`CheckpointStore::latest_complete`]
//!   returns the newest version for which *every* rank has a valid
//!   manifest **and** a payload whose CRC32-C matches. A version any rank
//!   failed to finish is simply not offered for recovery.
//!
//! Saves can also be queued on a background writer
//! ([`CheckpointStore::save_async`]) — the same bounded write-behind
//! discipline the optimizer step uses for NVMe flushes — so periodic
//! checkpointing stays off the training step's critical path;
//! [`CheckpointStore::drain`] is the durability barrier that surfaces
//! any background error.

use zi_sync::Arc;

use zi_sync::channel::{unbounded, Sender};
use zi_sync::thread::JoinHandle;
use zi_sync::{Condvar, Mutex};
use zi_types::{Error, Result};

use crate::backend::StorageBackend;
use crate::checksum::crc32;

/// Superblock magic (store identity), at device offset 0.
const SUPER_MAGIC: &[u8; 8] = b"ZICKPST1";
/// Per-slot manifest magic.
const MANIFEST_MAGIC: &[u8; 8] = b"ZICKPMAN";
/// On-disk format version of the store layout.
pub(crate) const STORE_FORMAT: u8 = 1;
/// Superblock and manifest both occupy one fixed-size header block.
const HEADER_LEN: u64 = 64;
/// Slot capacity = first payload size × this, so checkpoints can grow
/// moderately (fp16→fp32 promotion, a few extra records) without a new
/// store.
const CAPACITY_HEADROOM: u64 = 4;
/// Minimum slot capacity.
const MIN_CAPACITY: u64 = 4096;
/// Background saves in flight before `save_async` blocks (write-behind
/// window).
const ASYNC_WINDOW: usize = 4;

/// The `N` bytes at a fixed offset `at` of a header block.
fn field<const N: usize>(block: &[u8; HEADER_LEN as usize], at: usize) -> [u8; N] {
    std::array::from_fn(|i| block[at + i])
}

/// Counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Completed synchronous + background saves.
    pub saves: u64,
    /// Saves that went through the background writer.
    pub async_saves: u64,
    /// Successful loads.
    pub loads: u64,
    /// Slots skipped during scans because their manifest or payload
    /// failed validation (torn or partial saves made invisible).
    pub invalid_slots_skipped: u64,
}

struct CoreState {
    /// Fixed at the first save (or by `open`); `None` until then.
    slot_capacity: Option<u64>,
    pending: usize,
    first_err: Option<Error>,
    stats: StoreStats,
}

struct StoreCore {
    backend: Arc<dyn StorageBackend>,
    ranks: u32,
    slots_per_rank: u32,
    state: Mutex<CoreState>,
    cv: Condvar,
    /// Checkpoint-category spans for every save/load, plus payload-byte
    /// counters.
    tracer: zi_trace::Tracer,
}

impl StoreCore {
    fn slot_of(&self, version: u64) -> u64 {
        version % self.slots_per_rank as u64
    }

    fn slot_offset(&self, capacity: u64, rank: u32, slot: u64) -> u64 {
        HEADER_LEN
            + (rank as u64 * self.slots_per_rank as u64 + slot) * (HEADER_LEN + capacity)
    }

    fn write_superblock(&self, capacity: u64) -> Result<()> {
        let mut sb = [0u8; HEADER_LEN as usize];
        sb[..8].copy_from_slice(SUPER_MAGIC);
        sb[8] = STORE_FORMAT;
        sb[9..13].copy_from_slice(&self.ranks.to_le_bytes());
        sb[13..17].copy_from_slice(&self.slots_per_rank.to_le_bytes());
        sb[17..25].copy_from_slice(&capacity.to_le_bytes());
        let crc = crc32(&sb[..25]);
        sb[25..29].copy_from_slice(&crc.to_le_bytes());
        self.backend.write_at(0, &sb)?;
        self.backend.sync()
    }

    /// Fix the slot capacity on first use and persist the superblock.
    fn ensure_layout(&self, payload_len: u64) -> Result<u64> {
        let mut st = self.state.lock();
        if let Some(cap) = st.slot_capacity {
            if payload_len > cap {
                return Err(Error::InvalidArgument(format!(
                    "checkpoint payload of {payload_len} B exceeds slot capacity {cap} B"
                )));
            }
            return Ok(cap);
        }
        let cap = (payload_len.saturating_mul(CAPACITY_HEADROOM)).max(MIN_CAPACITY);
        self.write_superblock(cap)?;
        st.slot_capacity = Some(cap);
        Ok(cap)
    }

    fn encode_manifest(version: u64, rank: u32, payload: &[u8]) -> [u8; HEADER_LEN as usize] {
        let mut m = [0u8; HEADER_LEN as usize];
        m[..8].copy_from_slice(MANIFEST_MAGIC);
        m[8..16].copy_from_slice(&version.to_le_bytes());
        m[16..24].copy_from_slice(&(rank as u64).to_le_bytes());
        m[24..32].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        m[32..36].copy_from_slice(&crc32(payload).to_le_bytes());
        let crc = crc32(&m[..36]);
        m[36..40].copy_from_slice(&crc.to_le_bytes());
        m
    }

    /// Parse a manifest block. `None` means "slot is empty / torn", which
    /// scans treat as absence, never as an error.
    fn decode_manifest(m: &[u8]) -> Option<(u64, u64, u64, u32)> {
        if &m[..8] != MANIFEST_MAGIC {
            return None;
        }
        let stored = u32::from_le_bytes(m[36..40].try_into().ok()?);
        if crc32(&m[..36]) != stored {
            return None;
        }
        let version = u64::from_le_bytes(m[8..16].try_into().ok()?);
        let rank = u64::from_le_bytes(m[16..24].try_into().ok()?);
        let len = u64::from_le_bytes(m[24..32].try_into().ok()?);
        let payload_crc = u32::from_le_bytes(m[32..36].try_into().ok()?);
        Some((version, rank, len, payload_crc))
    }

    /// The crash-consistent save protocol: invalidate → payload → sync →
    /// publish manifest → sync. Interrupt it anywhere and the slot scans
    /// as empty; complete it and the version is durable.
    fn save_sync(&self, rank: u32, version: u64, payload: &[u8]) -> Result<()> {
        if rank >= self.ranks {
            return Err(Error::InvalidArgument(format!(
                "rank {rank} out of store's {} ranks",
                self.ranks
            )));
        }
        let cap = self.ensure_layout(payload.len() as u64)?;
        if payload.len() as u64 > cap {
            return Err(Error::InvalidArgument(format!(
                "checkpoint payload of {} B exceeds slot capacity {cap} B",
                payload.len()
            )));
        }
        let mut span = self.tracer.span(zi_trace::Category::Checkpoint, "ckpt.save");
        span.set_bytes(payload.len() as u64);
        span.set_id(version);
        self.tracer.count(zi_trace::Counter::CkptBytes, payload.len() as u64);
        let off = self.slot_offset(cap, rank, self.slot_of(version));
        // 1. Invalidate: whatever version lived here is now officially
        //    gone before one payload byte is overwritten.
        self.backend.write_at(off, &[0u8; HEADER_LEN as usize])?;
        self.backend.sync()?;
        // 2. Payload, made durable before publication.
        self.backend.write_at(off + HEADER_LEN, payload)?;
        self.backend.sync()?;
        // 3. Commit point: the manifest names the version and both CRCs.
        self.backend.write_at(off, &Self::encode_manifest(version, rank, payload))?;
        self.backend.sync()?;
        self.state.lock().stats.saves += 1;
        Ok(())
    }

    /// Read the manifest of (rank, slot) and validate its payload CRC.
    /// Returns the version and payload when both check out.
    fn read_slot(&self, cap: u64, rank: u32, slot: u64) -> Option<(u64, Vec<u8>)> {
        let off = self.slot_offset(cap, rank, slot);
        let mut m = [0u8; HEADER_LEN as usize];
        if self.backend.read_at(off, &mut m).is_err() {
            // Device shorter than the slot region: never written.
            return None;
        }
        let (version, mrank, len, payload_crc) = match Self::decode_manifest(&m) {
            Some(v) => v,
            None => {
                self.state.lock().stats.invalid_slots_skipped += 1;
                return None;
            }
        };
        if mrank != rank as u64 || len > cap {
            self.state.lock().stats.invalid_slots_skipped += 1;
            return None;
        }
        let mut payload = vec![0u8; len as usize];
        if self.backend.read_at(off + HEADER_LEN, &mut payload).is_err()
            || crc32(&payload) != payload_crc
        {
            self.state.lock().stats.invalid_slots_skipped += 1;
            return None;
        }
        Some((version, payload))
    }

    fn capacity(&self) -> Result<u64> {
        self.state.lock().slot_capacity.ok_or_else(|| {
            Error::InvalidArgument("checkpoint store is empty (no save yet)".into())
        })
    }
}

/// Background save job.
struct Job {
    rank: u32,
    version: u64,
    payload: Vec<u8>,
}

struct Inner {
    core: Arc<StoreCore>,
    tx: Option<Sender<Job>>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Closing the channel stops the worker after it drains the queue.
        self.tx.take();
        if let Some(h) = self.worker.lock().take() {
            let _ = h.join();
        }
    }
}

/// Shared, cloneable handle to a checkpoint store. See the module docs
/// for the crash-consistency protocol.
#[derive(Clone)]
pub struct CheckpointStore {
    inner: Arc<Inner>,
}

impl CheckpointStore {
    /// Create a store for `ranks` ranks with `slots_per_rank` rotating
    /// slots each (≥ 2 recommended: a torn save can then only destroy an
    /// old rotation). Slot capacity is fixed by the first save. Nothing
    /// is written until then.
    pub fn new(
        backend: Arc<dyn StorageBackend>,
        ranks: usize,
        slots_per_rank: usize,
    ) -> Result<Self> {
        Self::with_tracer(backend, ranks, slots_per_rank, zi_trace::Tracer::new())
    }

    /// [`CheckpointStore::new`] recording its Checkpoint spans and
    /// payload counters into an externally owned tracer.
    pub fn with_tracer(
        backend: Arc<dyn StorageBackend>,
        ranks: usize,
        slots_per_rank: usize,
        tracer: zi_trace::Tracer,
    ) -> Result<Self> {
        if ranks == 0 || slots_per_rank == 0 {
            return Err(Error::InvalidArgument(
                "checkpoint store needs ≥1 rank and ≥1 slot per rank".into(),
            ));
        }
        let core = Arc::new(StoreCore {
            backend,
            ranks: ranks as u32,
            slots_per_rank: slots_per_rank as u32,
            state: Mutex::new(CoreState {
                slot_capacity: None,
                pending: 0,
                first_err: None,
                stats: StoreStats::default(),
            }),
            cv: Condvar::new(),
            tracer,
        });
        let (tx, rx) = unbounded::<Job>();
        let wcore = Arc::clone(&core);
        let worker = zi_sync::thread::Builder::new()
            .name("zi-ckpt-store".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    // Once a background save fails, later queued saves are
                    // skipped (their version would be newer than the last
                    // good one, and the caller learns the truth at drain).
                    let already_failed = wcore.state.lock().first_err.is_some();
                    let res = if already_failed {
                        Ok(())
                    } else {
                        wcore.save_sync(job.rank, job.version, &job.payload)
                    };
                    let mut st = wcore.state.lock();
                    if let Err(e) = res {
                        if st.first_err.is_none() {
                            st.first_err = Some(e);
                        }
                    }
                    st.pending -= 1;
                    wcore.cv.notify_all();
                }
            })
            .map_err(|e| Error::Internal(format!("spawn checkpoint writer: {e}")))?;
        Ok(CheckpointStore {
            inner: Arc::new(Inner { core, tx: Some(tx), worker: Mutex::new(Some(worker)) }),
        })
    }

    /// Open an existing store by reading its superblock.
    pub fn open(backend: Arc<dyn StorageBackend>) -> Result<Self> {
        let mut sb = [0u8; HEADER_LEN as usize];
        backend.read_at(0, &mut sb).map_err(|_| {
            Error::InvalidArgument("no checkpoint store on this device".into())
        })?;
        if &sb[..8] != SUPER_MAGIC {
            return Err(Error::InvalidArgument("not a checkpoint store".into()));
        }
        if sb[8] != STORE_FORMAT {
            return Err(Error::VersionMismatch {
                context: "checkpoint store superblock".into(),
                found: sb[8] as u32,
                expected: STORE_FORMAT as u32,
            });
        }
        let crc = u32::from_le_bytes(field(&sb, 25));
        if crc32(&sb[..25]) != crc {
            return Err(Error::Corruption {
                context: "checkpoint store superblock".into(),
                expected: crc,
                actual: crc32(&sb[..25]),
            });
        }
        let ranks = u32::from_le_bytes(field(&sb, 9));
        let slots = u32::from_le_bytes(field(&sb, 13));
        let capacity = u64::from_le_bytes(field(&sb, 17));
        if ranks == 0 || slots == 0 || capacity == 0 {
            return Err(Error::InvalidArgument("checkpoint store superblock is degenerate".into()));
        }
        let store = Self::new(backend, ranks as usize, slots as usize)?;
        store.inner.core.state.lock().slot_capacity = Some(capacity);
        Ok(store)
    }

    /// Number of ranks this store was laid out for.
    pub fn ranks(&self) -> usize {
        self.inner.core.ranks as usize
    }

    /// Counters snapshot.
    pub fn stats(&self) -> StoreStats {
        self.inner.core.state.lock().stats
    }

    /// Durably save `payload` as (rank, version), blocking until the
    /// manifest is published.
    pub fn save(&self, rank: usize, version: u64, payload: &[u8]) -> Result<()> {
        self.inner.core.save_sync(rank as u32, version, payload)
    }

    /// Queue a save on the background writer and return immediately
    /// (bounded: blocks only when [`ASYNC_WINDOW`] saves are already in
    /// flight). Errors surface at the next [`CheckpointStore::drain`].
    pub fn save_async(&self, rank: usize, version: u64, payload: Vec<u8>) -> Result<()> {
        let core = &self.inner.core;
        if rank as u32 >= core.ranks {
            return Err(Error::InvalidArgument(format!(
                "rank {rank} out of store's {} ranks",
                core.ranks
            )));
        }
        {
            let mut st = core.state.lock();
            while st.pending >= ASYNC_WINDOW {
                core.cv.wait(&mut st);
            }
            st.pending += 1;
            st.stats.async_saves += 1;
        }
        let sent = match self.inner.tx.as_ref() {
            Some(tx) => tx.send(Job { rank: rank as u32, version, payload }).is_ok(),
            None => false,
        };
        if !sent {
            // Channel closed: the worker died. Roll back the pending count.
            let mut st = core.state.lock();
            st.pending -= 1;
            core.cv.notify_all();
            return Err(Error::Internal("checkpoint writer thread is gone".into()));
        }
        Ok(())
    }

    /// Wait for every queued background save to complete, then surface
    /// the first error any of them hit (durability barrier).
    pub fn drain(&self) -> Result<()> {
        let core = &self.inner.core;
        let mut st = core.state.lock();
        while st.pending > 0 {
            core.cv.wait(&mut st);
        }
        match st.first_err.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Load the payload saved as (rank, version). Fails with a typed
    /// error if that version is gone (rotated away or torn).
    pub fn load(&self, rank: usize, version: u64) -> Result<Vec<u8>> {
        let core = &self.inner.core;
        if rank as u32 >= core.ranks {
            return Err(Error::InvalidArgument(format!(
                "rank {rank} out of store's {} ranks",
                core.ranks
            )));
        }
        let cap = core.capacity()?;
        let mut span = core.tracer.span(zi_trace::Category::Checkpoint, "ckpt.load");
        span.set_id(version);
        match core.read_slot(cap, rank as u32, core.slot_of(version)) {
            Some((v, payload)) if v == version => {
                span.set_bytes(payload.len() as u64);
                core.state.lock().stats.loads += 1;
                Ok(payload)
            }
            Some((v, _)) => Err(Error::InvalidArgument(format!(
                "checkpoint (rank {rank}, v{version}) was rotated away (slot now holds v{v})"
            ))),
            None => Err(Error::InvalidArgument(format!(
                "no valid checkpoint for (rank {rank}, v{version})"
            ))),
        }
    }

    /// Newest version durably complete on **all** of ranks `0..ranks`
    /// (latest-complete-wins recovery). `None` when no version is
    /// complete everywhere — including on a store nothing was saved to.
    pub fn latest_complete(&self, ranks: usize) -> Result<Option<u64>> {
        let core = &self.inner.core;
        if ranks == 0 || ranks as u32 > core.ranks {
            return Err(Error::InvalidArgument(format!(
                "latest_complete over {ranks} ranks on a store of {}",
                core.ranks
            )));
        }
        let cap = match core.state.lock().slot_capacity {
            Some(c) => c,
            None => return Ok(None),
        };
        let mut complete: Option<Vec<u64>> = None;
        for rank in 0..ranks as u32 {
            let mut versions = Vec::new();
            for slot in 0..core.slots_per_rank as u64 {
                if let Some((v, _)) = core.read_slot(cap, rank, slot) {
                    versions.push(v);
                }
            }
            complete = Some(match complete {
                None => versions,
                Some(prev) => prev.into_iter().filter(|v| versions.contains(v)).collect(),
            });
        }
        Ok(complete.unwrap_or_default().into_iter().max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::fault::{FaultPlan, FaultyBackend};

    fn mem_store(ranks: usize, slots: usize) -> (Arc<MemBackend>, CheckpointStore) {
        let backend = Arc::new(MemBackend::new());
        let store = CheckpointStore::new(backend.clone(), ranks, slots).unwrap();
        (backend, store)
    }

    #[test]
    fn round_trip_and_rotation() {
        let (_, store) = mem_store(2, 2);
        store.save(0, 1, b"r0v1").unwrap();
        store.save(1, 1, b"r1v1").unwrap();
        assert_eq!(store.load(0, 1).unwrap(), b"r0v1");
        assert_eq!(store.latest_complete(2).unwrap(), Some(1));

        // v2 and v3 rotate through the two slots; v1 dies when v3 lands
        // in its slot.
        store.save(0, 2, b"r0v2").unwrap();
        store.save(1, 2, b"r1v2").unwrap();
        store.save(0, 3, b"r0v3").unwrap();
        store.save(1, 3, b"r1v3").unwrap();
        assert_eq!(store.latest_complete(2).unwrap(), Some(3));
        assert_eq!(store.load(0, 2).unwrap(), b"r0v2");
        assert!(store.load(0, 1).is_err(), "v1 rotated away");
    }

    #[test]
    fn incomplete_version_is_never_offered() {
        let (_, store) = mem_store(3, 2);
        for r in 0..3 {
            store.save(r, 5, format!("r{r}v5").as_bytes()).unwrap();
        }
        // Rank 1 never finishes v6.
        store.save(0, 6, b"r0v6").unwrap();
        store.save(2, 6, b"r2v6").unwrap();
        assert_eq!(store.latest_complete(3).unwrap(), Some(5));
        // A prefix query still intersects: ranks {0, 1} share only v5.
        assert_eq!(store.latest_complete(2).unwrap(), Some(5));
    }

    #[test]
    fn torn_payload_write_preserves_previous_version() {
        let plan = FaultPlan::new();
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
        let store = CheckpointStore::new(backend.clone(), 1, 2).unwrap();
        store.save(0, 1, &[7u8; 256]).unwrap();
        store.save(0, 2, &[8u8; 256]).unwrap();

        // v3 targets v1's slot; its very first write — the manifest
        // invalidation — tears partway through and the save fails there,
        // leaving slot 1 with a half-zeroed manifest.
        plan.torn_next_writes(1);
        assert!(store.save(0, 3, &[9u8; 256]).is_err());

        // v2 (the latest durable) is untouched and wins recovery.
        assert_eq!(store.latest_complete(1).unwrap(), Some(2));
        assert_eq!(store.load(0, 2).unwrap(), vec![8u8; 256]);
        assert!(store.load(0, 3).is_err(), "torn v3 must scan as absent");
        assert!(store.stats().invalid_slots_skipped > 0);
    }

    #[test]
    fn bit_rot_in_payload_is_detected() {
        let (backend, store) = mem_store(1, 2);
        store.save(0, 1, &[5u8; 512]).unwrap();
        // Flip one payload byte behind the store's back. Version 1 of 2
        // slots lives in slot 1; capacity is MIN_CAPACITY here.
        let mut probe = vec![0u8; 1];
        let payload_off =
            HEADER_LEN + (HEADER_LEN + MIN_CAPACITY) + HEADER_LEN + 100;
        backend.read_at(payload_off, &mut probe).unwrap();
        backend.write_at(payload_off, &[probe[0] ^ 0x40]).unwrap();
        assert!(store.load(0, 1).is_err(), "payload CRC must catch bit rot");
        assert_eq!(store.latest_complete(1).unwrap(), None);
    }

    #[test]
    fn async_saves_drain_and_surface_errors() {
        let plan = FaultPlan::new();
        let backend = Arc::new(FaultyBackend::new(MemBackend::new(), plan.clone()));
        let store = CheckpointStore::new(backend, 1, 4).unwrap();
        for v in 1..=3u64 {
            store.save_async(0, v, vec![v as u8; 128]).unwrap();
        }
        store.drain().unwrap();
        assert_eq!(store.latest_complete(1).unwrap(), Some(3));
        assert_eq!(store.stats().async_saves, 3);

        // A failing background save surfaces at drain, not silently.
        plan.fail_next_writes(10);
        store.save_async(0, 4, vec![4u8; 128]).unwrap();
        assert!(store.drain().is_err());
        plan.fail_next_writes(0);
        // The store keeps working afterwards.
        store.save_async(0, 5, vec![5u8; 128]).unwrap();
        store.drain().unwrap();
        assert_eq!(store.load(0, 5).unwrap(), vec![5u8; 128]);
    }

    #[test]
    fn reopen_recovers_layout_and_data() {
        let backend = Arc::new(MemBackend::new());
        {
            let store = CheckpointStore::new(backend.clone(), 2, 2).unwrap();
            store.save(0, 7, b"zero").unwrap();
            store.save(1, 7, b"one").unwrap();
        }
        let store = CheckpointStore::open(backend.clone()).unwrap();
        assert_eq!(store.ranks(), 2);
        assert_eq!(store.inner.core.slots_per_rank, 2);
        assert_eq!(store.latest_complete(2).unwrap(), Some(7));
        assert_eq!(store.load(1, 7).unwrap(), b"one");

        // Opening garbage is a typed error.
        let junk = Arc::new(MemBackend::new());
        junk.write_at(0, &[0xaa; 64]).unwrap();
        assert!(CheckpointStore::open(junk).is_err());
        assert!(CheckpointStore::open(Arc::new(MemBackend::new())).is_err());
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let (_, store) = mem_store(1, 2);
        store.save(0, 1, &[1u8; 100]).unwrap(); // capacity = max(400, 4096)
        assert!(store.save(0, 2, &vec![2u8; 5000]).is_err());
    }
}
