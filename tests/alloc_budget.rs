//! A counted contract instead of a timing: in steady state the parameter
//! fetch path (`get` + `release`), the gradient path (`add_grad`) and the
//! optimizer step move every byte through buffers they already own — the
//! paper's fixed, reused buffer set (Sec. 6.3) — so none of them asks the
//! allocator for a large block. A large block costs an `mmap`, a page
//! fault per 4 KiB and a `munmap` before a byte is moved, which is what
//! the efficiency model (Sec. 4) assumes the software does not pay.
//!
//! The shard cache rides the same contract: a `get` it answers costs no
//! large block *and no device read*, the optimizer step's write-through
//! reuses the storage of the entry it supersedes, and an engine whose CPU
//! pool has no room for the cache allocates exactly as it always did.
//!
//! This binary installs a counting global allocator, so it holds exactly
//! one test: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};

use zero_infinity::trainer::synthetic_batch;
use zero_infinity::{NodeResources, Strategy, TiledLinear, ZeroEngine};
use zi_memory::NodeMemorySpec;
use zi_model::{GptConfig, GptModel, ParamId, ParamRegistry, ParamStore, RunOptions};
use zi_optim::AdamConfig;
use zi_sync::atomic::{AtomicUsize, Ordering};
use zi_tensor::Tensor;
use zi_types::{Device, DeviceKind, Result};

/// Allocations at least this large are counted.
const LARGE: usize = 64 << 10;

/// Steps that size every pool and free list before anything is counted.
const WARM_UP: usize = 2;

/// Large blocks requested so far, by any thread.
static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting requests for large blocks.
struct Counting;

fn count(size: usize) {
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `GlobalAlloc::alloc` obligations pass through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `GlobalAlloc::alloc_zeroed` obligations pass through.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's `GlobalAlloc::realloc` obligations pass through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller's `GlobalAlloc::dealloc` obligations pass through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn large_allocs() -> usize {
    LARGE_ALLOCS.load(Ordering::Relaxed)
}

/// The engine behind a store that counts the large blocks requested
/// while a store call is on the stack — the model's own activations and
/// gradient tensors, allocated between the calls, are not the engine's.
struct Metered {
    engine: ZeroEngine,
    in_fetch: usize,
    in_add_grad: usize,
    fetches: usize,
    deposits: usize,
    /// Device reads issued while a `get` or a prefetch hint was on the
    /// stack.
    fetch_reads: u64,
}

impl Metered {
    fn new(engine: ZeroEngine) -> Self {
        Metered { engine, in_fetch: 0, in_add_grad: 0, fetches: 0, deposits: 0, fetch_reads: 0 }
    }

    fn metered<T>(counter: &mut usize, call: impl FnOnce() -> T) -> T {
        let before = large_allocs();
        let out = call();
        *counter += large_allocs() - before;
        out
    }

    /// Device reads completed so far, counted after a barrier: a prefetch
    /// a call issues is counted by that call, even when it lands after the
    /// call returns.
    fn reads(&self) -> u64 {
        let nvme = self.engine.offload_manager().nvme();
        nvme.barrier().unwrap();
        nvme.stats().reads
    }
}

impl ParamStore for Metered {
    fn get(&mut self, id: ParamId) -> Result<Tensor> {
        self.fetches += 1;
        let reads = self.reads();
        let out = Self::metered(&mut self.in_fetch, || self.engine.get(id));
        self.fetch_reads += self.reads() - reads;
        out
    }

    fn release(&mut self, id: ParamId) -> Result<()> {
        Self::metered(&mut self.in_fetch, || self.engine.release(id))
    }

    fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
        self.deposits += 1;
        Self::metered(&mut self.in_add_grad, || self.engine.add_grad(id, grad))
    }

    fn hint_upcoming(&mut self, ids: &[ParamId]) {
        let reads = self.reads();
        Self::metered(&mut self.in_fetch, || self.engine.hint_upcoming(ids));
        self.fetch_reads += self.reads() - reads;
    }
}

#[test]
fn steady_state_fetch_deposit_and_step_allocate_no_large_block() {
    // Matrices of 48 K to 64 K elements: every one is a large block as
    // f32, and the embedding's fp16 shard and every optimizer chunk are
    // large blocks too.
    let cfg = GptConfig { vocab: 512, hidden: 128, layers: 2, heads: 4, seq: 16, seed: 3 };
    let opts = RunOptions { batch: 1, ..Default::default() };
    // The NVMe strategy twice: with room for the shard cache, then with a
    // CPU pool cut to what the gradients and the rank's staging set need
    // (measured on the first run), where nothing is ever admitted.
    const ROOMY: u64 = 1 << 28;
    let (mut gradients_only, mut staging_set) = (0, 0);
    for (strategy, cached) in [
        (Strategy::infinity_nvme(), true),
        (Strategy::infinity_nvme(), false),
        (Strategy::data_parallel(), false),
    ] {
        let offloaded = strategy.placement.params == DeviceKind::Nvme;
        let cpu = if offloaded && !cached { gradients_only + staging_set } else { ROOMY };
        let tag = format!("{}, CPU pool {cpu} B", strategy.name);
        let spec = NodeMemorySpec::test_spec(1, 1 << 26, cpu, 1 << 28);
        let node = NodeResources::in_memory(&spec, 1);
        let model = GptModel::new(cfg);
        let engine = ZeroEngine::new(
            model.registry(),
            strategy,
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        let mut store = Metered::new(engine);
        let mut in_step = 0;
        let mut warm = node.offload_manager().health();
        for step in 0..WARM_UP + 3 {
            if step == WARM_UP {
                (store.in_fetch, store.in_add_grad, in_step) = (0, 0, 0);
                (store.fetches, store.deposits, store.fetch_reads) = (0, 0, 0);
                warm = node.offload_manager().health();
            }
            let (tokens, targets) = synthetic_batch(&cfg, 1, step);
            let loss = model.train_step(&mut store, &tokens, &targets, &opts).unwrap();
            assert!(loss.is_finite());
            let updated = Metered::metered(&mut in_step, || store.engine.step()).unwrap();
            assert!(updated, "{tag}: step {step} was skipped");
        }
        assert!(store.fetches >= 3 * 50 && store.deposits >= 3 * 28, "the model ran");
        assert_eq!(store.in_fetch, 0, "{tag}: large blocks allocated in get/release");
        assert_eq!(store.in_add_grad, 0, "{tag}: large blocks allocated in add_grad");
        assert_eq!(in_step, 0, "{tag}: large blocks allocated in engine.step()");
        let health = node.offload_manager().health();
        let hits = health.shard_cache_hits - warm.shard_cache_hits;
        assert_eq!(health.shard_cache_evictions, warm.shard_cache_evictions, "{tag}");
        if cached {
            // Every steady-state fetch was answered from the cache: the
            // step's write-through put the fresh shard there.
            assert_eq!(store.fetch_reads, 0, "{tag}: a cached get read the device");
            assert!(hits >= 3 * 50, "{tag}: {hits} hits");
            let cpu = node.hierarchy.stats(Device::cpu());
            gradients_only = cpu.peak_in_use - cpu.in_use; // at rest the cache and the set are charged
            staging_set = store.engine.offload_manager().staging().held_bytes();
        } else if offloaded {
            assert_eq!(hits, 0, "{tag}: no room, yet fetches were answered from the cache");
        }
        store.engine.dispose().unwrap();

        // The same contract outside `GptModel`: a tiled linear whose four
        // weight tiles are 128 KiB each as f32. Every runner hands its
        // gathered tensors back with no live handle, so the tiles cycle
        // through the buffers the warm-up sized.
        let node = NodeResources::in_memory(&NodeMemorySpec::test_spec(1, 1 << 26, ROOMY, 1 << 28), 1);
        let mut reg = ParamRegistry::new();
        let tiled = TiledLinear::register(&mut reg, "wide", 256, 512, 4, 7, 0.1).unwrap();
        let engine = ZeroEngine::new(
            &reg,
            strategy,
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .unwrap();
        let mut store = Metered::new(engine);
        let x = Tensor::randn_seeded(&[4, 256], 11, 0.5);
        let dy = Tensor::randn_seeded(&[4, 512], 12, 0.5);
        for step in 0..WARM_UP + 3 {
            if step == WARM_UP {
                (store.in_fetch, store.in_add_grad, store.fetches) = (0, 0, 0);
            }
            tiled.forward(&mut store, &x).unwrap();
            tiled.backward(&mut store, &x, &dy).unwrap();
            assert!(store.engine.step().unwrap(), "{}: tiled step {step} skipped", strategy.name);
        }
        assert_eq!(store.fetches, 3 * 9, "four tiles forward and backward, one bias");
        assert_eq!(store.in_fetch, 0, "{}: tiled get/release allocated", strategy.name);
        assert_eq!(store.in_add_grad, 0, "{}: tiled add_grad allocated", strategy.name);
        store.engine.dispose().unwrap();
    }
}
