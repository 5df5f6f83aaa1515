//! The shard cache as a layer, by exact count: with no room it is the
//! uncached engine, with room for everything no parameter crosses the
//! device link in steady state, in between it serves exactly the bytes it
//! was granted room for — and in every case the losses are the dense
//! reference's, bit for bit, every steady step moves what the engines'
//! `traffic_plan()`s say, and every pool drains to zero.
//!
//! The budget is the node's CPU pool (there is no option), so each case
//! is a pool size: a roomy run measures what the other CPU tenants (the
//! gradients, and each rank's staging set) need at their peak and how
//! large the fp16 image is, and the cases are cut from those two numbers.

use zi_sync::Arc;

use zero_infinity_suite::model::{GptConfig, GptModel, RunOptions};
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::zero::trainer::synthetic_batch;
use zero_infinity_suite::zero::{NodeResources, Strategy, ZeroEngine};
use zi_memory::{NodeMemorySpec, PlacementPolicy};
use zi_tensor::FlatBuffer;
use zi_types::{DType, Device};

const WARM_UP: usize = 2;
const STEPS: usize = WARM_UP + 3;
const ROOMY: u64 = 1 << 26;

fn cfg() -> GptConfig {
    GptConfig { vocab: 32, hidden: 16, layers: 2, heads: 4, seq: 8, seed: 17 }
}

/// Fetches of a parameter shard per step: the forward's and the
/// backward's — but the position embedding's backward reads no weight.
fn fetches(name: &str) -> u64 {
    if name == "wpe" { 1 } else { 2 }
}

/// What one step added to the node's and the engines' counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Counts {
    reads: u64,
    read_bytes: u64,
    writes: u64,
    write_bytes: u64,
    chunks: u64,
    allgathers: u64,
    /// fp16 bytes of the rank-local shards behind those allgathers: what
    /// the uncached engine reads from the device to serve them.
    fetched_bytes: u64,
    cache_hits: u64,
    cache_bytes: u64,
    evictions: u64,
    /// Device reads the prefetcher started, and demand fetches it had to
    /// start itself.
    prefetch_issued: u64,
    prefetch_misses: u64,
    prefetch_hits: u64,
}

impl Counts {
    fn since(self, earlier: Counts) -> Counts {
        Counts {
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            chunks: self.chunks - earlier.chunks,
            allgathers: self.allgathers - earlier.allgathers,
            fetched_bytes: self.fetched_bytes - earlier.fetched_bytes,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_bytes: self.cache_bytes - earlier.cache_bytes,
            evictions: self.evictions - earlier.evictions,
            prefetch_issued: self.prefetch_issued - earlier.prefetch_issued,
            prefetch_misses: self.prefetch_misses - earlier.prefetch_misses,
            prefetch_hits: self.prefetch_hits - earlier.prefetch_hits,
        }
    }
}

struct Run {
    /// Mean loss per step, as bits.
    losses: Vec<u32>,
    /// The counter deltas of each step after the warm-up.
    steady: Vec<Counts>,
    /// Collective calls over the whole run.
    comm_calls: u64,
    /// Bytes of the whole fp16 parameter image (every rank's shards).
    image: u64,
    /// CPU pool: bytes still charged between steps beside the ranks'
    /// staging sets (the cache), and the run's peak.
    cpu_at_rest: u64,
    cpu_peak: u64,
    /// The node's I/O after construction and after the first forward
    /// and backward.
    first: Vec<zi_nvme::IoStats>,
}

/// `STEPS` steps of `strategy` at `world` ranks over a CPU pool of `cpu`
/// bytes; every engine is disposed and every pool checked empty.
fn run(strategy: Strategy, world: usize, cpu: u64) -> Run {
    let cfg = cfg();
    let spec = NodeMemorySpec::test_spec(world, 1 << 24, cpu, 1 << 26);
    let node = Arc::new(NodeResources::in_memory(&spec, world));
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let node = Arc::clone(&node);
            zi_sync::thread::spawn(move || {
                let model = GptModel::new(cfg);
                let comm = node.group.communicator(rank);
                let mut engine = ZeroEngine::new(
                    model.registry(),
                    strategy,
                    node.offload_manager(),
                    node.group.communicator(rank),
                    AdamConfig { lr: 0.01, ..Default::default() },
                )
                .expect("engine");
                let opts = RunOptions {
                    batch: 1,
                    prefetch_window: strategy.prefetch_window,
                    ..Default::default()
                };
                let rows = cfg.seq;
                // Between the barriers every rank is between phases, and
                // once the device has finished every request issued the
                // node's counters stand still while they are read.
                let settled = |engine: &ZeroEngine| {
                    comm.barrier().expect("barrier");
                    node.nvme.barrier().expect("device barrier");
                    let health = node.offload_manager().health();
                    let at_rest = (health, node.hierarchy.stats(Device::cpu()).in_use, engine.traffic_plan());
                    comm.barrier().expect("barrier");
                    at_rest
                };
                // What construction and the first forward and backward did.
                let mut first = vec![settled(&engine).0.io];
                let mut per_step = Vec::new();
                for step in 0..STEPS {
                    let (tokens, targets) = synthetic_batch(&cfg, world, step);
                    let lo = rank * rows;
                    let loss = model
                        .train_step(&mut engine, &tokens[lo..lo + rows], &targets[lo..lo + rows], &opts)
                        .expect("train step");
                    if step == 0 {
                        first.push(settled(&engine).0.io);
                    }
                    assert!(engine.step().expect("optimizer step"), "step {step} skipped");
                    let mean = comm.sum_scalar(loss).expect("loss") / world as f32;
                    let (health, cpu_at_rest, plan) = settled(&engine);
                    per_step.push((mean.to_bits(), engine.stats(), health, cpu_at_rest, plan));
                }
                let staging = engine.offload_manager().staging().clone();
                engine.dispose().expect("dispose");
                // (v) no staging buffer out.
                assert_eq!(staging.outstanding(), 0);
                (per_step, (first, staging.held_bytes()))
            })
        })
        .collect();
    let (per_rank, first): (Vec<_>, Vec<_>) =
        handles.into_iter().map(|h| h.join().expect("rank thread")).unzip();
    let sets: u64 = first.iter().map(|(_, set)| set).sum();

    let cumulative: Vec<Counts> = (0..STEPS)
        .map(|step| {
            let health = per_rank[0][step].2;
            let engines = || per_rank.iter().map(|steps| steps[step].1);
            Counts {
                reads: health.io.reads,
                read_bytes: health.io.bytes_read,
                writes: health.io.writes,
                write_bytes: health.io.bytes_written,
                chunks: engines().map(|s| s.optimizer_chunks).sum(),
                allgathers: engines().map(|s| s.allgathers).sum(),
                fetched_bytes: engines().map(|s| 2 * s.gathered_elems / world as u64).sum(),
                cache_hits: health.shard_cache_hits,
                cache_bytes: health.shard_cache_bytes,
                evictions: health.shard_cache_evictions,
                prefetch_issued: engines().map(|s| s.prefetch.issued).sum(),
                prefetch_misses: engines().map(|s| s.prefetch.misses).sum(),
                prefetch_hits: engines().map(|s| s.prefetch.hits).sum(),
            }
        })
        .collect();
    // Every steady step moves what the ranks' plans from the step before
    // add up to, in the step's order, with a read of each shard the plan
    // says a fetch reads, per fetch, and one per prefetch no fetch took.
    let names: Vec<_> = GptModel::new(cfg).registry().iter().map(|p| p.name.clone()).collect();
    for s in WARM_UP..STEPS {
        let planned = per_rank.iter().map(|steps| &steps[s - 1].4).fold([0; 4], |[r, rb, w, wb], plan| {
            let fetched = names.iter().zip(&plan.fetch_bytes).map(|(name, &b)| (fetches(name), b));
            let (n, bytes) = fetched.fold((0, 0), |(n, sum), (k, b)| (n + k * u64::from(b > 0), sum + k * b));
            let ((pr, prb), (pw, pwb)) = (plan.reads[s % 2], plan.writes[s % 2]);
            [r + pr + n, rb + prb + bytes, w + pw, wb + pwb]
        });
        let step = cumulative[s].since(cumulative[s - 1]);
        let reads = step.reads + step.prefetch_hits - step.prefetch_issued;
        let measured = [reads, step.read_bytes, step.writes, step.write_bytes];
        let tag = format!("{} (window {}), world {world}, {cpu} B", strategy.name, strategy.prefetch_window);
        assert_eq!(measured, planned, "{tag}: step {s} is not the plan");
    }
    // (v) dispose leaves every pool at zero.
    for device in (0..world).map(Device::gpu).chain([Device::cpu(), Device::nvme()]) {
        assert_eq!(node.hierarchy.stats(device).in_use, 0, "{device} leak after dispose");
    }
    Run {
        losses: per_rank[0].iter().map(|step| step.0).collect(),
        steady: (WARM_UP..STEPS).map(|s| cumulative[s].since(cumulative[s - 1])).collect(),
        comm_calls: node.group.traffic().snapshot().4,
        image: 2 * GptModel::new(cfg).registry().iter().map(|p| padded(p.numel(), world)).sum::<u64>(),
        cpu_at_rest: per_rank[0][STEPS - 1].3 - sets,
        cpu_peak: node.hierarchy.stats(Device::cpu()).peak_in_use,
        first: first[0].0.clone(),
    }
}

/// `numel` rounded up to a multiple of `world`: the elements all ranks'
/// shards of one parameter hold together.
fn padded(numel: usize, world: usize) -> u64 {
    (numel.div_ceil(world) * world) as u64
}

/// Every steady-state step of a run did what the step two before it did
/// — the record order alternates — and here both orders did the same: each
/// rank's optimizer state is one record, which every step keeps.
fn steady(run: &Run) -> Counts {
    let apart = run.steady.iter().zip(&run.steady[2..]).all(|(step, later)| step == later);
    assert!(apart, "steps two apart differ: {:?}", run.steady);
    assert_eq!(run.steady[0], run.steady[1], "the two orders differ");
    run.steady[0]
}

#[test]
fn the_cache_is_a_layer_by_exact_count() {
    for (world, window) in [(1, 0), (1, 2), (2, 0), (2, 2)] {
        let tag = format!("world {world}, prefetch window {window}");
        let nvme = Strategy::infinity_nvme().with_prefetch_window(window);
        let dense = run(Strategy::data_parallel(), world, ROOMY);
        // (iii) Room for everything: in steady state nothing crosses the
        // device link — no parameter, and no optimizer record: each rank's
        // one record is kept, unwritten, for the next step — every fetch
        // is a hit, nothing is prefetched or evicted.
        let all = run(nvme, world, ROOMY);
        assert_eq!(all.losses, dense.losses, "{tag}: losses with the whole image cached");
        let hit = steady(&all);
        assert_eq!((hit.reads, hit.read_bytes), (0, 0), "{tag}");
        assert_eq!((hit.writes, hit.write_bytes), (0, 0), "{tag}");
        assert_eq!((hit.cache_hits, hit.cache_bytes), (hit.allgathers, hit.fetched_bytes), "{tag}");
        assert_eq!((hit.evictions, hit.prefetch_issued, hit.prefetch_misses), (0, 0, 0), "{tag}");
        assert_eq!(all.cpu_at_rest, all.image, "{tag}: the cache is the image, once");
        // Construction writes each record once, the image into the cache:
        // the first forward and backward read nothing.
        let (built, first_pass) = (all.first[0], all.first[1]);
        assert_eq!((built.writes, built.bytes_written), (hit.chunks, 6 * all.image), "{tag}");
        assert_eq!((built.reads, first_pass.reads), (0, 0), "{tag}");
        // What the other CPU tenants need at their peak.
        let firm = all.cpu_peak - all.image;

        // (i) No room beyond the gradients: the uncached engine. Every
        // fetch is a device read of the rank's shard (as is every hinted
        // shard nobody then fetches), the only reads, and every publish is
        // written through to the device; chunks and collectives are what
        // they are with a cache. Every parameter read is one the
        // prefetcher issued or one a demand fetch missed, whatever the
        // window.
        let none = run(nvme, world, firm);
        assert_eq!(none.losses, dense.losses, "{tag}: losses with nothing cached");
        let miss = steady(&none);
        let fetch_reads = miss.reads;
        assert_eq!(fetch_reads, miss.prefetch_issued + miss.prefetch_misses, "{tag}");
        if window == 0 {
            assert_eq!(miss.prefetch_issued, 0, "{tag}: window 0 prefetches nothing");
        }
        assert!(fetch_reads >= miss.allgathers, "{tag}");
        if fetch_reads == miss.allgathers {
            assert_eq!(miss.read_bytes, miss.fetched_bytes, "{tag}");
        }
        assert_eq!((miss.cache_hits, miss.cache_bytes, miss.evictions), (0, 0, 0), "{tag}");
        assert_eq!((none.cpu_at_rest, none.cpu_peak), (0, firm), "{tag}");
        assert_eq!(miss.write_bytes, none.image, "{tag}: the image alone, the records kept");
        let rest = |c: Counts| (c.chunks, c.allgathers, c.fetched_bytes);
        assert_eq!(rest(miss), rest(hit), "{tag}: the cache changed more than device traffic");
        assert_eq!(none.comm_calls, all.comm_calls, "{tag}");

        // (ii) Room for about half the image: what is admitted stays (no
        // eviction after the warm-up), the device serves exactly the
        // fetches the cache does not, and takes exactly the publishes it
        // has no room for.
        let half = run(nvme, world, firm + all.image / 2);
        assert_eq!(half.losses, dense.losses, "{tag}: losses with half the image cached");
        assert!(half.cpu_at_rest > 0 && half.cpu_at_rest <= all.image / 2, "{tag}");
        assert!(half.cpu_peak <= firm + all.image / 2, "{tag}");
        assert_eq!(half.comm_calls, all.comm_calls, "{tag}");
        for step in &half.steady {
            assert_eq!(step.evictions, 0, "{tag}: the cache thrashes");
            assert!(step.cache_bytes > 0 && step.read_bytes > hit.read_bytes, "{tag}");
            assert!(step.read_bytes < miss.read_bytes, "{tag}");
            assert_eq!(rest(*step), rest(hit), "{tag}");
            assert_eq!(step.write_bytes + half.cpu_at_rest, miss.write_bytes, "{tag}");
            if window == 0 {
                assert_eq!(step.read_bytes + step.cache_bytes, miss.read_bytes, "{tag}");
                assert_eq!(step.reads + step.cache_hits, miss.reads, "{tag}");
            }
        }
    }
}

/// (iv) A CPU tenant that needs the cache's room gets it by eviction,
/// never `Error::OutOfMemory` — here an optimizer-sized store arriving
/// between steps, when the cache holds the whole image, every entry dirty:
/// the store writes each back first, and training goes on as if the
/// tenant had never come.
#[test]
fn a_cpu_store_that_needs_the_caches_room_evicts_it() {
    let cfg = cfg();
    let model = GptModel::new(cfg);
    let image: u64 = 2 * model.registry().iter().map(|p| p.numel() as u64).sum::<u64>();
    let grads = 2 * image;
    // Room for the gradients, the image and the staging set, and nothing
    // else.
    let set = {
        let roomy = NodeResources::in_memory(&NodeMemorySpec::test_spec(1, 1 << 24, 1 << 26, 1 << 26), 1);
        let (mgr, comm) = (roomy.offload_manager(), roomy.group.communicator(0));
        let probe = ZeroEngine::new(model.registry(), Strategy::infinity_nvme(), mgr, comm, AdamConfig::default());
        probe.expect("probe engine").offload_manager().staging().held_bytes()
    };
    let spec = NodeMemorySpec::test_spec(1, 1 << 24, grads + image + set, 1 << 26);
    let opts = RunOptions { batch: 1, ..Default::default() };
    let train = |engine: &mut ZeroEngine, step: usize| {
        let (tokens, targets) = synthetic_batch(&cfg, 1, step);
        let loss = model.train_step(engine, &tokens, &targets, &opts).expect("train step");
        assert!(engine.step().expect("optimizer step"));
        loss.to_bits()
    };
    // Four steps, `between` run after the second: the losses, the node's
    // health and what the cache held at the end.
    let four_steps = |between: &dyn Fn(&NodeResources)| {
        let node = NodeResources::in_memory(&spec, 1);
        let mut engine = ZeroEngine::new(
            model.registry(),
            Strategy::infinity_nvme(),
            node.offload_manager(),
            node.group.communicator(0),
            AdamConfig::default(),
        )
        .expect("engine");
        let mut losses: Vec<u32> = (0..2).map(|step| train(&mut engine, step)).collect();
        between(&node);
        losses.extend((2..4).map(|step| train(&mut engine, step)));
        let health = node.offload_manager().health();
        let cached = node.hierarchy.stats(Device::cpu()).in_use - set;
        assert_eq!(health.corruptions_recovered + health.corruptions_unrecovered, 0);
        let staging = engine.offload_manager().staging().clone();
        engine.dispose().expect("dispose");
        assert_eq!(staging.outstanding(), 0);
        drop(staging);
        assert_eq!(node.hierarchy.stats(Device::cpu()).in_use, 0);
        (losses, health, cached)
    };
    let evicted = std::cell::Cell::new(0);
    let tenant_arrives = |node: &NodeResources| {
        let mgr = node.offload_manager();
        let cpu = || node.hierarchy.stats(Device::cpu()).in_use - set;
        assert_eq!((cpu(), mgr.health().shard_cache_evictions), (image, 0), "the image is cached");
        node.nvme.barrier().expect("device barrier");
        let before = node.nvme.stats();
        // A tenant as large as the gradients plus half the image.
        let tenant = FlatBuffer::zeros(DType::F32, ((grads + image / 2) / 4) as usize);
        let tenant = mgr
            .store_placed(Device::cpu(), &PlacementPolicy::all_nvme(), tenant)
            .expect("a store that fits without the cache must fit with it");
        let health = mgr.health();
        evicted.set(health.shard_cache_evictions);
        let evicted = evicted.get();
        assert!(evicted > 0 && cpu() == grads + image / 2, "evicted {evicted}, in use {}", cpu());
        // Each evicted entry was dirty: one write of its bytes apiece.
        let after = node.nvme.stats();
        let written = (after.writes - before.writes, after.bytes_written - before.bytes_written);
        assert_eq!((health.shard_cache_write_backs, written), (evicted, (evicted, image)));
        // Training goes on beside it — gradients no longer fit, so the
        // tenant leaves first — and the cache refills with what now fits.
        mgr.free_placed(tenant);
    };
    let (with_tenant, health, cached) = four_steps(&tenant_arrives);
    assert_eq!(health.shard_cache_evictions, evicted.get(), "a returning tenant evicts nothing");
    assert!(cached > 0 && cached <= image / 2, "cached at rest: {cached}");
    assert_eq!(with_tenant, four_steps(&|_| {}).0, "the tenant changed the losses");
}
