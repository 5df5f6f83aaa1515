//! The paper's regime in miniature: a CPU pool smaller than the model
//! states, so the optimizer records stream through the device while the
//! host write-back cache — parameter images in free room, the records a
//! step keeps in its staging set — holds what fits.
//!
//! Each pool is cut from a roomy run's measured tenants: its peak, the
//! fp16 image the shard cache holds at rest and the ranks' staging sets.
//! At every pool and world the losses are the roomy run's bit for bit,
//! the CPU peak stays inside the pool, steady steps evict nothing, and
//! each step's device traffic is what the ranks' `traffic_plan()`s say and
//! a closed form of the record layout: the records not kept, once each way,
//! plus a read per fetch and one write of every shard the cache lacks.

use zi_sync::Arc;

use zero_infinity_suite::model::{GptConfig, GptModel, RunOptions};
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::zero::trainer::synthetic_batch;
use zero_infinity_suite::zero::{NodeEnv, NodeResources, Strategy, ZeroEngine};
use zi_memory::{NodeMemorySpec, PlacementPolicy};
use zi_tensor::FlatBuffer;
use zi_types::{DType, Device};

/// Elements per optimizer record.
const CHUNK: usize = 16;
/// Records a step keeps: one device worker makes the pipeline one record
/// deep with a write-behind window of two.
const KEPT: usize = 1 + 2;
/// Fetches of a parameter shard per step: the forward's and the
/// backward's — but the position embedding's backward reads no weight.
fn fetches(name: &str) -> u64 {
    if name == "wpe" { 1 } else { 2 }
}
/// Steps before the measured ones: the first reads every record, and
/// the first backward settles the cache beside the gradients.
const WARM_UP: usize = 2;
/// Measured steps: both record orders twice.
const MEASURED: usize = 4;
const ROOMY: u64 = 1 << 26;

/// `tests/shard_cache.rs`'s model: 7 232 parameters.
fn cfg() -> GptConfig {
    GptConfig { vocab: 32, hidden: 16, layers: 2, heads: 4, seq: 8, seed: 17 }
}

fn strategy() -> Strategy {
    Strategy::infinity_nvme().with_optimizer_chunk(CHUNK).with_prefetch_window(0)
}

/// One rank's optimizer records, as the engine lays them out: each
/// parameter of at least a record in a buffer of its own, every shorter
/// one packed into one buffer at its first member's place, in records of
/// `CHUNK` elements (a pack shorter than that is one record).
struct Layout {
    /// Bytes of each record (master, momentum and variance), ascending.
    records: Vec<u64>,
    /// Publish pieces of each parameter: the records its range meets.
    pieces: Vec<u64>,
}

impl Layout {
    fn of(cfg: GptConfig, world: usize) -> Layout {
        let lens: Vec<usize> =
            GptModel::new(cfg).registry().iter().map(|p| p.numel().div_ceil(world)).collect();
        let packed: usize = lens.iter().filter(|&&len| len < CHUNK).sum();
        let pack_per = CHUNK.min(packed);
        let bytes = |elems: usize| (3 * 4 * elems) as u64;
        let (mut records, mut pieces, mut pack_at) = (Vec::new(), Vec::new(), None);
        for &len in &lens {
            if len >= CHUNK {
                records.extend((0..len).step_by(CHUNK).map(|at| bytes(CHUNK.min(len - at))));
                pieces.push(len.div_ceil(CHUNK) as u64);
                continue;
            }
            let at = *pack_at.get_or_insert_with(|| {
                records.extend((0..packed).step_by(pack_per).map(|at| bytes(pack_per.min(packed - at))));
                0
            });
            pieces.push(((at + len - 1) / pack_per - at / pack_per + 1) as u64);
            pack_at = Some(at + len);
        }
        Layout { records, pieces }
    }

    /// Bytes of the records a step in the given order keeps: the last
    /// `KEPT` it reaches.
    fn kept_bytes(&self, descending: bool) -> u64 {
        let n = self.records.len();
        let kept = if descending { &self.records[..KEPT] } else { &self.records[n - KEPT..] };
        kept.iter().sum()
    }
}

/// What one step did, node-wide.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Step {
    reads: u64,
    read_bytes: u64,
    writes: u64,
    write_bytes: u64,
    fetches: u64,
    hits: u64,
    hit_bytes: u64,
    evictions: u64,
    /// The ranks' plans added up: reads, read bytes, writes, write bytes.
    planned: [u64; 4],
}

struct Run {
    losses: Vec<u32>,
    /// The measured steps.
    steps: Vec<Step>,
    /// Bytes the shard cache held after the last step.
    cached: u64,
    cpu_peak: u64,
    /// Bytes of the ranks' staging sets, together.
    sets: u64,
    /// fp16 bytes of every rank's parameter shards.
    image: u64,
}

/// `WARM_UP + MEASURED` steps at `world` ranks over a CPU pool of `cpu`
/// bytes, with a CPU tenant of `tenant` bytes stored and freed after the
/// warm-up; every engine disposed and every pool checked empty.
fn run(world: usize, cpu: u64, tenant: Option<u64>) -> Run {
    let cfg = cfg();
    let spec = NodeMemorySpec::test_spec(world, 1 << 24, cpu, 1 << 26);
    let env = NodeEnv { nvme_workers: 1, ..NodeEnv::in_memory() };
    let node = Arc::new(NodeResources::new(&spec, world, env));
    let handles: Vec<_> = (0..world)
        .map(|rank| {
            let node = Arc::clone(&node);
            zi_sync::thread::spawn(move || {
                let model = GptModel::new(cfg);
                let comm = node.group.communicator(rank);
                let adam = AdamConfig { lr: 0.01, ..Default::default() };
                let mgr = node.offload_manager();
                let peer = node.group.communicator(rank);
                let mut engine = ZeroEngine::new(model.registry(), strategy(), mgr, peer, adam)
                    .expect("engine");
                let opts = RunOptions { batch: 1, prefetch_window: 0, ..Default::default() };
                let rows = cfg.seq;
                // Between the barriers every rank is between steps and the
                // device has finished every request.
                let settled = |engine: &ZeroEngine| {
                    comm.barrier().expect("barrier");
                    node.nvme.barrier().expect("device barrier");
                    let health = node.offload_manager().health();
                    let at_rest = (health, node.hierarchy.stats(Device::cpu()).in_use, engine.traffic_plan());
                    comm.barrier().expect("barrier");
                    at_rest
                };
                let mut per_step = vec![(0, engine.stats(), settled(&engine))];
                for step in 0..WARM_UP + MEASURED {
                    let (tokens, targets) = synthetic_batch(&cfg, world, step);
                    let lo = rank * rows;
                    let loss = model
                        .train_step(&mut engine, &tokens[lo..lo + rows], &targets[lo..lo + rows], &opts)
                        .expect("train step");
                    assert!(engine.step().expect("optimizer step"), "step {step} skipped");
                    if let (Some(bytes), true) = (tenant, step + 1 == WARM_UP) {
                        comm.barrier().expect("barrier");
                        if rank == 0 {
                            let mgr = node.offload_manager();
                            let zeros = FlatBuffer::zeros(DType::F32, bytes as usize / 4);
                            let all_nvme = PlacementPolicy::all_nvme();
                            mgr.free_placed(mgr.store_placed(Device::cpu(), &all_nvme, zeros).expect("tenant"));
                        }
                    }
                    let mean = comm.sum_scalar(loss).expect("loss") / world as f32;
                    per_step.push((mean.to_bits(), engine.stats(), settled(&engine)));
                }
                let staging = engine.offload_manager().staging().clone();
                engine.dispose().expect("dispose");
                assert_eq!(staging.outstanding(), 0, "a staging buffer is checked out");
                (per_step, staging.held_bytes())
            })
        })
        .collect();
    let ranks: Vec<_> = handles.into_iter().map(|h| h.join().expect("rank thread")).collect();
    for device in (0..world).map(Device::gpu).chain([Device::cpu(), Device::nvme()]) {
        assert_eq!(node.hierarchy.stats(device).in_use, 0, "{device} leak after dispose");
    }
    let sets = ranks.iter().map(|(_, set)| set).sum::<u64>();
    let names: Vec<_> = GptModel::new(cfg).registry().iter().map(|p| p.name.clone()).collect();
    let step = |s: usize| {
        let (before, after) = (&ranks[0].0[s].2 .0, &ranks[0].0[s + 1].2 .0);
        // Each rank's plan at the step's start, in the step's order, and
        // its fetches: a read of each shard the plan says a fetch reads.
        let planned = ranks.iter().map(|(steps, ..)| &steps[s].2 .2).fold([0; 4], |[r, rb, w, wb], plan| {
            let fetched = names.iter().zip(&plan.fetch_bytes).map(|(name, &b)| (fetches(name), b));
            let (n, bytes) = fetched.fold((0, 0), |(n, sum), (k, b)| (n + k * u64::from(b > 0), sum + k * b));
            let ((pr, prb), (pw, pwb)) = (plan.reads[s % 2], plan.writes[s % 2]);
            [r + pr + n, rb + prb + bytes, w + pw, wb + pwb]
        });
        let fetches = |s: usize| ranks.iter().map(|(steps, ..)| steps[s].1.allgathers).sum::<u64>();
        Step {
            reads: after.io.reads - before.io.reads,
            read_bytes: after.io.bytes_read - before.io.bytes_read,
            writes: after.io.writes - before.io.writes,
            write_bytes: after.io.bytes_written - before.io.bytes_written,
            fetches: fetches(s + 1) - fetches(s),
            hits: after.shard_cache_hits - before.shard_cache_hits,
            hit_bytes: after.shard_cache_bytes - before.shard_cache_bytes,
            evictions: after.shard_cache_evictions - before.shard_cache_evictions,
            planned,
        }
    };
    let params = GptModel::new(cfg).registry().iter().map(|p| padded(p.numel(), world)).sum::<u64>();
    Run {
        losses: ranks[0].0[1..].iter().map(|(loss, ..)| *loss).collect(),
        steps: (WARM_UP..WARM_UP + MEASURED).map(step).collect(),
        cached: ranks[0].0[WARM_UP + MEASURED].2 .1 - sets,
        cpu_peak: node.hierarchy.stats(Device::cpu()).peak_in_use,
        sets,
        image: 2 * params,
    }
}

/// `numel` rounded up to a multiple of `world`: the elements all ranks'
/// shards of one parameter hold together.
fn padded(numel: usize, world: usize) -> u64 {
    (numel.div_ceil(world) * world) as u64
}

#[test]
fn a_cpu_pool_below_the_model_states_trains_bit_identically_by_closed_form() {
    let cfg = cfg();
    let params = GptModel::new(cfg).registry().iter().map(|p| p.numel() as u64).sum::<u64>();
    for world in [1, 2] {
        let roomy = run(world, ROOMY, None);
        let layout = Layout::of(cfg, world);
        let (w, records) = (world as u64, layout.records.len() as u64);
        let total: u64 = layout.records.iter().sum();
        // The roomy run holds the whole image at rest; its other tenants
        // are the gradients (4 B per parameter shard element) and the sets.
        assert_eq!(roomy.cached, roomy.image, "world {world}: the image is cached at rest");
        let grads = 2 * roomy.image;
        assert_eq!(roomy.cpu_peak, grads + roomy.sets + roomy.image, "world {world}: the tenants");
        let pools = [
            ("peak - image", roomy.cpu_peak - roomy.image),
            ("peak - image/2", roomy.cpu_peak - roomy.image / 2),
            ("gradients + sets + image/2", grads + roomy.sets + roomy.image / 2),
        ];
        for (name, pool) in pools {
            let tag = format!("world {world}, pool {name} ({pool} B)");
            // Below the optimizer state's 12 B per parameter.
            assert!(pool < 12 * params, "{tag}");
            let tight = run(world, pool, None);
            assert_eq!(tight.losses, roomy.losses, "{tag}: losses");
            assert!(tight.cpu_peak <= pool, "{tag}: peak {} B", tight.cpu_peak);
            // What the fetches of a step read, all from the device without
            // a cache: every rank's fp16 shard, once per fetch.
            let registry = GptModel::new(cfg);
            let registry = registry.registry();
            let fetched: u64 = registry.iter().map(|p| fetches(&p.name) * 2 * padded(p.numel(), world)).sum();
            let fetch_calls: u64 = w * registry.iter().map(|p| fetches(&p.name)).sum::<u64>();
            if name == "peak - image" {
                assert_eq!(tight.cached, 0, "{tag}: no room beside the other tenants");
            }
            for (k, step) in tight.steps.iter().enumerate() {
                // The first measured step is ascending; it takes what the
                // descending one before it kept.
                let descending = k % 2 == 1;
                let tag = format!("{tag}, measured step {k}");
                assert_eq!(step.evictions, 0, "{tag}: a steady step evicted");
                let measured = [step.reads, step.read_bytes, step.writes, step.write_bytes];
                assert_eq!(measured, step.planned, "{tag}: not the plan");
                assert_eq!(step.fetches, fetch_calls, "{tag}: fetches");
                // Every fetch the cache does not serve is one device read
                // of the rank's shard; a cached shard serves each of its
                // fetches.
                assert!(step.hit_bytes <= 2 * tight.cached && step.hit_bytes >= tight.cached, "{tag}");
                let unkept = w * (records - KEPT as u64);
                let reads = unkept + step.fetches - step.hits;
                let read_bytes = w * (total - layout.kept_bytes(!descending)) + fetched - step.hit_bytes;
                assert_eq!((step.reads, step.read_bytes), (reads, read_bytes), "{tag}: reads");
                // Every record not kept is written once, and every piece
                // of a publish the cache holds no image for.
                let write_bytes = w * (total - layout.kept_bytes(descending)) + tight.image - tight.cached;
                assert_eq!(step.write_bytes, write_bytes, "{tag}: write bytes");
                let pieces = w * layout.pieces.iter().sum::<u64>();
                if tight.cached == 0 {
                    assert_eq!(step.writes, unkept + pieces, "{tag}: writes");
                } else {
                    assert!(step.writes > unkept && step.writes < unkept + pieces, "{tag}: writes");
                }
            }
            // Steps of one order move the same bytes.
            assert_eq!(tight.steps[0], tight.steps[2], "{tag}: ascending steps differ");
            assert_eq!(tight.steps[1], tight.steps[3], "{tag}: descending steps differ");
        }
    }
}

#[test]
fn a_cache_emptied_by_a_passing_tenant_refills_by_admission() {
    // The pool holds every tenant at its peak and the whole image. Between
    // two steps a CPU tenant as large as the gradients and half the image
    // comes and goes: it evicts every image, writing each back, and the
    // cache keeps out of its room from then on, leaving half the image.
    // The next forward's fetches all miss, and each shard that still fits
    // is admitted, first fit in fetch order — the registry's — so its
    // later fetches that step hit. The step's publishes keep exactly those.
    let cfg = cfg();
    let roomy = run(1, ROOMY, None);
    let (grads, half) = (2 * roomy.image, roomy.image / 2);
    let passed = run(1, roomy.cpu_peak, Some(grads + half));
    assert_eq!(passed.losses, roomy.losses, "losses");
    assert!(passed.cpu_peak <= roomy.cpu_peak);
    let model = GptModel::new(cfg);
    let (mut admitted, mut hits, mut hit_bytes) = (0, 0, 0);
    for p in model.registry().iter() {
        let bytes = 2 * p.numel() as u64;
        if admitted + bytes <= half {
            admitted += bytes;
            hits += fetches(&p.name) - 1;
            hit_bytes += (fetches(&p.name) - 1) * bytes;
        }
    }
    let step = passed.steps[0];
    assert_eq!((step.hits, step.hit_bytes, step.evictions), (hits, hit_bytes, 0), "admissions");
    assert_eq!(passed.cached, admitted, "the admitted images stay");
}
