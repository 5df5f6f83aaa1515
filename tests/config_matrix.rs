//! Configuration-matrix oracle: a seeded sample of cells over the
//! engine's configuration axes — every Table-2 strategy, CPU pool, the
//! device's worker count (which is the optimizer step's pipeline depth),
//! prefetch window, gradient accumulation, activation checkpointing,
//! world size 1, 2 or 3 and a checkpoint round trip between steps — each
//! training the tiny GPT for four steps in records of 16 elements, so a
//! step streams many records and reads run ahead of updates, and each of
//! the two record orders runs twice, the second time from the records the
//! step before kept (the round trip drops them). World 3 is
//! where the gradient average is a true divide (by 3, or 6 with
//! accumulation: no power of two) and where parameter shards are padded
//! unevenly. The axes that
//! only move bytes (strategy, pool, workers, window, the round trip) must
//! not move a bit: every cell's losses and final parameters equal, bit
//! for bit, the dense single-process baseline's numerics at its world,
//! accumulation and checkpointing, and a healthy device reports no
//! corruption and no shard-cache anomaly. Each rank stages through a
//! fixed set of its own: from the first two steps on it allocates no
//! staging buffer, and no acquisition of it waits. In the last two steps
//! the device traffic is what the ranks' `traffic_plan()`s add up to, as
//! exact integers, and nothing is evicted.

use std::fmt;

use zi_sync::Arc;

use zero_infinity_suite::model::{GptConfig, GptModel, ParamId, ParamStore, RunOptions};
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::zero::trainer::{synthetic_batch, train_dense_baseline};
use zero_infinity_suite::zero::{NodeEnv, NodeResources, OffloadHealth, Strategy, ZeroEngine};
use zi_memory::NodeMemorySpec;
use zi_tensor::Tensor;
use zi_types::{Device, DeviceKind, Result};

/// The sample's seed: fixed here, so every run checks the same cells.
const SEED: u64 = 0x0c0f_f1ce_5eed_0038;
/// Cells checked per run: every strategy × world × worker count once.
const CELLS: usize = 63;
/// Elements per optimizer record: the GPT's 1 920 parameters stream as
/// about 120 records a step at world 1, across parameter boundaries.
const RECORD: usize = 16;
const STEPS: usize = 4;
const MICRO_BATCH: usize = 2;

fn cfg() -> GptConfig {
    GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 23 }
}

fn adam() -> AdamConfig {
    AdamConfig { lr: 0.01, ..Default::default() }
}

/// One point of the matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Position in `Strategy::table2()`.
    strategy: usize,
    /// A CPU pool with room for what the strategy keeps there, the
    /// gradients and the ranks' staging sets, and nothing for the shard
    /// cache; else a roomy one.
    /// Strategies that keep nothing in CPU memory always get the roomy one.
    tight: bool,
    /// Device workers, and so the optimizer step's pipeline depth.
    workers: usize,
    /// Prefetch look-ahead, in the strategy and the run options alike.
    window: usize,
    accumulation: usize,
    checkpointing: bool,
    world: usize,
    /// `save_state` → `load_state` on the same engine after step 1, which
    /// drops the records that step kept.
    round_trip: bool,
}

impl Cell {
    fn strategy(&self) -> Strategy {
        Strategy::table2()[self.strategy].with_f32_params()
    }
}

/// Whether `strategy` keeps state in CPU memory, so that a tight pool
/// means something to it.
fn uses_cpu(strategy: &Strategy) -> bool {
    let placement = strategy.placement;
    [placement.params, placement.grads, placement.optimizer].contains(&DeviceKind::Cpu)
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pool={} workers={} window={} accumulation={} checkpointing={} world={} \
             round_trip={}",
            self.strategy().name,
            if self.tight { "gradients-only" } else { "roomy" },
            self.workers,
            self.window,
            self.accumulation,
            self.checkpointing,
            self.world,
            self.round_trip,
        )
    }
}

/// `CELLS` cells: every strategy × world × worker count, in that order,
/// the pool, prefetch window, accumulation, checkpointing and round trip
/// drawn with a xorshift generator from `seed`.
fn sample(seed: u64) -> Vec<Cell> {
    let mut state = seed;
    let mut coin = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state & 1 == 1
    };
    let strategies = Strategy::table2();
    (0..CELLS)
        .map(|i| Cell {
            strategy: i % strategies.len(),
            world: 1 + (i / strategies.len()) % 3,
            workers: [1, 2, 4][(i / (3 * strategies.len())) % 3],
            tight: coin() && uses_cpu(&strategies[i % strategies.len()]),
            window: if coin() { 2 } else { 0 },
            accumulation: 1 + usize::from(coin()),
            checkpointing: coin(),
            round_trip: coin(),
        })
        .collect()
}

/// One step's device reads, read bytes, writes, write bytes and cache
/// evictions, measured node-wide and as planned.
type Traffic = ([u64; 5], [u64; 5]);

/// What a run leaves: losses and final parameters as bits, the node's
/// health, and the last two steps' traffic.
struct Trained {
    losses: Vec<u32>,
    params: Vec<Vec<u32>>,
    health: OffloadHealth,
    traffic: Vec<Traffic>,
}

/// The engine, counting each parameter's fetches: a `get` no module holds.
struct Counted<'a> {
    engine: &'a mut ZeroEngine,
    held: Vec<usize>,
    fetches: Vec<u64>,
}

impl ParamStore for Counted<'_> {
    fn get(&mut self, id: ParamId) -> Result<Tensor> {
        self.fetches[id.0] += u64::from(self.held[id.0] == 0);
        self.held[id.0] += 1;
        self.engine.get(id)
    }
    fn release(&mut self, id: ParamId) -> Result<()> {
        self.held[id.0] -= 1;
        self.engine.release(id)
    }
    fn add_grad(&mut self, id: ParamId, grad: &Tensor) -> Result<()> {
        self.engine.add_grad(id, grad)
    }
    fn hint_upcoming(&mut self, ids: &[ParamId]) {
        self.engine.hint_upcoming(ids)
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Bytes of CPU pool the cell's strategy keeps there, which leave the
/// shard cache no room: every rank's fp32 gradient shard, each state the
/// strategy places in CPU memory — fp32 parameter shards, optimizer
/// state — and every rank's staging set too.
fn tight_pool(cell: &Cell) -> u64 {
    let model = GptModel::new(cfg());
    let padded = model.registry().iter().map(|p| p.numel().div_ceil(cell.world) * cell.world);
    let padded = padded.sum::<usize>() as u64;
    let placement = cell.strategy().placement;
    let on_cpu = |device: DeviceKind, bytes: u64| if device == DeviceKind::Cpu { bytes } else { 0 };
    let per_elem = 4 + on_cpu(placement.params, 4) + on_cpu(placement.optimizer, 12);
    // A rank's set, as a probe engine on a roomy node sizes it.
    let roomy = NodeMemorySpec::test_spec(cell.world, 1 << 24, 1 << 26, 1 << 26);
    let env = NodeEnv { nvme_workers: cell.workers, ..NodeEnv::in_memory() };
    let node = NodeResources::new(&roomy, cell.world, env);
    let strategy = cell.strategy().with_optimizer_chunk(RECORD).with_prefetch_window(cell.window);
    let (mgr, comm) = (node.offload_manager(), node.group.communicator(0));
    let probe = ZeroEngine::new(model.registry(), strategy, mgr, comm, adam()).expect("probe engine");
    let set = probe.offload_manager().staging().held_bytes();
    per_elem * padded + cell.world as u64 * set
}

/// Train `cell` under `strategy` as the trainer does — each rank on its
/// slice of each micro-batch, one optimizer step per `accumulation`
/// micro-batches — on one node over an in-memory device.
fn train(cell: Cell, strategy: Strategy) -> Trained {
    let cpu = if cell.tight { tight_pool(&cell) } else { 1 << 26 };
    let spec = NodeMemorySpec::test_spec(cell.world, 1 << 24, cpu, 1 << 26);
    let env = NodeEnv { nvme_workers: cell.workers, ..NodeEnv::in_memory() };
    let node = Arc::new(NodeResources::new(&spec, cell.world, env));
    let strategy = strategy.with_optimizer_chunk(RECORD).with_prefetch_window(cell.window);
    let handles: Vec<_> = (0..cell.world)
        .map(|rank| {
            let node = Arc::clone(&node);
            zi_sync::thread::spawn(move || -> (Vec<f32>, Vec<Vec<u32>>, Vec<Traffic>) {
                let model = GptModel::new(cfg());
                let (comm, mgr) = (node.group.communicator(rank), node.offload_manager());
                let mut engine =
                    ZeroEngine::new(model.registry(), strategy, mgr, comm, adam())
                        .unwrap_or_else(|e| panic!("{cell}: engine: {e}"));
                engine.set_grad_accumulation(cell.accumulation);
                let opts = RunOptions {
                    batch: MICRO_BATCH,
                    activation_checkpointing: cell.checkpointing,
                    prefetch_window: cell.window,
                };
                let rows = MICRO_BATCH * cfg().seq;
                let mut losses = Vec::with_capacity(STEPS);
                // The staging buffers this rank's set has allocated once
                // warm.
                let mut warm = None;
                // The node's counters and the rank's plan, read while every
                // rank is between steps and the device is idle.
                let comm = node.group.communicator(rank);
                let settled = |engine: &ZeroEngine| {
                    comm.barrier().expect("barrier");
                    node.nvme.barrier().expect("device barrier");
                    let h = node.offload_manager().health();
                    let io = [h.io.reads, h.io.bytes_read, h.io.writes, h.io.bytes_written, h.shard_cache_evictions];
                    let plan = engine.traffic_plan();
                    comm.barrier().expect("barrier");
                    (io, plan)
                };
                let mut traffic = Vec::new();
                for step in 0..STEPS {
                    let ((at_start, plan), prefetched) = (settled(&engine), engine.stats().prefetch);
                    let n = model.registry().len();
                    let mut counted = Counted { engine: &mut engine, held: vec![0; n], fetches: vec![0; n] };
                    let mut loss = 0.0f32;
                    for micro in 0..cell.accumulation {
                        let data_step = step * cell.accumulation + micro;
                        let (tokens, targets) =
                            synthetic_batch(&cfg(), cell.world * MICRO_BATCH, data_step);
                        let (lo, hi) = (rank * rows, (rank + 1) * rows);
                        loss += model
                            .train_step(&mut counted, &tokens[lo..hi], &targets[lo..hi], &opts)
                            .unwrap_or_else(|e| panic!("{cell}: step {step}: {e}"));
                    }
                    // Every fetch the plan says reads reads once, and each
                    // prefetch no fetch took is one more read.
                    let fetches = counted.fetches.iter().zip(&plan.fetch_bytes);
                    let (n, bytes) = fetches.fold((0, 0), |(n, sum), (&k, &b)| (n + k * u64::from(b > 0), sum + k * b));
                    let wasted = engine.stats().prefetch.issued - prefetched.issued - (engine.stats().prefetch.hits - prefetched.hits);
                    assert!(engine.step().unwrap_or_else(|e| panic!("{cell}: step {step}: {e}")));
                    let ((reads, read_bytes), (writes, write_bytes)) = (plan.reads[step % 2], plan.writes[step % 2]);
                    if step + 2 >= STEPS {
                        let at_end = settled(&engine).0;
                        let measured = std::array::from_fn(|i| at_end[i] - at_start[i]);
                        traffic.push((measured, [reads + n + wasted, read_bytes + bytes, writes, write_bytes, 0]));
                    }
                    let loss = loss / cell.accumulation as f32;
                    // The mean over ranks, as the trainer takes it.
                    let sum = node.group.communicator(rank).sum_scalar(loss).expect("loss");
                    losses.push(sum / cell.world as f32);
                    if step == 1 {
                        // Warm: both orders ran once.
                        warm = Some(engine.offload_manager().staging().stats().allocated);
                    }
                    if cell.round_trip && step == 0 {
                        let blob =
                            engine.save_state().unwrap_or_else(|e| panic!("{cell}: save: {e}"));
                        engine.load_state(&blob).unwrap_or_else(|e| panic!("{cell}: load: {e}"));
                    }
                }
                let ids: Vec<_> = model.registry().iter().map(|m| m.id).collect();
                let params = ids
                    .into_iter()
                    .map(|id| bits(engine.export_param(id).expect("export").data()))
                    .collect();
                let staging = engine.offload_manager().staging().stats();
                let grew = format!("{cell}: rank {rank}: staging allocated after the warm-up");
                assert_eq!(Some(staging.allocated), warm, "{grew}");
                assert_eq!(staging.waits, 0, "{cell}: rank {rank}: a staging acquisition waited");
                engine.dispose().unwrap_or_else(|e| panic!("{cell}: dispose: {e}"));
                (losses, params, traffic)
            })
        })
        .collect();
    let mut ranks: Vec<_> = handles.into_iter().map(|h| h.join().expect("rank thread")).collect();
    // The node's traffic, and the ranks' plans added up.
    let planned = |k: usize| std::array::from_fn(|i| ranks.iter().map(|(.., t)| t[k].1[i]).sum());
    let traffic = (0..2).map(|k| (ranks[0].2[k].0, planned(k))).collect();
    let (losses, params, _) = ranks.swap_remove(0);
    for device in (0..cell.world).map(Device::gpu).chain([Device::cpu(), Device::nvme()]) {
        assert_eq!(node.hierarchy.stats(device).in_use, 0, "{cell}: {device} leak after dispose");
    }
    Trained { losses: bits(&losses), params, health: node.offload_manager().health(), traffic }
}

/// The dense baseline's numerics at `cell`'s world, accumulation and
/// checkpointing: at world 1 without accumulation the single-process
/// baseline itself; elsewhere the replicated data-parallel strategy,
/// which reduces and averages as every partitioned strategy does (the
/// single process sums the whole batch in another order).
fn reference(cell: &Cell) -> (Vec<u32>, Vec<Vec<u32>>) {
    if cell.world == 1 && cell.accumulation == 1 {
        let (losses, params) =
            train_dense_baseline(&cfg(), MICRO_BATCH, STEPS, adam(), cell.checkpointing)
                .expect("dense baseline");
        return (bits(&losses), params.iter().map(|p| bits(p.data())).collect());
    }
    let dense = Cell { tight: false, round_trip: false, ..*cell };
    let trained = train(dense, Strategy::data_parallel().with_f32_params());
    (trained.losses, trained.params)
}

#[test]
fn every_sampled_cell_trains_bit_for_bit_as_the_dense_baseline() {
    let cells = sample(SEED);
    for cell in cells {
        let (losses, params) = reference(&cell);
        let got = train(cell, cell.strategy());
        assert_eq!(got.losses, losses, "{cell}: losses differ from the dense baseline");
        assert_eq!(got.params, params, "{cell}: final parameters differ from the dense baseline");
        // A roomy pool never evicts; a tight one evicts construction's
        // images at the first backward, once each.
        let h = got.health;
        let corrupt = (h.corruptions_recovered, h.corruptions_unrecovered);
        assert_eq!(corrupt, (0, 0), "{cell}: corruption on a healthy device: {h:?}");
        assert!(!h.degraded && h.failovers == 0, "{cell}: a healthy device degraded: {h:?}");
        assert!(cell.tight || h.shard_cache_evictions == 0, "{cell}: a roomy cache evicted: {h:?}");
        for (k, (measured, planned)) in got.traffic.iter().enumerate() {
            assert_eq!(measured, planned, "{cell}: step {}: device traffic is not the plan", STEPS - 2 + k);
        }
    }
}
