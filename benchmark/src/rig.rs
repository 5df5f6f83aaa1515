//! One repetition: build a fresh rig, warm it up, then run the closed
//! step loop for a fixed wall time — one client (the loop itself), the
//! next step starting when the previous one returns. One thread per
//! rank over a shared node, as `trainer::run_rank` runs them.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::bind::{EngineCounters, Event, IoCounters, Node, Peaks, Rank, TraceCounters};
use crate::spans::{self, SpanLog};
use crate::workloads::RigSpec;

/// Steps run before anything is timed: the prefetcher has recorded its
/// trace, scratch pools are sized, the loss scaler has settled.
pub const WARMUP_STEPS: usize = 5;

/// Wall times of one measured step on rank 0, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepSample {
    pub step_ms: f64,
    pub fwdbwd_ms: f64,
    pub optim_ms: f64,
}

/// Everything one repetition observed.
#[derive(Default)]
pub struct RigRun {
    /// Repetition start → first measured step.
    pub setup_s: f64,
    /// First measured step start → last measured step end, rank 0.
    pub wall_s: f64,
    pub steps: Vec<StepSample>,
    /// Mean loss across ranks, one per step, warm-up included.
    pub losses: Vec<f32>,
    /// Counter deltas over the measured window.
    pub io: IoCounters,
    pub comm_bytes: u64,
    pub comm_calls: u64,
    pub engine: EngineCounters,
    /// NVMe bytes (read + written, node-wide) that moved while rank 0
    /// was inside `optim_step`, summed over measured steps.
    pub optim_io_bytes: u64,
    /// Cumulative since the node was built.
    pub io_total: IoCounters,
    pub peaks: Peaks,
    /// Worker threads of the node's NVMe engine (the throttled
    /// device's aggregate bound is this many line rates).
    pub nvme_workers: usize,
    /// Measured steps that returned `Err`, were skipped, or produced a
    /// non-finite loss, plus I/O requests the engine gave up on.
    pub failed: usize,
    pub errors: Vec<String>,
    /// Traced repetitions only.
    pub events: Vec<Event>,
    /// One span log per rank, in rank order.
    pub spans: Vec<SpanLog>,
    pub trace: TraceCounters,
}

#[derive(Default)]
struct RankOut {
    steps: Vec<StepSample>,
    losses: Vec<f32>,
    engine: EngineCounters,
    optim_io_bytes: u64,
    failed: usize,
    error: Option<String>,
    events: Vec<Event>,
    spans: SpanLog,
    setup_end: Option<Instant>,
    wall_s: f64,
    io_before: IoCounters,
    comm_before: (u64, u64),
}

fn sub_io(a: IoCounters, b: IoCounters) -> IoCounters {
    IoCounters {
        reads: a.reads - b.reads,
        writes: a.writes - b.writes,
        bytes_read: a.bytes_read - b.bytes_read,
        bytes_written: a.bytes_written - b.bytes_written,
        errors: a.errors - b.errors,
        retries: a.retries - b.retries,
        gave_up: a.gave_up - b.gave_up,
        in_flight_peak: a.in_flight_peak,
    }
}

fn sub_engine(a: EngineCounters, b: EngineCounters) -> EngineCounters {
    EngineCounters {
        allgathers: a.allgathers - b.allgathers,
        grad_reductions: a.grad_reductions - b.grad_reductions,
        optimizer_chunks: a.optimizer_chunks - b.optimizer_chunks,
        skipped_steps: a.skipped_steps - b.skipped_steps,
        step_io_overlap: a.step_io_overlap - b.step_io_overlap,
        prefetch_hits: a.prefetch_hits - b.prefetch_hits,
        prefetch_misses: a.prefetch_misses - b.prefetch_misses,
        prefetch_late: a.prefetch_late - b.prefetch_late,
    }
}

/// What the run loop needs beyond the rig itself.
pub struct RunPlan<'a> {
    pub spec: &'a RigSpec,
    pub seed: u64,
    /// Wall seconds to measure; 0 builds, warms up and tears down only.
    pub seconds: f64,
    pub traced: bool,
    pub scratch: &'a Path,
    /// Test hook: make this measured step report `Err` (the acceptance
    /// check that an injected failure turns the verdict).
    pub fail_step: Option<usize>,
}

struct Shared<'a> {
    plan: &'a RunPlan<'a>,
    node: &'a Node,
    start: Instant,
    stop: AtomicBool,
}

/// Clock readings around the three calls of one step, on the node
/// tracer's clock: start, after fwd/bwd, after the optimizer step, after
/// the loss collective.
type StepMarks = [u64; 4];

/// One forward/backward + optimizer step + loss collective.
/// Returns `(mean loss, marks, updated?, optimizer NVMe bytes)`.
fn one_step(
    sh: &Shared,
    rank: &mut Rank,
    step: usize,
) -> Result<(f32, StepMarks, bool, u64), String> {
    let node = sh.node;
    let t0 = node.now_ns();
    let loss = rank.fwdbwd(step)?;
    let t1 = node.now_ns();
    let io0 = node.io();
    let updated = rank.optim_step()?;
    let t2 = node.now_ns();
    let io1 = node.io();
    let mean = rank.mean_loss(loss)?;
    let t3 = node.now_ns();
    let d = sub_io(io1, io0);
    Ok((
        mean,
        [t0, t1, t2, t3],
        updated,
        d.bytes_read + d.bytes_written,
    ))
}

fn sample(m: &StepMarks) -> StepSample {
    let ms = |a: u64, b: u64| (b - a) as f64 / 1e6;
    StepSample {
        step_ms: ms(m[0], m[3]),
        fwdbwd_ms: ms(m[0], m[1]),
        optim_ms: ms(m[1], m[2]),
    }
}

fn rank_main(sh: &Shared, rank_idx: usize) -> RankOut {
    let mut out = RankOut::default();
    let plan = sh.plan;
    let node = sh.node;
    let lead = rank_idx == 0;
    let multi = plan.spec.world > 1;
    let mut rank = match Rank::build(node, plan.spec, rank_idx, plan.seed) {
        Ok(r) => r,
        Err(e) => {
            out.error = Some(format!("rank {rank_idx} build: {e}"));
            return out;
        }
    };
    // Any error below leaves through here: peers blocked in a
    // collective are woken instead of waiting out the deadline.
    let mut body = || -> Result<(), String> {
        for step in 0..WARMUP_STEPS {
            let (mean, _, _, _) = one_step(sh, &mut rank, step)?;
            out.losses.push(mean);
        }
        // Ranks enter the measured window together.
        node.barrier(rank_idx)?;
        if lead {
            // Warm-up events are not part of the measured trace.
            drop(node.take_events());
            out.io_before = node.io();
            out.comm_before = node.comm_traffic();
            out.setup_end = Some(Instant::now());
            if plan.traced {
                // The tracer's clock starts when the node is built.
                out.spans.push(spans::SETUP, 0, node.now_ns(), None, 0);
            }
        }
        let engine_before = rank.counters();
        let window = Instant::now();
        let mut step = WARMUP_STEPS;
        let mut done = plan.seconds <= 0.0;
        while !done {
            let iteration_start = node.now_ns();
            let injected = lead && plan.fail_step == Some(step - WARMUP_STEPS);
            let result = if injected {
                Err("injected failure".to_string())
            } else {
                one_step(sh, &mut rank, step)
            };
            let m = match result {
                Ok((mean, marks, updated, optim_bytes)) => {
                    out.losses.push(mean);
                    out.steps.push(sample(&marks));
                    out.optim_io_bytes += optim_bytes;
                    if !updated || !mean.is_finite() {
                        out.failed += 1;
                    }
                    marks
                }
                Err(e) => {
                    out.steps.push(StepSample::default());
                    out.failed += 1;
                    return Err(format!("step {step}: {e}"));
                }
            };
            out.wall_s = window.elapsed().as_secs_f64();
            if lead {
                if plan.traced {
                    out.events.extend(node.take_events());
                }
                if out.wall_s >= plan.seconds {
                    sh.stop.store(true, Ordering::SeqCst);
                }
            }
            // The barrier orders rank 0's store before every read.
            if multi {
                node.barrier(rank_idx)?;
            }
            if plan.traced {
                // The step span covers the whole loop iteration, so its
                // self time is what the loop itself costs per step:
                // bookkeeping, draining the trace rings, the stop barrier.
                let id = step as u64;
                let parent = out.spans.open(spans::STEP, iteration_start, id);
                out.spans.push(spans::FWDBWD, m[0], m[1], Some(parent), id);
                out.spans.push(spans::OPTIM, m[1], m[2], Some(parent), id);
                out.spans
                    .push(spans::LOSS_SYNC, m[2], m[3], Some(parent), id);
                out.spans.close(parent, node.now_ns());
            }
            done = sh.stop.load(Ordering::SeqCst);
            step += 1;
        }
        out.engine = sub_engine(rank.counters(), engine_before);
        Ok(())
    };
    if let Err(e) = body() {
        out.error = Some(format!("rank {rank_idx} {e}"));
        rank.abort();
    }
    if let Err(e) = rank.dispose() {
        out.error
            .get_or_insert(format!("rank {rank_idx} dispose: {e}"));
    }
    out
}

/// Run one repetition of `plan`.
pub fn run(plan: &RunPlan) -> RigRun {
    let start = Instant::now();
    let mut run = RigRun::default();
    let node = match Node::build(plan.spec, plan.traced, plan.scratch) {
        Ok(n) => n,
        Err(e) => {
            run.errors.push(format!("node build: {e}"));
            run.failed = 1;
            return run;
        }
    };
    let sh = Shared {
        plan,
        node: &node,
        start,
        stop: AtomicBool::new(false),
    };
    let mut outs: Vec<RankOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.spec.world)
            .map(|r| {
                let sh = &sh;
                std::thread::Builder::new()
                    .name(format!("bench-rank-{r}"))
                    .spawn_scoped(s, move || rank_main(sh, r))
                    .expect("spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    for o in outs.iter_mut() {
        run.errors.extend(o.error.take());
        run.spans.push(std::mem::take(&mut o.spans));
    }
    let lead = outs.swap_remove(0);
    run.setup_s = lead.setup_end.map_or(0.0, |t| (t - sh.start).as_secs_f64());
    run.wall_s = lead.wall_s;
    run.io_total = node.io();
    run.io = sub_io(run.io_total, lead.io_before);
    let (bytes, calls) = node.comm_traffic();
    run.comm_bytes = bytes - lead.comm_before.0;
    run.comm_calls = calls - lead.comm_before.1;
    run.peaks = node.peaks();
    run.nvme_workers = node.nvme_workers();
    run.trace = node.trace_counters();
    run.failed = lead.failed + run.io.gave_up as usize;
    if !run.errors.is_empty() && run.failed == 0 {
        run.failed = 1;
    }
    run.steps = lead.steps;
    run.losses = lead.losses;
    run.engine = lead.engine;
    run.optim_io_bytes = lead.optim_io_bytes;
    run.events = lead.events;
    run
}
