//! One invocation in the driver's contract:
//! `--workload W --seed N --seconds S --trace 0|1` measures one
//! workload and prints one JSON object as the last line of stdout.
//! `--trace 0` reports the end-to-end metrics from untraced runs;
//! `--trace 1` reports every per-layer metric: the step loop's phases,
//! the traced repetition, and the layer probes.

use std::path::{Path, PathBuf};

use crate::bind::{self, JsonValue};
use crate::checks::{self, DEFAULT_SEED};
use crate::metrics::{self, MetricSet};
use crate::probes::{self, Fraction};
use crate::rig::{self, RigRun, RunPlan, WARMUP_STEPS};
use crate::spans::{self, SpanLog};
use crate::stats::{median, percentile, tail};
use crate::workloads::{BackendKind, RigSpec, Workload, THROTTLE_BYTES_PER_SEC, TRAINER_PROBE_RIG};
use crate::{json, meta};

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Steps of the two `train_gpt_env` runs whose difference cancels the
/// trainer's own set-up (and its first, untypical steps: the loss
/// scaler is still backing off) out of `core.trainer.env_overhead_share`.
const TRAINER_STEPS: (usize, usize) = (6, 12);
/// Seconds the harness loop runs on the trainer-probe rig when the
/// workload under test is a different one.
const TRAINER_REFERENCE_SECONDS: f64 = 1.5;

/// Where the benchmark's own files live (`BENCH_DIR`, set by `run.sh`).
pub fn bench_dir() -> PathBuf {
    std::env::var_os("BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

struct Outcome {
    metrics: MetricSet,
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    /// Human-readable lines printed above the JSON object.
    notes: Vec<String>,
}

fn plan<'a>(
    args: &'a Args,
    spec: &'a RigSpec,
    seconds: f64,
    traced: bool,
    scratch: &'a Path,
) -> RunPlan<'a> {
    RunPlan {
        spec,
        seed: args.seed,
        seconds,
        traced,
        scratch,
        fail_step: None,
    }
}

/// The measured repetitions of the workload itself honour the
/// `BENCH_INJECT_FAIL_STEP` test hook; auxiliary rigs never do.
fn measured<'a>(args: &'a Args, seconds: f64, traced: bool, scratch: &'a Path) -> RunPlan<'a> {
    let fail_step = std::env::var("BENCH_INJECT_FAIL_STEP")
        .ok()
        .and_then(|v| v.parse().ok());
    RunPlan {
        fail_step,
        ..plan(args, &args.workload.rig, seconds, traced, scratch)
    }
}

fn step_ms(run: &RigRun) -> Vec<f64> {
    run.steps.iter().map(|s| s.step_ms).collect()
}

/// Checks every measured repetition must pass, traced or not.
fn check_run(what: &str, run: &RigRun, problems: &mut Vec<String>) {
    problems.extend(run.errors.iter().map(|e| format!("{what}: {e}")));
    if run.failed > 0 {
        problems.push(format!(
            "{what}: {} of {} steps failed",
            run.failed,
            run.steps.len()
        ));
    }
    if run.io_total.errors > 0 {
        problems.push(format!("{what}: IoStats.errors = {}", run.io_total.errors));
    }
    problems.extend(
        checks::check_losses(&run.losses)
            .into_iter()
            .map(|p| format!("{what}: {p}")),
    );
}

/// Golden comparison for the default seed; `None` on any other seed.
fn check_golden(args: &Args, run: &RigRun, problems: &mut Vec<String>) -> Option<bool> {
    if args.seed != DEFAULT_SEED {
        return None;
    }
    let path = checks::golden_path(&bench_dir(), args.workload.name);
    let golden = std::fs::read_to_string(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|t| checks::parse_golden(&t));
    match golden {
        Ok(g) => {
            let (p, identical) = checks::check_golden(&run.losses, &g);
            problems.extend(p);
            Some(identical)
        }
        Err(e) => {
            problems.push(e);
            Some(false)
        }
    }
}

fn golden_note(args: &Args, identical: Option<bool>) -> String {
    match identical {
        Some(b) => format!("golden losses (seed {DEFAULT_SEED}): loss_bit_identical = {b}"),
        None => format!(
            "seed {} is not the golden seed {DEFAULT_SEED}: structural checks only",
            args.seed
        ),
    }
}

/// A file-backed rig must compute what the same rig computes on RAM:
/// the device's kind is never allowed to change the numerics.
fn check_backend_equivalence(
    args: &Args,
    run: &RigRun,
    scratch: &Path,
    problems: &mut Vec<String>,
) {
    if args.workload.rig.backend != BackendKind::File {
        return;
    }
    let reference = RigSpec {
        backend: BackendKind::Mem,
        ..args.workload.rig
    };
    let r = rig::run(&plan(args, &reference, 0.0, false, scratch));
    problems.extend(r.errors.iter().map(|e| format!("RAM reference rig: {e}")));
    problems.extend(checks::check_bitwise(
        "file vs RAM device",
        &run.losses,
        &r.losses,
    ));
}

fn end_to_end(args: &Args, scratch: &Path) -> Outcome {
    let spec = &args.workload.rig;
    let mut problems = Vec::new();
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 1..SETUPS {
        let r = rig::run(&plan(args, spec, 0.0, false, scratch));
        problems.extend(r.errors.iter().map(|e| format!("set-up {i}: {e}")));
        setups.push(r.setup_s);
    }
    let run = rig::run(&measured(args, args.seconds, false, scratch));
    setups.push(run.setup_s);
    check_run("run", &run, &mut problems);
    let identical = check_golden(args, &run, &mut problems);
    check_backend_equivalence(args, &run, scratch, &mut problems);

    let ms = step_ms(&run);
    let mut m = MetricSet::default();
    let tokens = (spec.tokens_per_step() * ms.len()) as f64;
    m.put(
        "tokens_per_s",
        if run.wall_s > 0.0 {
            tokens / run.wall_s
        } else {
            0.0
        },
    );
    m.put("step_ms_p50", median(&ms));
    m.put("setup_s", median(&setups));
    m.put("peak_gpu_bytes", run.peaks.gpu as f64);

    // The orchestrator cross-checks sim ≡ file on these.
    let losses = out_dir().join(format!("{}.seed{}.losses", args.workload.name, args.seed));
    if let Err(e) = std::fs::write(&losses, checks::render_golden(&run.losses)) {
        problems.push(format!("{}: {e}", losses.display()));
    }
    let (tail_p, tail_ms) = tail(&ms);
    let notes = vec![
        format!(
            "steps measured: {} in {:.3} s (+{WARMUP_STEPS} warm-up); set-ups: {setups:.3?} s",
            ms.len(),
            run.wall_s
        ),
        format!(
            "step_ms p50 {:.3}  p{tail_p} {tail_ms:.3}  min {:.3}  max {:.3}",
            median(&ms),
            percentile(&ms, 0.0),
            percentile(&ms, 100.0)
        ),
        format!(
            "peak bytes: gpu {} cpu {} nvme {}",
            run.peaks.gpu, run.peaks.cpu, run.peaks.nvme
        ),
        golden_note(args, identical),
    ];
    Outcome {
        metrics: m,
        attempted: ms.len().max(1),
        failed: run.failed,
        problems,
        notes,
    }
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Per-layer metrics timed around the step loop's calls.
fn step_loop_metrics(m: &mut MetricSet, spec: &RigSpec, run: &RigRun) -> Option<Fraction> {
    let n = run.steps.len().max(1) as f64;
    let col = |f: fn(&rig::StepSample) -> f64| -> Vec<f64> { run.steps.iter().map(f).collect() };
    let ms = col(|s| s.step_ms);
    let optim_ms = median(&col(|s| s.optim_ms));
    m.put("model.fwdbwd_ms_p50", median(&col(|s| s.fwdbwd_ms)));
    m.put("core.engine.optim_step_ms_p50", optim_ms);
    let optim_bytes = run.optim_io_bytes as f64 / n;
    let gbps = if optim_ms > 0.0 {
        optim_bytes / (optim_ms / 1e3) / 1e9
    } else {
        0.0
    };
    m.put("core.engine.optim_gbps", gbps);
    let bound = (spec.backend == BackendKind::Throttled).then(|| Fraction {
        name: "core.engine.optim_bound_fraction",
        achieved: gbps,
        bound: run.nvme_workers as f64 * THROTTLE_BYTES_PER_SEC / 1e9,
        unit: "GB/s",
        what: "NVMe bytes moved inside engine.step() per second vs workers x line rate",
    });
    m.put(
        "core.engine.optim_bound_fraction",
        bound.as_ref().map_or(0.0, Fraction::value),
    );
    let e = &run.engine;
    m.put(
        "core.engine.io_overlap_share",
        share(e.step_io_overlap, e.optimizer_chunks),
    );
    m.put(
        "core.engine.optimizer_chunks_per_step",
        e.optimizer_chunks as f64 / n,
    );
    m.put(
        "core.prefetch.hit_share",
        share(e.prefetch_hits, e.prefetch_hits + e.prefetch_misses),
    );
    m.put(
        "core.prefetch.late_share",
        share(e.prefetch_late, e.prefetch_hits),
    );
    m.put("nvme.engine.reads_per_step", run.io.reads as f64 / n);
    m.put("nvme.engine.writes_per_step", run.io.writes as f64 / n);
    m.put(
        "nvme.engine.read_bytes_per_step",
        run.io.bytes_read as f64 / n,
    );
    m.put(
        "nvme.engine.write_bytes_per_step",
        run.io.bytes_written as f64 / n,
    );
    m.put(
        "nvme.engine.in_flight_peak",
        run.io_total.in_flight_peak as f64,
    );
    m.put("nvme.engine.retries", run.io.retries as f64);
    m.put("comm.calls_per_step", run.comm_calls as f64 / n);
    m.put("comm.bytes_per_step", run.comm_bytes as f64 / n);
    m.put("memory.peak_cpu_bytes", run.peaks.cpu as f64);
    m.put("memory.peak_nvme_bytes", run.peaks.nvme as f64);
    let (tail_p, tail_ms) = tail(&ms);
    m.put("core.trainer.step_ms_tail", tail_ms);
    m.put("core.trainer.step_ms_tail_percentile", tail_p);
    m.put(
        "core.trainer.step_ms_iqr",
        percentile(&ms, 75.0) - percentile(&ms, 25.0),
    );
    bound
}

fn trace_metrics(m: &mut MetricSet, run: &RigRun) {
    let lead = run.spans.first().map(SpanLog::spans).unwrap_or_default();
    let t = bind::analyze_trace(&run.events, lead);
    for (hop, h) in bind::HOP_NAMES.iter().zip(&t.hops) {
        m.put(&format!("trace.{hop}.busy_ms_per_step"), h.busy_ms_per_step);
        m.put(&format!("trace.{hop}.hidden_share"), h.hidden_share);
        m.put(&format!("trace.{hop}.gbps"), h.gbps);
    }
    m.put("trace.compute_ms_per_step", t.compute_ms_per_step);
    m.put("trace.kernel.tile_matmul_gflops", t.tile_matmul_gflops);
    m.put("trace.kernel.adam_chunk_gbps", t.adam_chunk_gbps);
    m.put("trace.dropped_events", run.trace.dropped_events as f64);
    m.put("trace.unattributed_share", t.unattributed_share);
    let self_ns = run
        .spans
        .first()
        .map_or(0, |log| log.total_self_ns(spans::STEP));
    let n = run.steps.len().max(1) as f64;
    m.put("trace.bench.step_self_ms", self_ns as f64 / 1e6 / n);
}

/// The program's own trainer against the harness loop on the same rig:
/// what `train_gpt_env`'s session plumbing costs per step.
fn trainer_overhead(
    args: &Args,
    untraced: &RigRun,
    scratch: &Path,
    problems: &mut Vec<String>,
) -> f64 {
    let harness_ms = if args.workload.rig == TRAINER_PROBE_RIG {
        median(&step_ms(untraced))
    } else {
        let r = rig::run(&plan(
            args,
            &TRAINER_PROBE_RIG,
            TRAINER_REFERENCE_SECONDS,
            false,
            scratch,
        ));
        problems.extend(
            r.errors
                .iter()
                .map(|e| format!("trainer reference rig: {e}")),
        );
        median(&step_ms(&r))
    };
    let (few, many) = TRAINER_STEPS;
    let wall = |steps| bind::trainer_wall_secs(&TRAINER_PROBE_RIG, steps, args.seed);
    match (wall(few), wall(many)) {
        (Ok(a), Ok(b)) if harness_ms > 0.0 => {
            let trainer_ms = (b - a) / (many - few) as f64 * 1e3;
            trainer_ms / harness_ms - 1.0
        }
        (a, b) => {
            problems.extend(
                [a, b]
                    .into_iter()
                    .filter_map(|r| r.err())
                    .map(|e| format!("train_gpt_env: {e}")),
            );
            0.0
        }
    }
}

fn per_layer(args: &Args, scratch: &Path) -> Outcome {
    let spec = &args.workload.rig;
    let mut problems = Vec::new();
    let half = args.seconds / 2.0;
    let untraced = rig::run(&measured(args, half, false, scratch));
    check_run("untraced run", &untraced, &mut problems);
    let traced = rig::run(&measured(args, half, true, scratch));
    check_run("traced run", &traced, &mut problems);
    let identical = check_golden(args, &untraced, &mut problems);
    let mut traced_golden = Vec::new();
    check_golden(args, &traced, &mut traced_golden);
    problems.extend(
        traced_golden
            .into_iter()
            .map(|p| format!("traced run: {p}")),
    );

    // The trace stream's own byte counters must agree with the engine's.
    let (tc, io) = (&traced.trace, &traced.io_total);
    if (tc.nc_read_bytes, tc.nc_write_bytes) != (io.bytes_read, io.bytes_written) {
        problems.push(format!(
            "trace counters nc read/write {}/{} != IoStats {}/{}",
            tc.nc_read_bytes, tc.nc_write_bytes, io.bytes_read, io.bytes_written
        ));
    }

    let mut m = MetricSet::default();
    let optim_bound = step_loop_metrics(&mut m, spec, &untraced);
    let attempted = untraced.steps.len() + traced.steps.len();
    let failed = untraced.failed + traced.failed;
    m.put(
        "core.trainer.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );
    m.put(
        "core.trainer.loss_bit_identical",
        f64::from(u8::from(identical == Some(true))),
    );
    let (p50_off, p50_on) = (median(&step_ms(&untraced)), median(&step_ms(&traced)));
    m.put(
        "trace.overhead_share",
        if p50_off > 0.0 {
            p50_on / p50_off - 1.0
        } else {
            0.0
        },
    );
    trace_metrics(&mut m, &traced);

    let trace_path = out_dir().join(format!("{}.trace.json", args.workload.name));
    if let Err(e) = std::fs::write(
        &trace_path,
        bind::chrome_trace(&traced.events, &traced.spans),
    ) {
        problems.push(format!("{}: {e}", trace_path.display()));
    }

    let mut notes = vec![
        format!(
            "steps measured: {} untraced (p50 {p50_off:.3} ms) + {} traced (p50 {p50_on:.3} ms); trace: {} events -> {}",
            untraced.steps.len(),
            traced.steps.len(),
            traced.events.len(),
            trace_path.display()
        ),
        golden_note(args, identical),
    ];
    let mut fractions: Vec<Fraction> = optim_bound.into_iter().collect();
    match probes::run_all(scratch) {
        Ok(report) => {
            for (name, value) in &report.values {
                m.put(name, *value);
            }
            notes.push(format!(
                "machine.fma_peak_gflops kernel: {}",
                report.fma_kernel
            ));
            fractions.extend(report.fractions);
        }
        Err(e) => problems.push(format!("layer probes: {e}")),
    }
    m.put(
        "core.trainer.env_overhead_share",
        trainer_overhead(args, &untraced, scratch, &mut problems),
    );
    notes.push("achieved / bound (both terms):".into());
    for f in &fractions {
        notes.push(format!(
            "  {:<36} {:>10.4} = {:.4} {} / {:.4} {}  ({})",
            f.name,
            f.value(),
            f.achieved,
            f.unit,
            f.bound,
            f.unit,
            f.what
        ));
    }
    Outcome {
        metrics: m,
        attempted: attempted.max(1),
        failed,
        problems,
        notes,
    }
}

/// Run one workload and print the result. Returns the process exit code.
pub fn run(args: &Args) -> i32 {
    let out = out_dir();
    let scratch = out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return 2;
    }
    let canary_before = probes::canary_ms();
    let mut outcome = if args.trace {
        per_layer(args, &scratch)
    } else {
        end_to_end(args, &scratch)
    };
    let canary_after = probes::canary_ms();
    let _ = std::fs::remove_dir_all(&scratch);

    let decls = if args.trace {
        metrics::per_layer_decls()
    } else {
        metrics::end_to_end_decls()
    };
    if let Err(e) = outcome.metrics.check(&decls) {
        eprintln!("metric set does not match BENCHMARK.json: {e}");
        return 2;
    }
    let correct = outcome.problems.is_empty();

    println!(
        "== {} seed {} seconds {} trace {} ==",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{}",
        json::render(&json::obj(&[(
            "meta",
            meta::block(&[canary_before, canary_after])
        )]))
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for d in &decls {
        if let Some((_, v)) = outcome.metrics.values().iter().find(|(n, _)| n == d.name) {
            println!("{:<44} {:>18.6} {}", d.name, v, d.unit);
        }
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    if !correct {
        outcome.failed = outcome.failed.max(1);
    }
    println!(
        "{}",
        json::render(&json::obj(&[
            ("correct", JsonValue::Bool(correct)),
            ("attempted", JsonValue::Num(outcome.attempted as f64)),
            (
                "failed",
                JsonValue::Num(outcome.failed.min(outcome.attempted) as f64)
            ),
            ("metrics", outcome.metrics.to_json(&decls)),
        ]))
    );
    i32::from(!correct)
}
