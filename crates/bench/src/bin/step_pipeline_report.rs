//! Step-pipeline depth sweep over a real file-backed NVMe device.
//!
//! Measures the NVMe-streamed optimizer step (Sec. 5.2.2 of the paper:
//! NVMe→CPU read, Adam update, CPU→NVMe write-back) at pipeline depths
//! 1 (fully sequential), 2 and 4, and reports the per-step median wall
//! time, speedup over the sequential baseline, and the overlap evidence
//! (`in_flight_peak`, `step_io_overlap`). Per-step medians (instead of a
//! whole-run mean) keep the depth comparison stable on shared machines:
//! the depth-4 "regression" recorded by earlier revisions of this bench
//! was mean-of-5 measurement noise, not a pipeline property. Writes a
//! machine-readable `BENCH_step_pipeline.json` (path overridable as
//! argv[1]).

use zi_sync::Arc;
use std::time::{Duration, Instant};

use zero_infinity::{NodeEnv, NodeResources, Strategy, ZeroEngine};
use zi_bench::report::{hrow, row, section, write_json_report, Json};
use zi_memory::NodeMemorySpec;
use zi_model::{ParamRegistry, ParamStore};
use zi_nvme::{FileBackend, StorageBackend, ThrottledBackend};
use zi_optim::AdamConfig;
use zi_tensor::Tensor;

const NUMEL: usize = 1 << 16;
const CHUNK: usize = 1 << 12;
const WARMUP_STEPS: usize = 2;
const MEASURED_STEPS: usize = 15;
/// Throttle the file device to real NVMe characteristics (a tmpfs-backed
/// file answers at RAM speed, which no NVMe does): ~2 GB/s sustained,
/// 100 µs access latency.
const NVME_BYTES_PER_SEC: f64 = 2e9;
const NVME_LATENCY: Duration = Duration::from_micros(100);

struct DepthResult {
    depth: usize,
    median_step_secs: f64,
    in_flight_peak: u64,
    step_io_overlap: u64,
    optimizer_chunks: u64,
}

fn run_depth(depth: usize) -> DepthResult {
    let spec = NodeMemorySpec::test_spec(1, 1 << 26, 1 << 27, 1 << 27);
    let path = std::env::temp_dir()
        .join(format!("zi_step_pipeline_report_{}_{depth}.dat", std::process::id()));
    let backend = Arc::new(ThrottledBackend::new(
        FileBackend::create(&path).expect("file-backed nvme"),
        NVME_BYTES_PER_SEC,
        NVME_LATENCY,
    )) as Arc<dyn StorageBackend>;
    let node = NodeResources::new(&spec, 1, NodeEnv::new(backend));
    let mut reg = ParamRegistry::new();
    let id = reg.register("big", &[NUMEL], 3, 0.1, 0.0);
    let mut engine = ZeroEngine::new(
        &reg,
        Strategy::infinity_nvme()
            .with_optimizer_chunk(CHUNK)
            .with_step_pipeline_depth(depth),
        node.offload_manager(),
        node.group.communicator(0),
        AdamConfig::default(),
    )
    .expect("engine");
    let grad = Tensor::randn_seeded(&[NUMEL], 5, 0.1);

    for _ in 0..WARMUP_STEPS {
        engine.add_grad(id, &grad).expect("warmup grad");
        engine.step().expect("warmup step");
    }
    let mut step_secs = Vec::with_capacity(MEASURED_STEPS);
    for _ in 0..MEASURED_STEPS {
        engine.add_grad(id, &grad).expect("grad");
        let start = Instant::now();
        engine.step().expect("step");
        step_secs.push(start.elapsed().as_secs_f64());
    }
    step_secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let median_step_secs = step_secs[step_secs.len() / 2];

    let stats = engine.stats();
    let io = node.nvme.stats();
    drop(engine);
    drop(node);
    let _ = std::fs::remove_file(&path);

    DepthResult {
        depth,
        median_step_secs,
        in_flight_peak: io.in_flight_peak,
        step_io_overlap: stats.step_io_overlap,
        optimizer_chunks: stats.optimizer_chunks,
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_step_pipeline.json".to_string());

    section("NVMe optimizer-step pipeline depth sweep");
    println!(
        "model: single {NUMEL}-element f32 parameter, chunk {CHUNK}, \
         file-backed NVMe, {MEASURED_STEPS} measured steps after {WARMUP_STEPS} warmup"
    );
    hrow(&["depth", "step (ms)", "speedup", "io peak", "overlap", "chunks"]);

    let results: Vec<DepthResult> = [1usize, 2, 4].iter().map(|&d| run_depth(d)).collect();
    let baseline = results[0].median_step_secs;

    let mut depth_docs = Vec::new();
    let mut best_speedup = 0.0f64;
    for r in &results {
        let speedup = baseline / r.median_step_secs;
        if r.depth > 1 {
            best_speedup = best_speedup.max(speedup);
        }
        row(&[
            r.depth.to_string(),
            format!("{:.3}", r.median_step_secs * 1e3),
            format!("{speedup:.2}x"),
            r.in_flight_peak.to_string(),
            r.step_io_overlap.to_string(),
            r.optimizer_chunks.to_string(),
        ]);
        depth_docs.push(Json::Obj(vec![
            Json::field("depth", Json::Num(r.depth as f64)),
            Json::field("median_step_ms", Json::Num(r.median_step_secs * 1e3)),
            Json::field("speedup_vs_depth1", Json::Num(speedup)),
            Json::field("in_flight_peak", Json::Num(r.in_flight_peak as f64)),
            Json::field("step_io_overlap", Json::Num(r.step_io_overlap as f64)),
            Json::field("optimizer_chunks", Json::Num(r.optimizer_chunks as f64)),
        ]));
    }

    let pipelined_peak =
        results.iter().filter(|r| r.depth > 1).map(|r| r.in_flight_peak).max().unwrap_or(0);
    let doc = Json::Obj(vec![
        Json::field("bench", Json::Str("step_pipeline".into())),
        Json::field("numel", Json::Num(NUMEL as f64)),
        Json::field("chunk", Json::Num(CHUNK as f64)),
        Json::field("measured_steps", Json::Num(MEASURED_STEPS as f64)),
        Json::field("depths", Json::Arr(depth_docs)),
        Json::field("best_speedup", Json::Num(best_speedup)),
        Json::field("target_speedup", Json::Num(1.3)),
        Json::field("meets_target", Json::Bool(best_speedup >= 1.3)),
        Json::field("overlap_proven", Json::Bool(pipelined_peak >= 2)),
    ]);
    write_json_report(std::path::Path::new(&out_path), &doc).expect("write json report");

    println!();
    println!(
        "best pipelined speedup: {best_speedup:.2}x (target 1.30x) — \
         peak in-flight requests while pipelined: {pipelined_peak}"
    );
    println!("wrote {out_path}");
}
