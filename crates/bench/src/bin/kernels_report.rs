//! SIMD kernel-layer throughput report.
//!
//! Benchmarks every kernel behind the `zi-tensor::simd` runtime
//! dispatch layer — f16↔f32 bulk conversion, the matmul variants,
//! GELU, layernorm and the fused Adam chunk update — under the forced
//! scalar backend and under auto dispatch, and reports effective GB/s
//! / GFLOP/s plus the speedup. Also quantifies two PR-level claims:
//!
//! * the **zero-skip ablation** — the old `av == 0.0` branch in the
//!   matmul inner loops vs the branch-free kernel, on dense data where
//!   the branch never fires and only costs;
//! * the **end-to-end step** — median per-step wall time of a
//!   compute-dominated GPT training run, scalar vs auto.
//!
//! Writes `BENCH_kernels.json` (path overridable as argv[1]; pass
//! `--quick` anywhere for the CI smoke configuration). Exits nonzero
//! if a SIMD backend was detected but any kernel family or the
//! end-to-end step got *slower* than forced-scalar — catching dispatch
//! regressions, not noise: the gate uses medians and a 10% grace.

use zi_sync::time::Instant;

use zero_infinity::Strategy;
use zi_bench::report::{hrow, row, section, write_json_report, Json};
use zi_model::GptConfig;
use zi_optim::{adam_update_chunk_publish, AdamConfig};
use zi_tensor::f16::F16;
use zi_tensor::ops;
use zi_tensor::simd::{self, Backend};
use zi_tensor::Tensor;
use zero_infinity::{train_gpt, TrainSpec};

struct Sizes {
    conv_n: usize,
    mm: usize,
    elem_n: usize,
    ln_rows: usize,
    ln_n: usize,
    adam_n: usize,
    reps: usize,
    e2e_runs: usize,
    e2e_steps: usize,
}

const FULL: Sizes = Sizes {
    conv_n: 1 << 20,
    mm: 192,
    elem_n: 1 << 20,
    ln_rows: 512,
    ln_n: 1024,
    adam_n: 1 << 20,
    reps: 9,
    e2e_runs: 5,
    e2e_steps: 3,
};

const QUICK: Sizes = Sizes {
    conv_n: 1 << 16,
    mm: 96,
    elem_n: 1 << 16,
    ln_rows: 64,
    ln_n: 256,
    adam_n: 1 << 16,
    reps: 3,
    e2e_runs: 2,
    e2e_steps: 2,
};

/// Median over `reps` timed invocations of `f`, in seconds.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

struct KernelResult {
    name: &'static str,
    scalar_secs: f64,
    auto_secs: f64,
    bytes: u64,
    flops: u64,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.scalar_secs / self.auto_secs
    }
    fn auto_gbps(&self) -> f64 {
        self.bytes as f64 / self.auto_secs / 1e9
    }
    fn auto_gflops(&self) -> f64 {
        self.flops as f64 / self.auto_secs / 1e9
    }
}

/// Time `f` under forced-scalar and under auto dispatch.
fn scalar_vs_auto(
    name: &'static str,
    reps: usize,
    bytes: u64,
    flops: u64,
    mut f: impl FnMut(),
) -> KernelResult {
    simd::force_backend(Some(Backend::Scalar));
    f(); // warmup
    let scalar_secs = median_secs(reps, &mut f);
    simd::force_backend(None);
    f();
    let auto_secs = median_secs(reps, &mut f);
    KernelResult { name, scalar_secs, auto_secs, bytes, flops }
}

type MatmulFn = fn(&Tensor, &Tensor) -> zi_types::Result<Tensor>;

/// A matmul variant at the shape one of the benchmark models runs it at
/// (`a: [m, k]`; `b` is `[k, n]`, `[n, k]` or `[m, n]` by variant, as
/// the `ops` entry point takes it). These are microseconds long, so one
/// timed sample is a batch of calls sized to ~4 MFLOP and the reported
/// time is per call.
fn model_shape(
    name: &'static str,
    reps: usize,
    op: MatmulFn,
    a_shape: [usize; 2],
    b_shape: [usize; 2],
    flops: u64,
) -> KernelResult {
    let a = Tensor::randn_seeded(&a_shape, 11, 1.0);
    let b = Tensor::randn_seeded(&b_shape, 12, 1.0);
    let batch = (4_000_000 / flops).max(1);
    let out = op(&a, &b).expect("model-shape matmul").numel();
    let bytes = 4 * (a.numel() + b.numel() + out) as u64;
    let mut r = scalar_vs_auto(name, reps, bytes, flops, || {
        for _ in 0..batch {
            std::hint::black_box(op(&a, &b).expect("model-shape matmul"));
        }
    });
    r.scalar_secs /= batch as f64;
    r.auto_secs /= batch as f64;
    r
}

/// The old inner loop with the `av == 0.0` skip branch (satellite
/// ablation reference — dense data, so the branch only costs).
fn matmul_zero_skip(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    out.fill(0.0);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Same loop, branch-free.
fn matmul_dense(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    out.fill(0.0);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            let brow = &b[kk * n..(kk + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

fn e2e_median_step_secs(sz: &Sizes) -> f64 {
    let cfg = GptConfig { vocab: 64, hidden: 128, layers: 2, heads: 4, seq: 32, seed: 7 };
    let spec = TrainSpec {
        steps: sz.e2e_steps,
        ..TrainSpec::test_default(cfg, Strategy::infinity_nvme(), 1)
    };
    let mut runs = Vec::with_capacity(sz.e2e_runs);
    for _ in 0..sz.e2e_runs {
        let t = Instant::now();
        train_gpt(&spec).expect("train step");
        runs.push(t.elapsed().as_secs_f64() / sz.e2e_steps as f64);
    }
    runs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    runs[runs.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let sz = if quick { QUICK } else { FULL };

    let detected = simd::backend();
    section("SIMD kernel layer report");
    println!(
        "detected backend: {} (fma {}), mode: {}",
        detected.label(),
        if simd::fma_enabled() { "on" } else { "off" },
        if quick { "quick" } else { "full" }
    );

    // --- Per-kernel scalar vs auto ------------------------------------
    let mut results: Vec<KernelResult> = Vec::new();

    let src: Vec<f32> = (0..sz.conv_n).map(|i| (i as f32).sin() * 3.0).collect();
    let mut half = vec![F16::ZERO; sz.conv_n];
    simd::f32_to_f16_slice(&src, &mut half);
    let mut back = vec![0f32; sz.conv_n];
    results.push(scalar_vs_auto("f32_to_f16", sz.reps, 6 * sz.conv_n as u64, 0, || {
        simd::f32_to_f16_slice(&src, &mut half);
    }));
    results.push(scalar_vs_auto("f16_to_f32", sz.reps, 6 * sz.conv_n as u64, 0, || {
        simd::f16_to_f32_slice(&half, &mut back);
    }));

    let m = sz.mm;
    let a = Tensor::randn_seeded(&[m, m], 1, 1.0);
    let b = Tensor::randn_seeded(&[m, m], 2, 1.0);
    let mm_flops = 2 * (m * m * m) as u64;
    let mm_bytes = (3 * m * m * 4) as u64;
    results.push(scalar_vs_auto("matmul", sz.reps, mm_bytes, mm_flops, || {
        let _ = ops::matmul(&a, &b).expect("matmul");
    }));
    results.push(scalar_vs_auto("matmul_nt", sz.reps, mm_bytes, mm_flops, || {
        let _ = ops::matmul_nt(&a, &b).expect("matmul_nt");
    }));
    results.push(scalar_vs_auto("matmul_tn", sz.reps, mm_bytes, mm_flops, || {
        let _ = ops::matmul_tn(&a, &b).expect("matmul_tn");
    }));
    // The shapes the models actually run (the square probe above hides
    // them): the dense benchmark model's attention heads (seq 64, head
    // dim 32) and widest weight gradient, and the wide offload model's
    // 16-row LM-head and MLP matmuls.
    let (nn, nt, tn): (MatmulFn, MatmulFn, MatmulFn) =
        (ops::matmul, ops::matmul_nt, ops::matmul_tn);
    let model_shapes = [
        ("matmul 64x64x32", nn, [64, 64], [64, 32], 64 * 64 * 32),
        ("matmul_tn 64x64x32", tn, [64, 64], [64, 32], 64 * 64 * 32),
        ("matmul_nt 64x32x64", nt, [64, 32], [64, 32], 64 * 32 * 64),
        ("matmul_tn 128x768x192", tn, [128, 768], [128, 192], 128 * 768 * 192),
        ("matmul 16x2048x256", nn, [16, 2048], [2048, 256], 16 * 2048 * 256),
        ("matmul_tn 16x256x1024", tn, [16, 256], [16, 1024], 16 * 256 * 1024),
    ];
    for (name, op, a_shape, b_shape, mkn) in model_shapes {
        results.push(model_shape(name, sz.reps, op, a_shape, b_shape, 2 * mkn as u64));
    }

    let x = Tensor::randn_seeded(&[sz.elem_n], 3, 2.0);
    let dy = Tensor::randn_seeded(&[sz.elem_n], 4, 1.0);
    // ~20 scalar flops per element through the tanh polynomial.
    results.push(scalar_vs_auto(
        "gelu",
        sz.reps,
        8 * sz.elem_n as u64,
        20 * sz.elem_n as u64,
        || {
            let _ = ops::gelu(&x);
        },
    ));
    results.push(scalar_vs_auto(
        "gelu_backward",
        sz.reps,
        12 * sz.elem_n as u64,
        25 * sz.elem_n as u64,
        || {
            let _ = ops::gelu_backward(&x, &dy).expect("gelu_backward");
        },
    ));

    let ln_x = Tensor::randn_seeded(&[sz.ln_rows, sz.ln_n], 5, 1.0);
    let gamma = vec![1.0f32; sz.ln_n];
    let beta = vec![0.0f32; sz.ln_n];
    let ln_elems = (sz.ln_rows * sz.ln_n) as u64;
    results.push(scalar_vs_auto("layernorm", sz.reps, 8 * ln_elems, 8 * ln_elems, || {
        let _ = ops::layernorm(&ln_x, &gamma, &beta, 1e-5).expect("layernorm");
    }));

    let adam = AdamConfig::default();
    let grad: Vec<f32> = (0..sz.adam_n).map(|i| ((i * 7) % 13) as f32 * 0.01 - 0.06).collect();
    let mut master = vec![0.1f32; sz.adam_n];
    let mut m1 = vec![0f32; sz.adam_n];
    let mut m2 = vec![0f32; sz.adam_n];
    let mut publish = vec![0f32; sz.adam_n];
    let mut step = 0u64;
    // 5 f32 streams touched, ~15 flops per element.
    results.push(scalar_vs_auto(
        "adam_chunk",
        sz.reps,
        20 * sz.adam_n as u64,
        15 * sz.adam_n as u64,
        || {
            step += 1;
            adam_update_chunk_publish(&adam, step, &mut master, &mut m1, &mut m2, &grad, &mut publish);
        },
    ));
    simd::force_backend(None);

    hrow(&["kernel", "scalar (ms)", "simd (ms)", "speedup", "GB/s", "GFLOP/s"]);
    for r in &results {
        row(&[
            r.name.to_string(),
            format!("{:.3}", r.scalar_secs * 1e3),
            format!("{:.3}", r.auto_secs * 1e3),
            format!("{:.2}x", r.speedup()),
            format!("{:.2}", r.auto_gbps()),
            format!("{:.2}", r.auto_gflops()),
        ]);
    }

    // --- Zero-skip ablation -------------------------------------------
    section("zero-skip branch ablation (dense data, naive loop)");
    let za: Vec<f32> = (0..m * m).map(|i| 1.0 + (i % 97) as f32 * 0.01).collect();
    let zb: Vec<f32> = (0..m * m).map(|i| 1.0 - (i % 89) as f32 * 0.01).collect();
    let mut zout = vec![0f32; m * m];
    let skip_secs = median_secs(sz.reps, || matmul_zero_skip(&za, &zb, m, m, m, &mut zout));
    let dense_secs = median_secs(sz.reps, || matmul_dense(&za, &zb, m, m, m, &mut zout));
    let zero_skip_overhead = skip_secs / dense_secs;
    println!(
        "with skip branch: {:.3} ms   branch-free: {:.3} ms   branch overhead: {:.2}x",
        skip_secs * 1e3,
        dense_secs * 1e3,
        zero_skip_overhead
    );

    // --- End-to-end step ----------------------------------------------
    section("end-to-end train step (compute-dominated GPT)");
    simd::force_backend(Some(Backend::Scalar));
    let e2e_scalar = e2e_median_step_secs(&sz);
    simd::force_backend(None);
    let e2e_auto = e2e_median_step_secs(&sz);
    let e2e_speedup = e2e_scalar / e2e_auto;
    println!(
        "scalar: {:.3} ms/step   simd: {:.3} ms/step   speedup: {:.2}x",
        e2e_scalar * 1e3,
        e2e_auto * 1e3,
        e2e_speedup
    );

    // --- Verdict + JSON ------------------------------------------------
    // Only gate when a SIMD backend is actually in play; on machines
    // where detection lands on Scalar, both timings measure the same
    // code and the comparison is pure noise.
    let gated = detected != Backend::Scalar;
    let mut regressions: Vec<&str> = Vec::new();
    if gated {
        for r in &results {
            if r.speedup() < 0.9 {
                regressions.push(r.name);
            }
        }
        if e2e_speedup < 0.9 {
            regressions.push("e2e_step");
        }
    }

    let kernel_docs: Vec<Json> = results
        .iter()
        .map(|r| {
            Json::Obj(vec![
                Json::field("name", Json::Str(r.name.into())),
                Json::field("scalar_ms", Json::Num(r.scalar_secs * 1e3)),
                Json::field("simd_ms", Json::Num(r.auto_secs * 1e3)),
                Json::field("speedup", Json::Num(r.speedup())),
                Json::field("gbps", Json::Num(r.auto_gbps())),
                Json::field("gflops", Json::Num(r.auto_gflops())),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![
        Json::field("bench", Json::Str("kernels".into())),
        Json::field("backend", Json::Str(detected.label().into())),
        Json::field("quick", Json::Bool(quick)),
        Json::field("kernels", Json::Arr(kernel_docs)),
        Json::field("zero_skip_ms", Json::Num(skip_secs * 1e3)),
        Json::field("branch_free_ms", Json::Num(dense_secs * 1e3)),
        Json::field("zero_skip_overhead", Json::Num(zero_skip_overhead)),
        Json::field("e2e_scalar_step_ms", Json::Num(e2e_scalar * 1e3)),
        Json::field("e2e_simd_step_ms", Json::Num(e2e_auto * 1e3)),
        Json::field("e2e_speedup", Json::Num(e2e_speedup)),
        Json::field("gated", Json::Bool(gated)),
        Json::field(
            "regressions",
            Json::Arr(regressions.iter().map(|r| Json::Str((*r).into())).collect()),
        ),
    ]);
    write_json_report(std::path::Path::new(&out_path), &doc).expect("write json report");
    println!();
    println!("wrote {out_path}");

    if !regressions.is_empty() {
        eprintln!("SIMD slower than scalar for: {}", regressions.join(", "));
        std::process::exit(1);
    }
}
