//! Regenerate every table and figure of the ZeRO-Infinity paper.
//!
//! Usage:
//!   repro                # print everything
//!   repro fig5a fig6b    # print selected experiments
//!
//! Every analytic and cluster-scale experiment comes from `zi-sim`: the
//! closed forms of Sections 3–4 (Fig. 2, Fig. 3, Table 3) and the
//! simulator that evaluates them on DGX-2 hardware (Fig. 1, 5, 6a,
//! 6c–e); Fig. 6b runs on the real engine with a fragmented memory pool;
//! the "functional" section trains a real tiny GPT through every Table 2
//! strategy and checks it against the dense baseline.

use zi_bench::report::{fmt_params, fmt_tb, hrow, row, section};
use zi_sim::ait::{ait_activation_checkpoints, ait_optimizer_states, ait_params_grads};
use zi_sim::cluster::fig2b_rows;
use zi_sim::efficiency::{efficiency_curve, V100_PEAK_TP};
use zi_sim::figures;
use zi_sim::memory::{fig2a_rows, TrainingShape};
use zi_sim::model_cfg::table1_512gpu;
use zi_sim::scaling::bandwidth_requirements;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if want("fig1") {
        fig1();
    }
    if want("fig2a") {
        fig2a();
    }
    if want("fig2b") {
        fig2b();
    }
    if want("fig3") {
        fig3();
    }
    if want("table1") {
        table1();
    }
    if want("fig5a") {
        fig5a();
    }
    if want("fig5b") {
        fig5b();
    }
    if want("fig5c") {
        fig5c();
    }
    if want("fig6a") {
        fig6a();
    }
    if want("fig6b") {
        fig6b();
    }
    if want("fig6c") {
        fig6c();
    }
    if want("fig6d") {
        fig6d();
    }
    if want("fig6e") {
        fig6e();
    }
    if want("fig6d-pipeline") {
        fig6d_pipeline();
    }
    if want("table3") {
        table3();
    }
    if want("tables4to8") {
        tables4to8();
    }
    if want("functional") {
        functional();
    }
}

fn fig1() {
    section("Figure 1: max model size, 32 DGX-2 nodes (512 GPUs)");
    hrow(&["system", "max params", "config"]);
    for r in figures::fig1() {
        row(&[r.strategy.name().into(), fmt_params(r.max_params), r.model_name.into()]);
    }
    println!("(paper: 3D parallelism ~650B, ZeRO-Infinity 32T — a ~50x leap)");
}

fn fig2a() {
    section("Figure 2a: memory requirements for massive models");
    hrow(&[
        "params",
        "layers",
        "hidden",
        "states TB",
        "act TB/node",
        "ckpt TB/node",
        "MSWM GB",
        "AWM GB",
    ]);
    for m in fig2a_rows() {
        let t = TrainingShape { model: m, batch: 32.0, seq: 1024, ckpt_interval: 1 };
        row(&[
            fmt_params(m.params()),
            m.layers.to_string(),
            format!("{}K", m.hidden / 1024),
            fmt_tb(m.model_state_bytes() as f64),
            fmt_tb(t.full_activation_bytes()),
            fmt_tb(t.activation_checkpoint_bytes()),
            format!("{:.2}", m.mswm_bytes() as f64 / 1e9),
            format!("{:.2}", t.awm_bytes() / 32.0 / 1e9),
        ]);
    }
    println!("(working-memory columns are per GPU at batch 32/node; paper Fig. 2a cols 6-9)");
}

fn fig2b() {
    section("Figure 2b: DGX-2 SuperPOD memory and bandwidth");
    hrow(&["nodes", "gpus", "GPU TB", "CPU TB", "NVMe TB", "cpu GB/s", "nvme GB/s"]);
    for r in fig2b_rows() {
        row(&[
            r.nodes.to_string(),
            r.gpus.to_string(),
            format!("{:.1}", r.gpu_tb),
            format!("{:.1}", r.cpu_tb),
            format!("{:.0}", r.nvme_tb),
            format!("{:.1}", r.cpu_bw_gbps),
            format!("{:.1}", r.nvme_bw_gbps),
        ]);
    }
}

fn fig3() {
    section("Figure 3: efficiency vs bandwidth (70 TFlops achievable peak)");
    let bw = [1.0, 3.0, 7.0, 10.0, 30.0, 70.0, 100.0, 300.0, 700.0, 1000.0, 1500.0];
    println!("-- (a) parameters and gradients, seq=1024 --");
    hrow(&["GB/s", "bsz=1", "bsz=4", "bsz=16"]);
    let curves: Vec<Vec<f64>> = [1u64, 4, 16]
        .iter()
        .map(|&b| {
            efficiency_curve(ait_params_grads(1024, b), V100_PEAK_TP, &bw)
                .into_iter()
                .map(|p| p.efficiency)
                .collect()
        })
        .collect();
    for (i, &g) in bw.iter().enumerate() {
        row(&[
            format!("{g}"),
            format!("{:.2}", curves[0][i]),
            format!("{:.2}", curves[1][i]),
            format!("{:.2}", curves[2][i]),
        ]);
    }
    println!("-- (b) optimizer states --");
    hrow(&["GB/s", "bsz=1", "bsz=2", "bsz=16"]);
    let curves: Vec<Vec<f64>> = [1u64, 2, 16]
        .iter()
        .map(|&b| {
            efficiency_curve(ait_optimizer_states(1024, b), V100_PEAK_TP, &bw)
                .into_iter()
                .map(|p| p.efficiency)
                .collect()
        })
        .collect();
    for (i, &g) in bw.iter().enumerate() {
        row(&[
            format!("{g}"),
            format!("{:.2}", curves[0][i]),
            format!("{:.2}", curves[1][i]),
            format!("{:.2}", curves[2][i]),
        ]);
    }
    println!("-- (c) activation checkpoints (ci=1) --");
    let bw_small = [0.1, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0];
    hrow(&["GB/s", "hd=2K", "hd=8K", "hd=32K", "hd=64K"]);
    let curves: Vec<Vec<f64>> = [2048u64, 8192, 32768, 65536]
        .iter()
        .map(|&h| {
            efficiency_curve(ait_activation_checkpoints(h, 1), V100_PEAK_TP, &bw_small)
                .into_iter()
                .map(|p| p.efficiency)
                .collect()
        })
        .collect();
    for (i, &g) in bw_small.iter().enumerate() {
        row(&[
            format!("{g}"),
            format!("{:.2}", curves[0][i]),
            format!("{:.2}", curves[1][i]),
            format!("{:.2}", curves[2][i]),
            format!("{:.2}", curves[3][i]),
        ]);
    }
}

fn table1() {
    section("Table 1: experiment configurations (512-GPU sweep)");
    hrow(&["model", "params", "hidden", "layers", "batch/GPU", "mp"]);
    for m in table1_512gpu() {
        row(&[
            m.name.into(),
            fmt_params(m.shape.model.params()),
            m.shape.model.hidden.to_string(),
            m.shape.model.layers.to_string(),
            format!("{}", m.shape.batch),
            m.mp.to_string(),
        ]);
    }
}

fn fig5a() {
    section("Figure 5a: throughput vs model size, 512 GPUs");
    hrow(&["model", "system", "TFlops/GPU", "PFlops", "fits"]);
    for r in figures::fig5a() {
        row(&[
            r.model.into(),
            r.strategy.name().into(),
            if r.fits { format!("{:.1}", r.tflops_per_gpu) } else { "OOM".into() },
            if r.fits { format!("{:.1}", r.pflops_total) } else { "-".into() },
            r.fits.to_string(),
        ]);
    }
    println!("(paper: ~49 TFlops/GPU at 500B; 3D parallelism OOMs beyond ~650B)");
}

fn fig5b() {
    section("Figure 5b: superlinear weak scaling, 1T model");
    hrow(&["gpus", "TFlops/GPU", "PFlops total"]);
    for r in figures::fig5b() {
        row(&[
            r.gpus.to_string(),
            format!("{:.1}", r.tflops_per_gpu),
            format!("{:.2}", r.pflops_total),
        ]);
    }
    println!("(paper: per-GPU throughput grows 44 -> 49 TFlops from 64 to 512 GPUs)");
}

fn fig5c() {
    section("Figure 5c: single DGX-2 node, no model parallelism");
    hrow(&["model", "strategy", "TFlops/GPU"]);
    for r in figures::fig5c() {
        row(&[r.model.into(), r.strategy.name().into(), format!("{:.1}", r.tflops_per_gpu)]);
    }
    println!("(paper: >40 TFlops/GPU through 100B; 1T trains with NVMe offload)");
}

fn fig6a() {
    section("Figure 6a: max model size per strategy, one DGX-2 node");
    hrow(&["strategy", "max params", "config"]);
    for r in figures::fig6a() {
        row(&[r.strategy.name().into(), fmt_params(r.max_params), r.model_name.into()]);
    }
    println!("(paper: 1.4B -> 13B -> 20B -> ~70B -> 1T; 700x DP-to-NVMe)");
}

fn fig6b() {
    section("Figure 6b: max hidden size vs tiling factor (real engine, fragmented pool)");
    hrow(&["tiling factor", "max hidden"]);
    match zi_bench::fig6b::fig6b_rows() {
        Ok(rows) => {
            for r in rows {
                row(&[r.tiles.to_string(), r.max_hidden.to_string()]);
            }
            println!(
                "(paper: 8K untiled -> 64K with 16-way tiling; run at 1/8192 scale, \
                 fragment = 256 KiB)"
            );
        }
        Err(e) => println!("fig6b failed: {e}"),
    }
}

fn fig6c() {
    section("Figure 6c: gradient offload, ZeRO-Infinity vs ZeRO-Offload (8B model)");
    hrow(&["gpus", "Offload bwd s", "Infinity bwd s", "speedup"]);
    for r in figures::fig6c() {
        row(&[
            r.gpus.to_string(),
            format!("{:.2}", r.offload_bwd_s),
            format!("{:.2}", r.infinity_bwd_s),
            format!("{:.2}x", r.speedup),
        ]);
    }
    println!("(paper: ~2x at 64 GPUs)");
}

fn fig6d() {
    section("Figure 6d: speedup from prefetching + overlap (8B model, 64 GPUs)");
    hrow(&["batch/GPU", "with TF/GPU", "without TF/GPU", "speedup"]);
    for r in figures::fig6d() {
        row(&[
            format!("{}", r.batch_per_gpu),
            format!("{:.1}", r.with_overlap),
            format!("{:.1}", r.without_overlap),
            format!("{:.2}x", r.speedup),
        ]);
    }
    println!("(paper: crucial at small batch, diminishing at large batch)");
}

fn fig6d_pipeline() {
    section("Figure 6d (pipeline simulation): speedup vs prefetch depth");
    hrow(&["depth", "speedup"]);
    for (d, s) in figures::fig6d_pipeline_depths() {
        row(&[d.to_string(), format!("{s:.2}x")]);
    }
    println!("(three-hop nc/cg/gg pipeline; depth 3 covers all hops, Sec. 6.2)");
}

fn fig6e() {
    section("Figure 6e: activation checkpoint CPU offload overhead");
    hrow(&["hidden", "slowdown"]);
    for r in figures::fig6e() {
        row(&[r.hidden.to_string(), format!("{:.2}x", r.slowdown)]);
    }
    println!("(paper: up to 1.2x at small hidden, minimal at 32K-64K)");
}

fn table3() {
    section("Table 3: bandwidth needs on future hardware (512 devices)");
    hrow(&["gen", "peak pf/dev", "slow GB/s/dev", "slow agg TB/s", "gpu-gpu GB/s"]);
    for r in bandwidth_requirements(512) {
        row(&[
            r.gen.name.into(),
            format!("{:.2}", r.gen.peak_tp / 1e15),
            format!("{:.1}", r.slow_memory_gbps),
            format!("{:.1}", r.slow_memory_aggregate_tbps),
            format!("{:.0}", r.gpu_gpu_gbps),
        ]);
    }
}

fn tables4to8() {
    use zi_sim::model_cfg::{fig6a_family, fig6c_model, fig6e_model};
    section("Tables 4-8: appendix model configurations");
    println!("-- Table 4 (Fig. 6a model family, one DGX-2 node) --");
    hrow(&["model", "layers", "hidden", "heads", "params"]);
    for m in fig6a_family() {
        let shape = m.shape.model;
        row(&[
            m.name.into(),
            shape.layers.to_string(),
            shape.hidden.to_string(),
            shape.attn_heads.to_string(),
            fmt_params(shape.params()),
        ]);
    }
    println!("-- Table 6 (Fig. 6c: 8B, hidden 8192, 10 layers, batch 2) --");
    let m6 = fig6c_model(2.0);
    let shape = m6.shape.model;
    hrow(&["model", "layers", "hidden", "params", "gpus"]);
    row(&[
        m6.name.into(),
        shape.layers.to_string(),
        shape.hidden.to_string(),
        fmt_params(shape.params()),
        "[4,16,32,64]".into(),
    ]);
    println!("-- Table 7 (Fig. 6d: 8B on 64 GPUs, batch sweep) --");
    hrow(&["batch/GPU", "total batch"]);
    for b in [2u64, 4, 8, 10, 14, 16] {
        row(&[b.to_string(), (b * 64).to_string()]);
    }
    println!("-- Table 8 (Fig. 6e: 5 layers, hidden sweep, 32 GPUs, batch 4) --");
    hrow(&["hidden", "params"]);
    for h in [2048u64, 8192, 16384, 32768, 65536] {
        row(&[h.to_string(), fmt_params(fig6e_model(h, 4.0).shape.model.params())]);
    }
}

fn functional() {
    use zero_infinity::{train_gpt, trainer::train_dense_baseline, Strategy, TrainSpec};
    use zi_model::GptConfig;
    use zi_optim::AdamConfig;

    section("Functional check: every Table 2 strategy vs dense baseline (real training)");
    let cfg = GptConfig { vocab: 16, hidden: 8, layers: 2, heads: 2, seq: 4, seed: 99 };
    let adam = AdamConfig { lr: 0.01, ..Default::default() };
    let (base, _) = train_dense_baseline(&cfg, 4, 3, adam, false).expect("baseline");
    hrow(&["strategy", "step1 loss", "step3 loss", "max |Δ| vs dense"]);
    for strategy in Strategy::table2() {
        let spec = TrainSpec {
            micro_batch: 2,
            steps: 3,
            adam,
            ..TrainSpec::test_default(cfg, strategy.with_f32_params(), 2)
        };
        match train_gpt(&spec) {
            Ok(out) => {
                let max_d =
                    out.losses.iter().zip(&base).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
                row(&[
                    strategy.name.into(),
                    format!("{:.4}", out.losses[0]),
                    format!("{:.4}", out.losses[2]),
                    format!("{max_d:.2e}"),
                ]);
            }
            Err(e) => row(&[strategy.name.into(), format!("error: {e}"), "".into(), "".into()]),
        }
    }
}
