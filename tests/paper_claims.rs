//! Cross-crate checks of the paper's headline claims: the analytic model
//! and cluster simulator (`zi-sim`) and the real engine (`zero-infinity`)
//! must tell one consistent story.

use zi_sim::ait::{ait_optimizer_states, ait_params_grads};
use zi_sim::cluster::ClusterSpec;
use zi_sim::efficiency::{bandwidth_for_efficiency, V100_PEAK_TP};
use zi_sim::memory::{ModelShape, TrainingShape, OPTIM_BYTES, PARAM_BYTES};
use zi_sim::figures;
use zi_sim::model_cfg::SimStrategy;

use zero_infinity_suite::model::{GptConfig, GptModel, ParamRegistry};
use zero_infinity_suite::optim::AdamConfig;
use zero_infinity_suite::tensor::{ops::DECODE_BYTES, Tensor};
use zero_infinity_suite::types::Device;
use zero_infinity_suite::zero::{NodeEnv, NodeResources, Strategy, TiledLinear, TrafficPlan, ZeroEngine};
use zi_memory::NodeMemorySpec;

/// Sec. 5.2 bandwidth thresholds: 70 GB/s (params), ~1.5 TB/s
/// (optimizer) — and the DGX-2 hardware provides them via GPU-GPU links
/// and aggregate slow-memory bandwidth respectively.
#[test]
fn bandwidth_thresholds_are_met_by_the_hardware_model() {
    let c = ClusterSpec::dgx2(32);

    // Params/grads: the paper claims the GPU-GPU fabric (~70 GB/s)
    // suffices even at batch 1.
    let need_params = bandwidth_for_efficiency(ait_params_grads(1024, 1), V100_PEAK_TP, 0.5);
    assert!(c.gg_bw >= need_params * 0.95, "gg {} vs needed {need_params}", c.gg_bw);

    // Optimizer: ~1.5 TB/s aggregate at batch 2; 512 GPUs × 3 GB/s CPU
    // bandwidth provides exactly that.
    let need_optim = bandwidth_for_efficiency(ait_optimizer_states(1024, 2), V100_PEAK_TP, 0.9);
    let aggregate_cpu = c.total_gpus() as f64 * c.cpu_bw_per_gpu;
    assert!(
        aggregate_cpu >= need_optim * 0.9,
        "aggregate {aggregate_cpu} vs needed {need_optim}"
    );
}

/// Fig. 2a ↔ Table 1 consistency: the 1T row of both tables is the same
/// model shape.
#[test]
fn memory_model_consistent_across_crates() {
    let shape = ModelShape { layers: 128, hidden: 25 * 1024, attn_heads: 256 };
    let sim_model = zi_sim::model_cfg::table1_512gpu()
        .into_iter()
        .find(|m| m.name == "1T")
        .unwrap();
    assert_eq!(shape.params(), sim_model.shape.model.params());
}

/// The capacity solver's single-node NVMe ceiling (~1T) must be what the
/// aggregate NVMe capacity divided by 20 B/param predicts.
#[test]
fn capacity_solver_matches_closed_form() {
    let c = ClusterSpec::dgx2(1);
    let fam = zi_sim::model_cfg::fig1_family();
    let ceiling = zi_sim::capacity::max_model_size(SimStrategy::InfinityNvme, &c, &fam)
        .unwrap()
        .shape
        .model
        .params() as f64;
    let closed_form = c.total_nvme() as f64 / 20.0;
    assert!(ceiling <= closed_form);
    // The family is dense enough that the solver lands within 2.5x of the
    // theoretical bound.
    assert!(ceiling * 2.5 >= closed_form, "{ceiling} vs {closed_form}");
}

/// The real-engine Fig. 6b result and the working-memory formula agree:
/// tiling by T lets hidden grow by ~sqrt(T) under a fixed fragment size
/// (working set of one tile is 4*hd*4*hd/T bytes).
#[test]
fn tiling_scaling_matches_mswm_formula() {
    let h1 = zi_bench::max_hidden_size(1).expect("untiled sweep");
    let h16 = zi_bench::max_hidden_size(16).expect("16-way sweep");
    // sqrt(16) = 4 with doubling granularity.
    assert_eq!(h16 / h1, 4, "h1={h1} h16={h16}");
    // And the untiled ceiling is what the fragment size implies:
    // largest h whose 4h×h tile set, gathered in the parameter dtype's
    // bytes, fits a fragment: 4·h²·b ≤ fragment.
    let frag = zi_bench::fig6b::FRAGMENT_BYTES as f64;
    let b = zi_bench::fig6b::sweep_strategy().param_dtype.size_in_bytes() as f64;
    let predicted = (frag / (4.0 * b)).sqrt() as usize;
    // h1 is the largest power of two ≤ predicted.
    assert!(h1 <= predicted && h1 * 2 > predicted, "h1={h1} predicted={predicted}");
}

/// Eq. 4's parameter term on the real engine: one hd→4hd linear, gathered
/// for its forward, holds `PARAM_BYTES·4·hd²` bytes of GPU working memory
/// under an fp16 strategy — the paper's 2 B per gathered parameter —
/// beside the kernels' fixed decode buffer, and twice the term, with no
/// decode buffer, when the parameters are fp32.
#[test]
fn a_gathered_linear_holds_eq_4s_parameter_term() {
    let hd = 64;
    let peak = |strategy: Strategy| -> u64 {
        let node = NodeResources::in_memory(&NodeMemorySpec::test_spec(1, 1 << 24, 1 << 24, 1 << 24), 1);
        let mut reg = ParamRegistry::new();
        let tl = TiledLinear::register(&mut reg, "ffn", hd, 4 * hd, 1, 7, 0.02).expect("register");
        let (mgr, comm) = (node.offload_manager(), node.group.communicator(0));
        let mut engine = ZeroEngine::new(&reg, strategy, mgr, comm, AdamConfig::default()).expect("engine");
        let y = tl.forward(&mut engine, &Tensor::randn_seeded(&[2, hd], 3, 0.1)).expect("forward");
        assert_eq!(y.shape(), &[2, 4 * hd]);
        let gpu = node.hierarchy.stats(Device::gpu(0));
        assert_eq!(gpu.in_use, 0, "nothing stays gathered");
        engine.dispose().expect("dispose");
        gpu.peak_in_use
    };
    let term = PARAM_BYTES * 4 * (hd * hd) as u64;
    assert_eq!(peak(Strategy::infinity_nvme()), term + DECODE_BYTES as u64);
    assert_eq!(peak(Strategy::infinity_nvme().with_f32_params()), 2 * term);
}

/// The activation working-memory expression (Eq. 5) dominates the
/// checkpoint expression (Eq. 3) — AWM is what recomputation holds.
#[test]
fn awm_exceeds_checkpoint_footprint_per_interval() {
    let m = ModelShape { layers: 100, hidden: 8192, attn_heads: 32 };
    let t = TrainingShape { model: m, batch: 8.0, seq: 1024, ckpt_interval: 1 };
    let awm = t.awm_bytes();
    let per_layer_ckpt = t.activation_checkpoint_bytes() / m.layers as f64;
    assert!(awm > per_layer_ckpt, "AWM {awm} vs per-layer ckpt {per_layer_ckpt}");
}

/// Fig. 5a and Fig. 1 agree on where 3D parallelism dies.
#[test]
fn threed_oom_point_is_consistent() {
    let fig1 = figures::fig1();
    let threed_ceiling = fig1[0].max_params;
    for row in figures::fig5a() {
        if row.strategy == SimStrategy::ThreeD {
            let model_params = zi_sim::model_cfg::table1_512gpu()
                .into_iter()
                .find(|m| m.name == row.model)
                .unwrap()
                .shape
                .model
                .params();
            assert_eq!(
                row.fits,
                model_params <= threed_ceiling,
                "{}: fig5a fits={} but ceiling={}",
                row.model,
                row.fits,
                threed_ceiling
            );
        }
    }
}

/// Item 16(d): the plan of the ledger's WIDE rows (`benchmark/src/
/// workloads.rs`, four device workers), never trained, against Eq. 10: a
/// step and the one before read every record once, 12 of its 16 B per
/// parameter (not yet the fp32 gradient). At dp2 under a 500‰ split each
/// rank keeps all of its records.
#[test]
fn the_wide_plan_streams_twelve_sixteenths_of_eq_10() {
    let model = GptModel::new(GptConfig { vocab: 2048, hidden: 256, layers: 2, heads: 4, seq: 16, seed: 1 });
    let plans = |world: usize, strategy: Strategy| -> Vec<TrafficPlan> {
        let spec = NodeMemorySpec::test_spec(world, 1 << 28, 1 << 30, 1 << 30);
        let node = NodeResources::new(&spec, world, NodeEnv { nvme_workers: 4, ..NodeEnv::in_memory() });
        let engine = |rank| {
            let (mgr, comm) = (node.offload_manager(), node.group.communicator(rank));
            ZeroEngine::new(model.registry(), strategy, mgr, comm, AdamConfig::default()).expect("engine")
        };
        let engines: Vec<_> = (0..world).map(engine).collect();
        let plans = engines.iter().map(ZeroEngine::traffic_plan).collect();
        engines.into_iter().for_each(|engine| engine.dispose().expect("dispose"));
        plans
    };
    let params: u64 = model.registry().iter().map(|p| p.numel() as u64).sum();
    let plan = &plans(1, Strategy::infinity_nvme())[0];
    assert_eq!(plan.reads, [(21, 16_515_072), (21, 15_863_808)], "{plan:?}");
    assert_eq!(plan.writes, [(21, 15_863_808), (21, 16_515_072)], "{plan:?}");
    for o in 0..2 {
        let streamed = plan.reads[o].1 + plan.kept[1 - o].1;
        assert_eq!((streamed, streamed), (25_300_992, 12 * OPTIM_BYTES * params / 16));
    }
    for plan in plans(2, Strategy::infinity_nvme().with_optimizer_cpu_permille(500)) {
        assert_eq!((plan.reads, plan.writes), ([(0, 0); 2], [(0, 0); 2]), "{plan:?}");
    }
}
