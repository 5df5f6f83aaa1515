//! The names the ledger is read by. `BENCHMARK.json` at the repo root
//! is rendered from these tables (`run.sh manifest`), and a run refuses
//! to print a set of metrics that differs from them by even one name.

use crate::bind::JsonValue;
use crate::json;

pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

/// Regression bounds (share of the parent's median). See README.md,
/// "Bounds", for the measured spreads behind each.
pub const END_TO_END: [(Decl, f64); 4] = [
    (
        Decl {
            name: "tokens_per_s",
            unit: "1/s",
            better: "higher",
        },
        0.25,
    ),
    (
        Decl {
            name: "step_ms_p50",
            unit: "ms",
            better: "lower",
        },
        0.25,
    ),
    (
        Decl {
            name: "setup_s",
            unit: "s",
            better: "lower",
        },
        0.25,
    ),
    (
        Decl {
            name: "peak_gpu_bytes",
            unit: "bytes",
            better: "lower",
        },
        0.01,
    ),
];

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl { name, unit, better }
}

pub const PER_LAYER: &[Decl] = &[
    // Timed around the step loop's calls (untraced half of the run).
    d("model.fwdbwd_ms_p50", "ms", "lower"),
    d("core.engine.optim_step_ms_p50", "ms", "lower"),
    d("core.engine.optim_gbps", "GB/s", "higher"),
    d("core.engine.optim_bound_fraction", "ratio", "higher"),
    d("core.engine.io_overlap_share", "ratio", "higher"),
    d("core.engine.optimizer_chunks_per_step", "count", "lower"),
    d("core.prefetch.hit_share", "ratio", "higher"),
    d("core.prefetch.late_share", "ratio", "lower"),
    d("nvme.engine.reads_per_step", "count", "lower"),
    d("nvme.engine.writes_per_step", "count", "lower"),
    d("nvme.engine.read_bytes_per_step", "bytes", "lower"),
    d("nvme.engine.write_bytes_per_step", "bytes", "lower"),
    d("nvme.engine.in_flight_peak", "count", "higher"),
    d("nvme.engine.retries", "count", "lower"),
    d("comm.calls_per_step", "count", "lower"),
    d("comm.bytes_per_step", "bytes", "lower"),
    d("memory.peak_cpu_bytes", "bytes", "lower"),
    d("memory.peak_nvme_bytes", "bytes", "lower"),
    d("core.trainer.step_ms_tail", "ms", "lower"),
    d("core.trainer.step_ms_tail_percentile", "%", "higher"),
    d("core.trainer.step_ms_iqr", "ms", "lower"),
    d("core.trainer.failed_share", "ratio", "lower"),
    d("core.trainer.loss_bit_identical", "count", "higher"),
    d("trace.overhead_share", "ratio", "lower"),
    // From the traced half: the program's zi-trace stream + harness spans.
    d("trace.nc.busy_ms_per_step", "ms", "lower"),
    d("trace.nc.hidden_share", "ratio", "higher"),
    d("trace.nc.gbps", "GB/s", "higher"),
    d("trace.cg.busy_ms_per_step", "ms", "lower"),
    d("trace.cg.hidden_share", "ratio", "higher"),
    d("trace.cg.gbps", "GB/s", "higher"),
    d("trace.gg.busy_ms_per_step", "ms", "lower"),
    d("trace.gg.hidden_share", "ratio", "higher"),
    d("trace.gg.gbps", "GB/s", "higher"),
    d("trace.cp.busy_ms_per_step", "ms", "lower"),
    d("trace.cp.hidden_share", "ratio", "higher"),
    d("trace.cp.gbps", "GB/s", "higher"),
    d("trace.compute_ms_per_step", "ms", "lower"),
    d("trace.kernel.tile_matmul_gflops", "GFLOP/s", "higher"),
    d("trace.kernel.adam_chunk_gbps", "GB/s", "higher"),
    d("trace.dropped_events", "count", "lower"),
    d("trace.unattributed_share", "ratio", "lower"),
    d("trace.bench.step_self_ms", "ms", "lower"),
    // Layer probes.
    d("machine.memcpy_gbps", "GB/s", "higher"),
    d("machine.fma_peak_gflops", "GFLOP/s", "higher"),
    d("machine.canary_ms", "ms", "lower"),
    d("tensor.simd.matmul_gflops", "GFLOP/s", "higher"),
    d("tensor.simd.matmul_nt_gflops", "GFLOP/s", "higher"),
    d("tensor.simd.matmul_tn_gflops", "GFLOP/s", "higher"),
    d("tensor.simd.matmul_peak_fraction", "ratio", "higher"),
    d("tensor.simd.gelu_gbps", "GB/s", "higher"),
    d("tensor.simd.layernorm_gbps", "GB/s", "higher"),
    d("tensor.simd.f16_to_f32_gbps", "GB/s", "higher"),
    d("tensor.simd.f32_to_f16_gbps", "GB/s", "higher"),
    d("tensor.pool.dispatch_us", "us", "lower"),
    d("tensor.pool.matmul_speedup_2t", "ratio", "higher"),
    d("optim.adam_publish_gbps", "GB/s", "higher"),
    d("optim.adam_memcpy_fraction", "ratio", "higher"),
    d("nvme.engine.op_overhead_us", "us", "lower"),
    d("nvme.engine.read_gbps_qd8", "GB/s", "higher"),
    d("nvme.engine.write_gbps_qd8", "GB/s", "higher"),
    d("nvme.engine.file_read_gbps_qd8", "GB/s", "higher"),
    d("nvme.engine.file_write_gbps_qd8", "GB/s", "higher"),
    d("nvme.engine.throttle_fraction", "ratio", "higher"),
    d("nvme.store.save_mbps", "MB/s", "higher"),
    d("nvme.store.save_async_stall_ms", "ms", "lower"),
    d("comm.allgather_gbps_1m", "GB/s", "higher"),
    d("comm.reduce_scatter_gbps_1m", "GB/s", "higher"),
    d("comm.allreduce_gbps_1m", "GB/s", "higher"),
    d("comm.allgather_us_4k", "us", "lower"),
    d("comm.barrier_us", "us", "lower"),
    d("comm.allgather_memcpy_fraction", "ratio", "higher"),
    d("memory.pinned.checkout_us", "us", "lower"),
    d("memory.pool.alloc_free_us", "us", "lower"),
    d("core.offload.store_gbps", "GB/s", "higher"),
    d("core.offload.load_gbps", "GB/s", "higher"),
    d("core.offload.overwrite_async_gbps", "GB/s", "higher"),
    d("core.offload.split_load_gbps", "GB/s", "higher"),
    d("core.offload.load_tax", "ratio", "lower"),
    d("core.offload.write_tax", "ratio", "lower"),
    d("core.trainer.env_overhead_share", "ratio", "lower"),
];

/// Why each workload exists, in one line (`BENCHMARK.json`'s `why`).
pub const WORKLOAD_WHY: [(&str, &str); 5] = [
    ("dense_dp1", "plain single-worker baseline: kernels are ~90% of the step, no offload, no comm; offload work predicts no change"),
    ("inf_nvme_sim", "NVMe offload on a throttled device: the streamed optimizer step is device-wait-bound; overlap and pipeline work shows here"),
    ("inf_nvme_file", "same rig on an unthrottled real file: the device answers instantly, so the offload software tax bounds the step"),
    ("inf_nvme_fetch", "accumulation 4 + activation checkpointing: read-only parameter fetch/prefetch traffic dominates, not optimizer writes"),
    ("inf_split_dp2", "two ranks, optimizer state striped over CPU and NVMe paths: the only workload where collectives and the cp path do real work"),
];

/// How long one run measures, seconds (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// Measured values keyed by metric name, in insertion order.
#[derive(Default)]
pub struct MetricSet {
    values: Vec<(String, f64)>,
}

impl MetricSet {
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    pub fn values(&self) -> &[(String, f64)] {
        &self.values
    }

    /// The set must be exactly the declared one: nothing undeclared is
    /// printed, nothing declared goes missing, nothing is non-finite.
    pub fn check(&self, declared: &[&Decl]) -> Result<(), String> {
        for (name, value) in &self.values {
            if !declared.iter().any(|d| d.name == name) {
                return Err(format!("metric {name} is not declared in BENCHMARK.json"));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if self.values.iter().filter(|(n, _)| n == name).count() != 1 {
                return Err(format!("metric {name} reported twice"));
            }
        }
        match declared
            .iter()
            .find(|d| !self.values.iter().any(|(n, _)| n == d.name))
        {
            Some(d) => Err(format!("declared metric {} was not measured", d.name)),
            None => Ok(()),
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}` in declaration order.
    pub fn to_json(&self, declared: &[&Decl]) -> JsonValue {
        JsonValue::Obj(
            declared
                .iter()
                .filter_map(|d| {
                    let v = self.values.iter().find(|(n, _)| n == d.name)?.1;
                    Some((
                        d.name.to_string(),
                        json::obj(&[("value", JsonValue::Num(v)), ("unit", json::s(d.unit))]),
                    ))
                })
                .collect(),
        )
    }
}

pub fn end_to_end_decls() -> Vec<&'static Decl> {
    END_TO_END.iter().map(|(d, _)| d).collect()
}

pub fn per_layer_decls() -> Vec<&'static Decl> {
    PER_LAYER.iter().collect()
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let decl = |d: &Decl, bound: Option<f64>| {
        let mut fields = vec![
            ("name", json::s(d.name)),
            ("unit", json::s(d.unit)),
            ("better", json::s(d.better)),
        ];
        if let Some(b) = bound {
            fields.push(("bound", JsonValue::Num(b)));
        }
        json::obj(&fields)
    };
    let doc = json::obj(&[
        (
            "command",
            JsonValue::Arr(vec![json::s("bash"), json::s("benchmark/run.sh")]),
        ),
        ("paths", JsonValue::Arr(vec![json::s("benchmark")])),
        ("run_seconds", JsonValue::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            JsonValue::Arr(
                WORKLOAD_WHY
                    .iter()
                    .map(|(n, w)| json::obj(&[("name", json::s(n)), ("why", json::s(w))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            JsonValue::Arr(END_TO_END.iter().map(|(d, b)| decl(d, Some(*b))).collect()),
        ),
        (
            "per_layer",
            JsonValue::Arr(PER_LAYER.iter().map(|d| decl(d, None)).collect()),
        ),
    ]);
    json::render_pretty(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::parse_json;
    use crate::workloads::WORKLOADS;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let all: Vec<&Decl> = end_to_end_decls()
            .into_iter()
            .chain(per_layer_decls())
            .collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(valid_unit(d.unit), "bad unit {} on {}", d.unit, d.name);
            assert!(d.better == "higher" || d.better == "lower");
            assert_eq!(
                all.iter().filter(|o| o.name == d.name).count(),
                1,
                "{} declared twice",
                d.name
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (_, bound) in &END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        // The contract's one mandatory metric, with the largest bound.
        assert!(END_TO_END
            .iter()
            .any(|(d, b)| (d.name, d.unit, d.better, *b) == ("setup_s", "s", "lower", 0.25)));
        for (name, why) in &WORKLOAD_WHY {
            assert!(valid_name(name) && why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn workload_table_and_manifest_agree() {
        assert_eq!(WORKLOADS.len(), WORKLOAD_WHY.len());
        for (w, (name, _)) in WORKLOADS.iter().zip(&WORKLOAD_WHY) {
            assert_eq!(w.name, *name);
        }
    }

    #[test]
    fn committed_benchmark_json_is_the_rendered_manifest() {
        let committed =
            parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let rendered = parse_json(&manifest()).expect("manifest parses");
        assert_eq!(
            committed, rendered,
            "run `benchmark/run.sh manifest > BENCHMARK.json`"
        );
        assert!(manifest().len() <= 64 << 10);
    }

    #[test]
    fn metric_set_rejects_undeclared_missing_and_non_finite() {
        let decls = end_to_end_decls();
        let mut full = MetricSet::default();
        for d in &decls {
            full.put(d.name, 1.5);
        }
        assert!(full.check(&decls).is_ok());

        let mut extra = MetricSet::default();
        extra.put("not_a_metric", 1.0);
        assert!(extra.check(&decls).unwrap_err().contains("not declared"));

        let mut missing = MetricSet::default();
        missing.put("tokens_per_s", 1.0);
        assert!(missing.check(&decls).unwrap_err().contains("not measured"));

        let mut nan = MetricSet::default();
        nan.put("tokens_per_s", f64::NAN);
        assert!(nan.check(&decls).unwrap_err().contains("not finite"));
    }

    #[test]
    fn output_line_parses_back() {
        let decls = end_to_end_decls();
        let mut set = MetricSet::default();
        for (i, d) in decls.iter().enumerate() {
            set.put(d.name, 1.25 + i as f64);
        }
        let line = json::render(&json::obj(&[
            ("correct", JsonValue::Bool(true)),
            ("attempted", JsonValue::Num(57.0)),
            ("failed", JsonValue::Num(0.0)),
            ("metrics", set.to_json(&decls)),
        ]));
        assert!(!line.contains('\n'));
        let back = parse_json(&line).expect("output parses");
        assert_eq!(back.get("correct"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            back.get("attempted").and_then(JsonValue::as_f64),
            Some(57.0)
        );
        let m = back.get("metrics").expect("metrics");
        assert_eq!(
            m.get("step_ms_p50")
                .and_then(|v| v.get("value"))
                .and_then(JsonValue::as_f64),
            Some(2.25)
        );
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("unit"))
                .and_then(JsonValue::as_str),
            Some("s")
        );
    }
}
