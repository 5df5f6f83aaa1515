//! The whole ledger from one command: every workload, `REPS` untraced
//! repetitions each, interleaved round-robin (A B C D E A B …) so a
//! minutes-long noise episode on the host lands on all workloads alike,
//! then one traced repetition per workload. Each repetition is a child
//! process of this binary in the driver's own `--workload` mode: a fresh
//! rig, a kernel pool sized for that workload, peaks starting from zero.

use std::path::Path;
use std::process::Command;

use crate::bind::{parse_json, JsonValue};
use crate::checks;
use crate::driver::out_dir;
use crate::json;
use crate::metrics::{self, Decl};
use crate::stats::{iqr_share, median};
use crate::workloads::{Workload, WORKLOADS};

/// Untraced repetitions per workload; a metric's value is their median.
const REPS: usize = 3;
/// A repetition whose noise canary reads above this multiple of the
/// invocation's best canary ran on a disturbed box: discard and re-run.
const CANARY_LIMIT: f64 = 1.10;
/// Re-runs allowed per workload before the ledger takes what it has.
const MAX_EXTRA_REPS: usize = 2;
/// How long the golden recording runs: three times a measured run, so
/// a run on a machine up to ~3x faster is still compared in full.
const GOLDEN_SECONDS: f64 = 30.0;

/// What one child printed.
struct Child {
    correct: bool,
    metrics: Vec<(String, f64)>,
    canary_min: f64,
    canary_max: f64,
    meta: JsonValue,
    stdout: String,
}

fn spawn(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{}: child printed nothing", w.name))?;
    let result = parse_json(last).map_err(|e| format!("{}: result line: {e}", w.name))?;
    let meta = stdout
        .lines()
        .filter_map(|l| parse_json(l).ok())
        .find_map(|v| v.get("meta").cloned())
        .ok_or_else(|| format!("{}: child printed no meta line", w.name))?;
    let num = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let metrics = match result.get("metrics") {
        Some(JsonValue::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| (k.clone(), num(v, "value")))
            .collect(),
        _ => return Err(format!("{}: result line has no metrics", w.name)),
    };
    Ok(Child {
        correct: result.get("correct") == Some(&JsonValue::Bool(true)) && out.status.success(),
        metrics,
        canary_min: num(&meta, "canary_ms_min"),
        canary_max: num(&meta, "canary_ms_max"),
        meta,
        stdout,
    })
}

fn value_of(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

fn read_losses(name: &str, seed: u64) -> Result<Vec<f32>, String> {
    let path = out_dir().join(format!("{name}.seed{seed}.losses"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    checks::parse_golden(&text)
}

fn metric_json(d: &Decl, value: f64, reps: Option<&[f64]>) -> (String, JsonValue) {
    let mut fields = vec![("value", JsonValue::Num(value)), ("unit", json::s(d.unit))];
    if let Some(r) = reps {
        fields.push((
            "reps",
            JsonValue::Arr(r.iter().map(|v| JsonValue::Num(*v)).collect()),
        ));
    }
    (d.name.to_string(), json::obj(&fields))
}

/// Run the whole ledger; writes `out/results.json`. Exit code 0 only
/// when every repetition passed its output checks.
pub fn run(seed: u64, seconds: f64) -> Result<i32, String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let mut ok = true;
    let mut best_canary = f64::INFINITY;
    let mut worst_canary = 0.0f64;
    let mut kept: Vec<Vec<Child>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut discarded = vec![0usize; WORKLOADS.len()];
    let mut meta = JsonValue::Null;

    for rep in 0..REPS {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            loop {
                let child = spawn(w, seed, seconds, false)?;
                best_canary = best_canary.min(child.canary_min);
                worst_canary = worst_canary.max(child.canary_max);
                let noisy = child.canary_max > CANARY_LIMIT * best_canary;
                println!(
                    "rep {} {:<15} tokens/s {:>10.2}  step p50 {:>9.3} ms  canary {:.2}..{:.2} ms{}{}",
                    rep + 1,
                    w.name,
                    value_of(&child.metrics, "tokens_per_s"),
                    value_of(&child.metrics, "step_ms_p50"),
                    child.canary_min,
                    child.canary_max,
                    if child.correct { "" } else { "  CHECK FAILED" },
                    if noisy { "  (noisy)" } else { "" },
                );
                if !child.correct {
                    print!("{}", child.stdout);
                    ok = false;
                }
                if noisy && discarded[wi] < MAX_EXTRA_REPS {
                    discarded[wi] += 1;
                    continue;
                }
                // The first workload runs with the box's default kernel
                // pool; later ones may narrow it for their own process.
                if meta == JsonValue::Null {
                    meta = child.meta.clone();
                }
                kept[wi].push(child);
                break;
            }
        }
    }

    // sim ≡ file: the device's speed and kind never change the numerics.
    match (
        read_losses("inf_nvme_sim", seed),
        read_losses("inf_nvme_file", seed),
    ) {
        (Ok(a), Ok(b)) => {
            for p in checks::check_bitwise("inf_nvme_sim vs inf_nvme_file losses", &a, &b) {
                println!("CHECK FAILED: {p}");
                ok = false;
            }
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                println!("CHECK FAILED: {e}");
            }
            ok = false;
        }
    }

    let e2e = metrics::end_to_end_decls();
    let layers = metrics::per_layer_decls();
    // reps[workload][metric] = that metric's value in each kept repetition.
    let reps: Vec<Vec<Vec<f64>>> = kept
        .iter()
        .map(|children| {
            e2e.iter()
                .map(|d| {
                    children
                        .iter()
                        .map(|c| value_of(&c.metrics, d.name))
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut workloads_json = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let traced = spawn(w, seed, seconds, true)?;
        print!("{}", traced.stdout);
        ok &= traced.correct;
        best_canary = best_canary.min(traced.canary_min);
        worst_canary = worst_canary.max(traced.canary_max);
        let e2e_json = e2e
            .iter()
            .zip(&reps[wi])
            .map(|(d, r)| metric_json(d, median(r), Some(r)))
            .collect();
        let layer_json = layers
            .iter()
            .map(|d| metric_json(d, value_of(&traced.metrics, d.name), None))
            .collect();
        workloads_json.push((
            w.name.to_string(),
            JsonValue::Obj(vec![
                ("end_to_end".into(), JsonValue::Obj(e2e_json)),
                ("per_layer".into(), JsonValue::Obj(layer_json)),
                (
                    "reps_discarded".into(),
                    JsonValue::Num(discarded[wi] as f64),
                ),
            ]),
        ));
    }

    let mut head = match meta {
        JsonValue::Obj(fields) => fields,
        _ => Vec::new(),
    };
    head.retain(|(k, _)| !k.starts_with("canary_ms"));
    head.push(("canary_ms_min".into(), JsonValue::Num(best_canary)));
    head.push(("canary_ms_max".into(), JsonValue::Num(worst_canary)));
    head.push(("reps".into(), JsonValue::Num(REPS as f64)));
    head.push((
        "reps_discarded".into(),
        JsonValue::Num(discarded.iter().sum::<usize>() as f64),
    ));
    head.push(("seed".into(), JsonValue::Num(seed as f64)));
    head.push(("run_seconds".into(), JsonValue::Num(seconds)));

    println!("\n==== ledger: median of {REPS} repetitions (spread = IQR / median) ====");
    println!(
        "{}",
        json::render(&JsonValue::Obj(vec![(
            "meta".into(),
            JsonValue::Obj(head.clone())
        )]))
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (d, r) in e2e.iter().zip(&reps[wi]) {
            println!(
                "{:<15} {:<16} {:>16.4} {:<6} spread {:>6.2}%  reps {:?}",
                w.name,
                d.name,
                median(r),
                d.unit,
                iqr_share(r) * 100.0,
                r
            );
        }
    }
    let doc = JsonValue::Obj(vec![
        ("meta".into(), JsonValue::Obj(head)),
        ("claim".into(), JsonValue::Null),
        ("workloads".into(), JsonValue::Obj(workloads_json)),
    ]);
    let path = out_dir().join("results.json");
    std::fs::write(&path, json::render_pretty(&doc))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {}{}",
        path.display(),
        if ok { "" } else { " — with FAILED checks" }
    );
    Ok(i32::from(!ok))
}

/// Re-record `golden/<workload>.losses` for the default seed. Only for
/// a change that is meant to move the numerics; say so in the PR.
pub fn record_golden() -> Result<i32, String> {
    for w in &WORKLOADS {
        let child = spawn(w, checks::DEFAULT_SEED, GOLDEN_SECONDS, false)?;
        // With no golden file yet the child fails that one check; the
        // losses it wrote are what is being recorded.
        let losses = read_losses(w.name, checks::DEFAULT_SEED)?;
        let problems = checks::check_losses(&losses);
        if !problems.is_empty() {
            return Err(format!(
                "{}: refusing to record: {}",
                w.name,
                problems.join("; ")
            ));
        }
        let path = checks::golden_path(Path::new(&crate::driver::bench_dir()), w.name);
        std::fs::write(&path, checks::render_golden(&losses))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{}: recorded {} losses (child correct before re-recording: {})",
            path.display(),
            losses.len(),
            child.correct
        );
    }
    Ok(0)
}
