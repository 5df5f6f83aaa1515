//! The machine-metadata block that heads every output: a number means
//! little without the box, build and environment it was measured on.

use crate::bind::{self, JsonValue};
use crate::json;

/// `ZI_*` variables change what the program does (SIMD backend, FMA,
/// kernel-pool width), so every one that is set is recorded.
fn zi_env() -> JsonValue {
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("ZI_"))
        .collect();
    vars.sort();
    JsonValue::Obj(
        vars.into_iter()
            .map(|(k, v)| (k, JsonValue::Str(v)))
            .collect(),
    )
}

fn env_or(key: &str, fallback: &str) -> JsonValue {
    json::s(&std::env::var(key).unwrap_or_else(|_| fallback.to_string()))
}

/// `canaries` are the `machine.canary_ms` readings taken around the
/// measurement (before, after): the noise reference for this run.
pub fn block(canaries: &[f64]) -> JsonValue {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let min = canaries.iter().copied().fold(f64::INFINITY, f64::min);
    let max = canaries.iter().copied().fold(0.0, f64::max);
    json::obj(&[
        ("cores", JsonValue::Num(cores as f64)),
        ("simd_backend", json::s(bind::simd_backend())),
        (
            "kernel_pool_workers",
            JsonValue::Num(bind::kernel_pool_workers() as f64),
        ),
        ("zi_env", zi_env()),
        (
            "profile",
            json::s(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        // `run.sh` fills these in; a checkout that is not a git
        // repository has no revision to report.
        ("git_revision", env_or("BENCH_GIT_REV", "unknown")),
        ("rustc", env_or("BENCH_RUSTC", "unknown")),
        (
            "canary_ms_min",
            JsonValue::Num(if min.is_finite() { min } else { 0.0 }),
        ),
        ("canary_ms_max", JsonValue::Num(max)),
    ])
}
