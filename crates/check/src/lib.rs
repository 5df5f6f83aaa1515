#![warn(missing_docs)]

//! `zi-check`: a loom-style deterministic concurrency model checker.
//!
//! The workspace's concurrency protocols (the generation barrier in
//! `zi-comm`, the write-behind engine and checkpoint store in `zi-nvme`,
//! the buffer pools in `zi-memory`) are written against the `zi-sync`
//! primitives. In a normal build those compile to zero-cost passthroughs
//! over `parking_lot`/`std`. Under `RUSTFLAGS="--cfg zi_check"` every
//! acquire/release/wait/notify/load/store instead routes through the
//! runtime in this crate, which:
//!
//! * runs the test body under a **deterministic virtual-time scheduler**
//!   that serializes threads and explores many distinct interleavings
//!   (seeded random sampling by default, or bounded DFS with a
//!   context-switch bound in the CHESS lineage);
//! * performs **vector-clock happens-before race detection** on
//!   instrumented atomics and [`zi_sync::RaceCell`]-style shared cells;
//! * detects **deadlocks and lost wakeups** via the wait-for graph,
//!   reporting the full cycle with per-thread backtraces;
//! * makes every failure **replayable**: the failing schedule's seed (or
//!   exact decision trace) is printed, and `ZI_CHECK_SEED` /
//!   `ZI_CHECK_TRACE` re-run exactly that schedule.
//!
//! Without `--cfg zi_check`, [`model`] simply runs the body once on real
//! primitives, so harnesses double as plain concurrency smoke tests.
//!
//! # Environment knobs (zi_check builds)
//!
//! | variable              | meaning                                        |
//! |-----------------------|------------------------------------------------|
//! | `ZI_CHECK_SCHEDULES`  | schedules to explore per harness (default 2000)|
//! | `ZI_CHECK_SEED`       | replay exactly one schedule with this seed     |
//! | `ZI_CHECK_TRACE`      | replay one schedule from a decision trace      |
//! | `ZI_CHECK_MODE`       | `random` (default) or `dfs`                    |
//! | `ZI_CHECK_MAX_STEPS`  | per-schedule step bound (default 50000)        |
//! | `ZI_CHECK_PREEMPTIONS`| context-switch bound for `dfs` (default 2)     |
//! | `ZI_CHECK_BACKTRACE`  | `0` disables blocked-thread backtrace capture  |

#[cfg(zi_check)]
mod explore;
#[cfg(zi_check)]
#[doc(hidden)]
pub mod rt;

use std::fmt;

/// Why a schedule failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// No thread can make progress and no timed wait remains.
    Deadlock,
    /// A happens-before data race on a shared cell.
    DataRace,
    /// A model thread panicked (assertion failure in the body).
    Panic,
    /// The schedule exceeded the step bound (livelock suspect).
    TooDeep,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::Deadlock => write!(f, "deadlock / lost wakeup"),
            FailureKind::DataRace => write!(f, "data race"),
            FailureKind::Panic => write!(f, "panic"),
            FailureKind::TooDeep => write!(f, "step bound exceeded"),
        }
    }
}

/// A failing schedule: what went wrong and how to replay it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Failure class.
    pub kind: FailureKind,
    /// Human-readable diagnosis (wait-for cycle, racing accesses, panic
    /// message), including captured backtraces where available.
    pub message: String,
    /// Seed of the failing schedule (random mode).
    pub seed: Option<u64>,
    /// Exact decision trace of the failing schedule; replayable via
    /// `ZI_CHECK_TRACE`.
    pub trace: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "zi-check: {}", self.kind)?;
        writeln!(f, "{}", self.message)?;
        if let Some(seed) = self.seed {
            writeln!(f, "replay: ZI_CHECK_SEED={seed}")?;
        }
        write!(f, "replay: ZI_CHECK_TRACE={}", self.trace)
    }
}

/// Outcome of checking one harness.
#[derive(Debug, Clone)]
pub struct Report {
    /// Schedules executed.
    pub schedules: usize,
    /// Distinct decision traces among them.
    pub distinct: usize,
    /// Total scheduler decisions across all schedules.
    pub steps: u64,
    /// DFS only: the bounded space was fully enumerated.
    pub exhausted: bool,
    /// First failing schedule, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// True when no schedule failed.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// Coverage gate used by the harness tests: either the configured
    /// number of distinct schedules was reached or the (bounded) space
    /// was exhausted outright.
    pub fn covered(&self, distinct_target: usize) -> bool {
        self.distinct >= distinct_target || self.exhausted
    }
}

/// Exploration strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Seeded random sampling of schedules; every iteration's seed is
    /// derived from the base seed and printed on failure.
    Random,
    /// Bounded depth-first enumeration with a context-switch
    /// (preemption) bound — systematic, CHESS-style.
    Dfs,
}

/// Configurable model checker. [`Checker::from_env`] honours the
/// `ZI_CHECK_*` environment variables; [`model`] is the
/// assert-on-failure convenience wrapper harness tests use.
#[derive(Debug, Clone)]
pub struct Checker {
    /// Exploration strategy.
    pub mode: Mode,
    /// Schedules to run (random mode) or cap (dfs mode).
    pub schedules: usize,
    /// Base seed for random mode.
    pub seed: u64,
    /// Per-schedule decision bound.
    pub max_steps: u64,
    /// Context-switch bound for dfs mode.
    pub preemptions: usize,
}

impl Default for Checker {
    fn default() -> Self {
        Checker { mode: Mode::Random, schedules: 2000, seed: 0x5eed_2170, max_steps: 50_000, preemptions: 2 }
    }
}

impl Checker {
    /// A checker configured from the `ZI_CHECK_*` environment.
    pub(crate) fn from_env() -> Self {
        let mut c = Checker::default();
        let get = |k: &str| std::env::var(k).ok();
        if let Some(v) = get("ZI_CHECK_MODE") {
            c.mode = if v == "dfs" { Mode::Dfs } else { Mode::Random };
        }
        if let Some(v) = get("ZI_CHECK_SCHEDULES").and_then(|v| v.parse().ok()) {
            c.schedules = v;
        }
        if let Some(v) = get("ZI_CHECK_SEED").and_then(|v| v.parse().ok()) {
            c.seed = v;
        }
        if let Some(v) = get("ZI_CHECK_MAX_STEPS").and_then(|v| v.parse().ok()) {
            c.max_steps = v;
        }
        if let Some(v) = get("ZI_CHECK_PREEMPTIONS").and_then(|v| v.parse().ok()) {
            c.preemptions = v;
        }
        c
    }

    /// Explore `body` under this configuration and report the outcome
    /// without panicking (used by the checker's own false-negative
    /// regression fixtures).
    #[cfg(zi_check)]
    pub fn check<F>(&self, name: &str, body: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        rt::drive(self, name, std::sync::Arc::new(body))
    }

    /// Re-run exactly one schedule from a recorded decision trace (the
    /// `Failure::trace` string). Programmatic equivalent of
    /// `ZI_CHECK_TRACE`.
    #[cfg(zi_check)]
    pub fn replay_trace<F>(&self, name: &str, trace: &str, body: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        rt::replay_trace(self, name, trace, std::sync::Arc::new(body))
    }

    /// Re-run exactly one schedule from its seed (the `Failure::seed`
    /// value). Programmatic equivalent of `ZI_CHECK_SEED`.
    #[cfg(zi_check)]
    pub fn replay_seed<F>(&self, name: &str, seed: u64, body: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        rt::replay_seed(self, name, seed, std::sync::Arc::new(body))
    }

    /// Passthrough build: run the body once on real primitives,
    /// converting a panic into a [`FailureKind::Panic`] report.
    #[cfg(not(zi_check))]
    pub fn check<F>(&self, name: &str, body: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let name = name.to_string();
        let handle = std::thread::Builder::new()
            .name(format!("zi-check-{name}"))
            .spawn(body)
            .expect("spawn passthrough body");
        let failure = handle.join().err().map(|p| Failure {
            kind: FailureKind::Panic,
            message: format!("{name}: {}", panic_message(p.as_ref())),
            seed: None,
            trace: String::new(),
        });
        Report { schedules: 1, distinct: 1, steps: 0, exhausted: false, failure }
    }
}

/// Render a panic payload as text.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// True when this build routes `zi-sync` through the model checker.
pub fn enabled() -> bool {
    cfg!(zi_check)
}

/// Model-check `body` with the environment-configured checker, panicking
/// with a replayable diagnosis on the first failing schedule. In
/// passthrough builds this runs the body exactly once.
pub fn model<F>(name: &str, body: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = Checker::from_env().check(name, body);
    if let Some(f) = &report.failure {
        panic!("harness `{name}` failed after {} schedules\n{f}", report.schedules);
    }
    report
}
