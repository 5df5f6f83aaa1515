#![warn(missing_docs)]

//! `zi-adapt`: the closed-loop overlap controller.
//!
//! The paper's overlap-centric design (Sec. 6.2) only pays off when the
//! pipeline knobs — optimizer-step pipeline depth, prefetch look-ahead,
//! write-behind window — match the tier bandwidths actually available,
//! and those shift at runtime: an NVMe→CPU failover, an elastic
//! world-shrink, or a checkpoint-restart all invalidate whatever static
//! configuration the run started with. This crate closes the loop from
//! `zi-trace` telemetry back to the knobs:
//!
//! * [`Knobs`] — the three tunables, as plain data the engine can apply
//!   between optimizer steps.
//! * [`StepSample`] — one step's telemetry digest (wall time, nc-hop
//!   overlap efficiency and bandwidth, stall-counter deltas, degraded
//!   flag). The trainer extracts it from the tracer; the controller
//!   never touches trace internals, so its decisions are a pure
//!   function of the sample stream and replay deterministically.
//! * [`AdaptiveController`] — bounded hill-climbing with hysteresis,
//!   rollback of regressing moves, and regime resets; every decision is
//!   appended to a [`DecisionEvent`] log.
//! * [`KnobCell`] — the versioned publish cell carrying controller
//!   decisions to the rank engines without torn multi-field reads (the
//!   `knob-cell-publish` harness in `crates/check` model-checks it).
//!
//! Deliberately depends only on `zi-sync`: the controller sits *below*
//! `zi-core`, which wires it to the engine, trainer, and tracer.

mod cell;
mod controller;

pub use cell::KnobCell;
pub use controller::{
    AdaptiveController, ControllerConfig, Decision, DecisionEvent, Dir, Knob, ResetReason,
};

/// The live overlap knobs the controller tunes. Plain `Copy` data so a
/// publish/read through [`KnobCell`] is a single consistent snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Optimizer-step pipeline depth (Sec. 5.2.2): optimizer records —
    /// one chunk's master, momentum and variance, a single device request
    /// — read ahead of the update, the one being updated included, across
    /// parameter boundaries, while earlier records write back. It counts
    /// requests, not bytes: a depth below the device's worker count
    /// leaves workers idle.
    pub step_pipeline_depth: usize,
    /// Dynamic-prefetcher look-ahead (Sec. 6.2); 0 silences it.
    pub prefetch_window: usize,
    /// Bound on in-flight write-behind requests during the streamed
    /// optimizer step.
    pub write_behind: usize,
    /// Fraction of each optimizer shard placed in CPU DRAM instead of
    /// NVMe, in permille (0 = all-NVMe, 1000 = all-CPU). The re-tier
    /// knob: the controller moves the hot fraction CPU-ward when the
    /// measured cp-hop bandwidth has headroom over the nc hop.
    pub optimizer_cpu_permille: usize,
}

impl std::fmt::Display for Knobs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "depth={} prefetch={} wb={} cpu={}‰",
            self.step_pipeline_depth,
            self.prefetch_window,
            self.write_behind,
            self.optimizer_cpu_permille
        )
    }
}

/// Inclusive search bounds for every knob; the controller never probes
/// or publishes outside them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobBounds {
    /// Pipeline depth range, in records read ahead (min is clamped to at
    /// least 1).
    pub depth: (usize, usize),
    /// Prefetch look-ahead range (0 = prefetch off is a legal point).
    pub prefetch: (usize, usize),
    /// Write-behind window range (min is clamped to at least 1).
    pub write_behind: (usize, usize),
    /// Optimizer-shard CPU placement range, permille (capped at 1000).
    pub placement: (usize, usize),
}

impl Default for KnobBounds {
    fn default() -> Self {
        KnobBounds { depth: (1, 8), prefetch: (0, 8), write_behind: (1, 32), placement: (0, 1000) }
    }
}

impl KnobBounds {
    /// Clamp every field of `k` into this box.
    pub fn clamp(&self, k: Knobs) -> Knobs {
        let boxed = |v: usize, (lo, hi): (usize, usize), floor: usize| {
            let lo = lo.max(floor);
            v.clamp(lo, hi.max(lo))
        };
        let pm = |v: usize, (lo, hi): (usize, usize)| v.clamp(lo, hi.max(lo)).min(1000);
        Knobs {
            step_pipeline_depth: boxed(k.step_pipeline_depth, self.depth, 1),
            prefetch_window: boxed(k.prefetch_window, self.prefetch, 0),
            write_behind: boxed(k.write_behind, self.write_behind, 1),
            optimizer_cpu_permille: pm(k.optimizer_cpu_permille, self.placement),
        }
    }
}

/// One optimizer step's telemetry digest, as the controller consumes it.
///
/// Counter fields are *deltas over this step*, not cumulative totals;
/// `zi-core`'s `TelemetryCursor` does the differencing against the
/// shared tracer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepSample {
    /// Optimizer step number.
    pub step: u64,
    /// Wall time of the step's compute + optimizer phases, ns. The
    /// controller's objective: it minimizes the median of this.
    pub step_ns: u64,
    /// nc-hop (NVMe↔CPU) overlap efficiency for this step, 0.0–1.0
    /// (fraction of I/O busy time hidden behind compute).
    pub nc_efficiency: f64,
    /// nc-hop effective bandwidth for this step, bytes/second.
    pub nc_bandwidth_bps: f64,
    /// cp-hop (CPU-DRAM placement path) effective bandwidth for this
    /// step, bytes/second; 0.0 while no shard has a DRAM-resident part.
    pub cp_bandwidth_bps: f64,
    /// Write-behind submissions that genuinely blocked on a full window
    /// this step (back-pressure: the device is behind the pipeline).
    pub wb_stalls: u64,
    /// Prefetches that were issued but still in flight at demand time.
    pub prefetch_late: u64,
    /// Demand fetches that found no prefetch pending.
    pub prefetch_misses: u64,
    /// True when the offload path is running NVMe-degraded (stores
    /// failed over to CPU). A flip in either direction is a regime
    /// change.
    pub degraded: bool,
}

#[cfg(test)]
mod bounds_tests {
    use super::*;

    #[test]
    fn clamp_boxes_every_field() {
        let b = KnobBounds::default();
        let k = b.clamp(Knobs {
            step_pipeline_depth: 0,
            prefetch_window: 99,
            write_behind: 0,
            optimizer_cpu_permille: 5000,
        });
        assert_eq!(
            k,
            Knobs {
                step_pipeline_depth: 1,
                prefetch_window: 8,
                write_behind: 1,
                optimizer_cpu_permille: 1000,
            }
        );
        let k = b.clamp(Knobs {
            step_pipeline_depth: 4,
            prefetch_window: 3,
            write_behind: 12,
            optimizer_cpu_permille: 250,
        });
        assert_eq!(
            k,
            Knobs {
                step_pipeline_depth: 4,
                prefetch_window: 3,
                write_behind: 12,
                optimizer_cpu_permille: 250,
            }
        );
    }

    #[test]
    fn degenerate_bounds_still_produce_legal_knobs() {
        let b = KnobBounds {
            depth: (0, 0),
            prefetch: (0, 0),
            write_behind: (0, 0),
            placement: (2000, 5000),
        };
        let k = b.clamp(Knobs {
            step_pipeline_depth: 5,
            prefetch_window: 5,
            write_behind: 5,
            optimizer_cpu_permille: 5,
        });
        assert!(k.step_pipeline_depth >= 1 && k.write_behind >= 1);
        assert!(k.optimizer_cpu_permille <= 1000, "permille cap holds even for bad bounds");
    }
}
