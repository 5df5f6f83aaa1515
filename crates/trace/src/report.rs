//! Per-step overlap-efficiency and bandwidth report.
//!
//! Folds a flat event stream into the numbers the paper's overlap
//! argument is made of. For each hop `h` (nc, cg, gg, cp):
//!
//! * `busy(h)` — wall-clock length of the *union* of `h`'s span
//!   intervals across all threads: the time at least one `h` transfer
//!   was in flight.
//! * `hidden(h)` — length of the intersection of that union with the
//!   compute union (all [`Category::Compute`] spans except the
//!   [`crate::STEP_SPAN`] envelopes, which merely delimit steps).
//! * **overlap efficiency** `= hidden(h) / busy(h)` — the fraction of
//!   `h`'s I/O time the pipeline hid behind compute. 1.0 means fully
//!   hidden; 0.0 means every byte stalled the step.
//! * **effective bandwidth** `= bytes(h) / busy(h)` — per-tier
//!   bandwidth actually achieved, the quantity ZeRO-Infinity's
//!   feasibility tables are built from.
//!
//! Steps are delimited by `STEP_SPAN` envelope spans (`id` = step);
//! metrics are reported per step (clipped to the step window) and for
//! the whole run.

use std::collections::BTreeMap;

use crate::{Category, Event, STEP_SPAN};

/// Metrics for one hop over one window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HopReport {
    /// Hop name: `"nc"`, `"cg"`, `"gg"`, or `"cp"`.
    pub hop: &'static str,
    /// Payload bytes moved by spans overlapping the window.
    pub bytes: u64,
    /// Union length of the hop's spans, ns.
    pub busy_ns: u64,
    /// Portion of `busy_ns` overlapped with compute, ns.
    pub hidden_ns: u64,
}

impl HopReport {
    /// `hidden / busy`; vacuously 1.0 when the hop did no I/O.
    pub fn efficiency(&self) -> f64 {
        if self.busy_ns == 0 {
            1.0
        } else {
            self.hidden_ns as f64 / self.busy_ns as f64
        }
    }

    /// Effective bandwidth in bytes/second (0 when idle).
    pub(crate) fn bandwidth_bps(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.bytes as f64 / (self.busy_ns as f64 / 1e9)
        }
    }
}

/// Metrics for one optimizer step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Step number (the envelope span's `id`).
    pub step: u64,
    /// Window start, ns (earliest envelope start across ranks).
    pub start_ns: u64,
    /// Window end, ns (latest envelope end across ranks).
    pub end_ns: u64,
    /// Length of the compute union inside the window, ns.
    pub compute_ns: u64,
    /// Per-hop metrics clipped to the window, in `[nc, cg, gg, cp]`
    /// order.
    pub hops: [HopReport; 4],
}

/// The full report: one entry per step plus run totals.
#[derive(Debug, Clone, Default)]
pub struct OverlapReport {
    /// Per-step metrics, ordered by step number.
    pub steps: Vec<StepReport>,
    /// Whole-run metrics (unclipped), in `[nc, cg, gg, cp]` order.
    pub totals: [HopReport; 4],
    /// Whole-run compute union length, ns.
    pub compute_ns: u64,
}

// cp (the CPU-DRAM placement path) is appended last so the established
// positions — totals[0] = nc in particular, which `zi-core`'s telemetry
// cursor reads — stay valid.
const HOPS: [(&str, &[Category]); 4] = [
    ("nc", &[Category::NcTransfer]),
    ("cg", &[Category::CgTransfer]),
    ("gg", &[Category::Allgather, Category::ReduceScatter]),
    ("cp", &[Category::CpTransfer]),
];

fn is_envelope(e: &Event) -> bool {
    e.cat == Category::Compute && e.name == STEP_SPAN
}

fn is_compute(e: &Event) -> bool {
    e.cat == Category::Compute && e.name != STEP_SPAN && e.dur_ns > 0
}

/// Collapse raw `(start, end)` intervals into a sorted disjoint union.
fn union_intervals(mut iv: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(iv.len());
    for (s, e) in iv {
        match out.last_mut() {
            Some((_, last_e)) if s <= *last_e => *last_e = (*last_e).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

fn total_len(iv: &[(u64, u64)]) -> u64 {
    iv.iter().map(|(s, e)| e - s).sum()
}

/// Length of the intersection of two disjoint sorted unions.
fn intersect_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            acc += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    acc
}

/// Clip a disjoint sorted union to `[lo, hi)`.
fn clip(iv: &[(u64, u64)], lo: u64, hi: u64) -> Vec<(u64, u64)> {
    iv.iter()
        .filter_map(|&(s, e)| {
            let (s, e) = (s.max(lo), e.min(hi));
            (e > s).then_some((s, e))
        })
        .collect()
}

fn hop_report(
    hop: &'static str,
    spans: &[(u64, u64, u64)], // (start, end, bytes)
    compute: &[(u64, u64)],
    window: Option<(u64, u64)>,
) -> HopReport {
    let in_window = |s: u64, e: u64| match window {
        Some((lo, hi)) => s < hi && e > lo,
        None => true,
    };
    let bytes = spans.iter().filter(|&&(s, e, _)| in_window(s, e.max(s + 1))).map(|&(_, _, b)| b).sum();
    let mut union = union_intervals(
        spans.iter().filter(|&&(s, e, _)| e > s).map(|&(s, e, _)| (s, e)).collect(),
    );
    let compute = match window {
        Some((lo, hi)) => {
            union = clip(&union, lo, hi);
            clip(compute, lo, hi)
        }
        None => compute.to_vec(),
    };
    HopReport {
        hop,
        bytes,
        busy_ns: total_len(&union),
        hidden_ns: intersect_len(&union, &compute),
    }
}

impl OverlapReport {
    /// Build the report from a flat event stream (any order).
    pub fn from_events(events: &[Event]) -> OverlapReport {
        // Step windows: envelope spans grouped by id, widened across ranks.
        let mut windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for e in events.iter().filter(|e| is_envelope(e)) {
            let end = e.start_ns + e.dur_ns;
            windows
                .entry(e.id)
                .and_modify(|w| {
                    w.0 = w.0.min(e.start_ns);
                    w.1 = w.1.max(end);
                })
                .or_insert((e.start_ns, end));
        }
        let compute = union_intervals(
            events
                .iter()
                .filter(|e| is_compute(e))
                .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
                .collect(),
        );
        let hop_spans: Vec<Vec<(u64, u64, u64)>> = HOPS
            .iter()
            .map(|(_, cats)| {
                events
                    .iter()
                    .filter(|e| cats.contains(&e.cat) && e.dur_ns > 0)
                    .map(|e| (e.start_ns, e.start_ns + e.dur_ns, e.bytes))
                    .collect()
            })
            .collect();
        let mk = |window: Option<(u64, u64)>| -> [HopReport; 4] {
            [
                hop_report(HOPS[0].0, &hop_spans[0], &compute, window),
                hop_report(HOPS[1].0, &hop_spans[1], &compute, window),
                hop_report(HOPS[2].0, &hop_spans[2], &compute, window),
                hop_report(HOPS[3].0, &hop_spans[3], &compute, window),
            ]
        };
        let steps = windows
            .iter()
            .map(|(&step, &(lo, hi))| StepReport {
                step,
                start_ns: lo,
                end_ns: hi,
                compute_ns: total_len(&clip(&compute, lo, hi)),
                hops: mk(Some((lo, hi))),
            })
            .collect();
        OverlapReport { steps, totals: mk(None), compute_ns: total_len(&compute) }
    }

    /// True when no hop moved any bytes anywhere in the run.
    pub fn is_empty(&self) -> bool {
        self.totals.iter().all(|h| h.bytes == 0 && h.busy_ns == 0)
    }

    /// Render the human-readable per-step + totals table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let header = format!(
            "{:>6} {:>4} {:>12} {:>10} {:>10} {:>6} {:>10}\n",
            "step", "hop", "bytes", "busy(ms)", "hidden(ms)", "eff", "MB/s"
        );
        out.push_str(&header);
        let push_hops = |label: &str, hops: &[HopReport; 4], out: &mut String| {
            for h in hops {
                out.push_str(&format!(
                    "{:>6} {:>4} {:>12} {:>10.3} {:>10.3} {:>6.2} {:>10.1}\n",
                    label,
                    h.hop,
                    h.bytes,
                    h.busy_ns as f64 / 1e6,
                    h.hidden_ns as f64 / 1e6,
                    h.efficiency(),
                    h.bandwidth_bps() / 1e6,
                ));
            }
        };
        for s in &self.steps {
            push_hops(&s.step.to_string(), &s.hops, &mut out);
        }
        push_hops("total", &self.totals, &mut out);
        out.push_str(&format!("compute (non-envelope) union: {:.3} ms\n", self.compute_ns as f64 / 1e6));
        out
    }
}

/// Aggregate throughput numbers for one named compute kernel.
///
/// Built from [`Category::Compute`] spans by [`compute_kernel_stats`];
/// `bytes` and `flops` are whatever the kernels attached via
/// [`crate::Span::set_bytes`] / [`crate::Span::set_flops`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStat {
    /// Static span name, e.g. `"tile_matmul"`.
    pub name: &'static str,
    /// Number of spans folded in.
    pub spans: u64,
    /// Summed span duration, ns.
    pub total_ns: u64,
    /// Summed payload bytes.
    pub bytes: u64,
    /// Summed floating-point operations.
    pub flops: u64,
}

impl KernelStat {
    /// Effective memory throughput in GB/s (0 when no time was recorded).
    pub fn gbps(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.bytes as f64 / self.total_ns as f64
    }

    /// Effective arithmetic throughput in GFLOP/s (0 when no time was
    /// recorded).
    pub fn gflops(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.flops as f64 / self.total_ns as f64
    }
}

/// Fold per-kernel compute throughput out of a flat event stream.
///
/// Groups [`Category::Compute`] duration spans (skipping the
/// [`STEP_SPAN`] envelopes) by name and sums their time, bytes and
/// flops. Returns stats sorted by descending total time, so the
/// dominant kernel leads — this is what the kernel bench reads to
/// judge the compute/I/O balance.
pub fn compute_kernel_stats(events: &[Event]) -> Vec<KernelStat> {
    let mut by_name: BTreeMap<&'static str, KernelStat> = BTreeMap::new();
    for e in events {
        if e.cat != Category::Compute || e.name == STEP_SPAN || e.dur_ns == 0 {
            continue;
        }
        let st = by_name.entry(e.name).or_insert(KernelStat { name: e.name, ..KernelStat::default() });
        st.spans += 1;
        st.total_ns += e.dur_ns;
        st.bytes += e.bytes;
        st.flops += e.flops;
    }
    let mut out: Vec<KernelStat> = by_name.into_values().collect();
    out.sort_by_key(|st| std::cmp::Reverse(st.total_ns));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cat: Category, name: &'static str, start: u64, dur: u64, bytes: u64, id: u64) -> Event {
        Event { cat, name, start_ns: start, dur_ns: dur, bytes, flops: 0, id, tid: 0 }
    }

    #[test]
    fn kernel_stats_fold_compute_spans_by_name() {
        let mut e1 = ev(Category::Compute, "tile_matmul", 0, 10, 100, 0);
        e1.flops = 2_000;
        let mut e2 = ev(Category::Compute, "tile_matmul", 20, 30, 300, 1);
        e2.flops = 6_000;
        let e3 = ev(Category::Compute, STEP_SPAN, 0, 100, 0, 0); // envelope: skipped
        let e4 = ev(Category::NcTransfer, "nc.read", 0, 50, 999, 0); // not compute
        let mut e5 = ev(Category::Compute, "adam_chunk", 5, 5, 40, 0);
        e5.flops = 150;
        let stats = compute_kernel_stats(&[e1, e2, e3, e4, e5]);
        assert_eq!(stats.len(), 2);
        // Sorted by descending total time: tile_matmul (40ns) first.
        assert_eq!(stats[0].name, "tile_matmul");
        assert_eq!((stats[0].spans, stats[0].total_ns, stats[0].bytes, stats[0].flops), (2, 40, 400, 8_000));
        // bytes/ns == GB/s numerically: 400 bytes / 40 ns = 10 GB/s.
        assert!((stats[0].gbps() - 10.0).abs() < 1e-12);
        assert!((stats[0].gflops() - 200.0).abs() < 1e-12);
        assert_eq!(stats[1].name, "adam_chunk");
        assert_eq!(stats[1].total_ns, 5);
    }

    #[test]
    fn half_overlapped_io_scores_point_five() {
        // io [0,10), compute [5,15): hidden 5 of 10 busy.
        let events = vec![
            ev(Category::NcTransfer, "nc.read", 0, 10, 1000, 0),
            ev(Category::Compute, "adam_chunk", 5, 10, 0, 0),
        ];
        let r = OverlapReport::from_events(&events);
        let nc = r.totals[0];
        assert_eq!((nc.busy_ns, nc.hidden_ns, nc.bytes), (10, 5, 1000));
        assert!((nc.efficiency() - 0.5).abs() < 1e-9);
        // 1000 bytes in 10 ns = 1e11 B/s.
        assert!((nc.bandwidth_bps() - 1e11).abs() < 1.0);
    }

    #[test]
    fn overlapping_spans_union_not_sum() {
        // Two overlapping nc reads [0,10) and [5,15): busy is 15, not 20.
        let events = vec![
            ev(Category::NcTransfer, "nc.read", 0, 10, 100, 0),
            ev(Category::NcTransfer, "nc.read", 5, 10, 100, 1),
        ];
        let r = OverlapReport::from_events(&events);
        assert_eq!(r.totals[0].busy_ns, 15);
        assert_eq!(r.totals[0].bytes, 200);
    }

    #[test]
    fn envelope_spans_delimit_steps_but_are_not_compute() {
        let events = vec![
            // Step 0 envelope [0,100); inside it: io [10,30), compute [20,40).
            ev(Category::Compute, STEP_SPAN, 0, 100, 0, 0),
            ev(Category::NcTransfer, "nc.read", 10, 20, 64, 0),
            ev(Category::Compute, "fwdbwd", 20, 20, 0, 0),
            // Step 1 envelope [100,200); io [110,120) with no compute.
            ev(Category::Compute, STEP_SPAN, 100, 100, 0, 1),
            ev(Category::CgTransfer, "cg.upload", 110, 10, 32, 0),
        ];
        let r = OverlapReport::from_events(&events);
        assert_eq!(r.steps.len(), 2);
        let s0 = &r.steps[0];
        assert_eq!((s0.step, s0.start_ns, s0.end_ns), (0, 0, 100));
        // If the envelope counted as compute, hidden would be 20/20.
        assert_eq!((s0.hops[0].busy_ns, s0.hops[0].hidden_ns), (20, 10));
        let s1 = &r.steps[1];
        assert_eq!(s1.hops[1].busy_ns, 10);
        assert_eq!(s1.hops[1].hidden_ns, 0);
        assert_eq!(s1.hops[1].efficiency(), 0.0);
        // Step 0's cg hop saw no traffic: vacuous efficiency 1.0.
        assert_eq!(s0.hops[1].efficiency(), 1.0);
    }

    #[test]
    fn multi_rank_envelopes_widen_the_step_window() {
        let events = vec![
            ev(Category::Compute, STEP_SPAN, 0, 50, 0, 0),  // rank 0
            ev(Category::Compute, STEP_SPAN, 10, 70, 0, 0), // rank 1, same step
        ];
        let r = OverlapReport::from_events(&events);
        assert_eq!(r.steps.len(), 1);
        assert_eq!((r.steps[0].start_ns, r.steps[0].end_ns), (0, 80));
    }

    #[test]
    fn gg_hop_merges_allgather_and_reduce_scatter() {
        let events = vec![
            ev(Category::Allgather, "gg.allgather", 0, 10, 100, 0),
            ev(Category::ReduceScatter, "gg.reduce_scatter", 20, 10, 50, 0),
        ];
        let r = OverlapReport::from_events(&events);
        assert_eq!(r.totals[2].bytes, 150);
        assert_eq!(r.totals[2].busy_ns, 20);
        assert!(!r.is_empty());
        assert!(OverlapReport::from_events(&[]).is_empty());
    }

    #[test]
    fn render_produces_a_row_per_step_hop_and_totals() {
        let events = vec![
            ev(Category::Compute, STEP_SPAN, 0, 100, 0, 0),
            ev(Category::NcTransfer, "nc.read", 10, 20, 64, 0),
        ];
        let text = OverlapReport::from_events(&events).render();
        assert!(text.contains("total"));
        assert!(text.lines().count() >= 8, "header + step rows + totals:\n{text}");
    }
}
