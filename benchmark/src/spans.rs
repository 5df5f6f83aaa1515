//! The harness's own spans, recorded in memory around each call into a
//! layer of the program and written out when the run ends.
//!
//! The program's `zi-trace` stream says what happened *inside* a layer;
//! these say how long the harness waited for it. A span's self time is
//! its duration minus the part its children cover, so `bench.step`'s
//! self time is what the step loop itself costs (batch generation,
//! bookkeeping) — time no layer accounts for.

/// Span names, fixed so trace readers and `README.md` can rely on them.
pub const SETUP: &str = "bench.setup";
pub const STEP: &str = "bench.step";
pub const FWDBWD: &str = "bench.fwdbwd";
pub const OPTIM: &str = "bench.optim";
pub const LOSS_SYNC: &str = "bench.loss_sync";

/// One closed span. `parent` indexes into the same log; `id` is the
/// step number shared by every span of one step.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

/// Append-only span log for one rank thread.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<BenchSpan>,
}

impl SpanLog {
    /// Record a closed span and return its index (for use as a parent).
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(BenchSpan {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Reserve a parent slot before its children run; closed with
    /// [`SpanLog::close`] once the end time is known.
    pub fn open(&mut self, name: &'static str, start_ns: u64, id: u64) -> usize {
        self.push(name, start_ns, start_ns, None, id)
    }

    /// Set the end time of a span opened with [`SpanLog::open`].
    pub fn close(&mut self, idx: usize, end_ns: u64) {
        let s = &mut self.spans[idx];
        s.end_ns = end_ns.max(s.start_ns);
    }

    pub fn spans(&self) -> &[BenchSpan] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus the union of its
    /// direct children's intervals (clipped to the span).
    pub fn self_ns(&self, idx: usize) -> u64 {
        let me = &self.spans[idx];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(s, e)| e > s)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = me.start_ns;
        for (s, e) in kids {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        (me.end_ns - me.start_ns) - covered
    }

    /// Summed self time of every span called `name`, ns.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        // step [0, 100): fwdbwd [10, 50), optim [40, 90) overlap by 10,
        // a grandchild inside optim must not be subtracted from step.
        let mut log = SpanLog::default();
        let step = log.open(STEP, 0, 7);
        let _f = log.push(FWDBWD, 10, 50, Some(step), 7);
        let o = log.push(OPTIM, 40, 90, Some(step), 7);
        let _g = log.push("bench.inner", 45, 60, Some(o), 7);
        log.close(step, 100);
        assert_eq!(log.self_ns(step), 100 - 80);
        assert_eq!(log.self_ns(o), 50 - 15);
        assert_eq!(log.total_self_ns(STEP), 20);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let mut log = SpanLog::default();
        let p = log.open(STEP, 100, 0);
        log.push(FWDBWD, 50, 150, Some(p), 0);
        log.push(OPTIM, 190, 400, Some(p), 0);
        log.close(p, 200);
        assert_eq!(log.self_ns(p), 100 - 50 - 10);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let mut log = SpanLog::default();
        let i = log.push(SETUP, 5, 25, None, 0);
        assert_eq!(log.self_ns(i), 20);
        assert_eq!(log.spans()[i].id, 0);
    }
}
