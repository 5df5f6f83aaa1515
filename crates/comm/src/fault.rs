//! Deterministic fault injection for collectives.
//!
//! [`CommFaultPlan`] mirrors the storage layer's `nvme::FaultPlan` for
//! the communication layer: a shared, cloneable plan that a
//! [`crate::CommGroup`] consults at every collective *entry*, combining
//!
//! scripted faults — "kill rank 2 now", "kill rank 2 after its next N
//! collectives", "delay rank 0's next op", "corrupt rank 1's next
//! contribution" — consumed in submission order, for tests and chaos
//! schedules that need an exact failure at an exact point.
//!
//! Injected comm-fault taxonomy (see DESIGN.md, "Failure model &
//! recovery"):
//!
//! | fault        | effect                                            | class     |
//! |--------------|---------------------------------------------------|-----------|
//! | rank death   | rank exits the collective; group permanently broken | permanent |
//! | delay        | rank enters the collective late, then proceeds    | benign    |
//! | corruption   | one bit of the rank's contribution flipped        | silent    |
//!
//! A rank death is surfaced as `Error::RankFailed` on the victim *and*
//! on every surviving rank (coordinated abort) — never as a hang. A
//! delay longer than the group's collective deadline degenerates into
//! `Error::CollectiveTimeout` on the waiting peers, which is exactly the
//! wedged-peer scenario the deadline exists for.

use std::collections::HashMap;
use zi_sync::Arc;
use std::time::Duration;

use zi_sync::Mutex;
use zi_types::Rank;

/// Counts of faults a plan has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommInjectedStats {
    /// Ranks killed at a collective entry.
    pub rank_deaths: u64,
    /// Collective entries delayed.
    pub delays: u64,
    /// Contributions with a bit flipped.
    pub corruptions: u64,
}

impl CommInjectedStats {
    /// Total injected faults of any kind (delays excluded — they slow
    /// but do not fail or corrupt).
    pub fn total_faults(&self) -> u64 {
        self.rank_deaths + self.corruptions
    }
}

/// What the plan decided to do with one rank's collective entry.
///
/// Consumed by the `CommGroup` collectives; `Corrupt`'s salt seeds the
/// bit-flip position so the plan stays ignorant of contribution layout.
#[derive(Debug, Clone, Copy)]
pub enum CommVerdict {
    /// Enter the collective unmodified.
    Proceed,
    /// The rank dies here: it must mark the group failed and return
    /// `Error::RankFailed` for itself.
    Die,
    /// Flip one bit of the contribution, chosen from `salt`.
    Corrupt {
        /// Random draw used to pick the flipped bit.
        salt: u64,
    },
}

/// Per-rank scripted state.
#[derive(Default)]
struct RankScript {
    /// Die at the next collective entry.
    die: bool,
    /// Let this many entries through, then die.
    die_after_ops: Option<u64>,
    delay_next_ops: u32,
    scripted_delay: Duration,
    corrupt_next_ops: u32,
    /// Collective entries judged for this rank.
    ops_seen: u64,
}

#[derive(Default)]
struct PlanState {
    scripts: HashMap<Rank, RankScript>,
    rng: u64,
    injected: CommInjectedStats,
}

impl PlanState {
    /// xorshift64* — deterministic per draw sequence.
    fn next_u64(&mut self) -> u64 {
        if self.rng == 0 {
            // 0 is xorshift's fixed point: start from a fixed odd constant.
            self.rng = 0x9e37_79b9_7f4a_7c15;
        }
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Shared, cloneable handle to a collective fault-injection plan.
///
/// Tests hold one clone to script faults mid-run while a
/// [`crate::CommGroup`] holds another. The default plan injects
/// nothing. One plan may outlive several groups (the elastic trainer
/// reuses it across world-shrink restarts); scripted faults are
/// one-shot, so a kill consumed in one session does not fire again.
#[derive(Clone, Default)]
pub struct CommFaultPlan {
    inner: Arc<Mutex<PlanState>>,
}

impl CommFaultPlan {
    /// Plan that injects nothing until scripted to.
    pub fn new() -> Self {
        Self::default()
    }

    /// Kill `rank` at its next collective entry.
    pub fn kill_rank(&self, rank: Rank) {
        self.inner.lock().scripts.entry(rank).or_default().die = true;
    }

    /// Let `rank`'s next `n` collective entries through, then kill it.
    /// Deterministic mid-run death: the failure point is an exact
    /// per-rank operation count, not a race.
    pub fn kill_rank_after_ops(&self, rank: Rank, n: u64) {
        self.inner.lock().scripts.entry(rank).or_default().die_after_ops = Some(n);
    }

    /// Delay `rank`'s next `n` collective entries by `by`.
    pub fn delay_next_ops(&self, rank: Rank, n: u32, by: Duration) {
        let mut st = self.inner.lock();
        let sc = st.scripts.entry(rank).or_default();
        sc.delay_next_ops = n;
        sc.scripted_delay = by;
    }

    /// Flip one bit in `rank`'s next `n` collective contributions
    /// (silent in-transit corruption; the collective still completes).
    pub fn corrupt_next_ops(&self, rank: Rank, n: u32) {
        self.inner.lock().scripts.entry(rank).or_default().corrupt_next_ops = n;
    }

    /// Collective entries judged so far for `rank`, faulty or not. Lets
    /// a fault-free calibration run measure how many collectives a
    /// workload performs, so [`Self::kill_rank_after_ops`] can place
    /// death at a chosen fraction of it.
    pub fn ops_seen(&self, rank: Rank) -> u64 {
        self.inner.lock().scripts.get(&rank).map_or(0, |s| s.ops_seen)
    }

    /// Snapshot of the faults injected so far.
    pub fn injected(&self) -> CommInjectedStats {
        self.inner.lock().injected
    }

    /// Decide the fate of one collective entry by `rank`. Returns the
    /// verdict plus an optional injected delay (applied by the caller
    /// *outside* the plan lock).
    pub fn judge(&self, rank: Rank) -> (CommVerdict, Option<Duration>) {
        let mut st = self.inner.lock();
        // Counts every entry, faulty or not.
        let (die, delay, corrupt) = {
            let sc = st.scripts.entry(rank).or_default();
            sc.ops_seen += 1;
            if let Some(n) = sc.die_after_ops {
                if n == 0 {
                    sc.die = true;
                    sc.die_after_ops = None;
                } else {
                    sc.die_after_ops = Some(n - 1);
                }
            }
            let die = sc.die;
            sc.die = false; // one-shot: a later session must not re-kill
            let delay = if !die && sc.delay_next_ops > 0 {
                sc.delay_next_ops -= 1;
                Some(sc.scripted_delay)
            } else {
                None
            };
            let corrupt = !die && sc.corrupt_next_ops > 0;
            if corrupt {
                sc.corrupt_next_ops -= 1;
            }
            (die, delay, corrupt)
        };
        if die {
            st.injected.rank_deaths += 1;
            return (CommVerdict::Die, None);
        }
        if delay.is_some() {
            st.injected.delays += 1;
        }
        if corrupt {
            st.injected.corruptions += 1;
            let salt = st.next_u64();
            return (CommVerdict::Corrupt { salt }, delay);
        }
        (CommVerdict::Proceed, delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_always_proceeds() {
        let plan = CommFaultPlan::new();
        for rank in 0..4 {
            for _ in 0..10 {
                let (v, d) = plan.judge(rank);
                assert!(matches!(v, CommVerdict::Proceed));
                assert!(d.is_none());
            }
        }
        assert_eq!(plan.injected(), CommInjectedStats::default());
        assert_eq!(plan.ops_seen(2), 10);
    }

    #[test]
    fn scripted_kill_fires_once_at_exact_op() {
        let plan = CommFaultPlan::new();
        plan.kill_rank_after_ops(1, 3);
        for _ in 0..3 {
            assert!(matches!(plan.judge(1).0, CommVerdict::Proceed));
            // Other ranks are unaffected.
            assert!(matches!(plan.judge(0).0, CommVerdict::Proceed));
        }
        assert!(matches!(plan.judge(1).0, CommVerdict::Die));
        // One-shot: the next session's entries proceed again.
        assert!(matches!(plan.judge(1).0, CommVerdict::Proceed));
        assert_eq!(plan.injected().rank_deaths, 1);
        assert_eq!(plan.ops_seen(1), 5);
    }

    #[test]
    fn scripted_delay_and_corruption() {
        let plan = CommFaultPlan::new();
        plan.delay_next_ops(0, 1, Duration::from_millis(7));
        plan.corrupt_next_ops(2, 1);
        let (v, d) = plan.judge(0);
        assert!(matches!(v, CommVerdict::Proceed));
        assert_eq!(d, Some(Duration::from_millis(7)));
        assert!(plan.judge(0).1.is_none(), "delay budget exhausted");
        assert!(matches!(plan.judge(2).0, CommVerdict::Corrupt { .. }));
        assert!(matches!(plan.judge(2).0, CommVerdict::Proceed));
        let stats = plan.injected();
        assert_eq!(stats.delays, 1);
        assert_eq!(stats.corruptions, 1);
        assert_eq!(stats.total_faults(), 1, "delays do not count as faults");
    }
}
