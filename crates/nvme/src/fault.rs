//! Deterministic fault injection for storage backends.
//!
//! [`FaultyBackend`] wraps any [`StorageBackend`] and injects faults
//! according to a shared [`FaultPlan`]. Plans combine two layers:
//!
//! * **Scripted** faults — "fail the next N reads", "tear the next
//!   write", "kill the device now" — consumed in submission order, for
//!   tests that need an exact failure at an exact point.
//! * **Probabilistic** faults — a seeded xorshift stream rolls each
//!   operation against a [`FaultProfile`], for chaos soaks. The stream
//!   is deterministic per *operation sequence*; with a multi-worker
//!   engine the interleaving (and hence which op draws which roll)
//!   varies, but the fault *rates* and the recoverability guarantees do
//!   not.
//!
//! Injected fault taxonomy (see DESIGN.md, "Failure model & recovery"):
//!
//! | fault          | effect                                   | class     |
//! |----------------|------------------------------------------|-----------|
//! | transient I/O  | op fails, device state untouched         | transient |
//! | latency spike  | op delayed, then runs normally           | benign    |
//! | torn write     | prefix persisted, op reports failure     | transient |
//! | read bit-flip  | buffer corrupted, op reports success     | silent    |
//! | device death   | every op fails from then on              | permanent |
//!
//! Torn writes are recoverable by retrying the write (a rewrite of the
//! full extent restores consistency). Read bit-flips are recoverable by
//! checksum-verified re-reads (the device still holds clean data). Both
//! therefore count as transient for the retry layer; only device death
//! is terminal.

use zi_sync::Arc;
use std::time::Duration;

use zi_sync::Mutex;
use zi_types::{Error, Result};

use crate::backend::StorageBackend;

/// Probabilities for the seeded chaos layer of a [`FaultPlan`].
///
/// All probabilities are per-operation and independently rolled.
#[derive(Debug, Clone, Copy)]
pub struct FaultProfile {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Probability a read fails with a transient I/O error.
    pub read_fault: f64,
    /// Probability a write fails with a transient I/O error (nothing
    /// persisted).
    pub write_fault: f64,
    /// Probability a write is torn: a strict prefix is persisted and the
    /// operation reports a transient failure.
    pub torn_write: f64,
    /// Probability an operation is delayed by [`FaultProfile::spike`].
    pub latency_spike: f64,
    /// Duration of an injected latency spike.
    pub spike: Duration,
}

impl FaultProfile {
    /// Profile that injects nothing (all probabilities zero).
    pub fn quiet(seed: u64) -> Self {
        FaultProfile {
            seed,
            read_fault: 0.0,
            write_fault: 0.0,
            torn_write: 0.0,
            latency_spike: 0.0,
            spike: Duration::ZERO,
        }
    }
}

/// Counts of faults a plan has injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectedStats {
    /// Reads failed with a transient error.
    pub read_faults: u64,
    /// Writes failed with a transient error (nothing persisted).
    pub write_faults: u64,
    /// Writes torn (prefix persisted, failure reported).
    pub torn_writes: u64,
    /// Reads whose returned buffer had a bit flipped.
    pub bitflips: u64,
    /// Operations delayed by an injected latency spike.
    pub latency_spikes: u64,
    /// Operations rejected because the device was dead.
    pub dead_rejections: u64,
}

impl InjectedStats {
    /// Total number of injected faults of any kind (spikes excluded —
    /// they delay but do not fail).
    pub fn total_faults(&self) -> u64 {
        self.read_faults + self.write_faults + self.torn_writes + self.bitflips
            + self.dead_rejections
    }
}

#[derive(Default)]
struct PlanState {
    fail_next_reads: u32,
    fail_next_writes: u32,
    torn_next_writes: u32,
    bitflip_next_reads: u32,
    delay_next_ops: u32,
    scripted_delay: Duration,
    dead: bool,
    /// Scripted delayed death: the device dies right before judging the
    /// (n+1)-th data operation from now.
    ops_until_death: Option<u64>,
    /// Data operations (reads + writes) judged so far.
    ops_seen: u64,
    profile: Option<FaultProfile>,
    rng: u64,
    injected: InjectedStats,
}

impl PlanState {
    /// Count a data operation and trigger a scripted delayed death when
    /// its countdown expires. Called at the top of every read/write judge.
    fn tick(&mut self) {
        self.ops_seen += 1;
        if let Some(n) = self.ops_until_death {
            if n == 0 {
                self.dead = true;
                self.ops_until_death = None;
            } else {
                self.ops_until_death = Some(n - 1);
            }
        }
    }

    /// xorshift64* — deterministic per draw sequence.
    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        // 53 bits of the product give a uniform draw in [0, 1).
        let draw = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        draw < p
    }
}

/// What the plan decided to do with one operation.
enum Verdict {
    /// Proceed against the inner backend unmodified.
    Proceed,
    /// Fail with a transient I/O error without touching the device.
    FailTransient(&'static str),
    /// The device is dead: fail permanently.
    Dead,
    /// Write only the first `prefix` bytes, then report a transient
    /// failure (torn write).
    Torn { prefix: usize },
    /// Perform the read, then flip bit `bit` of byte `byte` in the
    /// returned buffer (silent corruption).
    BitFlip { byte: usize, bit: u8 },
}

/// Shared, cloneable handle to a fault-injection plan.
///
/// Tests hold one clone to script faults mid-run while a
/// [`FaultyBackend`] holds another. The default plan injects nothing.
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Mutex<PlanState>>,
}

impl FaultPlan {
    /// Plan that injects nothing until scripted to.
    pub fn new() -> Self {
        Self::default()
    }

    /// Plan whose every operation is rolled against `profile`, on top of
    /// any scripted faults (scripted faults take precedence).
    pub fn probabilistic(profile: FaultProfile) -> Self {
        let plan = Self::new();
        {
            let mut st = plan.inner.lock();
            // xorshift must not start at 0; fold the seed into a fixed
            // odd constant so seed 0 is usable.
            st.rng = profile.seed ^ 0x9e37_79b9_7f4a_7c15;
            st.profile = Some(profile);
        }
        plan
    }

    /// Fail the next `n` reads with a transient I/O error.
    pub fn fail_next_reads(&self, n: u32) {
        self.inner.lock().fail_next_reads = n;
    }

    /// Fail the next `n` writes with a transient I/O error (nothing is
    /// persisted).
    pub fn fail_next_writes(&self, n: u32) {
        self.inner.lock().fail_next_writes = n;
    }

    /// Tear the next `n` writes: persist a strict prefix, then report a
    /// transient failure.
    pub fn torn_next_writes(&self, n: u32) {
        self.inner.lock().torn_next_writes = n;
    }

    /// Silently flip one bit in the buffers returned by the next `n`
    /// reads (the device data stays clean — a re-read returns good
    /// bytes, modelling a transfer-path upset rather than media decay).
    pub fn bitflip_next_reads(&self, n: u32) {
        self.inner.lock().bitflip_next_reads = n;
    }

    /// Delay the next `n` operations by `by` before executing them.
    pub fn delay_next_ops(&self, n: u32, by: Duration) {
        let mut st = self.inner.lock();
        st.delay_next_ops = n;
        st.scripted_delay = by;
    }

    /// Declare the device dead: every subsequent operation (including
    /// `sync` and `len`) fails with [`Error::DeviceFailed`].
    pub fn kill(&self) {
        self.inner.lock().dead = true;
    }

    /// Let the next `n` data operations (reads + writes) through, then
    /// kill the device. Deterministic mid-run death for recovery tests:
    /// unlike [`Self::kill`] from another thread, the failure point is an
    /// exact operation count, not a race.
    pub fn kill_after_ops(&self, n: u64) {
        self.inner.lock().ops_until_death = Some(n);
    }

    /// Data operations (reads + writes) judged so far, faulty or not.
    /// Lets a fault-free calibration run measure how many operations a
    /// workload performs, so [`Self::kill_after_ops`] can place death at
    /// a chosen fraction of it.
    pub fn ops_seen(&self) -> u64 {
        self.inner.lock().ops_seen
    }

    /// True if the plan currently rejects everything.
    pub fn is_dead(&self) -> bool {
        self.inner.lock().dead
    }

    /// Error (and count a rejection) if the device is dead.
    fn check_alive(&self) -> Result<()> {
        let mut st = self.inner.lock();
        if st.dead {
            st.injected.dead_rejections += 1;
            return Err(dead());
        }
        Ok(())
    }

    /// Snapshot of the faults injected so far.
    pub fn injected(&self) -> InjectedStats {
        self.inner.lock().injected
    }

    /// Decide the fate of one read of `len` bytes. Returns the verdict
    /// plus an optional injected delay (applied by the caller *outside*
    /// the plan lock).
    fn judge_read(&self, len: usize) -> (Verdict, Option<Duration>) {
        let mut st = self.inner.lock();
        st.tick();
        if st.dead {
            st.injected.dead_rejections += 1;
            return (Verdict::Dead, None);
        }
        let delay = Self::take_delay(&mut st);
        if st.fail_next_reads > 0 {
            st.fail_next_reads -= 1;
            st.injected.read_faults += 1;
            return (Verdict::FailTransient("injected read failure"), delay);
        }
        if st.bitflip_next_reads > 0 && len > 0 {
            st.bitflip_next_reads -= 1;
            st.injected.bitflips += 1;
            let byte = (st.next_u64() as usize) % len;
            let bit = (st.next_u64() % 8) as u8;
            return (Verdict::BitFlip { byte, bit }, delay);
        }
        if let Some(p) = st.profile {
            if st.roll(p.read_fault) {
                st.injected.read_faults += 1;
                return (Verdict::FailTransient("injected read failure"), delay);
            }
        }
        (Verdict::Proceed, delay)
    }

    /// Decide the fate of one write of `len` bytes.
    fn judge_write(&self, len: usize) -> (Verdict, Option<Duration>) {
        let mut st = self.inner.lock();
        st.tick();
        if st.dead {
            st.injected.dead_rejections += 1;
            return (Verdict::Dead, None);
        }
        let delay = Self::take_delay(&mut st);
        if st.fail_next_writes > 0 {
            st.fail_next_writes -= 1;
            st.injected.write_faults += 1;
            return (Verdict::FailTransient("injected write failure"), delay);
        }
        if st.torn_next_writes > 0 && len > 1 {
            st.torn_next_writes -= 1;
            st.injected.torn_writes += 1;
            let prefix = 1 + (st.next_u64() as usize) % (len - 1);
            return (Verdict::Torn { prefix }, delay);
        }
        if let Some(p) = st.profile {
            if st.roll(p.write_fault) {
                st.injected.write_faults += 1;
                return (Verdict::FailTransient("injected write failure"), delay);
            }
            if len > 1 && st.roll(p.torn_write) {
                st.injected.torn_writes += 1;
                let prefix = 1 + (st.next_u64() as usize) % (len - 1);
                return (Verdict::Torn { prefix }, delay);
            }
        }
        (Verdict::Proceed, delay)
    }

    fn take_delay(st: &mut PlanState) -> Option<Duration> {
        if st.delay_next_ops > 0 {
            st.delay_next_ops -= 1;
            st.injected.latency_spikes += 1;
            return Some(st.scripted_delay);
        }
        if let Some(p) = st.profile {
            if st.roll(p.latency_spike) {
                st.injected.latency_spikes += 1;
                return Some(p.spike);
            }
        }
        None
    }
}

fn transient(msg: &'static str) -> Error {
    Error::Io(std::io::Error::other(msg))
}

fn dead() -> Error {
    Error::DeviceFailed("fault plan declared device dead".into())
}

/// Storage backend wrapper that injects faults per a [`FaultPlan`].
pub struct FaultyBackend<B> {
    inner: B,
    plan: FaultPlan,
}

impl<B: StorageBackend> FaultyBackend<B> {
    /// Wrap `inner`, injecting faults according to `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        FaultyBackend { inner, plan }
    }

    /// The plan driving this backend (clone it to script faults).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: StorageBackend> StorageBackend for FaultyBackend<B> {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let (verdict, delay) = self.plan.judge_read(buf.len());
        if let Some(d) = delay {
            zi_sync::thread::sleep(d);
        }
        match verdict {
            Verdict::Dead => Err(dead()),
            Verdict::FailTransient(msg) => Err(transient(msg)),
            Verdict::Proceed => self.inner.read_at(offset, buf),
            Verdict::BitFlip { byte, bit } => {
                self.inner.read_at(offset, buf)?;
                buf[byte] ^= 1 << bit;
                Ok(())
            }
            Verdict::Torn { .. } => unreachable!("torn verdicts only for writes"),
        }
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        let (verdict, delay) = self.plan.judge_write(data.len());
        if let Some(d) = delay {
            zi_sync::thread::sleep(d);
        }
        match verdict {
            Verdict::Dead => Err(dead()),
            Verdict::FailTransient(msg) => Err(transient(msg)),
            Verdict::Proceed => self.inner.write_at(offset, data),
            Verdict::Torn { prefix } => {
                self.inner.write_at(offset, &data[..prefix])?;
                Err(transient("injected torn write"))
            }
            Verdict::BitFlip { .. } => unreachable!("bitflip verdicts only for reads"),
        }
    }

    fn sync(&self) -> Result<()> {
        self.plan.check_alive()?;
        self.inner.sync()
    }

    fn len(&self) -> Result<u64> {
        self.plan.check_alive()?;
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultPlan {
        /// Bring a killed device back (the next operations run normally).
        pub(crate) fn revive(&self) {
            self.inner.lock().dead = false;
        }
    }
    use crate::backend::MemBackend;

    fn faulty() -> (FaultPlan, FaultyBackend<MemBackend>) {
        let plan = FaultPlan::new();
        (plan.clone(), FaultyBackend::new(MemBackend::new(), plan))
    }

    #[test]
    fn quiet_plan_is_a_pass_through() {
        let (plan, b) = faulty();
        b.write_at(8, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        b.read_at(8, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(b.len().unwrap(), 11);
        assert_eq!(plan.injected(), InjectedStats::default());
    }

    #[test]
    fn scripted_read_failures_then_recovery() {
        let (plan, b) = faulty();
        b.write_at(0, &[9; 4]).unwrap();
        plan.fail_next_reads(2);
        let mut buf = [0u8; 4];
        for _ in 0..2 {
            let err = b.read_at(0, &mut buf).unwrap_err();
            assert!(err.is_transient());
        }
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [9; 4]);
        assert_eq!(plan.injected().read_faults, 2);
    }

    #[test]
    fn torn_write_persists_a_strict_prefix() {
        let (plan, b) = faulty();
        plan.torn_next_writes(1);
        let err = b.write_at(0, &[5; 64]).unwrap_err();
        assert!(err.is_transient());
        let torn_len = b.len().unwrap();
        assert!((1..64).contains(&torn_len), "torn length {torn_len}");
        // Retrying the write restores full consistency.
        b.write_at(0, &[5; 64]).unwrap();
        let mut buf = [0u8; 64];
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 64]);
        assert_eq!(plan.injected().torn_writes, 1);
    }

    #[test]
    fn bitflip_corrupts_exactly_one_bit_and_only_once() {
        let (plan, b) = faulty();
        let clean = vec![0xa5u8; 32];
        b.write_at(0, &clean).unwrap();
        plan.bitflip_next_reads(1);
        let mut buf = vec![0u8; 32];
        b.read_at(0, &mut buf).unwrap();
        let flipped: u32 =
            buf.iter().zip(&clean).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
        // Device data is clean: the next read is perfect.
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, clean);
        assert_eq!(plan.injected().bitflips, 1);
    }

    #[test]
    fn dead_device_rejects_everything_until_revived() {
        let (plan, b) = faulty();
        b.write_at(0, &[1]).unwrap();
        plan.kill();
        let mut buf = [0u8; 1];
        assert!(b.read_at(0, &mut buf).unwrap_err().is_device_failure());
        assert!(b.write_at(0, &[2]).unwrap_err().is_device_failure());
        assert!(b.sync().unwrap_err().is_device_failure());
        assert!(b.len().unwrap_err().is_device_failure());
        plan.revive();
        b.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [1]);
        assert!(plan.injected().dead_rejections >= 4);
    }

    #[test]
    fn delayed_death_fires_at_an_exact_operation_count() {
        let (plan, b) = faulty();
        plan.kill_after_ops(3);
        b.write_at(0, &[1; 4]).unwrap();
        let mut buf = [0u8; 4];
        b.read_at(0, &mut buf).unwrap();
        b.write_at(4, &[2; 4]).unwrap();
        // Fourth data op: the device is now dead.
        assert!(b.read_at(0, &mut buf).unwrap_err().is_device_failure());
        assert!(plan.is_dead());
        assert_eq!(plan.ops_seen(), 4);
    }

    #[test]
    fn probabilistic_plan_is_deterministic_for_a_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::probabilistic(FaultProfile {
                read_fault: 0.3,
                write_fault: 0.2,
                ..FaultProfile::quiet(seed)
            });
            let b = FaultyBackend::new(MemBackend::new(), plan.clone());
            let mut outcomes = Vec::new();
            for i in 0..200u64 {
                outcomes.push(b.write_at(i * 4, &[i as u8; 4]).is_ok());
                let mut buf = [0u8; 4];
                outcomes.push(b.read_at(0, &mut buf).is_ok());
            }
            (outcomes, plan.injected())
        };
        let (o1, s1) = run(42);
        let (o2, s2) = run(42);
        assert_eq!(o1, o2);
        assert_eq!(s1, s2);
        assert!(s1.read_faults > 0 && s1.write_faults > 0);
        let (o3, _) = run(43);
        assert_ne!(o1, o3, "different seeds give different fault streams");
    }

    #[test]
    fn latency_spike_delays_but_succeeds() {
        let (plan, b) = faulty();
        b.write_at(0, &[7; 8]).unwrap();
        plan.delay_next_ops(1, Duration::from_millis(20));
        let start = zi_sync::time::Instant::now();
        let mut buf = [0u8; 8];
        b.read_at(0, &mut buf).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(15));
        assert_eq!(buf, [7; 8]);
        assert_eq!(plan.injected().latency_spikes, 1);
    }
}
