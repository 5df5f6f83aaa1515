//! Retry policy for storage I/O: bounded exponential backoff with
//! deterministic jitter and a per-request deadline.
//!
//! Transient failures (see [`Error::is_transient`]) are retried up to
//! [`RetryPolicy::max_attempts`] times; backoff between attempts grows
//! exponentially with a seeded jitter so the sequence is reproducible
//! run-to-run yet decorrelated across requests. Two give-up paths exist,
//! both permanent:
//!
//! * attempts exhausted → [`Error::DeviceFailed`];
//! * the next backoff would overrun [`RetryPolicy::deadline`] →
//!   [`Error::Timeout`].
//!
//! The backoff sequence `backoff(1), backoff(2), …` is (provably)
//! monotone nondecreasing, bounded by [`RetryPolicy::max_backoff`], and
//! a pure function of `(jitter_seed, attempt)` — properties the chaos
//! suite checks with property tests.

use std::time::{Duration, Instant};

use zi_types::{Error, Result};

/// Retry configuration for one class of I/O requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per request, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Wall-clock budget per request, covering attempts and backoff.
    pub deadline: Duration,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            deadline: Duration::from_secs(10),
            jitter_seed: 0x0005_eedb_a5e0_f1e7,
        }
    }
}

/// splitmix64 finalizer over `(seed, attempt)` — the jitter stream.
fn jitter_hash(seed: u64, attempt: u32) -> u64 {
    let mut z = seed ^ (attempt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of running an operation under a policy.
pub struct RetryReport<T> {
    /// Final result after all attempts.
    pub result: Result<T>,
    /// Number of retries performed (attempts − 1 on success; may be
    /// lower when a permanent error short-circuits).
    pub retries: u32,
    /// True if the policy gave up on a transient failure (exhausted
    /// attempts or hit the deadline) — the signal that the device
    /// should be declared dead.
    pub gave_up: bool,
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, no backoff).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            deadline: Duration::from_secs(3600),
            jitter_seed: 0,
        }
    }

    /// Backoff before attempt `attempt + 1`, where `attempt ≥ 1` is the
    /// number of failures so far: `min(base·2^(attempt−1) + jitter,
    /// max_backoff)` with `jitter ∈ [0, base·2^(attempt−1)/4]` drawn
    /// deterministically from `(jitter_seed, attempt)`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        debug_assert!(attempt >= 1, "backoff is only defined after a failure");
        let base = self.base_backoff.as_nanos();
        let raw = base.saturating_mul(1u128 << (attempt.saturating_sub(1)).min(63));
        let span = raw / 4 + 1;
        let jitter = jitter_hash(self.jitter_seed, attempt) as u128 % span;
        let total = raw.saturating_add(jitter).min(self.max_backoff.as_nanos());
        Duration::from_nanos(total.min(u64::MAX as u128) as u64)
    }

    /// Run `op` under this policy. Transient errors are retried with
    /// backoff; permanent errors and successes return immediately.
    ///
    /// `context` names the request in give-up errors (e.g. `"read 4096 B
    /// at 0x1000"`); it is rendered only when the policy gives up, so a
    /// lazy `format_args!` costs the success path nothing.
    pub fn run<T>(
        &self,
        context: impl std::fmt::Display,
        mut op: impl FnMut() -> Result<T>,
    ) -> RetryReport<T> {
        let start = Instant::now();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match op() {
                Ok(v) => {
                    return RetryReport { result: Ok(v), retries: attempt - 1, gave_up: false }
                }
                Err(e) if !e.is_transient() => {
                    return RetryReport { result: Err(e), retries: attempt - 1, gave_up: false }
                }
                Err(e) => e,
            };
            if attempt >= self.max_attempts.max(1) {
                return RetryReport {
                    result: Err(Error::DeviceFailed(format!(
                        "{context}: retries exhausted after {attempt} attempts; last error: {err}"
                    ))),
                    retries: attempt - 1,
                    gave_up: true,
                };
            }
            let pause = self.backoff(attempt);
            if start.elapsed() + pause > self.deadline {
                return RetryReport {
                    result: Err(Error::Timeout {
                        context: format!("{context}: {err}"),
                        deadline: self.deadline,
                    }),
                    retries: attempt - 1,
                    gave_up: true,
                };
            }
            zi_sync::thread::sleep(pause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            deadline: Duration::from_secs(5),
            jitter_seed: 7,
        }
    }

    fn transient() -> Error {
        Error::Io(std::io::Error::other("flaky"))
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let mut remaining = 2;
        let report = fast_policy().run("op", || {
            if remaining > 0 {
                remaining -= 1;
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(report.result.unwrap(), 42);
        assert_eq!(report.retries, 2);
        assert!(!report.gave_up);
    }

    #[test]
    fn permanent_error_short_circuits() {
        let mut calls = 0;
        let report = fast_policy().run("op", || {
            calls += 1;
            Err::<(), _>(Error::shape("bad"))
        });
        assert!(matches!(report.result, Err(Error::ShapeMismatch { .. })));
        assert_eq!(calls, 1);
        assert!(!report.gave_up);
    }

    #[test]
    fn exhaustion_becomes_device_failed() {
        let report = fast_policy().run("read 8 B", || Err::<(), _>(transient()));
        let err = report.result.unwrap_err();
        assert!(matches!(err, Error::DeviceFailed(_)));
        assert!(err.to_string().contains("read 8 B"));
        assert_eq!(report.retries, 3); // 4 attempts = 3 retries
        assert!(report.gave_up);
    }

    #[test]
    fn deadline_becomes_timeout() {
        let policy = RetryPolicy {
            max_attempts: 1000,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(5),
            deadline: Duration::from_millis(12),
            jitter_seed: 1,
        };
        let start = Instant::now();
        let report = policy.run("slow op", || Err::<(), _>(transient()));
        assert!(matches!(report.result, Err(Error::Timeout { .. })));
        assert!(report.gave_up);
        // Never sleeps past the deadline: ~2 backoffs of 5 ms fit in 12 ms.
        assert!(start.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn backoff_is_monotone_bounded_deterministic() {
        let p = RetryPolicy::default();
        let seq: Vec<Duration> = (1..=20).map(|k| p.backoff(k)).collect();
        for w in seq.windows(2) {
            assert!(w[0] <= w[1], "monotone: {:?} > {:?}", w[0], w[1]);
        }
        assert!(seq.iter().all(|d| *d <= p.max_backoff));
        let again: Vec<Duration> = (1..=20).map(|k| p.backoff(k)).collect();
        assert_eq!(seq, again);
    }

    #[test]
    fn none_policy_gives_up_on_first_failure() {
        let report = RetryPolicy::none().run("op", || Err::<(), _>(transient()));
        assert!(report.gave_up);
        assert_eq!(report.retries, 0);
    }
}
