//! Common error type for the workspace.

use std::fmt;

use crate::device::Device;

/// Result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced anywhere in the training stack.
#[derive(Debug)]
pub enum Error {
    /// A memory pool could not satisfy an allocation.
    ///
    /// Distinguishes capacity exhaustion from fragmentation: `largest_free`
    /// reports the biggest contiguous block that was available, which is the
    /// quantity memory-centric tiling is designed around (Sec. 5.1.3).
    OutOfMemory {
        /// Device whose pool failed.
        device: Device,
        /// Bytes requested.
        requested: usize,
        /// Largest contiguous free block at failure time.
        largest_free: usize,
        /// Total free bytes at failure time.
        total_free: usize,
        /// What the bytes were for, when the caller named it (a rank's
        /// `"staging set"`); empty for a plain allocation.
        tenant: &'static str,
    },
    /// Shapes or lengths did not match.
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// An I/O operation on the NVMe backend failed.
    Io(std::io::Error),
    /// An I/O request exceeded its deadline (including retry backoff).
    Timeout {
        /// What was being attempted.
        context: String,
        /// Budget that was exceeded.
        deadline: std::time::Duration,
    },
    /// Data read back does not match the checksum recorded at write time
    /// — silent corruption made loud.
    Corruption {
        /// What was being read.
        context: String,
        /// Checksum recorded when the extent was written.
        expected: u32,
        /// Checksum of the bytes actually read.
        actual: u32,
    },
    /// The storage device has been declared dead: a request exhausted its
    /// retry budget, or the backend reported an unrecoverable fault. Once
    /// raised, subsequent requests fail fast with this error too.
    DeviceFailed(String),
    /// A data-parallel rank died (or aborted) and its communicator group
    /// is permanently broken. Every collective on every surviving rank
    /// returns this error instead of hanging, so the whole group unwinds
    /// mid-step (coordinated abort).
    RankFailed {
        /// The rank that died or aborted.
        rank: usize,
        /// The collective in flight when the failure surfaced.
        context: String,
    },
    /// A collective exceeded its deadline: some peer stopped arriving at
    /// barriers without ever being marked failed (e.g. it is wedged, not
    /// dead). The timed-out rank marks itself failed so its peers unwind
    /// too.
    CollectiveTimeout {
        /// The collective that timed out.
        context: String,
        /// Per-synchronization deadline that was exceeded.
        deadline: std::time::Duration,
    },
    /// A serialized artifact (checkpoint blob, store superblock, …) has a
    /// recognizable magic but an unsupported format version.
    VersionMismatch {
        /// What was being parsed.
        context: String,
        /// Version found in the bytes.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// A checkpoint shard set cannot be re-partitioned onto the requested
    /// world size: the target is incompatible with the shard layout (zero
    /// ranks, inconsistent shard counts, or a store that cannot hold the
    /// target world). Distinct from [`Error::InvalidArgument`] so elastic
    /// recovery can tell "this grow/shrink is impossible" apart from
    /// malformed inputs.
    IncompatibleWorld {
        /// World size the shards are currently partitioned for.
        from: usize,
        /// Requested target world size.
        to: usize,
        /// What made the re-partitioning impossible.
        context: String,
    },
    /// The communicator group is retiring voluntarily because membership
    /// changed: one or more ranks are waiting to join at the next
    /// generation barrier. Unlike [`Error::RankFailed`] nothing died —
    /// survivors should re-partition state onto the *larger* world and
    /// resume from the last durable version.
    MembershipChange {
        /// Number of ranks waiting to join the next generation.
        joining: usize,
        /// The collective in flight when the change surfaced.
        context: String,
    },
    /// An invalid argument or configuration was supplied.
    InvalidArgument(String),
    /// Internal invariant violated (a bug in this library).
    Internal(String),
}

impl Error {
    /// Convenience constructor for shape errors.
    pub fn shape(context: impl Into<String>) -> Self {
        Error::ShapeMismatch { context: context.into() }
    }

    /// True if this is an out-of-memory error.
    pub fn is_oom(&self) -> bool {
        matches!(self, Error::OutOfMemory { .. })
    }

    /// True if retrying the failed operation may succeed.
    ///
    /// Transient: plain I/O errors (the device may recover) and checksum
    /// mismatches (a re-read may return clean data). Permanent: timeouts
    /// (the retry budget is already spent), device death, and every
    /// non-I/O error — retrying a shape mismatch or OOM cannot help.
    pub fn is_transient(&self) -> bool {
        matches!(self, Error::Io(_) | Error::Corruption { .. })
    }

    /// True if this error means the storage device is unusable and the
    /// caller should fail over / recover rather than retry.
    pub fn is_device_failure(&self) -> bool {
        matches!(self, Error::DeviceFailed(_) | Error::Timeout { .. })
    }

    /// True if this error means a data-parallel peer is gone and the
    /// communicator group is broken: the caller should abort the step and
    /// recover elastically (shrink the world), not retry the collective.
    pub fn is_rank_failure(&self) -> bool {
        matches!(self, Error::RankFailed { .. } | Error::CollectiveTimeout { .. })
    }

    /// True if this error means the communicator group retired because new
    /// ranks are joining: nothing failed, the caller should re-partition
    /// onto the grown world and resume. Deliberately *not* a rank failure —
    /// a grow must not consume the recovery budget or shrink the world.
    pub fn is_membership_change(&self) -> bool {
        matches!(self, Error::MembershipChange { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfMemory { device, requested, largest_free, total_free, tenant } => write!(
                f,
                "out of memory on {device}{}{tenant}: requested {requested} B, \
                 largest contiguous free block {largest_free} B, total free {total_free} B",
                if tenant.is_empty() { "" } else { " for the " }
            ),
            Error::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::Timeout { context, deadline } => {
                write!(f, "timeout: {context} exceeded {deadline:?}")
            }
            Error::Corruption { context, expected, actual } => write!(
                f,
                "corruption detected: {context}: checksum {actual:#010x}, expected {expected:#010x}"
            ),
            Error::DeviceFailed(msg) => write!(f, "storage device failed: {msg}"),
            Error::RankFailed { rank, context } => {
                write!(f, "rank {rank} failed during {context}; communicator group aborted")
            }
            Error::CollectiveTimeout { context, deadline } => {
                write!(f, "collective timeout: {context} exceeded {deadline:?}")
            }
            Error::VersionMismatch { context, found, expected } => {
                write!(f, "version mismatch: {context}: found {found}, expected {expected}")
            }
            Error::IncompatibleWorld { from, to, context } => {
                write!(f, "incompatible world: cannot reshard world {from} -> {to}: {context}")
            }
            Error::MembershipChange { joining, context } => write!(
                f,
                "membership change: {joining} rank(s) joining at next generation \
                 (during {context}); group retired for regrow"
            ),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_detection_and_display() {
        let e = Error::OutOfMemory {
            device: Device::gpu(0),
            requested: 100,
            largest_free: 10,
            total_free: 50,
            tenant: "staging set",
        };
        assert!(e.is_oom());
        let s = e.to_string();
        assert!(s.contains("gpu:0 for the staging set"));
        assert!(s.contains("100"));
    }

    #[test]
    fn io_error_conversion() {
        let io = std::io::Error::other("disk fell off");
        let e: Error = io.into();
        assert!(matches!(e, Error::Io(_)));
        assert!(!e.is_oom());
    }

    #[test]
    fn shape_helper() {
        let e = Error::shape("a vs b");
        assert_eq!(e.to_string(), "shape mismatch: a vs b");
    }

    #[test]
    fn transient_classification() {
        let io: Error = std::io::Error::other("hiccup").into();
        assert!(io.is_transient());
        assert!(!io.is_device_failure());

        let corrupt =
            Error::Corruption { context: "shard 3".into(), expected: 0xdead_beef, actual: 0 };
        assert!(corrupt.is_transient());

        let timeout = Error::Timeout {
            context: "read 4 KiB".into(),
            deadline: std::time::Duration::from_millis(50),
        };
        assert!(!timeout.is_transient());
        assert!(timeout.is_device_failure());

        let dead = Error::DeviceFailed("retries exhausted".into());
        assert!(!dead.is_transient());
        assert!(dead.is_device_failure());
        assert!(dead.to_string().contains("retries exhausted"));

        assert!(!Error::shape("x").is_transient());
    }

    #[test]
    fn rank_failure_classification() {
        let dead = Error::RankFailed { rank: 2, context: "allreduce".into() };
        assert!(dead.is_rank_failure());
        assert!(!dead.is_transient());
        assert!(!dead.is_device_failure());
        assert!(dead.to_string().contains("rank 2"));
        assert!(dead.to_string().contains("allreduce"));

        let slow = Error::CollectiveTimeout {
            context: "barrier".into(),
            deadline: std::time::Duration::from_millis(250),
        };
        assert!(slow.is_rank_failure());
        assert!(!slow.is_device_failure(), "collective timeouts are not storage timeouts");

        // Storage-side errors are not rank failures.
        let io: Error = std::io::Error::other("x").into();
        assert!(!io.is_rank_failure());
        let timeout = Error::Timeout {
            context: "read".into(),
            deadline: std::time::Duration::from_millis(50),
        };
        assert!(!timeout.is_rank_failure());
    }

    #[test]
    fn membership_change_classification() {
        let join = Error::MembershipChange { joining: 1, context: "allreduce".into() };
        assert!(join.is_membership_change());
        assert!(!join.is_rank_failure(), "a grow must not look like a rank death");
        assert!(!join.is_device_failure());
        assert!(!join.is_transient());
        let s = join.to_string();
        assert!(s.contains("1 rank(s) joining") && s.contains("allreduce"));

        // Rank failures and storage errors are not membership changes.
        let dead = Error::RankFailed { rank: 0, context: "barrier".into() };
        assert!(!dead.is_membership_change());
        let io: Error = std::io::Error::other("x").into();
        assert!(!io.is_membership_change());
    }

    #[test]
    fn incompatible_world_display() {
        let e = Error::IncompatibleWorld { from: 4, to: 0, context: "zero target ranks".into() };
        assert!(!e.is_rank_failure());
        assert!(!e.is_membership_change());
        assert!(!e.is_transient());
        let s = e.to_string();
        assert!(s.contains("world 4 -> 0") && s.contains("zero target ranks"));
    }

    #[test]
    fn version_mismatch_display() {
        let e = Error::VersionMismatch { context: "checkpoint blob".into(), found: 1, expected: 2 };
        assert!(!e.is_rank_failure());
        assert!(!e.is_transient());
        let s = e.to_string();
        assert!(s.contains("checkpoint blob") && s.contains("found 1") && s.contains("expected 2"));
    }
}
