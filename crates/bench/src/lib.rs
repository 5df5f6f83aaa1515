#![warn(missing_docs)]

//! Support for the `repro` binary: table formatting and the real-engine
//! Fig. 6b experiment (memory-centric tiling under fragmentation). The
//! perf ledger (`benchmark/`) is the repo's bench harness; the Criterion
//! groups under `benches/` are the paper ablations it does not time yet.

pub mod fig6b;
pub mod report;

pub use fig6b::{max_hidden_size, Fig6bRow};
