#![warn(missing_docs)]

//! Mixed-precision Adam optimizer.
//!
//! Implements the de-facto large-model training recipe the paper assumes
//! (Sec. 2/3): fp16 parameters and gradients for compute, fp32 master
//! weights plus fp32 momentum and variance held by the optimizer — 20
//! bytes of state per parameter. The optimizer state of a shard can be
//! updated monolithically or chunk-by-chunk; chunked updates are exactly
//! what the infinity offload engine needs to stream NVMe-resident state
//! through a bounded CPU buffer (Sec. 5.2.2).

pub mod adam;
pub mod scaler;
pub mod schedule;

pub use adam::{adam_update, adam_update_chunk, adam_update_chunk_publish, AdamConfig, AdamShard};
pub use scaler::LossScaler;
pub use schedule::LrSchedule;
