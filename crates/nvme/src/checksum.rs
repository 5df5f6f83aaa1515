//! CRC32-C (Castagnoli, reflected polynomial 0x82F63B78) for
//! end-to-end shard integrity.
//!
//! The implementation is `zi-tensor`'s runtime-dispatched kernel
//! ([`zi_tensor::simd::crc32`]: the SSE 4.2 `crc32` instruction on three
//! interleaved lanes, or the canonical software slicing-by-8), so the
//! offload registry, the fused optimizer kernel that checksums a record
//! as it stores it, and the `CheckpointStore`'s on-device format all
//! share one implementation of one function.

pub use zi_tensor::simd::{crc32, crc32_update};
