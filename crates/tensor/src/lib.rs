#![warn(missing_docs)]

//! Software tensor substrate for the ZeRO-Infinity reproduction.
//!
//! Provides the pieces a CUDA/PyTorch stack would normally supply:
//! a from-scratch IEEE binary16 type ([`f16::F16`]), dtype-tagged flat
//! byte buffers for model-state storage ([`storage::FlatBuffer`]), a dense
//! f32 compute tensor ([`tensor::Tensor`]) and the kernels needed by a
//! GPT-like transformer ([`ops`]).
//!
//! Compute happens in f32 (mirroring tensor-core fp32 accumulation) while
//! persistent model states are stored in [`FlatBuffer`]s whose dtype is
//! chosen by the mixed-precision recipe (fp16 params/grads, fp32 optimizer
//! states).
//!
//! Kernel inner loops run through the runtime-dispatched [`simd`] layer
//! (AVX2 with a bit-identical scalar fallback) and are tiled across
//! the bounded [`pool`] worker pool built on `zi-sync` primitives.

pub mod f16;
pub mod ops;
pub mod pool;
pub mod simd;
pub mod storage;
pub mod tensor;

pub use f16::F16;
pub use storage::FlatBuffer;
pub use tensor::Tensor;
