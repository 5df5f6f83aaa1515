//! Dtype-tagged flat buffers: the unit of storage the offload engine moves.
//!
//! Model states live in [`FlatBuffer`]s. The ZeRO engine partitions,
//! offloads and gathers these buffers as raw bytes; compute converts them
//! to/from f32 at the edges (the analogue of fp16 tensor-core loads).

use zi_types::{DType, Error, Result};

use crate::f16::F16;

/// Reinterpret little-endian buffer bytes as `F16` values when the
/// allocation happens to be 2-byte aligned (virtually always), letting
/// conversions run through the SIMD slice kernels instead of an
/// element-at-a-time decode. Returns `None` on misalignment or on
/// big-endian targets, where callers fall back to the portable path.
#[inline]
fn bytes_as_f16(bytes: &[u8]) -> Option<&[F16]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    // SAFETY: F16 is repr(transparent) over u16 and every bit pattern is
    // a valid F16; align_to guarantees the mid slice is aligned.
    let (pre, mid, suf) = unsafe { bytes.align_to::<F16>() };
    (pre.is_empty() && suf.is_empty()).then_some(mid)
}

/// Mutable variant of [`bytes_as_f16`].
#[inline]
pub(crate) fn bytes_as_f16_mut(bytes: &mut [u8]) -> Option<&mut [F16]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    // SAFETY: as in `bytes_as_f16`.
    let (pre, mid, suf) = unsafe { bytes.align_to_mut::<F16>() };
    if pre.is_empty() && suf.is_empty() {
        Some(mid)
    } else {
        None
    }
}

/// Reinterpret little-endian buffer bytes as `f32` when 4-byte aligned.
#[inline]
fn bytes_as_f32(bytes: &[u8]) -> Option<&[f32]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    // SAFETY: every bit pattern is a valid f32.
    let (pre, mid, suf) = unsafe { bytes.align_to::<f32>() };
    (pre.is_empty() && suf.is_empty()).then_some(mid)
}

/// Mutable variant of [`bytes_as_f32`].
#[inline]
pub(crate) fn bytes_as_f32_mut(bytes: &mut [u8]) -> Option<&mut [f32]> {
    if cfg!(target_endian = "big") {
        return None;
    }
    // SAFETY: every bit pattern is a valid f32, so writes through the
    // view cannot invalidate the bytes; align_to guarantees alignment.
    let (pre, mid, suf) = unsafe { bytes.align_to_mut::<f32>() };
    if pre.is_empty() && suf.is_empty() {
        Some(mid)
    } else {
        None
    }
}

/// Encode f32 `values` as little-endian `dtype` elements into `out`
/// (exactly `dtype.bytes_for(values.len())` bytes) — the conversion
/// behind [`FlatBuffer::write_f32`], usable on any byte destination
/// (a staging buffer, a sub-range of a resident shard).
pub fn encode_f32(dtype: DType, values: &[f32], out: &mut [u8]) -> Result<()> {
    if out.len() != dtype.bytes_for(values.len()) {
        return Err(Error::shape(format!(
            "encode_f32: {} {dtype} values into {} bytes",
            values.len(),
            out.len()
        )));
    }
    match dtype {
        DType::F32 => match bytes_as_f32_mut(out) {
            Some(words) => words.copy_from_slice(values),
            None => {
                for (chunk, v) in out.chunks_exact_mut(4).zip(values) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
            }
        },
        DType::F16 => match bytes_as_f16_mut(out) {
            Some(halves) => crate::simd::f32_to_f16_slice(values, halves),
            None => {
                for (chunk, v) in out.chunks_exact_mut(2).zip(values) {
                    chunk.copy_from_slice(&F16::from_f32(*v).to_bits().to_le_bytes());
                }
            }
        },
    }
    Ok(())
}

/// Decode little-endian `dtype` elements in `bytes` to f32 into `out`
/// (exactly `bytes.len() / dtype.size_in_bytes()` elements) — the
/// inverse of [`encode_f32`] and the conversion behind
/// [`FlatBuffer::to_f32_vec`], usable on any byte source (a staging
/// buffer, a peer's collective contribution) and any destination (a
/// sub-range of a gathered compute tensor).
pub fn decode_f32(dtype: DType, bytes: &[u8], out: &mut [f32]) -> Result<()> {
    if bytes.len() != dtype.bytes_for(out.len()) {
        return Err(Error::shape(format!(
            "decode_f32: {} bytes into {} {dtype} values",
            bytes.len(),
            out.len()
        )));
    }
    match dtype {
        DType::F32 => match bytes_as_f32(bytes) {
            Some(vals) => out.copy_from_slice(vals),
            None => {
                for (o, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                    *o = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                }
            }
        },
        DType::F16 => match bytes_as_f16(bytes) {
            Some(halves) => crate::simd::f16_to_f32_slice(halves, out),
            None => {
                for (o, chunk) in out.iter_mut().zip(bytes.chunks_exact(2)) {
                    *o = F16::from_bits(u16::from_le_bytes([chunk[0], chunk[1]])).to_f32();
                }
            }
        },
    }
    Ok(())
}

/// Copy little-endian fp16 elements in `bytes` into `out` (exactly
/// `bytes.len() / 2` elements), undecoded — how a gathered parameter
/// keeps its storage dtype.
pub fn copy_f16(bytes: &[u8], out: &mut [F16]) -> Result<()> {
    if bytes.len() != DType::F16.bytes_for(out.len()) {
        return Err(Error::shape(format!("copy_f16: {} bytes into {} halves", bytes.len(), out.len())));
    }
    match bytes_as_f16(bytes) {
        Some(halves) => out.copy_from_slice(halves),
        None => {
            for (o, chunk) in out.iter_mut().zip(bytes.chunks_exact(2)) {
                *o = F16::from_bits(u16::from_le_bytes([chunk[0], chunk[1]]));
            }
        }
    }
    Ok(())
}

/// `sums[i] += delta[i]` over the common length; true when any resulting
/// element is non-finite — gradient accumulation with the overflow scan
/// fused in, on any f32 destination (a resident shard, a staging buffer
/// read from the device, a block of a collective's result).
pub fn accumulate_f32(sums: &mut [f32], delta: &[f32]) -> bool {
    let mut nonfinite = false;
    for (sum, d) in sums.iter_mut().zip(delta) {
        *sum += d;
        nonfinite |= !sum.is_finite();
    }
    nonfinite
}

/// A flat, dtype-tagged byte buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatBuffer {
    dtype: DType,
    bytes: Vec<u8>,
}

impl FlatBuffer {
    /// Zero-filled buffer holding `numel` elements of `dtype`.
    pub fn zeros(dtype: DType, numel: usize) -> Self {
        FlatBuffer { dtype, bytes: vec![0u8; dtype.bytes_for(numel)] }
    }

    /// Build from f32 values, converting to the target dtype.
    pub fn from_f32(dtype: DType, values: &[f32]) -> Self {
        let mut buf = FlatBuffer::zeros(dtype, values.len());
        buf.write_f32(values).expect("freshly sized buffer must accept its own values");
        buf
    }

    /// Wrap raw bytes; `bytes.len()` must be a multiple of the element size.
    pub fn from_bytes(dtype: DType, bytes: Vec<u8>) -> Result<Self> {
        if !bytes.len().is_multiple_of(dtype.size_in_bytes()) {
            return Err(Error::InvalidArgument(format!(
                "byte length {} is not a multiple of {} element size",
                bytes.len(),
                dtype
            )));
        }
        Ok(FlatBuffer { dtype, bytes })
    }

    /// Element type.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.dtype
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.bytes.len() / self.dtype.size_in_bytes()
    }

    /// Total size in bytes.
    #[inline]
    pub fn size_in_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Raw byte view.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable raw byte view.
    #[inline]
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Decode the whole buffer to f32.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        let mut out = vec![0f32; self.numel()];
        decode_f32(self.dtype, &self.bytes, &mut out).expect("out was sized to the buffer");
        out
    }

    /// Add `delta` elementwise into this buffer in place (f32 only).
    ///
    /// Returns `true` if any accumulated element is non-finite, fusing
    /// the gradient-overflow scan into accumulation so no separate pass
    /// over the gradients is needed at step time.
    pub fn accumulate_f32(&mut self, delta: &[f32]) -> Result<bool> {
        if self.dtype != DType::F32 {
            return Err(Error::InvalidArgument(format!(
                "accumulate_f32 requires F32 storage, got {}",
                self.dtype
            )));
        }
        if delta.len() != self.numel() {
            return Err(Error::shape(format!(
                "accumulate_f32: {} values into buffer of {} elements",
                delta.len(),
                self.numel()
            )));
        }
        if let Some(sums) = bytes_as_f32_mut(&mut self.bytes) {
            return Ok(accumulate_f32(sums, delta));
        }
        let mut nonfinite = false;
        for (chunk, d) in self.bytes.chunks_exact_mut(4).zip(delta) {
            let sum = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) + d;
            nonfinite |= !sum.is_finite();
            chunk.copy_from_slice(&sum.to_le_bytes());
        }
        Ok(nonfinite)
    }

    /// Encode f32 values into the buffer (length must match exactly).
    pub(crate) fn write_f32(&mut self, values: &[f32]) -> Result<()> {
        if values.len() != self.numel() {
            return Err(Error::shape(format!(
                "write_f32: {} values into buffer of {} elements",
                values.len(),
                self.numel()
            )));
        }
        encode_f32(self.dtype, values, &mut self.bytes)
    }

    /// The elements as a mutable f32 slice, for in-place updates of
    /// resident F32 state. `None` for other dtypes, and in the (allocator-
    /// dependent, in practice unseen) case that the bytes are not 4-byte
    /// aligned — callers then go through [`Self::to_f32_vec`] and
    /// [`Self::write_f32`].
    pub fn as_f32_mut(&mut self) -> Option<&mut [f32]> {
        if self.dtype != DType::F32 {
            return None;
        }
        bytes_as_f32_mut(&mut self.bytes)
    }

    /// Copy `len` elements starting at `offset` into a new buffer.
    ///
    /// Used by the partitioner to slice a parameter into per-rank shards.
    pub fn slice(&self, offset: usize, len: usize) -> Result<FlatBuffer> {
        let es = self.dtype.size_in_bytes();
        let end = offset
            .checked_add(len)
            .ok_or_else(|| Error::InvalidArgument("slice overflow".into()))?;
        if end > self.numel() {
            return Err(Error::shape(format!(
                "slice [{offset}, {end}) out of buffer of {} elements",
                self.numel()
            )));
        }
        Ok(FlatBuffer {
            dtype: self.dtype,
            bytes: self.bytes[offset * es..end * es].to_vec(),
        })
    }

    /// Overwrite elements `[offset, offset+src.numel())` with `src`.
    pub fn write_slice(&mut self, offset: usize, src: &FlatBuffer) -> Result<()> {
        if src.dtype != self.dtype {
            return Err(Error::InvalidArgument(format!(
                "write_slice dtype mismatch: {} into {}",
                src.dtype, self.dtype
            )));
        }
        let es = self.dtype.size_in_bytes();
        let end = offset + src.numel();
        if end > self.numel() {
            return Err(Error::shape(format!(
                "write_slice [{offset}, {end}) out of buffer of {} elements",
                self.numel()
            )));
        }
        self.bytes[offset * es..end * es].copy_from_slice(&src.bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_sizes() {
        let b = FlatBuffer::zeros(DType::F16, 8);
        assert_eq!(b.numel(), 8);
        assert_eq!(b.size_in_bytes(), 16);
        assert!(b.to_f32_vec().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn f32_round_trip() {
        let vals = [1.0f32, -2.5, 3.25, 0.0];
        let b = FlatBuffer::from_f32(DType::F32, &vals);
        assert_eq!(b.to_f32_vec(), vals);
    }

    #[test]
    fn decode_f32_matches_to_f32_vec_on_any_source_and_destination() {
        // Values that exercise the f16 SIMD path's special cases.
        let vals: Vec<f32> = (0..67)
            .map(|i| match i % 7 {
                0 => f32::INFINITY,
                1 => -0.0,
                2 => 6.0e-8, // f16 subnormal
                3 => f32::NAN,
                _ => (i as f32 - 30.0) * 0.37,
            })
            .collect();
        for dtype in [DType::F32, DType::F16] {
            let buf = FlatBuffer::from_f32(dtype, &vals);
            let expect: Vec<u32> = buf.to_f32_vec().iter().map(|v| v.to_bits()).collect();
            // Aligned source, into the middle of a larger destination.
            let mut dest = vec![7.0f32; vals.len() + 2];
            decode_f32(dtype, buf.as_bytes(), &mut dest[1..=vals.len()]).unwrap();
            let got: Vec<u32> = dest[1..=vals.len()].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect, "{dtype} aligned");
            assert_eq!((dest[0], dest[vals.len() + 1]), (7.0, 7.0), "neighbours untouched");
            // Misaligned source: the portable per-element path.
            let mut shifted = vec![0u8; buf.size_in_bytes() + 1];
            shifted[1..].copy_from_slice(buf.as_bytes());
            let mut out = vec![0f32; vals.len()];
            decode_f32(dtype, &shifted[1..], &mut out).unwrap();
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expect, "{dtype} misaligned");
            // Length mismatches are typed errors, not panics.
            assert!(decode_f32(dtype, buf.as_bytes(), &mut out[1..]).is_err());
        }
    }

    #[test]
    fn accumulate_in_place_and_overflow_fusion() {
        let mut b = FlatBuffer::from_f32(DType::F32, &[1.0, -2.0, 3.0]);
        assert!(!b.accumulate_f32(&[0.5, 0.5, 0.5]).unwrap());
        assert_eq!(b.to_f32_vec(), vec![1.5, -1.5, 3.5]);
        // Overflow to inf in the *sum* is flagged even with finite inputs.
        let mut big = FlatBuffer::from_f32(DType::F32, &[f32::MAX]);
        assert!(big.accumulate_f32(&[f32::MAX]).unwrap());
        // Errors: dtype and length mismatches.
        let mut h = FlatBuffer::zeros(DType::F16, 2);
        assert!(h.accumulate_f32(&[0.0, 0.0]).is_err());
        assert!(b.accumulate_f32(&[0.0]).is_err());
    }

    #[test]
    fn f16_round_trip_with_quantization() {
        let vals = [1.0f32, -2.5, 65504.0, 0.099976];
        let b = FlatBuffer::from_f32(DType::F16, &vals);
        let back = b.to_f32_vec();
        for (a, r) in vals.iter().zip(&back) {
            assert!((a - r).abs() <= a.abs() * 1e-3 + 1e-6, "{a} vs {r}");
        }
    }

    #[test]
    fn slice_and_write_slice() {
        let b = FlatBuffer::from_f32(DType::F32, &[0.0, 1.0, 2.0, 3.0, 4.0]);
        let s = b.slice(1, 3).unwrap();
        assert_eq!(s.to_f32_vec(), vec![1.0, 2.0, 3.0]);

        let mut dst = FlatBuffer::zeros(DType::F32, 5);
        dst.write_slice(2, &s).unwrap();
        assert_eq!(dst.to_f32_vec(), vec![0.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn slice_bounds_checked() {
        let b = FlatBuffer::zeros(DType::F32, 4);
        assert!(b.slice(2, 3).is_err());
        assert!(b.slice(usize::MAX, 2).is_err());
        let mut d = FlatBuffer::zeros(DType::F32, 4);
        assert!(d.write_slice(3, &b.slice(0, 2).unwrap()).is_err());
    }

    #[test]
    fn dtype_mismatch_rejected() {
        let mut dst = FlatBuffer::zeros(DType::F32, 4);
        let src = FlatBuffer::zeros(DType::F16, 2);
        assert!(dst.write_slice(0, &src).is_err());
    }

    #[test]
    fn from_bytes_validates_alignment() {
        assert!(FlatBuffer::from_bytes(DType::F32, vec![0u8; 6]).is_err());
        assert!(FlatBuffer::from_bytes(DType::F16, vec![0u8; 6]).is_ok());
    }

    #[test]
    fn f32_view_updates_in_place_and_encode_targets_any_bytes() {
        let mut b = FlatBuffer::from_f32(DType::F32, &[1.0, 2.0, 3.0]);
        b.as_f32_mut().expect("heap bytes are word-aligned")[1] = -4.5;
        assert_eq!(b.to_f32_vec(), vec![1.0, -4.5, 3.0]);
        assert!(FlatBuffer::zeros(DType::F16, 2).as_f32_mut().is_none());
        // Encoding into a sub-range equals a whole-buffer write of it.
        let mut shard = FlatBuffer::zeros(DType::F16, 4);
        encode_f32(DType::F16, &[0.5, -1.0], &mut shard.as_bytes_mut()[2..6]).unwrap();
        assert_eq!(shard.to_f32_vec(), vec![0.0, 0.5, -1.0, 0.0]);
        assert!(encode_f32(DType::F32, &[1.0], &mut [0u8; 3]).is_err());
    }

    #[test]
    fn write_f32_length_checked() {
        let mut b = FlatBuffer::zeros(DType::F32, 3);
        assert!(b.write_f32(&[1.0, 2.0]).is_err());
        assert!(b.write_f32(&[1.0, 2.0, 3.0]).is_ok());
    }
}
