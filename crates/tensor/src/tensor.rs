//! Dense compute tensor: f32, or a parameter as it is stored.
//!
//! Compute always happens in f32 — the software analogue of fp16 matmuls
//! accumulating in fp32 on tensor cores. Shapes are dynamic (row-major).
//! A gathered parameter keeps the dtype it is stored in: fp16 under
//! mixed precision, so the GPU tier holds 2 bytes per parameter (Eq. 2,
//! Eq. 4). The kernels that read a parameter take it as [`Elems`] and
//! decode fp16 exactly as they consume it (see [`crate::ops`]); every
//! other accessor is f32's.
//!
//! A [`Tensor`] is a handle: `clone` shares the storage and the first
//! mutation through a shared handle copies it, so value semantics hold
//! while a gathered parameter or a saved activation is passed around by
//! reference count instead of by `memcpy`.

use zi_sync::Arc;
use zi_types::{DType, Error, Result};

use crate::f16::F16;
use crate::simd;

/// Dense row-major tensor with a dynamic shape, in f32 or fp16.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Data,
}

/// A tensor's storage, by dtype.
#[derive(Debug, Clone, PartialEq)]
enum Data {
    F32(Arc<Vec<f32>>),
    F16(Arc<Vec<F16>>),
}

/// A tensor's elements in their dtype, borrowed: how a kernel reads an
/// operand that may be a parameter stored in fp16. f32 elements are read
/// in place; fp16 ones are decoded exactly (every half is an f32).
#[derive(Debug, Clone, Copy)]
pub enum Elems<'a> {
    /// f32 elements.
    F32(&'a [f32]),
    /// fp16 elements.
    F16(&'a [F16]),
}

impl<'a> Elems<'a> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Elems::F32(v) => v.len(),
            Elems::F16(v) => v.len(),
        }
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        match self {
            Elems::F32(_) => DType::F32,
            Elems::F16(_) => DType::F16,
        }
    }

    /// Elements `[at, at + len)`.
    pub fn slice(&self, at: usize, len: usize) -> Elems<'a> {
        match *self {
            Elems::F32(v) => Elems::F32(&v[at..at + len]),
            Elems::F16(v) => Elems::F16(&v[at..at + len]),
        }
    }

    /// Elements `[at, at + out.len())` as f32 into `out`: copied, or
    /// decoded exactly.
    pub fn decode_into(&self, at: usize, out: &mut [f32]) {
        match self {
            Elems::F32(v) => out.copy_from_slice(&v[at..at + out.len()]),
            Elems::F16(v) => simd::f16_to_f32_slice(&v[at..at + out.len()], out),
        }
    }
}

impl<'a> From<&'a [f32]> for Elems<'a> {
    fn from(v: &'a [f32]) -> Self {
        Elems::F32(v)
    }
}

impl<'a> From<&'a Vec<f32>> for Elems<'a> {
    fn from(v: &'a Vec<f32>) -> Self {
        Elems::F32(v)
    }
}

impl<'a> From<&'a Tensor> for Elems<'a> {
    fn from(t: &'a Tensor) -> Self {
        t.elems()
    }
}

impl Tensor {
    /// Zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: Data::F32(Arc::new(vec![0.0; numel])) }
    }

    /// Tensor from existing data; data length must equal the shape product.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        check_len(shape, data.len())?;
        Ok(Tensor { shape: shape.to_vec(), data: Data::F32(Arc::new(data)) })
    }

    /// fp16 tensor from existing halves — a parameter as it is stored;
    /// the length must equal the shape product.
    pub fn from_f16(shape: &[usize], data: Vec<F16>) -> Result<Self> {
        check_len(shape, data.len())?;
        Ok(Tensor { shape: shape.to_vec(), data: Data::F16(Arc::new(data)) })
    }

    /// Fill with values from a deterministic xorshift stream scaled to
    /// `scale`; used for reproducible weight initialization without an RNG
    /// dependency in this crate.
    pub fn randn_seeded(shape: &[usize], seed: u64, scale: f32) -> Self {
        let numel: usize = shape.iter().product();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        let mut data = Vec::with_capacity(numel);
        for _ in 0..numel {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
            // Map to (-1, 1) roughly uniform, then scale. Uniform noise is
            // sufficient for convergence of the tiny test models.
            let u = ((r >> 11) as f64 / (1u64 << 53) as f64) as f32;
            data.push((2.0 * u - 1.0) * scale);
        }
        Tensor { shape: shape.to_vec(), data: Data::F32(Arc::new(data)) }
    }

    /// Shape slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.elems().len()
    }

    /// Element type: f32, or fp16 for a parameter stored so.
    #[inline]
    pub fn dtype(&self) -> DType {
        self.elems().dtype()
    }

    /// The elements in their dtype, for a kernel that decodes fp16.
    #[inline]
    pub fn elems(&self) -> Elems<'_> {
        match &self.data {
            Data::F32(v) => Elems::F32(v),
            Data::F16(v) => Elems::F16(v),
        }
    }

    /// The f32 elements. Panics on an fp16 tensor, which only the kernels
    /// that decode it read ([`Tensor::elems`]); [`Tensor::to_f32`] is its
    /// decoded copy.
    #[inline]
    pub fn data(&self) -> &[f32] {
        self.f32_storage()
    }

    /// The shared f32 storage itself, for a reader that holds it past
    /// this borrow (a collective lending it to its peers). f32 only, as
    /// [`Tensor::data`].
    #[inline]
    pub fn storage(&self) -> &Arc<Vec<f32>> {
        self.f32_storage()
    }

    fn f32_storage(&self) -> &Arc<Vec<f32>> {
        let f32s = match &self.data {
            Data::F32(v) => Some(v),
            Data::F16(_) => None,
        };
        f32s.expect(F16_MISUSE)
    }

    /// Mutable f32 view (copies the storage first if it is shared). f32
    /// only, as [`Tensor::data`].
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        let f32s = match &mut self.data {
            Data::F32(v) => Some(v),
            Data::F16(_) => None,
        };
        Arc::make_mut(f32s.expect(F16_MISUSE)).as_mut_slice()
    }

    /// This tensor in f32: itself (a shared handle) when it is f32, else
    /// its elements decoded into a tensor of their own.
    pub fn to_f32(&self) -> Tensor {
        match &self.data {
            Data::F32(_) => self.clone(),
            Data::F16(halves) => {
                let mut out = vec![0f32; halves.len()];
                simd::f16_to_f32_slice(halves, &mut out);
                Tensor { shape: self.shape.clone(), data: Data::F32(Arc::new(out)) }
            }
        }
    }

    /// Consume into the underlying f32 vector (a copy if the storage is
    /// shared). f32 only, as [`Tensor::data`].
    pub fn into_vec(self) -> Vec<f32> {
        self.try_into_vec().unwrap_or_else(|shared| shared.data().to_vec())
    }

    /// Consume into the underlying f32 vector if this is the only handle
    /// to it; a shared or fp16 tensor comes back unchanged. This is how a
    /// store recycles the storage of a parameter every user has dropped.
    pub fn try_into_vec(self) -> std::result::Result<Vec<f32>, Tensor> {
        match self.data {
            Data::F32(data) => {
                Arc::try_unwrap(data).map_err(|data| Tensor { shape: self.shape, data: Data::F32(data) })
            }
            data => Err(Tensor { shape: self.shape, data }),
        }
    }

    /// [`Tensor::try_into_vec`] of an fp16 tensor: its halves if this is
    /// the only handle to them; a shared or f32 tensor comes back
    /// unchanged.
    pub fn try_into_f16_vec(self) -> std::result::Result<Vec<F16>, Tensor> {
        match self.data {
            Data::F16(data) => {
                Arc::try_unwrap(data).map_err(|data| Tensor { shape: self.shape, data: Data::F16(data) })
            }
            data => Err(Tensor { shape: self.shape, data }),
        }
    }

    /// Interpret as a matrix by flattening all leading dims into rows.
    ///
    /// Returns `(rows, cols)` where `cols` is the final dimension.
    pub fn as_2d(&self) -> (usize, usize) {
        let cols = *self.shape.last().expect("as_2d on 0-dim tensor");
        (self.numel() / cols, cols)
    }

    /// Elementwise in-place addition (f32).
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(Error::shape(format!(
                "add_assign {:?} vs {:?}",
                self.shape, other.shape
            )));
        }
        for (a, b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place multiplication by a scalar (f32).
    pub fn scale(&mut self, s: f32) {
        for v in self.data_mut() {
            *v *= s;
        }
    }

    /// Maximum absolute element (0 for empty tensors; f32).
    pub fn max_abs(&self) -> f32 {
        self.data().iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

/// `Err` unless `len` elements fill `shape`.
fn check_len(shape: &[usize], len: usize) -> Result<()> {
    let numel: usize = shape.iter().product();
    if len != numel {
        return Err(Error::shape(format!("from_vec: shape {shape:?} needs {numel} elements, got {len}")));
    }
    Ok(())
}

/// What an f32 accessor says when it reaches an fp16 tensor: a caller
/// bug, named.
const F16_MISUSE: &str =
    "an fp16 tensor read as f32: kernels read it through Tensor::elems, others through Tensor::to_f32";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_numel() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.numel(), 24);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn as_2d_flattens_leading_dims() {
        let t = Tensor::zeros(&[2, 3, 5]);
        assert_eq!(t.as_2d(), (6, 5));
    }

    #[test]
    fn add_and_scale() {
        let mut a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(&[3], vec![10.0, 20.0, 30.0]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[11.0, 22.0, 33.0]);
        a.scale(0.5);
        assert_eq!(a.data(), &[5.5, 11.0, 16.5]);
        let bad = Tensor::zeros(&[4]);
        assert!(a.add_assign(&bad).is_err());
    }

    #[test]
    fn clone_shares_storage_until_written() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let mut b = a.clone();
        assert_eq!(a.data().as_ptr(), b.data().as_ptr(), "clone is a reference bump");
        b.data_mut()[0] = 9.0;
        assert_ne!(a.data().as_ptr(), b.data().as_ptr(), "a write through a shared handle copies");
        assert_eq!((a.data(), b.data()), (&[1.0, 2.0, 3.0][..], &[9.0, 2.0, 3.0][..]));
        let mut c = a.clone();
        c.scale(2.0);
        let mut d = a.clone();
        d.add_assign(&c).unwrap();
        assert_eq!(a.data(), &[1.0, 2.0, 3.0], "scale/add_assign on a clone leave the source alone");
        assert_eq!((c.data(), d.data()), (&[2.0, 4.0, 6.0][..], &[3.0, 6.0, 9.0][..]));
    }

    #[test]
    fn into_vec_moves_unique_storage_and_copies_shared() {
        let a = Tensor::from_vec(&[2], vec![4.0, 5.0]).unwrap();
        let ptr = a.data().as_ptr();
        let b = a.clone();
        let a = a.try_into_vec().expect_err("a shared handle keeps its storage");
        let copied = a.into_vec();
        assert_eq!(copied, vec![4.0, 5.0]);
        assert_ne!(copied.as_ptr(), ptr, "into_vec on a shared handle copies");
        // `b` is now the only handle: the storage itself moves out.
        let moved = b.try_into_vec().expect("unique handle");
        assert_eq!((moved.as_ptr(), &moved[..]), (ptr, &[4.0, 5.0][..]));
    }

    #[test]
    fn randn_deterministic_and_bounded() {
        let a = Tensor::randn_seeded(&[100], 42, 0.1);
        let b = Tensor::randn_seeded(&[100], 42, 0.1);
        assert_eq!(a.data(), b.data());
        assert!(a.max_abs() <= 0.1 + 1e-6);
        let c = Tensor::randn_seeded(&[100], 43, 0.1);
        assert_ne!(a.data(), c.data());
        // Not all elements identical (stream actually varies).
        assert!(a.data().windows(2).any(|w| w[0] != w[1]));
    }
}
