//! Dense f32 compute tensor.
//!
//! Compute always happens in f32 — the software analogue of fp16 matmuls
//! accumulating in fp32 on tensor cores. Shapes are dynamic (row-major).
//!
//! A [`Tensor`] is a handle: `clone` shares the storage and the first
//! mutation through a shared handle copies it, so value semantics hold
//! while a gathered parameter or a saved activation is passed around by
//! reference count instead of by `memcpy`.

use zi_sync::Arc;
use zi_types::{Error, Result};

/// Dense row-major f32 tensor with a dynamic shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Arc<Vec<f32>>,
}

impl Tensor {
    /// Zero tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: Arc::new(vec![0.0; numel]) }
    }

    /// Tensor from existing data; data length must equal the shape product.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self> {
        let numel: usize = shape.iter().product();
        if data.len() != numel {
            return Err(Error::shape(format!(
                "from_vec: shape {:?} needs {} elements, got {}",
                shape,
                numel,
                data.len()
            )));
        }
        Ok(Tensor { shape: shape.to_vec(), data: Arc::new(data) })
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
        Tensor { shape: shape.to_vec(), data: Arc::new(data) }
    }

    /// Shape slice.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Immutable data view.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable data view (copies the storage first if it is shared).
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consume into the underlying vector (a copy if the storage is
    /// shared).
    pub fn into_vec(self) -> Vec<f32> {
        self.try_into_vec().unwrap_or_else(|shared| shared.data().to_vec())
    }

    /// Consume into the underlying vector if this is the only handle to
    /// it; a shared tensor comes back unchanged. This is how a store
    /// recycles the storage of a parameter every user has dropped.
    pub fn try_into_vec(self) -> std::result::Result<Vec<f32>, Tensor> {
        let Tensor { shape, data } = self;
        Arc::try_unwrap(data).map_err(|data| Tensor { shape, data })
    }

    /// Reinterpret with a new shape of identical element count.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor> {
        let numel: usize = shape.iter().product();
        if numel != self.numel() {
            return Err(Error::shape(format!(
                "reshape {:?} ({}) -> {:?} ({})",
                self.shape,
                self.numel(),
                shape,
                numel
            )));
        }
        Ok(Tensor { shape: shape.to_vec(), data: Arc::clone(&self.data) })
    }

    /// Interpret as a matrix by flattening all leading dims into rows.
    ///
    /// Returns `(rows, cols)` where `cols` is the final dimension.
    pub fn as_2d(&self) -> (usize, usize) {
        let cols = *self.shape.last().expect("as_2d on 0-dim tensor");
        (self.numel() / cols, cols)
    }

    /// Elementwise in-place addition.
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

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, s: f32) {
        for v in self.data_mut() {
            *v *= s;
        }
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_numel() {
        let t = Tensor::zeros(&[2, 3, 4]);
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.numel(), 24);
        assert_eq!(t.ndim(), 3);
    }

    #[test]
    fn from_vec_validates() {
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(Tensor::from_vec(&[2, 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
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
        // A reshape is a view of the same storage with the same rule.
        let mut r = a.reshape(&[1, 3]).unwrap();
        r.data_mut()[2] = 0.0;
        assert_eq!(a.data()[2], 3.0);
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
