//! Dense row-major `f32` tensors with the handful of operations the library
//! needs: elementwise arithmetic, a matrix product, and shape bookkeeping.
//! Layers run their transposed products on slices through [`crate::gemm`].

use crate::workspace::{fit, note_grow};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Product of a shape's dimensions (the number of elements).
#[inline]
pub(crate) fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// A dense, row-major tensor of `f32` values.
///
/// The shape is dynamic (a `Vec<usize>`); all data lives in one contiguous
/// `Vec<f32>`. Tensors are plain values — cloning copies the buffer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

/// An empty `[0]` tensor: a buffer waiting for [`Tensor::resize`].
impl Default for Tensor {
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

impl Tensor {
    /// Create a tensor from a shape and a data buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        assert_eq!(
            numel(&shape),
            data.len(),
            "shape {:?} does not match data length {}",
            shape,
            data.len()
        );
        Self { shape, data }
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; numel(shape)],
            shape: shape.to_vec(),
        }
    }

    /// Build a tensor by calling `f(flat_index)` for every element.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = numel(shape);
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            data.push(f(i));
        }
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer (row-major).
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer (row-major).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Give the tensor the shape `dims` in place, keeping its buffer: the
    /// capacity grows only when the new shape needs more than it held, and
    /// the values are unspecified, so the caller writes every one it reads.
    /// This is how a `crate::Layer` writes its output or gradient into a
    /// buffer that outlives the call.
    pub fn resize<D: Borrow<usize>>(&mut self, dims: impl IntoIterator<Item = D>) -> &mut [f32] {
        self.assign_shape(dims);
        fit(&mut self.data, numel(&self.shape))
    }

    /// [`Self::resize`], then zero every value: for a buffer that a kernel
    /// accumulates into.
    pub(crate) fn resize_zeroed<D: Borrow<usize>>(
        &mut self,
        dims: impl IntoIterator<Item = D>,
    ) -> &mut [f32] {
        let data = self.resize(dims);
        data.fill(0.0);
        data
    }

    /// Take `src`'s shape and values, keeping this tensor's buffer.
    pub(crate) fn copy_from(&mut self, src: &Tensor) {
        self.resize(src.shape()).copy_from_slice(src.as_slice());
    }

    /// Reinterpret the values in place under a new shape with the same
    /// element count (the borrowing form of [`Self::reshape`]).
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub(crate) fn set_shape<D: Borrow<usize>>(&mut self, dims: impl IntoIterator<Item = D>) {
        self.assign_shape(dims);
        assert_eq!(
            numel(&self.shape),
            self.data.len(),
            "cannot give {} elements the shape {:?}",
            self.data.len(),
            self.shape
        );
    }

    /// Overwrite the shape, keeping its buffer.
    fn assign_shape<D: Borrow<usize>>(&mut self, dims: impl IntoIterator<Item = D>) {
        let cap = self.shape.capacity();
        self.shape.clear();
        self.shape.extend(dims.into_iter().map(|d| *d.borrow()));
        if self.shape.capacity() > cap {
            note_grow();
        }
    }

    /// Fill the buffer up to its capacity with NaN (see
    /// [`crate::workspace::Workspace::poison`]).
    #[cfg(test)]
    pub(crate) fn poison(&mut self) {
        self.data.resize(self.data.capacity(), f32::NAN);
        self.data.fill(f32::NAN);
        self.shape.clear();
        self.shape.push(self.data.len());
    }

    /// Matrix product `self [M,K] × other [K,N] -> [M,N]`.
    ///
    /// Runs through the blocked/packed kernel in [`crate::gemm`], which
    /// parallelizes over disjoint output row blocks above
    /// [`crate::gemm::PAR_GEMM_THRESHOLD`] multiply-adds and is
    /// bit-identical to the naive k-ascending loop at any thread count.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rank(), 2, "matmul expects a rank-2 left operand");
        assert_eq!(other.rank(), 2, "matmul expects a rank-2 right operand");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        crate::gemm::gemm(m, n, k, &self.data, false, &other.data, false, &mut out);
        Tensor::from_vec(vec![m, n], out)
    }

    /// Copy rows `start..end` along the first (batch) axis.
    ///
    /// Works for any rank ≥ 1; the remaining axes are preserved.
    pub fn slice_batch(&self, start: usize, end: usize) -> Tensor {
        assert!(self.rank() >= 1 && start <= end && end <= self.shape[0]);
        let stride: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = end - start;
        Tensor::from_vec(shape, self.data[start * stride..end * stride].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_and_accessors() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.rank(), 2);
        assert_eq!(t.len(), 6);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_rejects_mismatched_len() {
        Tensor::from_vec(vec![2, 2], vec![1.0; 5]);
    }

    #[test]
    fn zeros_are_zero() {
        assert_eq!(Tensor::zeros(&[3]).as_slice(), &[0.0; 3]);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn large_matmul_parallel_matches_serial_semantics() {
        // Exceed gemm::PAR_GEMM_THRESHOLD to exercise the parallel path.
        let m = 80;
        let k = 70;
        let n = 60;
        let a = Tensor::from_fn(&[m, k], |i| (i % 7) as f32 - 3.0);
        let b = Tensor::from_fn(&[k, n], |i| (i % 5) as f32 - 2.0);
        let c = a.matmul(&b);
        // Spot-check a few entries against a scalar computation.
        for &(i, j) in &[(0usize, 0usize), (3, 50), (79, 59), (40, 30)] {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
            }
            assert!(
                (c.as_slice()[i * n + j] - acc).abs() < 1e-3,
                "mismatch at ({i},{j})"
            );
        }
    }
}
