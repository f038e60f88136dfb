//! Dense row-major `f32` tensors with the handful of operations the library
//! needs: elementwise arithmetic, a matrix product, and shape bookkeeping.
//! Layers run their transposed products on slices through [`crate::gemm`].

use serde::{Deserialize, Serialize};

/// Product of a shape's dimensions (the number of elements).
#[inline]
pub fn numel(shape: &[usize]) -> usize {
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

    /// A tensor filled with a constant.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; numel(shape)],
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
    pub fn len(&self) -> usize {
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

    /// Consume the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: Vec<usize>) -> Self {
        assert_eq!(
            numel(&shape),
            self.data.len(),
            "cannot reshape {:?} ({} elems) to {:?}",
            self.shape,
            self.data.len(),
            shape
        );
        self.shape = shape;
        self
    }

    /// Row `i` of a rank-2 tensor.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert_eq!(self.rank(), 2);
        let cols = self.shape[1];
        &self.data[i * cols..(i + 1) * cols]
    }

    /// Mutable row `i` of a rank-2 tensor.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert_eq!(self.rank(), 2);
        let cols = self.shape[1];
        &mut self.data[i * cols..(i + 1) * cols]
    }

    /// Element at `(i, j)` of a rank-2 tensor.
    #[inline]
    pub fn at2(&self, i: usize, j: usize) -> f32 {
        debug_assert_eq!(self.rank(), 2);
        self.data[i * self.shape[1] + j]
    }

    /// Elementwise `self += other`.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
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

    /// Sum over axis 0 of a rank-2 tensor: `[M,N] -> [N]`.
    pub fn sum_rows(&self) -> Tensor {
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; n];
        for i in 0..m {
            for (o, &v) in out.iter_mut().zip(self.row(i)) {
                *o += v;
            }
        }
        Tensor::from_vec(vec![n], out)
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
        assert_eq!(t.row(1), &[4., 5., 6.]);
        assert_eq!(t.at2(0, 2), 3.0);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_rejects_mismatched_len() {
        Tensor::from_vec(vec![2, 2], vec![1.0; 5]);
    }

    #[test]
    fn zeros_and_filled() {
        assert_eq!(Tensor::zeros(&[3]).as_slice(), &[0.0; 3]);
        assert_eq!(Tensor::filled(&[2], 7.5).as_slice(), &[7.5, 7.5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).reshape(vec![4]);
        assert_eq!(t.shape(), &[4]);
        assert_eq!(t.as_slice(), &[1., 2., 3., 4.]);
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_rejects_wrong_count() {
        Tensor::zeros(&[4]).reshape(vec![3]);
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
            assert!((c.at2(i, j) - acc).abs() < 1e-3, "mismatch at ({i},{j})");
        }
    }

    #[test]
    fn add_assign_and_sum() {
        let mut a = Tensor::from_vec(vec![3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(vec![3], vec![10., 20., 30.]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[11., 22., 33.]);
        assert_eq!(a.sum(), 66.0);
    }

    #[test]
    fn sum_rows_adds_columns() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 3., 4., 5.]);
        assert_eq!(t.sum_rows().as_slice(), &[4., 6., 8.]);
    }
}
