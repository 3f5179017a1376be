//! Row-major `f32` matrix used by every layer of the EXION stack.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f32` values.
///
/// `Matrix` is deliberately small and concrete: the EXION workloads only ever
/// need 2-D `f32` data (higher-rank activations are flattened to
/// `tokens × features` before reaching the accelerator, exactly as the paper's
/// tiling assumes).
///
/// # Examples
///
/// ```
/// use exion_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
/// assert_eq!(m[(0, 1)], 1.0);
/// assert_eq!(m.rows(), 2);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use exion_tensor::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.as_slice(), &[0.0; 6]);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n × n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use exion_tensor::Matrix;
    /// let i = Matrix::identity(2);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a generator function called as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Returns an iterator over rows (each row as a slice).
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Applies `f` to every element, returning a new matrix.
    ///
    /// # Examples
    ///
    /// ```
    /// use exion_tensor::Matrix;
    /// let m = Matrix::full(1, 2, 2.0).map(|x| x * x);
    /// assert_eq!(m.as_slice(), &[4.0, 4.0]);
    /// ```
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination of two equally shaped matrices.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip_map shape mismatch: {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Extracts a rectangular sub-matrix `[r0, r0+h) × [c0, c0+w)`.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds the matrix bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, h: usize, w: usize) -> Self {
        assert!(
            r0 + h <= self.rows && c0 + w <= self.cols,
            "submatrix [{r0}+{h}, {c0}+{w}] exceeds shape {:?}",
            self.shape()
        );
        Self::from_fn(h, w, |r, c| self[(r0 + r, c0 + c)])
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn vstack(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Self {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontally concatenates `self` with `other`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hstack(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let cols = self.cols + other.cols;
        let mut data = Vec::with_capacity(self.rows * cols);
        for r in 0..self.rows {
            data.extend_from_slice(self.row(r));
            data.extend_from_slice(other.row(r));
        }
        Self {
            rows: self.rows,
            cols,
            data,
        }
    }

    /// Maximum absolute value, or `0.0` for an empty matrix.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Mean of all elements, or `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f32>() / self.data.len() as f32
        }
    }

    /// Fraction of elements whose absolute value is `<= eps`.
    ///
    /// This is the *output sparsity* measure used throughout the paper.
    pub fn sparsity(&self, eps: f32) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zero = self.data.iter().filter(|&&x| x.abs() <= eps).count();
        zero as f64 / self.data.len() as f64
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for r in 0..show_rows {
            let row = self.row(r);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{x:.4}")).collect();
            let ellipsis = if self.cols > 8 { ", …" } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Self::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_expected_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_diagonal() {
        let m = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_rejects_wrong_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
        assert_eq!(m.row(1), &[2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Matrix::full(2, 2, 3.0);
        let b = Matrix::full(2, 2, 4.0);
        assert_eq!(a.map(|x| x + 1.0).as_slice(), &[4.0; 4]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).as_slice(), &[12.0; 4]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn zip_map_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        let _ = a.zip_map(&b, |x, _| x);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let s = m.submatrix(1, 2, 2, 2);
        assert_eq!(s.as_slice(), &[6.0, 7.0, 10.0, 11.0]);
    }

    #[test]
    fn stacking() {
        let a = Matrix::full(1, 2, 1.0);
        let b = Matrix::full(1, 2, 2.0);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
        let h = a.hstack(&b);
        assert_eq!(h.shape(), (1, 4));
        assert_eq!(h.as_slice(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn sparsity_counts_near_zero() {
        let m = Matrix::from_vec(1, 4, vec![0.0, 0.5, 0.0, -0.2]);
        assert!((m.sparsity(1e-6) - 0.5).abs() < 1e-12);
        assert!((m.sparsity(0.3) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn norms_and_mean() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        assert!((m.mean() - 3.5).abs() < 1e-6);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn debug_is_nonempty() {
        let m = Matrix::zeros(1, 1);
        assert!(!format!("{m:?}").is_empty());
    }
}
