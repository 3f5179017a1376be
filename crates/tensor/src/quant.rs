//! Symmetric post-training quantization (PTQ).
//!
//! The paper verifies accuracy "after applying post-training quantization,
//! reducing MMUL operations to 12-bit INT and other operations to either
//! 16-bit or 32-bit INT, aligning with our HW architecture" (Section V-A).
//! This module provides exactly that: per-tensor symmetric quantization at
//! 12/16/32-bit widths and an integer MMUL with 32-bit accumulation that
//! mirrors the SDUE datapath.

use crate::Matrix;

/// Integer width of a quantized tensor, matching the EXION datapaths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntWidth {
    /// 12-bit signed (SDUE / EPRE MMUL operands).
    Int12,
    /// 16-bit signed (CFSE two-way mode).
    Int16,
    /// 32-bit signed (CFSE one-way mode / accumulators).
    Int32,
}

impl IntWidth {
    /// Largest representable magnitude (`2^(bits-1) - 1`).
    pub fn max_value(&self) -> i32 {
        match self {
            IntWidth::Int12 => (1 << 11) - 1,
            IntWidth::Int16 => (1 << 15) - 1,
            IntWidth::Int32 => i32::MAX,
        }
    }

    /// Number of bits.
    pub fn bits(&self) -> u32 {
        match self {
            IntWidth::Int12 => 12,
            IntWidth::Int16 => 16,
            IntWidth::Int32 => 32,
        }
    }
}

/// Per-tensor symmetric quantization parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real value represented by one integer step.
    pub scale: f32,
    /// Integer width.
    pub width: IntWidth,
}

impl QuantParams {
    /// Calibrates the scale so that the matrix's max-abs value maps to the
    /// largest representable integer.
    ///
    /// A zero matrix gets scale 1.0 (any scale represents it exactly).
    pub fn calibrate(m: &Matrix, width: IntWidth) -> Self {
        let max_abs = m.max_abs();
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / width.max_value() as f32
        };
        Self { scale, width }
    }

    /// Quantizes one real value to the clamped integer grid.
    pub fn quantize(&self, x: f32) -> i32 {
        let q = (x / self.scale).round() as i64;
        let max = self.width.max_value() as i64;
        q.clamp(-max, max) as i32
    }

    /// Recovers the real value of one integer.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }
}

/// A quantized matrix: integer payload plus its [`QuantParams`].
///
/// Integers are stored as `i32` regardless of logical width; the width only
/// constrains the representable range (as the hardware's 12-bit registers
/// would).
///
/// # Examples
///
/// ```
/// use exion_tensor::{IntWidth, Matrix, QuantMatrix};
///
/// let m = Matrix::from_vec(1, 2, vec![1.0, -0.5]);
/// let q = QuantMatrix::quantize(&m, IntWidth::Int12);
/// let back = q.dequantize();
/// assert!((back[(0, 0)] - 1.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i32>,
    params: QuantParams,
}

impl QuantMatrix {
    /// Quantizes a real matrix with per-tensor calibration.
    pub fn quantize(m: &Matrix, width: IntWidth) -> Self {
        let params = QuantParams::calibrate(m, width);
        Self::quantize_with(m, params)
    }

    /// Quantizes a real matrix with explicit parameters.
    pub fn quantize_with(m: &Matrix, params: QuantParams) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&x| params.quantize(x)).collect(),
            params,
        }
    }

    /// Builds a quantized matrix from raw integers (e.g. re-quantized
    /// log-domain prediction outputs), clamping each value to the width's
    /// range.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_parts(rows: usize, cols: usize, data: Vec<i32>, params: QuantParams) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match shape {rows}x{cols}",
            data.len()
        );
        let max = params.width.max_value();
        Self {
            rows,
            cols,
            data: data.into_iter().map(|q| q.clamp(-max, max)).collect(),
            params,
        }
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

    /// Quantization parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Integer value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn get(&self, r: usize, c: usize) -> i32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Borrows row `r` of integers.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[i32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Borrows the full integer payload (row-major).
    pub fn as_slice(&self) -> &[i32] {
        &self.data
    }

    /// Recovers the real-valued matrix.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data
                .iter()
                .map(|&q| self.params.dequantize(q))
                .collect(),
        )
    }
}

/// Integer MMUL `A (m×k) · B (k×n)` with 32-bit accumulation, returning the
/// dequantized real result (`scale = scale_a * scale_b`).
///
/// This is the numerically exact model of the SDUE dense datapath: INT12
/// multipliers, Wallace-tree accumulation in wide registers, and a final
/// scale-factor multiply.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn quant_matmul(a: &QuantMatrix, b: &QuantMatrix) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "quant_matmul inner-dimension mismatch: {:?} · {:?}",
        a.shape(),
        b.shape()
    );
    let scale = a.params().scale * b.params().scale;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        for j in 0..n {
            let mut acc: i64 = 0;
            for (p, &av) in a_row.iter().enumerate().take(k) {
                acc += av as i64 * b.get(p, j) as i64;
            }
            out[(i, j)] = acc as f32 * scale;
        }
    }
    out
}

/// Worst-case quantization error of one tensor round trip (for tests and
/// calibration sanity checks): half a scale step.
pub fn quant_step(params: QuantParams) -> f32 {
    params.scale * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;
    use crate::rng::seeded_uniform;

    #[test]
    fn int_width_ranges() {
        assert_eq!(IntWidth::Int12.max_value(), 2047);
        assert_eq!(IntWidth::Int16.max_value(), 32767);
        assert_eq!(IntWidth::Int12.bits(), 12);
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let m = seeded_uniform(8, 8, -2.0, 2.0, 3);
        let q = QuantMatrix::quantize(&m, IntWidth::Int12);
        let back = q.dequantize();
        let step = quant_step(q.params());
        for (x, y) in m.as_slice().iter().zip(back.as_slice()) {
            assert!((x - y).abs() <= step * 1.001, "{x} vs {y} (step {step})");
        }
    }

    #[test]
    fn calibration_maps_extreme_to_max_int() {
        let m = Matrix::from_vec(1, 2, vec![4.0, -4.0]);
        let q = QuantMatrix::quantize(&m, IntWidth::Int12);
        assert_eq!(q.get(0, 0), 2047);
        assert_eq!(q.get(0, 1), -2047);
    }

    #[test]
    fn zero_matrix_round_trips() {
        let m = Matrix::zeros(2, 2);
        let q = QuantMatrix::quantize(&m, IntWidth::Int12);
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn quant_matmul_close_to_real_matmul() {
        let a = seeded_uniform(6, 10, -1.0, 1.0, 11);
        let b = seeded_uniform(10, 5, -1.0, 1.0, 12);
        let qa = QuantMatrix::quantize(&a, IntWidth::Int12);
        let qb = QuantMatrix::quantize(&b, IntWidth::Int12);
        let approx = quant_matmul(&qa, &qb);
        let exact = ops::matmul(&a, &b);
        for (x, y) in approx.as_slice().iter().zip(exact.as_slice()) {
            assert!((x - y).abs() < 0.02, "quant {x} vs exact {y}");
        }
    }

    #[test]
    fn int16_is_more_precise_than_int12() {
        let m = seeded_uniform(16, 16, -1.0, 1.0, 20);
        let err12: f32 = QuantMatrix::quantize(&m, IntWidth::Int12)
            .dequantize()
            .zip_map(&m, |a, b| (a - b).abs())
            .as_slice()
            .iter()
            .sum();
        let err16: f32 = QuantMatrix::quantize(&m, IntWidth::Int16)
            .dequantize()
            .zip_map(&m, |a, b| (a - b).abs())
            .as_slice()
            .iter()
            .sum();
        assert!(err16 < err12);
    }

    #[test]
    fn quantize_clamps_outliers() {
        let params = QuantParams {
            scale: 1.0,
            width: IntWidth::Int12,
        };
        assert_eq!(params.quantize(1e9), 2047);
        assert_eq!(params.quantize(-1e9), -2047);
    }
}
