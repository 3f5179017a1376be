//! Log-domain arithmetic for eager prediction (paper Fig. 5(a) and Fig. 15).
//!
//! Integers are approximated by their leading one (LOD) or their two leading
//! ones (TS-LOD). A multiplication then becomes exponent additions producing
//! *one-hot* partial terms (powers of two), which the hardware accumulates
//! with an OR-gate tree instead of full adders. Both the OR-tree behaviour
//! and an exact-adder reference are modelled so the approximation cost is
//! measurable.

use exion_tensor::QuantMatrix;
use serde::{Deserialize, Serialize};

/// Position of the leading one bit of `x` (0 = LSB), or `None` for zero.
///
/// # Examples
///
/// ```
/// use exion_core::ep::lod;
/// assert_eq!(lod(0b1001), Some(3));
/// assert_eq!(lod(1), Some(0));
/// assert_eq!(lod(0), None);
/// ```
pub fn lod(x: u32) -> Option<u32> {
    if x == 0 {
        None
    } else {
        Some(31 - x.leading_zeros())
    }
}

/// Leading-one detection depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LodMode {
    /// Single-step LOD: keep only the leading one (the original EP of FACT).
    Single,
    /// Two-step LOD: "first conducts LOD and then detects an additional bit
    /// after converting the leading-one bit to zero" (Section IV-D). EXION's
    /// accuracy improvement.
    TwoStep,
}

/// How one-hot partial terms are accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccumMode {
    /// Exact integer adds everywhere (reference).
    Exact,
    /// The hardware's one-hot adder tree: the (up to four) one-hot terms of
    /// each product are combined with bitwise OR — a repeated exponent is
    /// absorbed instead of carried — then products are summed exactly by the
    /// 16-to-1 Wallace tree.
    OneHotOrTree,
}

/// A sign plus up to two leading-one exponents — the log-domain image of one
/// integer operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogOperand {
    /// Sign: -1, 0, or +1.
    pub sign: i8,
    /// Leading-one exponent, `None` iff the value is zero.
    pub e1: Option<u8>,
    /// Second leading-one exponent (TS-LOD only).
    pub e2: Option<u8>,
}

impl LogOperand {
    /// Approximates an integer in the log domain.
    ///
    /// # Examples
    ///
    /// ```
    /// use exion_core::ep::{LodMode, LogOperand};
    /// let a = LogOperand::from_int(5, LodMode::TwoStep);
    /// assert_eq!(a.approx_value(), 5); // 4 + 1
    /// let b = LogOperand::from_int(5, LodMode::Single);
    /// assert_eq!(b.approx_value(), 4);
    /// ```
    pub fn from_int(x: i32, mode: LodMode) -> Self {
        if x == 0 {
            return Self {
                sign: 0,
                e1: None,
                e2: None,
            };
        }
        let sign = if x < 0 { -1 } else { 1 };
        let a = x.unsigned_abs();
        let e1 = lod(a).map(|e| e as u8);
        let e2 = match (mode, e1) {
            (LodMode::TwoStep, Some(e)) => lod(a & !(1u32 << e)).map(|e| e as u8),
            _ => None,
        };
        Self { sign, e1, e2 }
    }

    /// The approximated magnitude `2^e1 (+ 2^e2)`.
    pub fn approx_abs(&self) -> u64 {
        let mut v = 0u64;
        if let Some(e) = self.e1 {
            v += 1 << e;
        }
        if let Some(e) = self.e2 {
            v += 1 << e;
        }
        v
    }

    /// The approximated signed value.
    pub fn approx_value(&self) -> i64 {
        self.sign as i64 * self.approx_abs() as i64
    }

    /// Exponents of the one-hot product terms of `self * other`
    /// ("operands of addition have been quadrupled"), with the product sign.
    ///
    /// Returns `(sign, exponents)` where each exponent `e` contributes `2^e`.
    pub fn product_terms(&self, other: &Self) -> (i8, ProductTerms) {
        let sign = self.sign * other.sign;
        let mut terms = ProductTerms::default();
        if sign != 0 {
            for ea in [self.e1, self.e2].into_iter().flatten() {
                for eb in [other.e1, other.e2].into_iter().flatten() {
                    terms.push(ea as u32 + eb as u32);
                }
            }
        }
        (sign, terms)
    }
}

/// Up to four one-hot product-term exponents (fixed capacity, no allocation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProductTerms {
    len: u8,
    exps: [u32; 4],
}

impl ProductTerms {
    fn push(&mut self, e: u32) {
        self.exps[self.len as usize] = e;
        self.len += 1;
    }

    /// The term exponents.
    pub fn as_slice(&self) -> &[u32] {
        &self.exps[..self.len as usize]
    }

    /// Exact sum of the one-hot terms.
    pub fn exact_sum(&self) -> u64 {
        self.as_slice().iter().map(|&e| 1u64 << e).sum()
    }

    /// OR-tree combination of the one-hot terms: a repeated exponent is
    /// absorbed (no carry), which is the hardware's approximation.
    pub fn or_tree(&self) -> u64 {
        self.as_slice().iter().fold(0u64, |acc, &e| acc | 1u64 << e)
    }
}

/// Log-domain dot product of two integer slices.
///
/// `lane` groups model the LD_DPU: each product's one-hot terms are combined
/// per [`AccumMode`], and products accumulate exactly (Wallace tree).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn log_dot(a: &[i32], b: &[i32], mode: LodMode, accum: AccumMode) -> i64 {
    assert_eq!(a.len(), b.len(), "log_dot length mismatch");
    let mut acc = 0i64;
    for (&x, &y) in a.iter().zip(b) {
        let la = LogOperand::from_int(x, mode);
        let lb = LogOperand::from_int(y, mode);
        let (sign, terms) = la.product_terms(&lb);
        let mag = match accum {
            AccumMode::Exact => terms.exact_sum(),
            AccumMode::OneHotOrTree => terms.or_tree(),
        };
        acc += sign as i64 * mag as i64;
    }
    acc
}

/// An integer score matrix produced by log-domain MMUL, with enough range for
/// INT12 × INT12 × long-reduction accumulations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogScores {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl LogScores {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Score at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> i64 {
        assert!(r < self.rows && c < self.cols, "score index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[i64] {
        assert!(r < self.rows, "score row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// The log-domain image of a `rows × cols` integer matrix, row-major, made
/// once per element: the EPRE applies LOD to each operand as it enters the
/// LD_DPU, not once per product.
struct LogImage {
    /// One-hot magnitude `2^e1 | 2^e2`; 0 for a zero element.
    mask: Vec<u64>,
    /// All ones for a negative element, 0 otherwise.
    neg: Vec<i64>,
    /// Exponent pair `(e1, e2)`, with `e2 = e1` when there is no second one.
    shift: Vec<(u32, u32)>,
}

impl LogImage {
    fn new(rows: usize, cols: usize, value: impl Fn(usize, usize) -> i32, mode: LodMode) -> Self {
        let n = rows * cols;
        let mut image = Self {
            mask: Vec::with_capacity(n),
            neg: Vec::with_capacity(n),
            shift: Vec::with_capacity(n),
        };
        for r in 0..rows {
            for c in 0..cols {
                let op = LogOperand::from_int(value(r, c), mode);
                let e1 = op.e1.map_or(0, u32::from);
                let e2 = op.e2.map_or(e1, u32::from);
                image
                    .mask
                    .push(op.e1.map_or(0, |_| (1u64 << e1) | (1u64 << e2)));
                image.neg.push(if op.sign < 0 { -1 } else { 0 });
                image.shift.push((e1, e2));
            }
        }
        image
    }
}

/// `a · b` over log images, `a` being `rows × inner` and `b` being
/// `inner × cols`. Equals a [`log_dot`] per output element.
///
/// The one-hot terms of a product are `2^(ea + eb)` over both operands'
/// exponents, so their OR is `(mb << ea1) | (mb << ea2)` and their exact
/// sum is `ma · mb`. A sign flip is `(x ^ neg) - neg`, and a zero operand
/// has a zero mask. Products accumulate exactly, so the i-p-j loop order
/// changes no result.
fn log_product(
    a: &LogImage,
    b: &LogImage,
    rows: usize,
    inner: usize,
    cols: usize,
    accum: AccumMode,
) -> LogScores {
    let mut data = vec![0i64; rows * cols];
    // `max(1)`: with no columns there is no data and so no chunk.
    for (i, out) in data.chunks_exact_mut(cols.max(1)).enumerate() {
        for p in 0..inner {
            let ia = i * inner + p;
            let ma = a.mask[ia];
            if ma == 0 {
                continue;
            }
            let na = a.neg[ia];
            let b_mask = &b.mask[p * cols..(p + 1) * cols];
            let b_neg = &b.neg[p * cols..(p + 1) * cols];
            match accum {
                AccumMode::OneHotOrTree => {
                    let (e1, e2) = a.shift[ia];
                    for ((acc, &mb), &nb) in out.iter_mut().zip(b_mask).zip(b_neg) {
                        let neg = na ^ nb;
                        *acc += (((mb << e1) | (mb << e2)) as i64 ^ neg) - neg;
                    }
                }
                AccumMode::Exact => {
                    for ((acc, &mb), &nb) in out.iter_mut().zip(b_mask).zip(b_neg) {
                        let neg = na ^ nb;
                        *acc += ((ma * mb) as i64 ^ neg) - neg;
                    }
                }
            }
        }
    }
    LogScores { rows, cols, data }
}

/// Log-domain `A · Bᵀ` over quantized matrices — the EPRE's predicted
/// attention score `Q'·K'ᵀ` (both operands stored row-major, `b` holding Kᵀ
/// rows as key vectors).
///
/// # Panics
///
/// Panics if the inner dimensions differ.
pub fn log_matmul_transpose_b(
    a: &QuantMatrix,
    b: &QuantMatrix,
    mode: LodMode,
    accum: AccumMode,
) -> LogScores {
    assert_eq!(
        a.cols(),
        b.cols(),
        "log_matmul inner-dimension mismatch: {:?} · {:?}ᵀ",
        a.shape(),
        b.shape()
    );
    let (rows, inner) = a.shape();
    let cols = b.rows();
    let (av, bv) = (a.as_slice(), b.as_slice());
    let la = LogImage::new(rows, inner, |r, c| av[r * inner + c], mode);
    let lb = LogImage::new(inner, cols, |p, j| bv[j * inner + p], mode);
    log_product(&la, &lb, rows, inner, cols, accum)
}

/// Log-domain `A · B` (for log-domain Q/K projection prediction).
///
/// # Panics
///
/// Panics if the inner dimensions differ.
pub fn log_matmul(a: &QuantMatrix, b: &QuantMatrix, mode: LodMode, accum: AccumMode) -> LogScores {
    assert_eq!(
        a.cols(),
        b.rows(),
        "log_matmul inner-dimension mismatch: {:?} · {:?}",
        a.shape(),
        b.shape()
    );
    let (rows, inner) = a.shape();
    let cols = b.cols();
    let (av, bv) = (a.as_slice(), b.as_slice());
    let la = LogImage::new(rows, inner, |r, c| av[r * inner + c], mode);
    let lb = LogImage::new(inner, cols, |p, j| bv[p * cols + j], mode);
    log_product(&la, &lb, rows, inner, cols, accum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use exion_tensor::rng::seeded_uniform;
    use exion_tensor::{IntWidth, Matrix, QuantParams};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// An INT12 matrix whose elements are the extremes 0, ±1 and ±2047 about
    /// half the time and uniform INT12 values otherwise.
    fn int12_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> QuantMatrix {
        const EXTREMES: [i32; 5] = [0, 1, -1, 2047, -2047];
        let data = (0..rows * cols)
            .map(|_| {
                if rng.random_range(0..2u32) == 0 {
                    EXTREMES[rng.random_range(0..EXTREMES.len())]
                } else {
                    rng.random_range(-2047..2048)
                }
            })
            .collect();
        let params = QuantParams {
            scale: 1.0,
            width: IntWidth::Int12,
        };
        QuantMatrix::from_parts(rows, cols, data, params)
    }

    #[test]
    fn lod_positions() {
        assert_eq!(lod(0), None);
        assert_eq!(lod(1), Some(0));
        assert_eq!(lod(2), Some(1));
        assert_eq!(lod(3), Some(1));
        assert_eq!(lod(2047), Some(10));
    }

    #[test]
    fn single_lod_keeps_leading_power() {
        for (x, want) in [(5, 4), (9, 8), (-6, -4), (1, 1), (0, 0)] {
            assert_eq!(
                LogOperand::from_int(x, LodMode::Single).approx_value(),
                want
            );
        }
    }

    #[test]
    fn two_step_lod_keeps_two_powers() {
        for (x, want) in [(5, 5), (9, 9), (7, 6), (-13, -12), (1, 1), (0, 0)] {
            assert_eq!(
                LogOperand::from_int(x, LodMode::TwoStep).approx_value(),
                want
            );
        }
    }

    #[test]
    fn two_step_never_worse_than_single() {
        for x in -2048..=2048 {
            let s = LogOperand::from_int(x, LodMode::Single).approx_value();
            let t = LogOperand::from_int(x, LodMode::TwoStep).approx_value();
            assert!((x as i64 - t).abs() <= (x as i64 - s).abs(), "x={x}");
        }
    }

    #[test]
    fn product_terms_quadrupled_for_two_step() {
        let a = LogOperand::from_int(5, LodMode::TwoStep); // 4 + 1
        let b = LogOperand::from_int(3, LodMode::TwoStep); // 2 + 1
        let (sign, terms) = a.product_terms(&b);
        assert_eq!(sign, 1);
        assert_eq!(terms.as_slice().len(), 4);
        assert_eq!(terms.exact_sum(), 15); // (4+1)(2+1) = 15
    }

    #[test]
    fn or_tree_absorbs_repeated_exponents() {
        // 5 = 4+1 and 5 = 4+1: cross terms 4·1 and 1·4 share exponent 2.
        let a = LogOperand::from_int(5, LodMode::TwoStep);
        let (_, terms) = a.product_terms(&a);
        assert_eq!(terms.exact_sum(), 25); // 16 + 4 + 4 + 1
        assert_eq!(terms.or_tree(), 21); // 16 | 4 | 4 | 1
    }

    #[test]
    fn zero_operand_kills_product() {
        let z = LogOperand::from_int(0, LodMode::TwoStep);
        let a = LogOperand::from_int(7, LodMode::TwoStep);
        let (sign, terms) = z.product_terms(&a);
        assert_eq!(sign, 0);
        assert!(terms.as_slice().is_empty());
    }

    #[test]
    fn log_dot_exact_mode_matches_operand_approximation() {
        let a = [3, -5, 0, 9];
        let b = [2, 2, 7, -1];
        let got = log_dot(&a, &b, LodMode::TwoStep, AccumMode::Exact);
        // All operands here are exactly representable with two powers.
        let want: i64 = a.iter().zip(&b).map(|(&x, &y)| (x * y) as i64).sum();
        assert_eq!(got, want);
    }

    #[test]
    fn log_dot_correlates_with_real_dot() {
        // Averaged over several draws: a single random reduction can land
        // near zero, where the relative error of the OR-tree approximation
        // is unbounded regardless of its ranking quality.
        let mut abs_err = 0.0f64;
        let mut abs_exact = 0.0f64;
        let seeds = 8;
        for seed in 0..seeds {
            let a = seeded_uniform(1, 64, -1.0, 1.0, 5 + 2 * seed);
            let b = seeded_uniform(1, 64, -1.0, 1.0, 6 + 2 * seed);
            let qa = exion_tensor::QuantMatrix::quantize(&a, IntWidth::Int12);
            let qb = exion_tensor::QuantMatrix::quantize(&b, IntWidth::Int12);
            let exact: i64 = qa
                .row(0)
                .iter()
                .zip(qb.row(0))
                .map(|(&x, &y)| x as i64 * y as i64)
                .sum();
            let pred = log_dot(
                qa.row(0),
                qb.row(0),
                LodMode::TwoStep,
                AccumMode::OneHotOrTree,
            );
            abs_err += (pred - exact).abs() as f64;
            abs_exact += exact.abs() as f64;
        }
        // TS-LOD with OR-tree keeps the prediction within ~30–40% of exact
        // in aggregate — coarse, but far from an uncorrelated predictor
        // (aggregate rel err ≈ 1.4) and enough to rank attention scores.
        assert!(
            abs_err / abs_exact < 0.5,
            "aggregate rel err {}",
            abs_err / abs_exact
        );
    }

    #[test]
    fn ts_lod_predicts_better_than_lod_on_average() {
        let a = seeded_uniform(8, 32, -1.0, 1.0, 7);
        let b = seeded_uniform(8, 32, -1.0, 1.0, 8);
        let qa = exion_tensor::QuantMatrix::quantize(&a, IntWidth::Int12);
        let qb = exion_tensor::QuantMatrix::quantize(&b, IntWidth::Int12);
        let mut err_single = 0.0f64;
        let mut err_two = 0.0f64;
        for i in 0..8 {
            let exact: i64 = qa
                .row(i)
                .iter()
                .zip(qb.row(i))
                .map(|(&x, &y)| x as i64 * y as i64)
                .sum();
            let s = log_dot(qa.row(i), qb.row(i), LodMode::Single, AccumMode::Exact);
            let t = log_dot(qa.row(i), qb.row(i), LodMode::TwoStep, AccumMode::Exact);
            err_single += (s - exact).abs() as f64;
            err_two += (t - exact).abs() as f64;
        }
        assert!(
            err_two < err_single,
            "two-step {err_two} vs single {err_single}"
        );
    }

    #[test]
    fn log_matmul_kernels_equal_a_log_dot_per_element() {
        let mut rng = StdRng::seed_from_u64(0x10D);
        // Width-1 and empty operands, then random shapes.
        let mut shapes = vec![
            (1, 1, 1),
            (1, 9, 1),
            (6, 1, 5),
            (4, 7, 1),
            (1, 5, 8),
            (0, 3, 2),
            (2, 3, 0),
            (2, 0, 3),
        ];
        shapes.extend((0..12).map(|_| {
            (
                rng.random_range(1..20),
                rng.random_range(1..40),
                rng.random_range(1..20),
            )
        }));
        for (m, k, n) in shapes {
            let a = int12_matrix(m, k, &mut rng);
            let b = int12_matrix(k, n, &mut rng);
            let bt = int12_matrix(n, k, &mut rng);
            for mode in [LodMode::Single, LodMode::TwoStep] {
                for accum in [AccumMode::Exact, AccumMode::OneHotOrTree] {
                    let s = log_matmul(&a, &b, mode, accum);
                    let st = log_matmul_transpose_b(&a, &bt, mode, accum);
                    assert_eq!((s.rows(), s.cols()), (m, n));
                    assert_eq!((st.rows(), st.cols()), (m, n));
                    for i in 0..m {
                        for j in 0..n {
                            let col: Vec<i32> = (0..k).map(|p| b.get(p, j)).collect();
                            let case = format!("{m}x{k}x{n} {mode:?}/{accum:?} at ({i}, {j})");
                            assert_eq!(s.get(i, j), log_dot(a.row(i), &col, mode, accum), "{case}");
                            assert_eq!(
                                st.get(i, j),
                                log_dot(a.row(i), bt.row(j), mode, accum),
                                "transposed {case}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn log_matmul_shapes() {
        let a = exion_tensor::QuantMatrix::quantize(
            &Matrix::from_fn(3, 4, |r, c| (r + c) as f32),
            IntWidth::Int12,
        );
        let b = exion_tensor::QuantMatrix::quantize(
            &Matrix::from_fn(4, 5, |r, c| (r * c) as f32),
            IntWidth::Int12,
        );
        let s = log_matmul(&a, &b, LodMode::TwoStep, AccumMode::Exact);
        assert_eq!((s.rows(), s.cols()), (3, 5));
        let bt = exion_tensor::QuantMatrix::quantize(
            &Matrix::from_fn(5, 4, |r, c| (r * c) as f32),
            IntWidth::Int12,
        );
        let st = log_matmul_transpose_b(&a, &bt, LodMode::TwoStep, AccumMode::Exact);
        assert_eq!((st.rows(), st.cols()), (3, 5));
    }
}
