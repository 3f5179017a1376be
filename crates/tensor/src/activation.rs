//! Non-linearities used between the two FFN layers of diffusion transformer
//! blocks.
//!
//! The paper's FFN-Reuse bitmask is generated from "the output of the
//! non-linear layer (e.g., GELU or GEGLU)" (Section III-A), so both variants
//! are provided, plus SiLU and ReLU for the UNet-style benchmarks.

use crate::Matrix;

/// Gaussian Error Linear Unit (tanh approximation, as used by GPT-style
/// transformer stacks and the DiT reference implementation).
///
/// # Examples
///
/// ```
/// use exion_tensor::activation::gelu;
/// assert!(gelu(0.0).abs() < 1e-7);
/// assert!((gelu(3.0) - 3.0).abs() < 0.01);
/// assert!(gelu(-3.0).abs() < 0.01);
/// ```
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + (SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)).tanh())
}

/// Sigmoid Linear Unit (`x * sigmoid(x)`), used by UNet ResBlocks.
pub fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

/// Rectified Linear Unit.
pub fn relu(x: f32) -> f32 {
    x.max(0.0)
}

/// The non-linearity between the two FFN linear layers.
///
/// `Geglu` is a gated variant: the first FFN layer produces `2·d_ff` features;
/// the activation output is `gelu(a) ⊙ b` over the split halves (Shazeer,
/// "GLU Variants Improve Transformer", 2020). Stable Diffusion's transformer
/// blocks use GEGLU, the other benchmarks use GELU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Plain GELU over every element.
    Gelu,
    /// Gated GELU: input columns are split in half, output is
    /// `gelu(left) ⊙ right` with half the input width.
    Geglu,
    /// SiLU (used in ResBlocks).
    Silu,
    /// ReLU.
    Relu,
}

impl Activation {
    /// Applies the activation to a hidden matrix.
    ///
    /// For [`Activation::Geglu`] the input must have an even number of
    /// columns; the output has half as many columns. All other variants
    /// preserve the shape.
    ///
    /// # Panics
    ///
    /// Panics if `Geglu` is applied to a matrix with an odd column count.
    ///
    /// # Examples
    ///
    /// ```
    /// use exion_tensor::{Activation, Matrix};
    /// let h = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
    /// let out = Activation::Geglu.apply(&h);
    /// assert_eq!(out.shape(), (1, 1));
    /// ```
    pub fn apply(&self, h: &Matrix) -> Matrix {
        match self {
            Activation::Gelu => h.map(gelu),
            Activation::Silu => h.map(silu),
            Activation::Relu => h.map(relu),
            Activation::Geglu => {
                assert!(
                    h.cols().is_multiple_of(2),
                    "GEGLU needs an even column count, got {}",
                    h.cols()
                );
                let half = h.cols() / 2;
                Matrix::from_fn(h.rows(), half, |r, c| gelu(h[(r, c)]) * h[(r, half + c)])
            }
        }
    }

    /// Output width of the activation given the first FFN layer's width.
    pub fn output_cols(&self, input_cols: usize) -> usize {
        match self {
            Activation::Geglu => input_cols / 2,
            _ => input_cols,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelu_limits() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(10.0) - 10.0).abs() < 1e-4);
        assert!(gelu(-10.0).abs() < 1e-4);
        // GELU is monotonically increasing for x > 0.
        assert!(gelu(2.0) > gelu(1.0));
    }

    #[test]
    fn silu_and_relu_basics() {
        assert_eq!(relu(-1.0), 0.0);
        assert_eq!(relu(2.5), 2.5);
        assert_eq!(silu(0.0), 0.0);
        assert!((silu(10.0) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_produces_small_outputs_for_small_negatives() {
        // The near-zero region is what FFN-Reuse's threshold bitmask exploits.
        for x in [-0.5f32, -0.2, -0.05] {
            assert!(gelu(x).abs() < 0.2);
        }
    }

    #[test]
    fn activation_apply_preserves_or_halves_shape() {
        let h = Matrix::full(3, 4, 1.0);
        assert_eq!(Activation::Gelu.apply(&h).shape(), (3, 4));
        assert_eq!(Activation::Silu.apply(&h).shape(), (3, 4));
        assert_eq!(Activation::Relu.apply(&h).shape(), (3, 4));
        assert_eq!(Activation::Geglu.apply(&h).shape(), (3, 2));
    }

    #[test]
    fn geglu_gates_left_half_by_right_half() {
        let h = Matrix::from_vec(1, 4, vec![1.0, 2.0, 0.0, 3.0]);
        let out = Activation::Geglu.apply(&h);
        assert_eq!(out[(0, 0)], 0.0); // gelu(1) * 0
        assert!((out[(0, 1)] - gelu(2.0) * 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "even column count")]
    fn geglu_rejects_odd_width() {
        let _ = Activation::Geglu.apply(&Matrix::zeros(1, 3));
    }

    #[test]
    fn output_cols() {
        assert_eq!(Activation::Gelu.output_cols(8), 8);
        assert_eq!(Activation::Geglu.output_cols(8), 4);
    }
}
