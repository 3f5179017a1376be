//! Statistics used by the accuracy experiments.
//!
//! The paper's Table I reports dataset metrics (FID, IS, R-Precision, …) plus
//! "PSNR w/ Vanilla". Without the pre-trained models and datasets, the
//! reproduction relies on the relative metrics: PSNR/MSE/cosine similarity
//! against the vanilla (unapproximated) pipeline output, plus a Fréchet
//! distance between Gaussian fits of random-projection features — the same
//! quantity FID measures, minus the Inception embedding. These compare an
//! optimized run with an unoptimized run of the same seeded model, which is
//! what the paper's "PSNR w/ Vanilla" column does too.

use crate::rng::seeded_normal;
use crate::{ops, Matrix};

/// Cosine similarity of two equal-length vectors. Returns 0.0 when either
/// vector is all-zero.
///
/// # Panics
///
/// Panics if lengths differ.
///
/// # Examples
///
/// ```
/// use exion_tensor::stats::cosine_similarity;
/// assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
/// assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
/// ```
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine length mismatch");
    let mut dot = 0.0f64;
    let mut na = 0.0f64;
    let mut nb = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        dot += x as f64 * y as f64;
        na += x as f64 * x as f64;
        nb += y as f64 * y as f64;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// Mean squared error between two equal-shape matrices.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn mse(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape(), "mse shape mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64
}

/// Peak signal-to-noise ratio of `approx` against `reference`, in dB.
///
/// The peak is taken as the reference's max-abs value (its dynamic range for
/// zero-centred diffusion outputs). Identical inputs yield `f64::INFINITY`.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn psnr(reference: &Matrix, approx: &Matrix) -> f64 {
    let e = mse(reference, approx);
    if e == 0.0 {
        return f64::INFINITY;
    }
    let peak = reference.max_abs() as f64;
    if peak == 0.0 {
        return 0.0;
    }
    10.0 * ((peak * peak) / e).log10()
}

/// Relative Frobenius error `‖a − b‖ / ‖a‖` (0.0 when `a` is zero).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn relative_error(a: &Matrix, b: &Matrix) -> f64 {
    let na = a.frobenius_norm() as f64;
    if na == 0.0 {
        return 0.0;
    }
    ops::sub(a, b).frobenius_norm() as f64 / na
}

/// Per-dimension mean and variance of a set of feature vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianFit {
    /// Per-dimension means.
    pub mean: Vec<f64>,
    /// Per-dimension variances.
    pub var: Vec<f64>,
}

impl GaussianFit {
    /// Fits a diagonal Gaussian to a batch of feature vectors (rows).
    ///
    /// # Panics
    ///
    /// Panics if `features` is empty.
    pub fn fit(features: &Matrix) -> Self {
        assert!(features.rows() > 0, "cannot fit Gaussian to empty batch");
        let n = features.rows() as f64;
        let d = features.cols();
        let mut mean = vec![0.0f64; d];
        for row in features.iter_rows() {
            for (m, &x) in mean.iter_mut().zip(row) {
                *m += x as f64;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f64; d];
        for row in features.iter_rows() {
            for ((v, &x), m) in var.iter_mut().zip(row).zip(&mean) {
                let diff = x as f64 - m;
                *v += diff * diff;
            }
        }
        for v in &mut var {
            *v /= n;
        }
        Self { mean, var }
    }
}

/// Fréchet distance between two diagonal Gaussians:
/// `‖μ₁−μ₂‖² + Σ (√v₁ − √v₂)²`.
///
/// This is the exact 2-Wasserstein distance between axis-aligned Gaussians
/// and the proxy-FID of the accuracy experiments.
///
/// # Panics
///
/// Panics if the fits have different dimensionality.
pub fn frechet_distance(a: &GaussianFit, b: &GaussianFit) -> f64 {
    assert_eq!(a.mean.len(), b.mean.len(), "Fréchet dimension mismatch");
    let mean_term: f64 = a
        .mean
        .iter()
        .zip(&b.mean)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum();
    let var_term: f64 = a
        .var
        .iter()
        .zip(&b.var)
        .map(|(&x, &y)| {
            let d = x.max(0.0).sqrt() - y.max(0.0).sqrt();
            d * d
        })
        .sum();
    mean_term + var_term
}

/// Projects a batch of flattened samples (rows) into a `dim`-dimensional
/// feature space with a seeded random projection, the stand-in for the
/// Inception embedding in proxy-FID.
pub fn random_projection_features(samples: &Matrix, dim: usize, seed: u64) -> Matrix {
    let proj = seeded_normal(
        samples.cols(),
        dim,
        (1.0 / samples.cols() as f32).sqrt(),
        seed,
    );
    ops::matmul(samples, &proj)
}

/// Proxy-FID between two batches of flattened samples: Fréchet distance of
/// diagonal-Gaussian fits over seeded random-projection features.
///
/// # Panics
///
/// Panics if the batches have different feature width or either is empty.
pub fn proxy_fid(reference: &Matrix, generated: &Matrix, feature_dim: usize, seed: u64) -> f64 {
    assert_eq!(
        reference.cols(),
        generated.cols(),
        "proxy_fid feature width mismatch"
    );
    let fa = GaussianFit::fit(&random_projection_features(reference, feature_dim, seed));
    let fb = GaussianFit::fit(&random_projection_features(generated, feature_dim, seed));
    frechet_distance(&fa, &fb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_uniform;

    #[test]
    fn cosine_of_identical_is_one() {
        let v = [0.3f32, -0.7, 2.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_of_opposite_is_minus_one() {
        let v = [1.0f32, 2.0];
        let w = [-1.0f32, -2.0];
        assert!((cosine_similarity(&v, &w) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn mse_and_psnr_identity() {
        let m = seeded_uniform(4, 4, -1.0, 1.0, 8);
        assert_eq!(mse(&m, &m), 0.0);
        assert!(psnr(&m, &m).is_infinite());
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let m = seeded_uniform(16, 16, -1.0, 1.0, 8);
        let small = m.map(|x| x + 0.01);
        let large = m.map(|x| x + 0.1);
        assert!(psnr(&m, &small) > psnr(&m, &large));
    }

    #[test]
    fn relative_error_scales() {
        let m = Matrix::full(2, 2, 2.0);
        let n = Matrix::full(2, 2, 1.0);
        assert!((relative_error(&m, &n) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gaussian_fit_recovers_moments() {
        let features = Matrix::from_vec(4, 1, vec![1.0, 3.0, 1.0, 3.0]);
        let fit = GaussianFit::fit(&features);
        assert!((fit.mean[0] - 2.0).abs() < 1e-9);
        assert!((fit.var[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn frechet_zero_for_identical_fits() {
        let features = seeded_uniform(32, 8, -1.0, 1.0, 10);
        let fit = GaussianFit::fit(&features);
        assert_eq!(frechet_distance(&fit, &fit), 0.0);
    }

    #[test]
    fn proxy_fid_separates_distributions() {
        let a = seeded_uniform(64, 32, -1.0, 1.0, 1);
        let near = seeded_uniform(64, 32, -1.0, 1.0, 2);
        let far = seeded_uniform(64, 32, 4.0, 6.0, 3);
        let fid_near = proxy_fid(&a, &near, 16, 42);
        let fid_far = proxy_fid(&a, &far, 16, 42);
        assert!(fid_near < fid_far, "near {fid_near} vs far {fid_far}");
    }
}
