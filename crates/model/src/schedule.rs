//! Diffusion noise schedules (forward process variances).

/// Precomputed β / α / ᾱ tables of a diffusion forward process.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionSchedule {
    betas: Vec<f32>,
    alphas: Vec<f32>,
    alpha_bars: Vec<f32>,
}

impl DiffusionSchedule {
    /// Linear β schedule (Ho et al., DDPM): β ramps from `1e-4` to `0.02`
    /// over `steps` timesteps.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn linear(steps: usize) -> Self {
        assert!(steps > 0, "schedule needs at least one step");
        let beta_start = 1e-4f32;
        let beta_end = 0.02f32;
        let betas: Vec<f32> = (0..steps)
            .map(|t| {
                if steps == 1 {
                    beta_start
                } else {
                    beta_start + (beta_end - beta_start) * t as f32 / (steps - 1) as f32
                }
            })
            .collect();
        Self::from_betas(betas)
    }

    /// Cosine ᾱ schedule (Nichol & Dhariwal).
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    pub fn cosine(steps: usize) -> Self {
        assert!(steps > 0, "schedule needs at least one step");
        let s = 0.008f32;
        let f = |t: f32| {
            ((t / steps as f32 + s) / (1.0 + s) * std::f32::consts::FRAC_PI_2)
                .cos()
                .powi(2)
        };
        let f0 = f(0.0);
        let mut betas = Vec::with_capacity(steps);
        let mut prev = 1.0f32;
        for t in 0..steps {
            let abar = f((t + 1) as f32) / f0;
            let beta = (1.0 - abar / prev).clamp(1e-5, 0.999);
            betas.push(beta);
            prev = abar;
        }
        Self::from_betas(betas)
    }

    /// Builds the α / ᾱ tables from explicit βs.
    ///
    /// # Panics
    ///
    /// Panics if any β is outside `(0, 1)`.
    pub fn from_betas(betas: Vec<f32>) -> Self {
        let mut alphas = Vec::with_capacity(betas.len());
        let mut alpha_bars = Vec::with_capacity(betas.len());
        let mut bar = 1.0f32;
        for &b in &betas {
            assert!(b > 0.0 && b < 1.0, "beta {b} outside (0, 1)");
            let a = 1.0 - b;
            bar *= a;
            alphas.push(a);
            alpha_bars.push(bar);
        }
        Self {
            betas,
            alphas,
            alpha_bars,
        }
    }

    /// Number of timesteps.
    pub fn steps(&self) -> usize {
        self.betas.len()
    }

    /// β at timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn beta(&self, t: usize) -> f32 {
        self.betas[t]
    }

    /// α = 1 − β at timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn alpha(&self, t: usize) -> f32 {
        self.alphas[t]
    }

    /// ᾱ (cumulative product of α) at timestep `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn alpha_bar(&self, t: usize) -> f32 {
        self.alpha_bars[t]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_schedule_monotone() {
        let s = DiffusionSchedule::linear(1000);
        assert_eq!(s.steps(), 1000);
        assert!(s.beta(0) < s.beta(999));
        assert!((s.beta(0) - 1e-4).abs() < 1e-9);
        assert!((s.beta(999) - 0.02).abs() < 1e-6);
    }

    #[test]
    fn alpha_bar_decreases_to_near_zero() {
        let s = DiffusionSchedule::linear(1000);
        for t in 1..1000 {
            assert!(s.alpha_bar(t) < s.alpha_bar(t - 1));
        }
        assert!(s.alpha_bar(999) < 0.01);
        assert!(s.alpha_bar(0) > 0.99);
    }

    #[test]
    fn cosine_schedule_valid() {
        let s = DiffusionSchedule::cosine(100);
        for t in 0..100 {
            assert!(s.beta(t) > 0.0 && s.beta(t) < 1.0);
            assert!(s.alpha_bar(t) > 0.0 && s.alpha_bar(t) <= 1.0);
        }
        assert!(s.alpha_bar(99) < 0.05);
    }

    #[test]
    fn alpha_bar_is_cumulative_product() {
        let s = DiffusionSchedule::linear(10);
        let mut bar = 1.0f32;
        for t in 0..10 {
            bar *= s.alpha(t);
            assert!((s.alpha_bar(t) - bar).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_rejected() {
        let _ = DiffusionSchedule::linear(0);
    }
}
