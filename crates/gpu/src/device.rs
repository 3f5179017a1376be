//! GPU device specifications (paper Table II plus the A100 of Fig. 19(b)).

/// Analytical GPU device model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Device name.
    pub name: &'static str,
    /// Peak throughput in the precision diffusion inference uses (TFLOPS,
    /// FP16/tensor path where available).
    pub peak_tflops: f64,
    /// Peak memory bandwidth (GB/s).
    pub bandwidth_gbps: f64,
    /// Board power limit (W).
    pub tdp_w: f64,
    /// Idle/baseline power while a process holds the device (W).
    pub idle_w: f64,
    /// Per-kernel launch + scheduling overhead (µs).
    pub kernel_launch_us: f64,
    /// Achievable fraction of peak compute on transformer inference kernels.
    pub compute_efficiency: f64,
    /// Achievable fraction of peak bandwidth.
    pub bandwidth_efficiency: f64,
    /// Per-denoising-iteration framework overhead (µs): Python dispatch,
    /// scheduler math, synchronization. The paper measures full PyTorch
    /// pipelines (its intro reports 11.8 s for Stable Diffusion on the
    /// RTX 6000 Ada — far above any kernel roofline), so the baseline model
    /// must carry this term; it dominates for the small benchmarks.
    pub pipeline_overhead_us: f64,
}

impl GpuSpec {
    /// NVIDIA RTX 6000 Ada (Table II server GPU: 91.1 TFLOPS FP32, 960 GB/s,
    /// ~300 W). Diffusion inference uses the FP16 tensor path at roughly
    /// double the FP32 rate.
    pub fn rtx6000_ada() -> Self {
        Self {
            pipeline_overhead_us: 5000.0,
            name: "RTX 6000 Ada",
            peak_tflops: 182.2,
            bandwidth_gbps: 960.0,
            tdp_w: 300.0,
            idle_w: 30.0,
            kernel_launch_us: 5.0,
            compute_efficiency: 0.35,
            bandwidth_efficiency: 0.75,
        }
    }

    /// NVIDIA Jetson Orin Nano (Table II edge GPU: 40 TOPS INT8, 68 GB/s,
    /// ~15 W); FP16 runs at roughly half the INT8 rate.
    pub fn jetson_orin_nano() -> Self {
        Self {
            pipeline_overhead_us: 25000.0,
            name: "Jetson Orin Nano",
            peak_tflops: 20.0,
            bandwidth_gbps: 68.0,
            tdp_w: 15.0,
            idle_w: 4.0,
            kernel_launch_us: 12.0,
            compute_efficiency: 0.30,
            bandwidth_efficiency: 0.65,
        }
    }

    /// NVIDIA A100 80 GB (Fig. 19(b) baseline: 312 TFLOPS FP16 tensor,
    /// 1935 GB/s, 400 W).
    pub fn a100() -> Self {
        Self {
            pipeline_overhead_us: 5000.0,
            name: "A100",
            peak_tflops: 312.0,
            bandwidth_gbps: 1935.0,
            tdp_w: 400.0,
            idle_w: 40.0,
            kernel_launch_us: 5.0,
            compute_efficiency: 0.35,
            bandwidth_efficiency: 0.80,
        }
    }

    /// Effective compute rate (TFLOPS) after the inference derate.
    pub fn effective_tflops(&self) -> f64 {
        self.peak_tflops * self.compute_efficiency
    }

    /// Effective bandwidth (GB/s) after the derate.
    pub fn effective_bandwidth_gbps(&self) -> f64 {
        self.bandwidth_gbps * self.bandwidth_efficiency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_specs() {
        let server = GpuSpec::rtx6000_ada();
        assert!((server.bandwidth_gbps - 960.0).abs() < 1e-9);
        assert!((server.tdp_w - 300.0).abs() < 1e-9);
        let edge = GpuSpec::jetson_orin_nano();
        assert!((edge.bandwidth_gbps - 68.0).abs() < 1e-9);
        assert!((edge.tdp_w - 15.0).abs() < 1e-9);
    }

    #[test]
    fn server_outclasses_edge() {
        let server = GpuSpec::rtx6000_ada();
        let edge = GpuSpec::jetson_orin_nano();
        assert!(server.effective_tflops() > 5.0 * edge.effective_tflops());
        assert!(server.effective_bandwidth_gbps() > 10.0 * edge.effective_bandwidth_gbps());
    }

    #[test]
    fn derates_are_fractions() {
        for g in [
            GpuSpec::rtx6000_ada(),
            GpuSpec::jetson_orin_nano(),
            GpuSpec::a100(),
        ] {
            assert!(g.compute_efficiency > 0.0 && g.compute_efficiency <= 1.0);
            assert!(g.bandwidth_efficiency > 0.0 && g.bandwidth_efficiency <= 1.0);
            assert!(g.idle_w < g.tdp_w);
        }
    }
}
