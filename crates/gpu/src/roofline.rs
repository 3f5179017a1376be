//! Kernel-granularity roofline latency and energy estimation.

use crate::device::GpuSpec;

/// One GPU kernel's work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// Floating-point operations (2 per MAC).
    pub flops: f64,
    /// Bytes moved to/from device memory.
    pub bytes: f64,
}

impl Kernel {
    /// A matrix-multiply kernel `m × k × n` at `bytes_per_el` precision,
    /// touching both operands and the output once.
    pub fn matmul(m: u64, k: u64, n: u64, bytes_per_el: f64) -> Self {
        Self {
            flops: 2.0 * m as f64 * k as f64 * n as f64,
            bytes: bytes_per_el * (m as f64 * k as f64 + k as f64 * n as f64 + m as f64 * n as f64),
        }
    }

    /// A pointwise/normalization kernel over `elements` values (bandwidth
    /// bound: read + write).
    pub fn pointwise(elements: u64, bytes_per_el: f64) -> Self {
        Self {
            flops: 5.0 * elements as f64,
            bytes: 2.0 * bytes_per_el * elements as f64,
        }
    }

    /// Roofline execution time on `gpu` (seconds), including launch overhead.
    pub fn time_s(&self, gpu: &GpuSpec) -> f64 {
        let compute_s = self.flops / (gpu.effective_tflops() * 1e12);
        let memory_s = self.bytes / (gpu.effective_bandwidth_gbps() * 1e9);
        gpu.kernel_launch_us * 1e-6 + compute_s.max(memory_s)
    }

    /// Whether the kernel is compute-bound on `gpu`.
    pub fn compute_bound(&self, gpu: &GpuSpec) -> bool {
        self.flops / (gpu.effective_tflops() * 1e12)
            > self.bytes / (gpu.effective_bandwidth_gbps() * 1e9)
    }
}

/// Aggregate cost of a GPU run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuRunCost {
    /// Total latency (ms).
    pub latency_ms: f64,
    /// Total energy (mJ).
    pub energy_mj: f64,
    /// Total useful operations.
    pub flops: f64,
    /// Number of kernels launched.
    pub kernels: u64,
    /// Mean achieved utilization of peak compute.
    pub utilization: f64,
}

impl GpuRunCost {
    /// Effective throughput (TFLOPS).
    pub fn effective_tflops(&self) -> f64 {
        if self.latency_ms == 0.0 {
            0.0
        } else {
            self.flops / (self.latency_ms * 1e-3) / 1e12
        }
    }

    /// Energy efficiency (TOPS/W = TFLOPS per watt of average power).
    pub fn tops_per_watt(&self) -> f64 {
        if self.energy_mj == 0.0 {
            0.0
        } else {
            self.flops / (self.energy_mj * 1e-3) / 1e12
        }
    }
}

/// Runs a kernel sequence through the roofline and power model.
///
/// Power scales between idle and TDP with achieved compute utilization —
/// launch-bound workloads (tiny diffusion models at batch 1) burn near-idle
/// power for a long time, which is exactly the regime where the paper's
/// GPU energy-efficiency gap explodes.
pub fn estimate_run(gpu: &GpuSpec, kernels: &[Kernel]) -> GpuRunCost {
    let mut latency_s = 0.0f64;
    let mut flops = 0.0f64;
    for k in kernels {
        latency_s += k.time_s(gpu);
        flops += k.flops;
    }
    let utilization = if latency_s > 0.0 {
        (flops / (gpu.peak_tflops * 1e12) / latency_s).min(1.0)
    } else {
        0.0
    };
    let power_w = gpu.idle_w + (gpu.tdp_w - gpu.idle_w) * utilization;
    GpuRunCost {
        latency_ms: latency_s * 1e3,
        energy_mj: power_w * latency_s * 1e3,
        flops,
        kernels: kernels.len() as u64,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_matmul_is_compute_bound() {
        let gpu = GpuSpec::rtx6000_ada();
        let k = Kernel::matmul(4096, 4096, 4096, 2.0);
        assert!(k.compute_bound(&gpu));
        // 137 GFLOP at 63.8 effective TFLOPS ≈ 2.2 ms.
        let t = k.time_s(&gpu);
        assert!((1e-3..5e-3).contains(&t), "t = {t}");
    }

    #[test]
    fn pointwise_is_bandwidth_bound() {
        let gpu = GpuSpec::rtx6000_ada();
        assert!(!Kernel::pointwise(1 << 20, 2.0).compute_bound(&gpu));
    }

    #[test]
    fn tiny_kernels_are_launch_bound() {
        let gpu = GpuSpec::rtx6000_ada();
        let k = Kernel::matmul(8, 256, 256, 2.0);
        let t = k.time_s(&gpu);
        assert!(t < 2.0 * gpu.kernel_launch_us * 1e-6, "t = {t}");
    }

    #[test]
    fn launch_bound_runs_burn_near_idle_power() {
        let gpu = GpuSpec::rtx6000_ada();
        let kernels = vec![Kernel::matmul(8, 64, 64, 2.0); 1000];
        let cost = estimate_run(&gpu, &kernels);
        assert!(cost.utilization < 0.01);
        let mean_power = cost.energy_mj / cost.latency_ms;
        assert!(mean_power < gpu.idle_w * 1.5, "power {mean_power} W");
    }

    #[test]
    fn saturated_runs_approach_tdp() {
        let gpu = GpuSpec::rtx6000_ada();
        let kernels = vec![Kernel::matmul(8192, 8192, 8192, 2.0); 4];
        let cost = estimate_run(&gpu, &kernels);
        assert!(cost.utilization > 0.3);
        let mean_power = cost.energy_mj / cost.latency_ms;
        assert!(mean_power > 100.0);
    }

    #[test]
    fn edge_gpu_is_slower_than_server() {
        let kernels = vec![Kernel::matmul(1024, 1024, 1024, 2.0); 8];
        let server = estimate_run(&GpuSpec::rtx6000_ada(), &kernels);
        let edge = estimate_run(&GpuSpec::jetson_orin_nano(), &kernels);
        assert!(edge.latency_ms > 5.0 * server.latency_ms);
    }

    #[test]
    fn cost_accessors() {
        let cost = GpuRunCost {
            latency_ms: 10.0,
            energy_mj: 1000.0,
            flops: 1e12,
            kernels: 3,
            utilization: 0.5,
        };
        assert!((cost.effective_tflops() - 100.0).abs() < 1e-9);
        assert!((cost.tops_per_watt() - 1.0).abs() < 1e-9);
    }
}
