//! # exion-gpu
//!
//! Analytical GPU baselines for the EXION reproduction.
//!
//! The paper measures real hardware (NVIDIA RTX 6000 Ada with nvidia-smi,
//! Jetson Orin Nano with tegrastats, an A100 for the Cambricon-D comparison).
//! Physical GPUs are not available here, so this crate substitutes documented
//! roofline models parameterized with the paper's own Table II specifications
//! plus standard inference derates: per-kernel launch overhead,
//! achievable-compute and achievable-bandwidth efficiencies, and a
//! utilization-scaled power model between idle and TDP ([`GpuSpec`] carries
//! each device's derates, [`roofline`] applies them).
//!
//! * [`device`] — Table II device specs (RTX 6000 Ada, Jetson Orin Nano,
//!   A100),
//! * [`roofline`] — kernel-granularity latency/energy estimation,
//! * [`diffusion_cost`] — kernel enumeration of the benchmark workloads,
//! * [`cambricon`] — the Cambricon-D differential-acceleration baseline of
//!   Fig. 19(b).

pub mod cambricon;
pub mod device;
pub mod diffusion_cost;
pub mod roofline;

pub use device::GpuSpec;
pub use diffusion_cost::estimate_generation;
pub use roofline::{GpuRunCost, Kernel};
