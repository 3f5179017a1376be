//! # exion-model
//!
//! The diffusion-workload substrate of the EXION reproduction.
//!
//! The paper evaluates on seven pre-trained diffusion models (MLD, MDM, EDGE,
//! Make-an-Audio, Stable Diffusion, DiT, VideoCrafter2). Those checkpoints and
//! their Python runtimes are not available here, so this crate implements the
//! *architectural* equivalent from scratch, with seeded weights: the same
//! topologies, block structure and DDIM loop, which is what the op counts,
//! the sparsity mechanisms and the cycle-level simulator read. Accuracy is
//! measured against the same model's unoptimized run
//! ([`exion_tensor::stats`]), not against published dataset scores:
//!
//! * [`config`] — the seven benchmark configurations, each with *paper-scale*
//!   dimensions (analytic op counting, Fig. 4) and *sim-scale* dimensions
//!   (functional runs) plus the paper's per-model FFN-Reuse and
//!   eager-prediction settings (Table I / Fig. 6);
//! * [`transformer`] — transformer blocks (Fig. 3(b)) whose attention and FFN
//!   paths can run vanilla, with FFN-Reuse, with eager prediction, and with
//!   INT12 post-training quantization;
//! * [`network`] — the three network topologies of Fig. 3(a): UNet without
//!   ResBlocks (Type 1), UNet with ResBlocks (Type 2), transformer-only
//!   (Type 3);
//! * [`schedule`] / [`sampler`] — DDPM noise schedules and the DDIM reverse
//!   denoising loop that creates the inter-iteration redundancy FFN-Reuse
//!   exploits;
//! * [`conditioning`] — a seeded stand-in for CLIP/CLAP conditioning
//!   embeddings;
//! * [`opcount`] — analytic per-layer operation counts (Fig. 4);
//! * [`pipeline`] — end-to-end generation with instrumentation hooks used by
//!   every accuracy and sparsity experiment.

pub mod conditioning;
pub mod config;
pub mod network;
pub mod opcount;
pub mod pipeline;
pub mod sampler;
pub mod schedule;
pub mod transformer;

pub use config::{IterationPhase, ModelConfig, ModelKind, NetworkType, ScaleParams};
pub use pipeline::{Ablation, GenerationPipeline, RunReport};
pub use transformer::ExecPolicy;
