//! # exion-bench
//!
//! The experiment harness of the EXION reproduction: one module (and one
//! binary) per table and figure of the paper's evaluation, plus the
//! `serve_sweep` serving experiments and one bench, `scheduler_hot_path`
//! (`benches/README.md`).
//!
//! Run any experiment with `cargo run --release -p exion-bench --bin <id>`;
//! the ids are the module names under [`experiments`]. Each module's doc
//! names the paper result it reproduces and, where the paper gives them,
//! its values; most tables print those values next to the reproduced ones.

pub mod experiments;
pub mod fmt;
pub mod profiles;
