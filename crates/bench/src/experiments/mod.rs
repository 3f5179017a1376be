//! One module per table/figure of the paper's evaluation, named after it
//! (`fig18_energy` is Fig. 18), plus `serve_sweep`, the serving experiments.
//!
//! Every module exposes `compute(...)` (structured results, used by
//! integration tests with reduced iteration caps) and `run()` (the full
//! experiment rendered as text, used by the `src/bin` wrappers).

pub mod fig04_opcount;
pub mod fig06_ffn_reuse;
pub mod fig07_similarity;
pub mod fig08_condensing;
pub mod fig09_merging;
pub mod fig12_sorting;
pub mod fig15_tslod;
pub mod fig17_conmerge_eff;
pub mod fig18_energy;
pub mod fig19a_latency;
pub mod fig19b_cambricon;
pub mod serve_sweep;
pub mod tab1_accuracy;
pub mod tab2_hwconfig;
pub mod tab3_power_area;
