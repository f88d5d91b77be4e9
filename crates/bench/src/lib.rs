//! Experiment harness for the AccPar reproduction: one entry point per
//! table and figure of the paper's evaluation (§6).
//!
//! The binaries (`fig5`, `fig6`, `fig7`, `fig8`, `tables`, `ablations`,
//! `experiments`, `robustness`, `chaos`) print the same rows/series the
//! paper reports — plus the fault-injection ablation and the seeded
//! health-timeline chaos harness; the benches in `benches/` measure the
//! implementation itself (search and simulator throughput) and
//! regenerate the figure data under timing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod harness;
pub mod json;
pub mod render;
pub mod robustness;
pub mod svg;
pub mod tables;

pub use experiments::{
    archive, figure5, figure6, figure7, figure8, geomean, speedup_rows, transformer_speedups,
    Figure7, Fig8Row, SpeedupRow, PAPER_BATCH,
};
