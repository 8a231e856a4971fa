//! # ibis-bench — shared helpers for the figure/table regeneration bins
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). This library holds the pieces they
//! share: standard experiment builders, slowdown math, result recording,
//! and the tiny text-table printer the bins report with.

#![warn(missing_docs)]

#[cfg(feature = "alloc-count")]
pub mod alloc;
pub mod experiments;
pub mod figs;
pub mod json;
pub mod results;
pub mod scale;
pub mod table;
pub mod tables;

pub use results::ResultSink;
pub use scale::ScaleProfile;
pub use table::Table;
