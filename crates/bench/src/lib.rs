//! # adawave-bench
//!
//! Experiment harness for the AdaWave reproduction: a uniform way to run
//! every algorithm on every dataset of the paper, plus one experiment
//! function per table and figure of the evaluation section. The
//! `experiments` binary prints the same rows/series the paper reports,
//! the runtime-oriented figures (Fig. 10) included.
//!
//! End-to-end timing with a per-stage breakdown, thread scaling included,
//! lives in the separate `perfbench/` package; the `*_bench` binaries
//! here are parity-gated microbenchmarks of individual subsystems.
//!
//! ```
//! use adawave_bench::report::format_table;
//!
//! let table = format_table(
//!     &["algorithm", "AMI"],
//!     &[vec!["adawave".to_string(), "0.76".to_string()]],
//! );
//! assert!(table.contains("adawave"));
//! ```
//!
//! ```no_run
//! use adawave_bench::experiments;
//!
//! // Regenerate Fig. 8 (AMI vs noise percentage) at a reduced scale.
//! let rows = experiments::fig8_noise_sweep(600, &[20.0, 50.0, 80.0], 42);
//! experiments::print_fig8(&rows);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod algorithms;
pub mod experiments;
pub mod report;

pub use algorithms::{run_algorithm, AlgoOutcome, Algorithm};
