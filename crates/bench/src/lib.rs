//! # rp-bench
//!
//! The experiment harness: one regeneration function per table/figure of
//! the paper, called by the `repro` binary (text + JSON output). The
//! binary's `bench` subcommand times the pipeline itself.
//!
//! | paper artifact | function |
//! |---|---|
//! | Table 1 | [`experiments::table1`] |
//! | Figure 2 | [`experiments::fig2`] |
//! | Figure 3 | [`experiments::fig3`] |
//! | Figure 4a | [`experiments::fig4a`] |
//! | Figure 4b | [`experiments::fig4b`] |
//! | §3.3 validation | [`experiments::validation`] |
//! | Figure 5a | [`experiments::fig5a`] |
//! | Figure 5b | [`experiments::fig5b`] |
//! | Figure 6 | [`experiments::fig6`] |
//! | Figure 7 | [`experiments::fig7`] |
//! | Figure 8 | [`experiments::fig8`] |
//! | Figure 9 | [`experiments::fig9`] |
//! | Figure 10 | [`experiments::fig10`] |
//! | Eqs. 11/13/14 | [`experiments::econ_analysis`] |
//! | §5 model fit | [`experiments::decay_fit`] |

pub mod experiments;

pub use experiments::ExperimentOutput;
