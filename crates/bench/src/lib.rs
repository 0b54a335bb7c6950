//! # ehna-bench — experiment harnesses
//!
//! One binary per table/figure of the paper's evaluation section (§V),
//! plus criterion micro-benchmarks. Each binary prints the same rows or
//! series the paper reports and writes TSV into `results/`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_stats` | Table I — dataset statistics |
//! | `fig4_reconstruction` | Figure 4 — reconstruction Precision@P curves |
//! | `table3_6_linkpred` | Tables III–VI — link prediction, 4 operators × 4 metrics |
//! | `table7_ablation` | Table VII — EHNA variant ablation |
//! | `table8_timing` | Table VIII — training time per epoch |
//! | `fig5_sensitivity` | Figure 5 — parameter sensitivity on yelp-like |
//!
//! Every method trains with the paper's settings, the `ehna`
//! subcommands' defaults: [`ehna_cli::method`] builds it from
//! [`Args::train_options`] (or [`Args::train_options_for`], which adds
//! the bidirectional objective on bipartite graphs). Common flags:
//! `--scale tiny|small|medium`, `--dim N`, `--seed N`, `--out DIR`,
//! `--dataset NAME`.

pub mod cli;
pub mod table;

pub use cli::Args;
pub use ehna_cli::method::PAPER_METHOD_ORDER;
