//! `bdb-bench`: the statistical measurement subsystem plus the
//! paper-artifact reports.
//!
//! * The **statistical hot-path bench** behind `bdbench bench` —
//!   [`sampling`] (warmup discard, N repeated samples, MAD outlier
//!   classification, t-distribution 95% confidence intervals),
//!   [`hotpaths`] (the ten measured hot paths), and [`ledger`] (the
//!   committed `BENCH_N.json` perf-regression ledger and its
//!   non-overlapping-CI significance comparison). It is the only timing
//!   methodology in the workspace.
//! * The **paper-artifact reports** under `benches/`, each a plain
//!   `harness = false` program that regenerates one table or figure (see
//!   the experiment index in DESIGN.md) and prints its paper-style
//!   rows: `cargo bench -p bdb-bench --bench <name>`. Tables 1 and 2 come
//!   from `bdbench table1` / `bdbench table2`.

pub mod hotpaths;
pub mod ledger;
pub mod sampling;

/// Print a banner naming the paper artifact a report regenerates.
pub fn banner(id: &str, what: &str) {
    println!("\n================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}
