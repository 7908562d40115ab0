//! The Section 5.2 "truly hybrid workload": a weighted mix of OLTP point
//! operations and analytics queries in one seeded sequence, drained by a
//! 1-client closed loop and swept across mix ratios.
//!
//! ```text
//! cargo run --release --example hybrid_workload
//! ```

use bdbench::exec::loadgen::{drive_hybrid, HybridConfig};
use bdbench::exec::reporter::{fmt_num, TableReporter};

fn main() -> bdbench::common::Result<()> {
    let mut table = TableReporter::new(
        "Hybrid workload sweep (Section 5.2, 1-client closed loop)",
        &["oltp share", "oltp ops", "olap ops", "oltp p50 us", "olap p50 us", "total ops/s"],
    );
    for oltp_share in [0.99, 0.9, 0.5, 0.1] {
        let config =
            HybridConfig { olap_share: 1.0 - oltp_share, operations: 2_000, records: 5_000 };
        let result = drive_hybrid(&config, 7)?;
        let detail = |key| result.detail(key).unwrap_or(0.0);
        table.add_row(&[
            format!("{oltp_share:.2}"),
            detail("oltp_ops").to_string(),
            detail("olap_ops").to_string(),
            fmt_num(detail("oltp_p50_us")),
            fmt_num(detail("olap_p50_us")),
            fmt_num(result.report.user.throughput_ops_per_sec),
        ]);
    }
    println!("{}", table.to_text());
    println!("Shape check: throughput falls and p50 latencies stay stable as the analytics share grows.");
    Ok(())
}
