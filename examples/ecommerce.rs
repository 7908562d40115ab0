//! E-commerce domain scenario.
//!
//! Fits column models to the raw retail table, generates a larger
//! synthetic table, then runs the domain's workloads: the YCSB-B op mix
//! on the key-value store, relational queries on the SQL engine, and
//! collaborative filtering over purchases.
//!
//! ```text
//! cargo run --release --example ecommerce
//! ```

use bdbench::datagen::corpus::raw_retail_table;
use bdbench::datagen::table::TableGenerator;
use bdbench::datagen::veracity;
use bdbench::prelude::*;
use bdbench::sql::Engine;
use bdbench::exec::loadgen::{drive_ycsb, OpClass, OpMix};
use bdbench::workloads::ecommerce;

fn main() -> Result<()> {
    // --- 4V table generation: fit models to the raw orders extract.
    let raw = raw_retail_table();
    let generator = TableGenerator::fit("orders", &raw)?;
    let orders = generator.generate_shard(42, 0, 20_000);
    println!(
        "generated {} synthetic orders ({} bytes)",
        orders.len(),
        orders.byte_size()
    );
    let small = generator.generate_shard(42, 0, raw.len() as u64);
    println!(
        "veracity vs raw extract: {:.4} (mean divergence, lower is better)",
        veracity::table_veracity(&raw, &small)?.overall()
    );

    // --- Cloud OLTP on the KV store (YCSB workload B).
    let mix = OpMix { records: 10_000, ..OpMix::YCSB_B };
    let (load, result) = drive_ycsb(&mix, 30_000, 4, 1)?;
    println!(
        "\nYCSB-B: {} reads, {} updates",
        load.class_latency(OpClass::Get).count(),
        load.class_latency(OpClass::Put).count()
    );
    println!("{}", result.report);

    // --- Relational queries (real-time analytics).
    let mut engine = Engine::new();
    engine.register("orders", orders.clone())?;
    let revenue = engine.sql(
        "SELECT category, SUM(price) AS revenue, COUNT(*) AS n \
         FROM orders GROUP BY category ORDER BY revenue DESC",
    )?;
    println!("\nrevenue by category:");
    for row in revenue.rows() {
        println!("  {:<12} {:>12} ({} orders)", row[0], format!("{:.2}", row[1].as_f64().unwrap()), row[2]);
    }

    // --- Collaborative filtering over (customer, product) purchases.
    let purchases: Vec<(u32, u32)> = orders
        .rows()
        .iter()
        .map(|r| {
            let customer = r[1].as_i64().unwrap() as u32;
            let product = orders.schema().index_of("product").unwrap();
            // Hash product names into small item ids.
            let item = r[product]
                .as_str()
                .unwrap()
                .bytes()
                .fold(0u32, |h, b| h.wrapping_mul(31).wrapping_add(b as u32))
                % 64;
            (customer, item)
        })
        .collect();
    let (recs, cf_result) = ecommerce::collaborative_filtering(&purchases, 3);
    let with_recs = recs.values().filter(|r| !r.is_empty()).count();
    println!("\ncollaborative filtering: {} customers with recommendations", with_recs);
    println!("{}", cf_result.report);

    // --- Naive Bayes classification.
    let data = ecommerce::synthetic_labelled_data(5_000, 4, 5, 0.25, 9);
    let (train, test) = data.split_at(4_000);
    let (accuracy, nb_result) = ecommerce::naive_bayes_classify(train, test);
    println!("\nnaive bayes accuracy: {accuracy:.3}");
    println!("{}", nb_result.report);
    Ok(())
}
