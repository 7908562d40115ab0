//! FIG4 — the test generation process (Figure 4).
//!
//! Walks the five test-generation steps for every repository domain,
//! prints the prescription inventory (operations, pattern class, data
//! sets), and checks that every prescription round-trips through JSON.

use bdb_exec::reporter::TableReporter;
use bdb_testgen::pattern::WorkloadPattern;
use bdb_testgen::repository::builtin_prescriptions;
use bdb_testgen::Prescription;

fn pattern_class(p: &Prescription) -> &'static str {
    match &p.pattern {
        WorkloadPattern::Single { .. } => "single-operation",
        WorkloadPattern::Multi { .. } => "multi-operation",
        WorkloadPattern::Iterative { .. } => "iterative-operation",
    }
}

fn main() {
    bdb_bench::banner("FIG4", "test generation: repository inventory and prescribed tests");
    let mut table = TableReporter::new(
        "Prescription repository (Section 5.2)",
        &["prescription", "pattern", "operations", "data sets", "json bytes"],
    );
    for p in builtin_prescriptions() {
        let ops: Vec<&str> = p.pattern.operations().iter().map(|o| o.name()).collect();
        let json = p.to_json().expect("serialises");
        // Round-trip check: the prescription is a portable artifact.
        let back = Prescription::from_json(&json).expect("parses");
        assert_eq!(p, back);
        table.add_row(&[
            p.name.clone(),
            pattern_class(&p).to_string(),
            ops.join("+"),
            p.data.len().to_string(),
            json.len().to_string(),
        ]);
    }
    println!("{}", table.to_text());
    println!("Shape: all three pattern classes are represented and every\nprescription round-trips through JSON (reusable repository).");
}
