//! S5.1b — veracity metrics.
//!
//! The paper's proposed veracity metrics, computed for every data type:
//! raw-vs-synthetic divergence for the model-based generator next to the
//! naive baseline.

use bdb_common::prelude::*;
use bdb_common::text::Document;
use bdb_datagen::corpus::{karate_club_graph, raw_retail_table, RAW_TEXT_CORPUS};
use bdb_datagen::graph::{fit_rmat, ErdosRenyiGenerator};
use bdb_datagen::stream::{MmppArrivals, PoissonArrivals};
use bdb_datagen::table::TableGenerator;
use bdb_datagen::text::lda::{LdaConfig, LdaModel};
use bdb_datagen::text::NaiveTextGenerator;
use bdb_datagen::veracity;
use bdb_datagen::volume::VolumeSpec;
use bdb_datagen::{DataGenerator, Dataset};
use bdb_exec::reporter::{fmt_num, TableReporter};

fn docs_of(gen: &dyn DataGenerator, seed: u64, n: u64) -> Vec<Document> {
    match gen.generate(seed, &VolumeSpec::Items(n)).expect("generates") {
        Dataset::Text { docs, .. } => docs,
        _ => unreachable!(),
    }
}

fn main() {
    bdb_bench::banner("S5.1b", "veracity metrics: model-based vs naive per data type");
    let mut table = TableReporter::new(
        "Raw-vs-synthetic divergence (lower = more faithful)",
        &["data type", "metric", "model-based", "naive baseline", "gap"],
    );

    // Text.
    let mut vocab = Vocabulary::new();
    let raw_docs: Vec<Document> = RAW_TEXT_CORPUS
        .iter()
        .map(|t| Document::from_text(t, &mut vocab))
        .collect();
    let lda = LdaModel::train(
        &RAW_TEXT_CORPUS,
        LdaConfig { iterations: 80, ..Default::default() },
        42,
    )
    .expect("trains");
    let naive = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
    let mut rng = Xoshiro256::new(1);
    let s_lda = veracity::text_veracity(&raw_docs, &docs_of(&lda, 9, 250), vocab.len(), Some(&lda), &mut rng);
    let s_naive = veracity::text_veracity(&raw_docs, &docs_of(&naive, 9, 250), vocab.len(), Some(&lda), &mut rng);
    for metric in ["word_freq_js", "topic_dist_js"] {
        let (m, n) = (s_lda.get(metric).unwrap(), s_naive.get(metric).unwrap());
        table.add_row(&[
            "text".into(),
            metric.into(),
            fmt_num(m),
            fmt_num(n),
            format!("{:.1}x", n / m.max(1e-9)),
        ]);
    }

    // Table.
    let raw = raw_retail_table();
    let fitted = TableGenerator::fit("retail", &raw).expect("fits");
    let naive_t = TableGenerator::naive("retail", &raw).expect("fits");
    let v_fit = veracity::table_veracity(&raw, &fitted.generate_shard(3, 0, 512)).expect("same schema");
    let v_naive = veracity::table_veracity(&raw, &naive_t.generate_shard(3, 0, 512)).expect("same schema");
    table.add_row(&[
        "table".into(),
        "mean column divergence".into(),
        fmt_num(v_fit.overall()),
        fmt_num(v_naive.overall()),
        format!("{:.1}x", v_naive.overall() / v_fit.overall().max(1e-9)),
    ]);

    // Graph: hub-concentration gap (share of edges on the top-10%
    // vertices), averaged over seeds — the stable structural statistic
    // for a 34-vertex reference graph.
    let g_raw = karate_club_graph();
    let fitted = fit_rmat(&g_raw, 5).expect("fits");
    let er = ErdosRenyiGenerator {
        edges_per_vertex: g_raw.num_edges() as f64 / g_raw.num_vertices() as f64,
    };
    let hub = bdb_datagen::graph::hub_concentration;
    let target = hub(&g_raw);
    let (mut fit_gap, mut er_gap) = (0.0, 0.0);
    for seed in 0..5 {
        fit_gap += (hub(&fitted.generate_graph(seed, 6)) - target).abs() / 5.0;
        er_gap += (hub(&er.generate_graph(seed, 64)) - target).abs() / 5.0;
    }
    table.add_row(&[
        "graph".into(),
        "hub-concentration gap".into(),
        fmt_num(fit_gap),
        fmt_num(er_gap),
        format!("{:.1}x", er_gap / fit_gap.max(1e-9)),
    ]);

    // Stream: same arrival law vs a different one.
    let poisson = PoissonArrivals::new(1_000.0, 32).expect("valid");
    let a = poisson.generate_events(1, 5_000);
    let b = poisson.generate_events(2, 5_000);
    let bursty = MmppArrivals::new(200.0, 5_000.0, 300.0, 32)
        .expect("valid")
        .generate_events(1, 5_000);
    let sv_same = veracity::stream_veracity(&a, &b);
    let sv_diff = veracity::stream_veracity(&a, &bursty);
    table.add_row(&[
        "stream".into(),
        "temporal divergence".into(),
        fmt_num(sv_same.overall()),
        fmt_num(sv_diff.overall()),
        format!("{:.1}x", sv_diff.overall() / sv_same.overall().max(1e-9)),
    ]);

    println!("{}", table.to_text());
    println!("Shape: for every data type the model-based generator scores a\nfraction of the naive baseline's divergence — the measurable version\nof Table 1's veracity column.");
}
