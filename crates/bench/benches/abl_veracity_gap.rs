//! ABL1 — ablation: veracity-preserving vs naive generation.
//!
//! The design choice DESIGN.md calls out: is model fitting worth its cost?
//! Measures both the *quality gap* (divergence from raw data) and the
//! *speed cost* (generation throughput) for each generator family, so the
//! trade-off the paper's veracity column implies is visible end to end.

use bdb_common::prelude::*;
use bdb_common::text::Document;
use bdb_datagen::corpus::{karate_club_graph, raw_retail_table, RAW_TEXT_CORPUS};
use bdb_datagen::graph::{fit_rmat, ErdosRenyiGenerator};
use bdb_datagen::table::TableGenerator;
use bdb_datagen::text::lda::{LdaConfig, LdaModel};
use bdb_datagen::text::markov::MarkovTextGenerator;
use bdb_datagen::text::NaiveTextGenerator;
use bdb_datagen::veracity;
use bdb_datagen::volume::VolumeSpec;
use bdb_datagen::{DataGenerator, Dataset};
use bdb_exec::reporter::{fmt_num, TableReporter};
use std::time::Instant;

fn docs_of(gen: &dyn DataGenerator, n: u64) -> Vec<Document> {
    match gen.generate(11, &VolumeSpec::Items(n)).expect("generates") {
        Dataset::Text { docs, .. } => docs,
        _ => unreachable!(),
    }
}

fn main() {
    bdb_bench::banner("ABL1", "veracity-preserving vs naive generation: quality + cost");
    let mut vocab = Vocabulary::new();
    let raw_docs: Vec<Document> = RAW_TEXT_CORPUS
        .iter()
        .map(|t| Document::from_text(t, &mut vocab))
        .collect();

    // Text family: naive / markov / lda.
    let t0 = Instant::now();
    let lda = LdaModel::train(
        &RAW_TEXT_CORPUS,
        LdaConfig { iterations: 80, ..Default::default() },
        42,
    )
    .expect("trains");
    let lda_train_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let markov = MarkovTextGenerator::train(&RAW_TEXT_CORPUS).expect("trains");
    let markov_train_ms = t0.elapsed().as_secs_f64() * 1e3;
    let naive = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);

    let mut table = TableReporter::new(
        "Text generators: fidelity vs cost",
        &["generator", "word JS", "topic JS", "train ms", "gen docs/sec"],
    );
    let mut rng = Xoshiro256::new(1);
    for (name, gen, train_ms) in [
        ("naive-uniform", &naive as &dyn DataGenerator, 0.0),
        ("markov-bigram", &markov as &dyn DataGenerator, markov_train_ms),
        ("lda", &lda as &dyn DataGenerator, lda_train_ms),
    ] {
        let synth = docs_of(gen, 250);
        let v = veracity::text_veracity(&raw_docs, &synth, vocab.len(), Some(&lda), &mut rng);
        let t0 = Instant::now();
        let _ = docs_of(gen, 1_000);
        let rate = 1_000.0 / t0.elapsed().as_secs_f64().max(1e-9);
        table.add_row(&[
            name.into(),
            fmt_num(v.get("word_freq_js").unwrap()),
            fmt_num(v.get("topic_dist_js").unwrap()),
            fmt_num(train_ms),
            fmt_num(rate),
        ]);
    }
    println!("{}", table.to_text());

    // Table family.
    let raw = raw_retail_table();
    let fitted = TableGenerator::fit("retail", &raw).expect("fits");
    let naive_t = TableGenerator::naive("retail", &raw).expect("fits");
    let mut tt = TableReporter::new(
        "Table generators: fidelity vs cost",
        &["generator", "mean divergence", "gen rows/sec"],
    );
    for (name, gen) in [("naive", &naive_t), ("fitted", &fitted)] {
        let v = veracity::table_veracity(&raw, &gen.generate_shard(3, 0, 512))
            .expect("same schema")
            .overall();
        let t0 = Instant::now();
        let _ = gen.generate_shard(4, 0, 5_000);
        let rate = 5_000.0 / t0.elapsed().as_secs_f64().max(1e-9);
        tt.add_row(&[name.into(), fmt_num(v), fmt_num(rate)]);
    }
    println!("{}", tt.to_text());

    // Graph family (hub concentration gap as in the Table 1 probe).
    let g_raw = karate_club_graph();
    let g_fit = fit_rmat(&g_raw, 5).expect("fits");
    let er = ErdosRenyiGenerator {
        edges_per_vertex: g_raw.num_edges() as f64 / g_raw.num_vertices() as f64,
    };
    let hub = bdb_datagen::graph::hub_concentration;
    let target = hub(&g_raw);
    let mut gt = TableReporter::new(
        "Graph generators: hub-concentration fidelity (mean over 5 seeds)",
        &["generator", "raw hub share", "mean synthetic share", "mean gap"],
    );
    for (name, gen_fn) in [
        ("erdos-renyi", Box::new(|s: u64| er.generate_graph(s, 64)) as Box<dyn Fn(u64) -> EdgeListGraph>),
        ("fitted rmat", Box::new(|s: u64| g_fit.generate_graph(s, 6))),
    ] {
        let (mut mean_h, mut mean_gap) = (0.0, 0.0);
        for seed in 0..5 {
            let h = hub(&gen_fn(seed));
            mean_h += h / 5.0;
            mean_gap += (h - target).abs() / 5.0;
        }
        gt.add_row(&[
            name.into(),
            fmt_num(target),
            fmt_num(mean_h),
            fmt_num(mean_gap),
        ]);
    }
    println!("{}", gt.to_text());
    println!("Shape: each step up the model hierarchy buys fidelity; the cost is\none-time training plus a modest generation-rate penalty.");
}
