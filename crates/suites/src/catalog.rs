//! Runnable models of the ten surveyed suites plus `bdbench` itself.
//!
//! Each suite reproduces the *generation style* and *workload set* the
//! paper attributes to it, at laptop scale: HiBench writes random text
//! and also ships fixed inputs; TPC-DS's MUDD draws most columns from
//! textbook distributions with a few realistic ones; LinkBench fits a
//! graph model to a real social graph; BigDataBench fits a model per data
//! type; and `bdbench` adds the Section 5.1 extensions (update-frequency
//! and algorithmic velocity control).

use crate::descriptor::{
    BenchmarkSuite, GenerationCapabilities, SuiteDescriptor, VelocityClass, VeracityClass,
    VeracityProbe, VolumeClass,
};
use bdb_common::prelude::*;
use bdb_common::text::Document;
use bdb_common::Result;
use bdb_datagen::corpus::{karate_club_graph, raw_retail_table, RAW_TEXT_CORPUS};
use bdb_datagen::graph::{fit_rmat, ErdosRenyiGenerator, RmatGenerator};
use bdb_datagen::stream::{PoissonArrivals, UpdateStreamGenerator};
use bdb_datagen::table::{ColumnModel, TableGenerator};
use bdb_datagen::text::lda::{LdaConfig, LdaModel};
use bdb_datagen::text::markov::MarkovTextGenerator;
use bdb_datagen::text::NaiveTextGenerator;
use bdb_datagen::veracity;
use bdb_datagen::volume::VolumeSpec;
use bdb_datagen::{DataGenerator, DataSourceKind, Dataset};
use bdb_mapreduce::JobConfig;
use bdb_metrics::{MetricsCollector, OpCounts};
use bdb_exec::loadgen::{self, OpMix};
use bdb_workloads::{ecommerce, micro, relational, search, social, WorkloadCategory, WorkloadResult};
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

/// The trained LDA model, shared across suites (training is the slow part).
pub fn shared_lda() -> &'static LdaModel {
    static MODEL: OnceLock<LdaModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let config = LdaConfig { num_topics: 4, alpha: 0.1, beta: 0.01, iterations: 80 };
        LdaModel::train(&RAW_TEXT_CORPUS, config, 0xBD).expect("corpus trains")
    })
}

fn raw_documents() -> (Vec<Document>, Vocabulary) {
    let mut vocab = Vocabulary::new();
    let docs = RAW_TEXT_CORPUS
        .iter()
        .map(|t| Document::from_text(t, &mut vocab))
        .collect();
    (docs, vocab)
}

fn text_docs(gen: &dyn DataGenerator, seed: u64, n: u64) -> Result<Vec<Document>> {
    match gen.generate(seed, &VolumeSpec::Items(n))? {
        Dataset::Text { docs, .. } => Ok(docs),
        _ => unreachable!("text generator yields text"),
    }
}

/// Word-frequency + topic-distribution veracity of a text generator
/// against the raw corpus, with the naive generator as baseline.
fn text_veracity_probe(gen: &dyn DataGenerator, seed: u64, topics: bool) -> VeracityProbe {
    let (raw, vocab) = raw_documents();
    let model = shared_lda();
    let synth = text_docs(gen, seed, 200).expect("generation succeeds");
    let naive = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
    let base = text_docs(&naive, seed ^ 0x55, 200).expect("generation succeeds");
    let mut rng = Xoshiro256::new(seed);
    let m = if topics { Some(model) } else { None };
    let score = veracity::text_veracity(&raw, &synth, vocab.len(), m, &mut rng).overall();
    let baseline = veracity::text_veracity(&raw, &base, vocab.len(), m, &mut rng).overall();
    VeracityProbe { score, naive_baseline: baseline }
}

/// Table veracity of a generator against the raw retail table, with the
/// naive table generator as baseline.
fn table_veracity_probe(gen: &TableGenerator, seed: u64) -> VeracityProbe {
    let raw = raw_retail_table();
    let synth = gen.generate_shard(seed, 0, raw.len() as u64);
    let naive = TableGenerator::naive("retail", &raw).expect("naive fits");
    let base = naive.generate_shard(seed, 0, raw.len() as u64);
    VeracityProbe {
        score: veracity::table_veracity(&raw, &synth).expect("schemas match").overall(),
        naive_baseline: veracity::table_veracity(&raw, &base)
            .expect("schemas match")
            .overall(),
    }
}

/// Graph veracity of a fitted RMAT against the karate club, with
/// Erdős–Rényi as baseline.
///
/// The structural characteristic is the degree distribution, compared at
/// the raw graph's own scale and averaged over several generation seeds —
/// a 34-vertex reference graph is too small for a single sample to be
/// stable.
fn graph_veracity_probe(seed: u64) -> VeracityProbe {
    use bdb_datagen::graph::hub_concentration;
    let raw = karate_club_graph();
    let fitted = fit_rmat(&raw, seed).expect("fit succeeds");
    let er = ErdosRenyiGenerator {
        edges_per_vertex: raw.num_edges() as f64 / raw.num_vertices() as f64,
    };
    let scale = 6u32; // 64 vertices >= 34
    let rounds = 5u64;
    let target = hub_concentration(&raw);
    let mut fit_score = 0.0;
    let mut er_score = 0.0;
    for r in 0..rounds {
        let s = seed.wrapping_add(r * 7919);
        fit_score += (hub_concentration(&fitted.generate_graph(s, scale)) - target).abs();
        er_score += (hub_concentration(&er.generate_graph(s, 64)) - target).abs();
    }
    VeracityProbe {
        score: fit_score / rounds as f64,
        naive_baseline: er_score / rounds as f64,
    }
}

/// A fixed-size input data set (HiBench/LinkBench/CloudSuite ship these):
/// always returns the embedded corpus regardless of the requested volume.
#[derive(Debug, Clone, Copy)]
pub struct FixedCorpusDataset;

impl DataGenerator for FixedCorpusDataset {
    fn name(&self) -> &str {
        "text/fixed-corpus"
    }

    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Text
    }

    fn generate(&self, _seed: u64, _volume: &VolumeSpec) -> Result<Dataset> {
        let (docs, vocab) = raw_documents();
        Ok(Dataset::Text { docs, vocab })
    }
}

/// A fixed social graph input (LinkBench's Facebook-graph shape).
#[derive(Debug, Clone, Copy)]
pub struct FixedGraphDataset;

impl DataGenerator for FixedGraphDataset {
    fn name(&self) -> &str {
        "graph/fixed-karate"
    }

    fn kind(&self) -> DataSourceKind {
        DataSourceKind::Graph
    }

    fn generate(&self, _seed: u64, _volume: &VolumeSpec) -> Result<Dataset> {
        Ok(Dataset::Graph(karate_club_graph()))
    }
}

/// The MUDD-style TPC-DS table generator: most columns from textbook
/// distributions, "a small portion of crucial data sets using more
/// realistic distributions derived from real data" — here the product
/// popularity column is fitted empirically, everything else is naive.
pub fn mudd_table_generator() -> TableGenerator {
    let raw = raw_retail_table();
    let fitted = TableGenerator::fit("retail", &raw).expect("fit succeeds");
    let naive = TableGenerator::naive("retail", &raw).expect("naive fits");
    let product_idx = raw.schema().index_of("product").expect("product column");
    let category_idx = raw.schema().index_of("category").expect("category column");
    let models: Vec<ColumnModel> = naive
        .models()
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if i == product_idx || i == category_idx {
                fitted.models()[i].clone()
            } else {
                m.clone()
            }
        })
        .collect();
    TableGenerator::new("retail", raw.schema().clone(), models).expect("valid generator")
}

fn small_job() -> JobConfig {
    JobConfig { map_tasks: 2, reduce_tasks: 2, workers: 2 }
}

fn keys(n: u64, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256::new(seed);
    (0..n).map(|_| rng.next_u64() % 1_000_000).collect()
}

fn manual_result(
    name: &str,
    system: &str,
    category: WorkloadCategory,
    items: u64,
    record_ops: u64,
) -> WorkloadResult {
    let mut c = MetricsCollector::new();
    c.record_operations(items);
    WorkloadResult::assemble(
        name,
        system,
        category,
        c.finish(),
        OpCounts { record_ops, float_ops: 0 },
        items,
    )
}

// ---------------------------------------------------------------------
// The suites
// ---------------------------------------------------------------------

/// HiBench: Hadoop micro + ML workloads over random text and fixed inputs.
#[derive(Debug, Clone, Copy)]
pub struct HiBench;

impl BenchmarkSuite for HiBench {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "HiBench",
            volume: VolumeClass::PartiallyScalable,
            velocity: VelocityClass::UnControllable,
            variety: vec![DataSourceKind::Text],
            veracity: VeracityClass::UnConsidered,
            workload_types: vec![
                WorkloadCategory::OfflineAnalytics,
                WorkloadCategory::RealTimeAnalytics,
            ],
            example_workloads: vec![
                "Sort", "WordCount", "TeraSort", "PageRank", "K-means",
                "Bayes classification", "Nutch Indexing",
            ],
            software_stacks: vec!["Hadoop-analog", "Hive-analog"],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![
            Box::new(NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS)),
            Box::new(FixedCorpusDataset),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities { has_fixed_size_inputs: true, ..Default::default() }
    }

    fn veracity_probe(&self, _seed: u64) -> Option<VeracityProbe> {
        None // random text writer: generation is independent of real data
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        let naive = NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS);
        let docs = text_docs(&naive, seed, scale / 10)?;
        let ks = keys(scale, seed);
        let mut out = Vec::new();
        out.push(micro::sort_mapreduce(&ks, &small_job()).1);
        out.push(micro::terasort(&ks, 4, seed).1);
        out.push(micro::wordcount_mapreduce(&docs, &small_job()).1);
        let graph = RmatGenerator::standard(8.0).generate_graph(seed, 9);
        out.push(search::pagerank_native(&graph.to_csr(), &Default::default()).2);
        let (points, _) = social::gaussian_mixture(scale as usize, 4, 3, 2.0, seed);
        out.push(social::kmeans_native(&points, &Default::default(), seed).3);
        let data = ecommerce::synthetic_labelled_data(scale as usize, 3, 4, 0.3, seed);
        let (train, test) = data.split_at(data.len() * 3 / 4);
        out.push(ecommerce::naive_bayes_classify(train, test).1);
        // Nutch indexing sits in HiBench's real-time row of Table 2.
        let mut nutch = search::inverted_index_mapreduce(&docs, &small_job()).1;
        nutch.category = WorkloadCategory::RealTimeAnalytics;
        out.push(nutch);
        Ok(out)
    }
}

/// GridMix: Hadoop cluster mix — sort and dataset sampling.
#[derive(Debug, Clone, Copy)]
pub struct GridMix;

impl BenchmarkSuite for GridMix {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "GridMix",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::UnControllable,
            variety: vec![DataSourceKind::Text],
            veracity: VeracityClass::UnConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            example_workloads: vec!["Sort", "sampling a large dataset"],
            software_stacks: vec!["Hadoop-analog"],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![Box::new(NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS))]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities::default()
    }

    fn veracity_probe(&self, _seed: u64) -> Option<VeracityProbe> {
        None
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        let ks = keys(scale, seed);
        let mut out = Vec::new();
        // The paper tabulates GridMix's jobs under online services.
        let mut sort = micro::sort_mapreduce(&ks, &small_job()).1;
        sort.category = WorkloadCategory::OnlineServices;
        out.push(sort);
        // Sampling a large dataset: reservoir sample via the volume tools.
        let mut rng = Xoshiro256::new(seed);
        let sample =
            bdb_datagen::volume::reservoir_sample(ks.iter().copied(), 100, &mut rng);
        out.push(
            manual_result(
                "micro/sampling",
                "mapreduce",
                WorkloadCategory::OnlineServices,
                scale,
                scale,
            )
            .with_detail("sample_size", sample.len() as f64),
        );
        Ok(out)
    }
}

/// PigMix: latency queries over generated data.
#[derive(Debug, Clone, Copy)]
pub struct PigMix;

impl BenchmarkSuite for PigMix {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "PigMix",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::UnControllable,
            variety: vec![DataSourceKind::Text],
            veracity: VeracityClass::UnConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            example_workloads: vec!["12 data queries"],
            software_stacks: vec!["Hadoop-analog"],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![Box::new(NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS))]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities::default()
    }

    fn veracity_probe(&self, _seed: u64) -> Option<VeracityProbe> {
        None
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        // PigMix's scripts are aggregation/join pipelines; run the Pavlo
        // task set as their relational analog, on the MR-comparable SQL
        // engine. The paper tabulates them under online services.
        let (mut tasks, load) = relational::PavloTasks::load(scale / 4, scale, seed)?;
        let mut out = vec![
            load,
            tasks.selection(20)?.1,
            tasks.aggregation()?.1,
            tasks.join()?.1,
            tasks.count_links()?.1,
        ];
        for r in &mut out {
            r.category = WorkloadCategory::OnlineServices;
        }
        Ok(out)
    }
}

/// YCSB: cloud-serving OLTP mixes on NoSQL stores.
#[derive(Debug, Clone, Copy)]
pub struct Ycsb;

impl BenchmarkSuite for Ycsb {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "YCSB",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::UnControllable,
            variety: vec![DataSourceKind::Table],
            veracity: VeracityClass::UnConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            example_workloads: vec!["OLTP (read, write, scan, update)"],
            software_stacks: vec!["NoSQL-analog (LSM store)"],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        let raw = raw_retail_table();
        vec![Box::new(TableGenerator::naive("records", &raw).expect("naive fits"))]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities::default()
    }

    fn veracity_probe(&self, _seed: u64) -> Option<VeracityProbe> {
        None
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        let ops = (scale * 2) as usize;
        let run = |mix: OpMix, seed: u64| -> Result<WorkloadResult> {
            Ok(loadgen::drive_ycsb(&OpMix { records: scale, ..mix }, ops, 2, seed)?.1)
        };
        Ok(vec![
            run(OpMix::YCSB_A, seed)?,
            run(OpMix::YCSB_B, seed ^ 1)?,
            run(OpMix::YCSB_E, seed ^ 2)?,
        ])
    }
}

/// The Pavlo et al. performance benchmark: DBMS vs MapReduce tasks.
#[derive(Debug, Clone, Copy)]
pub struct PavloBenchmark;

impl BenchmarkSuite for PavloBenchmark {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "Performance benchmark",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::UnControllable,
            variety: vec![DataSourceKind::Table, DataSourceKind::Text],
            veracity: VeracityClass::UnConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            example_workloads: vec![
                "Data loading", "select", "aggregate", "join", "count URL links",
            ],
            software_stacks: vec!["DBMS-analog (bdb-sql)", "Hadoop-analog"],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![
            Box::new(relational::uservisits_generator(1000)),
            Box::new(NaiveTextGenerator::from_corpus(&RAW_TEXT_CORPUS)),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities::default()
    }

    fn veracity_probe(&self, _seed: u64) -> Option<VeracityProbe> {
        None
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        // The paper tabulates the Pavlo tasks under online services.
        let (mut tasks, load) = relational::PavloTasks::load(scale / 4, scale, seed)?;
        let mut out = vec![
            load,
            tasks.selection(20)?.1,
            tasks.aggregation()?.1,
            tasks.join()?.1,
            tasks.count_links()?.1,
        ];
        for r in &mut out {
            r.category = WorkloadCategory::OnlineServices;
        }
        Ok(out)
    }
}

/// TPC-DS: decision support on a DBMS, generated with MUDD.
#[derive(Debug, Clone, Copy)]
pub struct TpcDs;

impl BenchmarkSuite for TpcDs {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "TPC-DS",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::SemiControllable,
            variety: vec![DataSourceKind::Table],
            veracity: VeracityClass::PartiallyConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            example_workloads: vec!["Data loading", "queries", "maintenance"],
            software_stacks: vec!["DBMS-analog (bdb-sql)"],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![Box::new(mudd_table_generator())]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities {
            supports_rate_control: true, // MUDD generates in parallel
            ..Default::default()
        }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        Some(table_veracity_probe(&mudd_table_generator(), seed))
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        let gen = mudd_table_generator();
        let table = gen.generate_shard(seed, 0, scale);
        let mut engine = bdb_sql::Engine::new();
        engine.register("store_sales", table)?;
        fn run_q(
            engine: &mut bdb_sql::Engine,
            scale: u64,
            name: &str,
            sql: &str,
        ) -> Result<WorkloadResult> {
            engine.reset_stats();
            let mut c = MetricsCollector::new();
            let out = engine.sql(sql)?;
            c.record_operations(out.len() as u64);
            Ok(WorkloadResult::assemble(
                name,
                "sql",
                WorkloadCategory::OnlineServices,
                c.finish(),
                OpCounts { record_ops: engine.stats().total_ops(), float_ops: 0 },
                scale,
            ))
        }
        let mut out = vec![
            manual_result(
                "tpcds/load",
                "sql",
                WorkloadCategory::OnlineServices,
                scale,
                scale,
            ),
            run_q(
                &mut engine,
                scale,
                "tpcds/q-aggregate",
                "SELECT category, SUM(price) AS revenue, AVG(quantity) AS avg_q \
                 FROM store_sales GROUP BY category ORDER BY revenue DESC",
            )?,
            run_q(
                &mut engine,
                scale,
                "tpcds/q-filter",
                "SELECT product, price FROM store_sales WHERE price > 100.0 \
                 ORDER BY price DESC LIMIT 20",
            )?,
        ];
        // Maintenance: append a fresh shard and re-query.
        let extra = gen.generate_shard(seed ^ 7, scale, scale / 10);
        let mut base = engine.catalog().get("store_sales")?.clone();
        base.append(extra)?;
        engine.catalog_mut().put("store_sales", base);
        out.push(run_q(
            &mut engine,
            scale,
            "tpcds/maintenance",
            "SELECT COUNT(*) FROM store_sales",
        )?);
        Ok(out)
    }
}

/// BigBench: TPC-DS plus web logs and reviews, on DBMS + MapReduce.
#[derive(Debug, Clone, Copy)]
pub struct BigBench;

impl BenchmarkSuite for BigBench {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "BigBench",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::SemiControllable,
            variety: vec![DataSourceKind::Text, DataSourceKind::Stream, DataSourceKind::Table],
            veracity: VeracityClass::PartiallyConsidered,
            workload_types: vec![
                WorkloadCategory::OnlineServices,
                WorkloadCategory::OfflineAnalytics,
            ],
            example_workloads: vec![
                "Database operations (select, create and drop tables)",
                "K-means",
                "classification",
            ],
            software_stacks: vec!["DBMS-analog (bdb-sql)", "Hadoop-analog"],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        vec![
            Box::new(mudd_table_generator()),
            // Web logs: click events derived from the table's key space.
            Box::new(PoissonArrivals::new(2000.0, 160).expect("valid arrivals")),
            Box::new(MarkovTextGenerator::train(&RAW_TEXT_CORPUS).expect("trains")),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities { supports_rate_control: true, ..Default::default() }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        // Veracity "relies on the table data": probe the table path.
        Some(table_veracity_probe(&mudd_table_generator(), seed))
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        let gen = mudd_table_generator();
        let table = gen.generate_shard(seed, 0, scale);
        let mut engine = bdb_sql::Engine::new();
        // create table / query / drop table cycle.
        engine.register("sales", table)?;
        let c = MetricsCollector::new();
        engine.sql("SELECT category, COUNT(*) FROM sales GROUP BY category")?;
        engine.catalog_mut().drop_table("sales");
        let mut c = c;
        c.record_operations(scale);
        let db_ops = WorkloadResult::assemble(
            "bigbench/db-ops",
            "sql",
            WorkloadCategory::OnlineServices,
            c.finish(),
            OpCounts { record_ops: engine.stats().total_ops(), float_ops: 0 },
            scale,
        );
        let (points, _) = social::gaussian_mixture(scale as usize, 4, 3, 2.0, seed);
        let kmeans = social::kmeans_mapreduce(
            &points,
            &Default::default(),
            seed,
            &small_job(),
        )
        .3;
        let data = ecommerce::synthetic_labelled_data(scale as usize, 3, 4, 0.3, seed);
        let (train, test) = data.split_at(data.len() * 3 / 4);
        let classify = ecommerce::naive_bayes_classify(train, test).1;
        Ok(vec![db_ops, kmeans, classify])
    }
}

/// LinkBench: the Facebook social-graph store benchmark.
#[derive(Debug, Clone, Copy)]
pub struct LinkBench;

impl BenchmarkSuite for LinkBench {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "LinkBench",
            volume: VolumeClass::PartiallyScalable,
            velocity: VelocityClass::SemiControllable,
            variety: vec![DataSourceKind::Graph],
            veracity: VeracityClass::PartiallyConsidered,
            workload_types: vec![WorkloadCategory::OnlineServices],
            example_workloads: vec![
                "select/insert/update/delete",
                "association range queries",
                "count queries",
            ],
            software_stacks: vec!["DBMS-analog (LSM link store)"],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        let fitted = fit_rmat(&karate_club_graph(), 0xFB).expect("fit succeeds");
        vec![Box::new(fitted), Box::new(FixedGraphDataset)]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities {
            has_fixed_size_inputs: true,
            supports_rate_control: true,
            ..Default::default()
        }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        // LinkBench fits only the graph *topology* to the real social
        // graph; node and link payloads are synthetic bytes, no more
        // faithful than the naive table path. The probe averages both
        // aspects, which is what makes the suite "partially considered".
        let graph = graph_veracity_probe(seed);
        let raw = raw_retail_table();
        let naive = TableGenerator::naive("payload", &raw).expect("naive fits");
        let payload = table_veracity_probe(&naive, seed);
        Some(VeracityProbe {
            score: 0.5 * (graph.score + payload.score),
            naive_baseline: 0.5 * (graph.naive_baseline + payload.naive_baseline),
        })
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        use bdb_kv::{Link, LinkStore};
        let fitted = fit_rmat(&karate_club_graph(), 0xFB)?;
        let graph_scale = (scale.max(64) as f64).log2().ceil() as u32;
        let graph = fitted.generate_graph(seed, graph_scale.min(12));
        let mut store = LinkStore::default();
        let mut rng = Xoshiro256::new(seed);
        let collector = MetricsCollector::new();
        // Load nodes and links.
        for v in 0..graph.num_vertices() as u64 {
            store.add_node(v, vec![b'n'; 16]);
        }
        for (i, &(u, v)) in graph.edges().iter().enumerate() {
            store.add_link(Link {
                id1: u as u64,
                link_type: 1,
                id2: v as u64,
                time: i as u64,
                data: vec![],
            });
        }
        // Operation mix: 50% assoc_range, 20% count, 20% get_node, 10% add.
        let n = graph.num_vertices() as u64;
        let mut c = collector;
        let ops = scale * 4;
        for i in 0..ops {
            let v = rng.next_bounded(n);
            let t0 = std::time::Instant::now();
            let r = rng.next_f64();
            if r < 0.5 {
                let _ = store.get_link_list(v, 1, 50);
            } else if r < 0.7 {
                let _ = store.count_links(v, 1);
            } else if r < 0.9 {
                let _ = store.get_node(v);
            } else {
                store.add_link(Link {
                    id1: v,
                    link_type: 1,
                    id2: rng.next_bounded(n),
                    time: 1_000_000 + i,
                    data: vec![],
                });
            }
            c.record_latency(t0.elapsed());
        }
        let result = WorkloadResult::assemble(
            "linkbench/op-mix",
            "kv",
            WorkloadCategory::OnlineServices,
            c.finish(),
            OpCounts { record_ops: store.stats().total_ops(), float_ops: 0 },
            n,
        )
        .with_detail("graph_vertices", n as f64);
        Ok(vec![result])
    }
}

/// CloudSuite: scale-out cloud service workloads.
#[derive(Debug, Clone, Copy)]
pub struct CloudSuite;

impl BenchmarkSuite for CloudSuite {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "CloudSuite",
            volume: VolumeClass::PartiallyScalable,
            velocity: VelocityClass::SemiControllable,
            variety: vec![
                DataSourceKind::Text,
                DataSourceKind::Graph,
                DataSourceKind::Stream,
                DataSourceKind::Table,
            ],
            veracity: VeracityClass::PartiallyConsidered,
            workload_types: vec![
                WorkloadCategory::OnlineServices,
                WorkloadCategory::OfflineAnalytics,
            ],
            example_workloads: vec!["YCSB's workloads", "Text classification", "WordCount"],
            software_stacks: vec!["NoSQL-analog", "Hadoop-analog", "GraphLab-analog"],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        let raw = raw_retail_table();
        vec![
            Box::new(MarkovTextGenerator::train(&RAW_TEXT_CORPUS).expect("trains")),
            Box::new(RmatGenerator::standard(8.0)),
            // Media streams stand-in for the video inputs.
            Box::new(PoissonArrivals::new(5_000.0, 32).expect("valid arrivals")),
            Box::new(TableGenerator::naive("records", &raw).expect("naive fits")),
            Box::new(FixedCorpusDataset),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities {
            has_fixed_size_inputs: true,
            supports_rate_control: true,
            ..Default::default()
        }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        // Markov text keeps co-occurrence but loses topic structure:
        // measured with both metrics it lands between LDA and naive.
        let markov = MarkovTextGenerator::train(&RAW_TEXT_CORPUS).expect("trains");
        Some(text_veracity_probe(&markov, seed, true))
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        let mix = OpMix { records: scale, ..OpMix::YCSB_B };
        let ycsb = loadgen::drive_ycsb(&mix, (scale * 2) as usize, 2, seed)?.1;
        let markov = MarkovTextGenerator::train(&RAW_TEXT_CORPUS)?;
        let docs = text_docs(&markov, seed, scale / 10)?;
        let wc = micro::wordcount_mapreduce(&docs, &small_job()).1;
        let data = ecommerce::synthetic_labelled_data(scale as usize, 3, 4, 0.3, seed);
        let (train, test) = data.split_at(data.len() * 3 / 4);
        let classify = ecommerce::naive_bayes_classify(train, test).1;
        Ok(vec![ycsb, wc, classify])
    }
}

/// BigDataBench: model-fitted generation for every data type, hybrid
/// system coverage.
#[derive(Debug, Clone, Copy)]
pub struct BigDataBench;

impl BenchmarkSuite for BigDataBench {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "BigDataBench",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::SemiControllable,
            variety: vec![
                DataSourceKind::Text,
                DataSourceKind::Graph,
                DataSourceKind::Table,
            ],
            veracity: VeracityClass::Considered,
            workload_types: vec![
                WorkloadCategory::OnlineServices,
                WorkloadCategory::OfflineAnalytics,
                WorkloadCategory::RealTimeAnalytics,
            ],
            example_workloads: vec![
                "read/write/scan", "sort", "grep", "WordCount", "index", "PageRank",
                "K-means", "connected components", "collaborative filtering",
                "Naive Bayes", "select/aggregate/join",
            ],
            software_stacks: vec![
                "NoSQL-analog", "DBMS-analog", "Hadoop-analog", "streaming-analog",
            ],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        let raw = raw_retail_table();
        vec![
            Box::new(shared_lda().clone()),
            Box::new(fit_rmat(&karate_club_graph(), 0xBD).expect("fit succeeds")),
            Box::new(TableGenerator::fit("retail", &raw).expect("fit succeeds")),
            // Resumes: semi-structured text from the Markov model.
            Box::new(MarkovTextGenerator::train(&RAW_TEXT_CORPUS).expect("trains")),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities { supports_rate_control: true, ..Default::default() }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        // Model-based across types: average the text and table probes.
        let text = text_veracity_probe(shared_lda(), seed, true);
        let raw = raw_retail_table();
        let table = table_veracity_probe(
            &TableGenerator::fit("retail", &raw).expect("fit succeeds"),
            seed,
        );
        Some(VeracityProbe {
            score: 0.5 * (text.score + table.score),
            naive_baseline: 0.5 * (text.naive_baseline + table.naive_baseline),
        })
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        let mut out = Vec::new();
        // Micro.
        let docs = text_docs(shared_lda(), seed, scale / 10)?;
        let ks = keys(scale, seed);
        out.push(micro::sort_native(&ks).1);
        let (_, vocab) = raw_documents();
        out.push(micro::grep_native(&docs, &vocab, "data").1);
        out.push(micro::wordcount_native(&docs).1);
        // Cloud OLTP.
        let mix = OpMix { records: scale, ..OpMix::YCSB_A };
        out.push(loadgen::drive_ycsb(&mix, scale as usize, 2, seed)?.1);
        // Relational queries.
        let (mut tasks, _) = relational::PavloTasks::load(scale / 4, scale, seed)?;
        out.push(tasks.selection(20)?.1);
        out.push(tasks.aggregation()?.1);
        out.push(tasks.join()?.1);
        // Search engine.
        out.push(search::inverted_index_native(&docs).1);
        let graph = fit_rmat(&karate_club_graph(), 0xBD)?.generate_graph(seed, 9);
        out.push(search::pagerank_native(&graph.to_csr(), &Default::default()).2);
        // Social network.
        let (points, _) = social::gaussian_mixture(scale as usize, 4, 3, 2.0, seed);
        out.push(social::kmeans_native(&points, &Default::default(), seed).3);
        let mut und = graph.clone();
        for &(u, v) in graph.edges() {
            und.add_edge(v, u);
        }
        out.push(social::connected_components(&und.to_csr()).2);
        // E-commerce.
        let purchases: Vec<(u32, u32)> = (0..scale as u32)
            .map(|i| (i % 97, i % 13))
            .collect();
        out.push(ecommerce::collaborative_filtering(&purchases, 5).1);
        let data = ecommerce::synthetic_labelled_data(scale as usize, 3, 4, 0.3, seed);
        let (train, test) = data.split_at(data.len() * 3 / 4);
        out.push(ecommerce::naive_bayes_classify(train, test).1);
        Ok(out)
    }
}

/// `bdbench` — this framework, demonstrating the paper's Section 5
/// extensions on top of BigDataBench-style generation.
#[derive(Debug, Clone, Copy)]
pub struct Bdbench;

impl BenchmarkSuite for Bdbench {
    fn descriptor(&self) -> SuiteDescriptor {
        SuiteDescriptor {
            name: "bdbench (this framework)",
            volume: VolumeClass::Scalable,
            velocity: VelocityClass::FullyControllable,
            variety: vec![
                DataSourceKind::Text,
                DataSourceKind::Graph,
                DataSourceKind::Table,
                DataSourceKind::Stream,
            ],
            veracity: VeracityClass::Considered,
            workload_types: vec![
                WorkloadCategory::OnlineServices,
                WorkloadCategory::OfflineAnalytics,
                WorkloadCategory::RealTimeAnalytics,
            ],
            example_workloads: vec![
                "hybrid OLTP+analytics mix",
                "windowed stream analytics",
                "update-frequency replay",
            ],
            software_stacks: vec!["all engine analogs"],
        }
    }

    fn generators(&self) -> Vec<Box<dyn DataGenerator>> {
        let raw = raw_retail_table();
        vec![
            Box::new(shared_lda().clone()),
            Box::new(fit_rmat(&karate_club_graph(), 0xBD).expect("fit succeeds")),
            Box::new(TableGenerator::fit("retail", &raw).expect("fit succeeds")),
            Box::new(PoissonArrivals::new(5_000.0, 64).expect("valid arrivals")),
        ]
    }

    fn capabilities(&self) -> GenerationCapabilities {
        GenerationCapabilities {
            has_fixed_size_inputs: false,
            supports_rate_control: true,
            supports_update_frequency: true,
            supports_algorithmic_velocity: true,
        }
    }

    fn veracity_probe(&self, seed: u64) -> Option<VeracityProbe> {
        BigDataBench.veracity_probe(seed)
    }

    fn run_workloads(&self, scale: u64, seed: u64) -> Result<Vec<WorkloadResult>> {
        use bdb_workloads::streaming;
        let mut out = Vec::new();
        let cfg = loadgen::HybridConfig {
            operations: scale as usize,
            records: scale,
            ..Default::default()
        };
        out.push(loadgen::drive_hybrid(&cfg, seed)?);
        // Offline analytics: PageRank over the veracity-fitted graph.
        let graph = fit_rmat(&karate_club_graph(), 0xBD)?.generate_graph(seed, 9);
        out.push(search::pagerank_native(&graph.to_csr(), &Default::default()).2);
        let events = PoissonArrivals::new(2000.0, 32)?.generate_events(seed, scale * 4);
        out.push(
            streaming::windowed_aggregation(events, &Default::default()).1,
        );
        // Update-frequency replay against the KV store.
        let gen = UpdateStreamGenerator::new(1000.0, 0.3, 0.5, scale)?;
        let ops = gen.generate_ops(seed, scale * 2);
        let store = bdb_kv::SharedLsm::default();
        let mut c = MetricsCollector::new();
        for op in &ops {
            use bdb_datagen::stream::UpdateOp;
            let t0 = std::time::Instant::now();
            match &op.op {
                UpdateOp::Insert { key, value } | UpdateOp::Update { key, value } => {
                    store.put(key.to_be_bytes().to_vec(), value.to_le_bytes().to_vec());
                }
                UpdateOp::Delete { key } => store.delete(key.to_be_bytes().to_vec()),
            }
            c.record_latency(t0.elapsed());
        }
        out.push(
            WorkloadResult::assemble(
                "bdbench/update-replay",
                "kv",
                WorkloadCategory::OnlineServices,
                c.finish(),
                OpCounts { record_ops: store.stats().total_ops(), float_ops: 0 },
                ops.len() as u64,
            )
            .with_detail(
                "measured_update_rate",
                UpdateStreamGenerator::measured_rate(&ops),
            ),
        );
        Ok(out)
    }
}

/// Every suite of Tables 1–2, plus `bdbench`, in the paper's row order.
pub fn all_suites() -> Vec<Box<dyn BenchmarkSuite>> {
    vec![
        Box::new(HiBench),
        Box::new(GridMix),
        Box::new(PigMix),
        Box::new(Ycsb),
        Box::new(PavloBenchmark),
        Box::new(TpcDs),
        Box::new(BigBench),
        Box::new(LinkBench),
        Box::new(CloudSuite),
        Box::new(BigDataBench),
        Box::new(Bdbench),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_suites_in_paper_order() {
        let suites = all_suites();
        assert_eq!(suites.len(), 11);
        assert_eq!(suites[0].descriptor().name, "HiBench");
        assert_eq!(suites[9].descriptor().name, "BigDataBench");
    }

    #[test]
    fn every_suite_has_generators_matching_its_variety() {
        for suite in all_suites() {
            let desc = suite.descriptor();
            let kinds: std::collections::BTreeSet<String> = suite
                .generators()
                .iter()
                .map(|g| g.kind().to_string())
                .collect();
            for k in &desc.variety {
                assert!(
                    kinds.contains(&k.to_string()),
                    "{}: descriptor lists {} but no generator produces it",
                    desc.name,
                    k
                );
            }
        }
    }

    #[test]
    fn unconsidered_suites_have_no_probe() {
        for suite in all_suites() {
            let desc = suite.descriptor();
            let probe = suite.veracity_probe(1);
            match desc.veracity {
                VeracityClass::UnConsidered => assert!(
                    probe.is_none(),
                    "{} claims un-considered but probes",
                    desc.name
                ),
                _ => assert!(
                    probe.is_some(),
                    "{} claims veracity but has no probe",
                    desc.name
                ),
            }
        }
    }

    #[test]
    fn considered_suites_beat_partial_suites_on_probe_ratio() {
        let bdb = BigDataBench.veracity_probe(3).unwrap();
        let tpcds = TpcDs.veracity_probe(3).unwrap();
        assert!(
            bdb.ratio() < tpcds.ratio(),
            "BigDataBench ratio {} should beat TPC-DS ratio {}",
            bdb.ratio(),
            tpcds.ratio()
        );
        assert!(bdb.ratio() < 1.0);
    }

    #[test]
    fn fixed_datasets_ignore_volume() {
        let d1 = FixedCorpusDataset.generate(1, &VolumeSpec::Items(10)).unwrap();
        let d2 = FixedCorpusDataset.generate(2, &VolumeSpec::Items(1000)).unwrap();
        assert_eq!(d1.item_count(), d2.item_count());
        let g = FixedGraphDataset.generate(1, &VolumeSpec::Items(10)).unwrap();
        assert_eq!(g.item_count(), 156);
    }

    #[test]
    fn hibench_workloads_run() {
        let results = HiBench.run_workloads(300, 1).unwrap();
        assert!(results.len() >= 7);
        assert!(results.iter().all(|r| r.report.user.duration_secs > 0.0));
    }

    #[test]
    fn linkbench_workload_runs() {
        let results = LinkBench.run_workloads(100, 2).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].detail("graph_vertices").unwrap() >= 64.0);
    }

    #[test]
    fn bdbench_workloads_cover_extensions() {
        let results = Bdbench.run_workloads(200, 3).unwrap();
        assert_eq!(results.len(), 4);
        let update = &results[3];
        assert!(update.detail("measured_update_rate").unwrap() > 0.0);
    }
}
