//! The self-timing hot-path bench behind `bdbench bench`.
//!
//! Measures the framework's load-bearing code paths with plain
//! wall-clock timing under the repeated-sampling protocol of
//! [`crate::sampling`] — per path: warmup iterations discarded, N
//! recorded samples, MAD outlier classification, and t-distribution 95%
//! confidence bounds — and returns a [`BenchLedger`] for the
//! perf-regression gate:
//!
//! 1. parallel data generation throughput (items/s),
//! 2. engine dispatch (capability routing) latency,
//! 3. the streaming window pipeline (events/s),
//! 4. the behavioral sessionize kernel (events/s),
//! 5. LSM put and get throughput (ops/s),
//! 6. loadgen saturation: closed-loop concurrent-driver throughput and
//!    p99 latency per engine (kv, sql, native, streaming).
//!
//! Iterations interleave *all* paths (sample 1 of every path, then
//! sample 2, …) so slow machine-wide drift lands across every path's
//! distribution instead of biasing whichever path ran last.

use crate::ledger::{BenchLedger, PathEntry};
use crate::sampling::{Distribution, SamplingConfig};
use bdb_common::Result;
use bdb_core::registry::GeneratorRegistry;
use bdb_datagen::stream::PoissonArrivals;
use bdb_datagen::volume::VolumeSpec;
use bdb_datagen::Dataset;
use bdb_exec::config::SystemConfig;
use bdb_exec::engine::{EngineRegistry, ExecutionRequest};
use bdb_exec::loadgen::{self, LoadProfile};
use bdb_exec::trace::RunTrace;
use bdb_kv::lsm::LsmStore;
use bdb_testgen::{PrescriptionRepository, SystemKind};
use bdb_workloads::behavioral::{run_behavioral, BehavioralSpec};
use bdb_workloads::streaming::{windowed_aggregation, StreamAnalyticsConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// The five hot paths measured since the first ledger — the set the CI
/// regression gate protects (the loadgen saturation paths are noisier
/// and are reported but not gated by default).
pub const ORIGINAL_HOT_PATHS: [&str; 5] = [
    "datagen_parallel_items",
    "dispatch_route_all",
    "window_pipeline_events",
    "lsm_put_ops",
    "lsm_get_ops",
];

/// Every path a full hotpaths run measures, in ledger order.
pub const ALL_HOT_PATHS: [&str; 10] = [
    "datagen_parallel_items",
    "dispatch_route_all",
    "window_pipeline_events",
    "behavioral_sessionize_events",
    "lsm_put_ops",
    "lsm_get_ops",
    "loadgen_saturation_kv",
    "loadgen_saturation_sql",
    "loadgen_saturation_native",
    "loadgen_saturation_streaming",
];

/// Workload sizes and the sampling protocol for one hotpaths run.
#[derive(Debug, Clone)]
pub struct HotpathConfig {
    /// Warmup/sample counts per path.
    pub sampling: SamplingConfig,
    /// Deterministic seed for every generator and schedule.
    pub seed: u64,
    /// Items generated by the parallel-datagen path.
    pub datagen_items: u64,
    /// `route_all` calls per dispatch sample.
    pub dispatch_iterations: u64,
    /// Events through the window pipeline.
    pub window_events: u64,
    /// Events through the sessionize kernel.
    pub behavioral_events: u64,
    /// LSM put (and get) operations.
    pub lsm_ops: u64,
    /// Load-driver drive length per sample, milliseconds.
    pub loadgen_duration_ms: u64,
    /// Load-driver client sessions.
    pub loadgen_clients: usize,
}

impl Default for HotpathConfig {
    fn default() -> Self {
        Self {
            sampling: SamplingConfig::default(),
            seed: 42,
            datagen_items: 200_000,
            dispatch_iterations: 10_000,
            window_events: 200_000,
            behavioral_events: 200_000,
            lsm_ops: 50_000,
            loadgen_duration_ms: 400,
            loadgen_clients: 4,
        }
    }
}

/// Accumulates per-iteration measurements for one path.
#[derive(Default)]
struct PathRecorder {
    units: u64,
    secs: Vec<f64>,
    per_sec: Vec<f64>,
    p99_us: Vec<f64>,
}

/// Ordered per-path sample store.
#[derive(Default)]
struct Recorder {
    order: Vec<String>,
    paths: BTreeMap<String, PathRecorder>,
}

impl Recorder {
    fn path(&mut self, name: &str) -> &mut PathRecorder {
        if !self.paths.contains_key(name) {
            self.order.push(name.to_string());
        }
        self.paths.entry(name.to_string()).or_default()
    }

    /// Record one kernel sample: `units` of work in `secs`.
    fn record(&mut self, name: &str, units: u64, secs: f64) {
        let p = self.path(name);
        p.units = units;
        p.secs.push(secs);
        p.per_sec.push(units as f64 / secs.max(1e-9));
    }

    /// Record one load-driver sample: completed ops, drive wall-clock,
    /// and the run's p99 latency.
    fn record_load(&mut self, name: &str, completed: u64, secs: f64, p99_us: f64) {
        self.record(name, completed, secs);
        self.path(name).p99_us.push(p99_us);
    }

    fn into_entries(self) -> Vec<PathEntry> {
        self.order
            .iter()
            .map(|name| {
                let p = &self.paths[name];
                let throughput = Distribution::from_samples(p.per_sec.clone());
                let p99 = (!p.p99_us.is_empty())
                    .then(|| Distribution::from_samples(p.p99_us.clone()));
                let mean_secs = p.secs.iter().sum::<f64>() / p.secs.len() as f64;
                PathEntry::from_distributions(
                    name,
                    p.units,
                    mean_secs,
                    &throughput,
                    p99.as_ref(),
                )
            })
            .collect()
    }
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Run every hot path under the sampling protocol and return the ledger.
pub fn run_hotpaths(cfg: &HotpathConfig) -> Result<BenchLedger> {
    let seed = cfg.seed;
    let mut rec = Recorder::default();

    // One-time setup shared across iterations (setup cost is not part of
    // any measured region).
    let generators = GeneratorRegistry::with_builtins();
    let datagen = generators.build("text/lda")?;
    let repo = PrescriptionRepository::with_builtins();
    let prescription = repo.get("micro/wordcount")?;
    let mut dispatch_datasets = BTreeMap::new();
    for (i, d) in prescription.data.iter().enumerate() {
        let dataset = generators
            .build(&d.generator)?
            .generate(seed.wrapping_add(i as u64), &VolumeSpec::Items(d.items))?;
        dispatch_datasets.insert(d.name.clone(), dataset);
    }
    let config = SystemConfig::default();
    let registry = EngineRegistry::with_builtins();
    let window_events = PoissonArrivals::new(1000.0, 20)?.generate_events(seed, cfg.window_events);
    let behavioral_dataset = generators
        .build("behavioral/events")?
        .generate_parallel(seed, &VolumeSpec::Items(cfg.behavioral_events), 4)?;
    let Dataset::Stream(behavioral_events) = behavioral_dataset else {
        panic!("behavioral/events yields a stream")
    };
    let load_profile = LoadProfile {
        clients: cfg.loadgen_clients,
        duration_ms: cfg.loadgen_duration_ms,
        ..LoadProfile::default()
    };

    for iter in 0..cfg.sampling.iterations() {
        let recorded = cfg.sampling.is_recorded(iter);

        // 1. Parallel data generation.
        let (dataset, secs) =
            time(|| datagen.generate_parallel(seed, &VolumeSpec::Items(cfg.datagen_items), 4));
        let dataset = dataset?;
        if recorded {
            rec.record("datagen_parallel_items", dataset.item_count() as u64, secs);
        }

        // 2. Engine dispatch (capability routing).
        let trace = RunTrace::new();
        let request = ExecutionRequest {
            prescription,
            system: SystemKind::Native,
            seed,
            scale: 1000,
            datasets: &dispatch_datasets,
            config: &config,
            trace: &trace,
            routing: bdb_exec::planner::RoutingPolicy::default(),
        };
        let (routed, secs) = time(|| -> Result<u64> {
            let mut routed = 0u64;
            for _ in 0..cfg.dispatch_iterations {
                routed += registry.route_all(&request)?.len() as u64;
            }
            Ok(routed)
        });
        assert!(routed? >= cfg.dispatch_iterations);
        if recorded {
            rec.record("dispatch_route_all", cfg.dispatch_iterations, secs);
        }

        // 3. Streaming window pipeline.
        let evts = window_events.clone();
        let n = evts.len() as u64;
        let ((outcome, _), secs) =
            time(|| windowed_aggregation(evts, &StreamAnalyticsConfig::default()));
        assert_eq!(outcome.events_in, n);
        if recorded {
            rec.record("window_pipeline_events", n, secs);
        }

        // 4. Behavioral sessionize kernel.
        let spec = BehavioralSpec::Sessionize { gap_ms: 10_000 };
        let (outcome, secs) = time(|| run_behavioral(&behavioral_events, &spec));
        assert_eq!(outcome.events, cfg.behavioral_events);
        if recorded {
            rec.record("behavioral_sessionize_events", cfg.behavioral_events, secs);
        }

        // 5. LSM put/get (fresh store each iteration so puts always pay
        // the same memtable/flush profile).
        let ops = cfg.lsm_ops;
        let mut store = LsmStore::default();
        let (_, put_secs) = time(|| {
            for i in 0..ops {
                let key = format!("user{:012}", i * 7919 % ops);
                store.put(key.into_bytes(), vec![0u8; 100]);
            }
        });
        let (hits, get_secs) = time(|| {
            let mut hits = 0u64;
            for i in 0..ops {
                let key = format!("user{:012}", i % ops);
                if store.get(key.as_bytes()).is_some() {
                    hits += 1;
                }
            }
            hits
        });
        assert!(hits > 0);
        if recorded {
            rec.record("lsm_put_ops", ops, put_secs);
            rec.record("lsm_get_ops", ops, get_secs);
        }

        // 6. Concurrent load driver, one drive per engine.
        let trace = RunTrace::new();
        let reports = loadgen::run_load(&registry, &load_profile, seed, &trace)?;
        for r in reports {
            assert!(r.conformance_passed, "{} diverged under load", r.engine);
            let name = format!("loadgen_saturation_{}", r.engine);
            if recorded {
                rec.record_load(&name, r.completed, r.duration_secs, r.p99_us);
            }
        }
    }

    Ok(BenchLedger {
        bench: "hotpaths".into(),
        seed,
        samples: Some(u64::from(cfg.sampling.samples)),
        warmup: Some(u64::from(cfg.sampling.warmup)),
        results: rec.into_entries(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end run: every path present, every entry carrying a
    /// full distribution whose CI bounds bracket the mean.
    #[test]
    fn hotpaths_ledger_covers_every_path_with_intervals() {
        let cfg = HotpathConfig {
            sampling: SamplingConfig { warmup: 0, samples: 2 },
            datagen_items: 2_000,
            dispatch_iterations: 50,
            window_events: 2_000,
            behavioral_events: 2_000,
            lsm_ops: 1_000,
            loadgen_duration_ms: 60,
            ..HotpathConfig::default()
        };
        let ledger = run_hotpaths(&cfg).expect("hotpaths run");
        ledger.validate().expect("ledger validates");
        let names: Vec<&str> = ledger.results.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ALL_HOT_PATHS.to_vec());
        for e in &ledger.results {
            assert_eq!(e.samples_per_sec.as_ref().unwrap().len(), 2, "{}", e.name);
            assert!(e.ci_lo.unwrap() <= e.per_sec && e.per_sec <= e.ci_hi.unwrap());
            if e.name.starts_with("loadgen_") {
                assert!(e.p99_us.is_some(), "{} must report p99", e.name);
                assert_eq!(e.p99_samples_us.as_ref().unwrap().len(), 2);
            }
        }
        // The ledger round-trips and self-compares clean.
        let parsed = BenchLedger::parse(&ledger.emit()).expect("roundtrip");
        assert!(!parsed.compare_against(&parsed, 0.25, &[]).has_regressions());
    }
}
