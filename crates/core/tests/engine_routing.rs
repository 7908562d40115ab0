//! Integration tests for the capability-routed engine registry: every
//! builtin prescription reaches a capable engine on every requested
//! system, incapable pairings fail with a candidate-listing error, and
//! the SQL and MapReduce engines stay functionally interchangeable.

use bdb_core::layers::BenchmarkSpec;
use bdb_core::pipeline::{Benchmark, BenchmarkRun};
use bdb_exec::engine::{
    Capabilities, Engine, EngineRegistry, ExecutionRequest, NativeEngine,
};
use bdb_exec::fault::Resilience;
use bdb_exec::planner::RoutingPolicy;
use bdb_exec::trace::{RunTrace, TraceEvent};
use bdb_exec::SystemConfig;
use bdb_testgen::arrival::ArrivalSpec;
use bdb_testgen::ops::AggSpec;
use bdb_testgen::pattern::WorkloadPattern;
use bdb_testgen::{MetricKind, Operation, Prescription, SystemKind};
use bdb_workloads::WorkloadResult;
use std::collections::BTreeMap;

const ALL_SYSTEMS: [SystemKind; 5] = [
    SystemKind::Native,
    SystemKind::MapReduce,
    SystemKind::Sql,
    SystemKind::KeyValue,
    SystemKind::Streaming,
];

fn run(prescription: &str, system: SystemKind) -> BenchmarkRun {
    let spec = BenchmarkSpec::new("routing")
        .with_prescription(prescription)
        .with_system(system)
        .with_scale(300)
        .with_seed(11);
    Benchmark::new()
        .run(&spec)
        .unwrap_or_else(|e| panic!("{prescription} on {system}: {e}"))
}

fn dispatched_engine(run: &BenchmarkRun) -> (String, bool) {
    let dispatches: Vec<(String, bool)> = run
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::EngineDispatched { engine, explicit, .. } => {
                Some((engine.clone(), *explicit))
            }
            _ => None,
        })
        .collect();
    assert_eq!(dispatches.len(), 1, "expected exactly one dispatch decision");
    dispatches.into_iter().next().unwrap()
}

/// The engine each builtin prescription must land on per requested
/// system. This is the old hard-coded dispatch chain's behavior, now an
/// observable routing contract.
fn expected_engine(prescription: &str, system: SystemKind) -> &'static str {
    let domain = prescription.split('/').next().unwrap();
    match prescription {
        // Text kernels: native unless MapReduce is requested.
        "micro/wordcount" | "micro/grep" | "search/index" => match system {
            SystemKind::MapReduce => "mapreduce",
            _ => "native",
        },
        // Iterative kernels: same pairing, on graphs and tables.
        "search/pagerank" | "social/connected-components" | "social/kmeans" => match system {
            SystemKind::MapReduce => "mapreduce",
            _ => "native",
        },
        // Windowed streams only run on the streaming engine.
        "streaming/window-aggregation" => "streaming",
        _ => match domain {
            // Behavioral-analytics streams: streaming unless MapReduce is
            // explicitly requested (both engines implement the class).
            "behavioral" => match system {
                SystemKind::MapReduce => "mapreduce",
                _ => "streaming",
            },
            // Element-operation mixes only run on the KV store.
            "oltp" => "kv",
            // Relational patterns bind to SQL unless MapReduce is requested.
            _ => match system {
                SystemKind::MapReduce => "mapreduce",
                _ => "sql",
            },
        },
    }
}

#[test]
fn every_builtin_prescription_routes_on_every_system() {
    let repo = bdb_testgen::PrescriptionRepository::with_builtins();
    for name in repo.names() {
        for system in ALL_SYSTEMS {
            let r = run(name, system);
            assert!(!r.results.is_empty(), "{name} on {system}: no results");
            let (engine, explicit) = dispatched_engine(&r);
            assert_eq!(
                engine,
                expected_engine(name, system),
                "{name} on {system} routed to the wrong engine"
            );
            // An explicit route means the engine implements the requested
            // system; the report should agree with the routing decision.
            if explicit {
                assert_eq!(
                    r.results[0].report.system, engine,
                    "{name} on {system}: report disagrees with routing"
                );
            }
        }
    }
}

#[test]
fn incapable_pairing_lists_candidate_engines() {
    // A windowed aggregation over a *table* data set: the streaming
    // engine is the only one that understands windows but it only
    // consumes streams, so no registered engine is capable.
    let prescription = Prescription {
        name: "custom/windowed-table".into(),
        description: "window aggregation over structured data".into(),
        data: vec![bdb_testgen::DataSpec {
            name: "orders".into(),
            source: "table".into(),
            generator: "table/retail-fitted".into(),
            items: 100,
        }],
        pattern: WorkloadPattern::Single {
            op: Operation::WindowAggregate { window_ms: 1_000, function: AggSpec::Sum },
            input: "orders".into(),
        },
        arrival: ArrivalSpec::Batch,
        metrics: vec![MetricKind::UserPerceivable],
    };
    prescription.validate().unwrap();

    let mut bench = Benchmark::new();
    bench.function_layer_mut().repository.register(prescription).unwrap();
    let spec = BenchmarkSpec::new("impossible")
        .with_prescription("custom/windowed-table")
        .with_system(SystemKind::Streaming)
        .with_scale(100);
    let err = bench.run(&spec).unwrap_err().to_string();
    assert!(err.contains("no engine"), "unexpected error: {err}");
    for name in EngineRegistry::with_builtins().names() {
        assert!(err.contains(name), "error does not list candidate {name}: {err}");
    }
}

#[test]
fn empty_registry_reports_the_absence_of_candidates() {
    let trace = RunTrace::new();
    let datasets = BTreeMap::new();
    let config = SystemConfig::default();
    let prescription = Prescription {
        name: "micro/count".into(),
        description: "count".into(),
        data: vec![],
        pattern: WorkloadPattern::Single {
            op: Operation::Count,
            input: "t".into(),
        },
        arrival: ArrivalSpec::Batch,
        metrics: vec![MetricKind::UserPerceivable],
    };
    let request = ExecutionRequest {
        prescription: &prescription,
        system: SystemKind::Sql,
        seed: 1,
        scale: 10,
        datasets: &datasets,
        config: &config,
        trace: &trace,
        routing: bdb_exec::planner::RoutingPolicy::default(),
    };
    let err = EngineRegistry::new()
        .dispatch_resilient(&request, &Resilience::passive(0))
        .unwrap_err()
        .to_string();
    assert!(err.contains("no engine"), "unexpected error: {err}");
}

#[test]
fn sql_and_mapreduce_agree_on_relational_output() {
    // The functional contract behind Table 2's cross-engine rows: the
    // same prescription executed by the SQL and MapReduce engines must
    // produce identical sorted output, observable through the digest of
    // the canonical payload each engine reports.
    for name in ["micro/sort", "relational/select-aggregate", "relational/join",
                 "ecommerce/collaborative-filtering", "ecommerce/naive-bayes"] {
        let sql = run(name, SystemKind::Sql);
        let mr = run(name, SystemKind::MapReduce);
        assert_eq!(sql.results[0].report.system, "sql");
        assert_eq!(mr.results[0].report.system, "mapreduce");
        assert_eq!(
            sql.results[0].detail("output_rows"),
            mr.results[0].detail("output_rows"),
            "{name}: row counts diverge"
        );
        let digest = |run: &BenchmarkRun| run.results[0].output.as_ref().map(|o| o.digest());
        assert!(digest(&sql).is_some(), "{name}: sql reports no payload");
        assert_eq!(digest(&sql), digest(&mr), "{name}: sorted output diverges");
    }
}

fn run_routed(prescription: &str, system: SystemKind, routing: RoutingPolicy) -> BenchmarkRun {
    let spec = BenchmarkSpec::new("routing")
        .with_prescription(prescription)
        .with_system(system)
        .with_scale(300)
        .with_seed(11)
        .with_routing(routing);
    Benchmark::new()
        .run(&spec)
        .unwrap_or_else(|e| panic!("{prescription} on {system} ({routing}): {e}"))
}

#[test]
fn cost_routing_is_payload_identical_to_first_capable() {
    // The cost ranker may reorder candidates but must never change what a
    // run computes: across the full prescription × system matrix, the
    // output payload under `--routing cost` is byte-identical (same
    // shape, length and canonical digest) to the first-capable default's.
    let repo = bdb_testgen::PrescriptionRepository::with_builtins();
    for name in repo.names() {
        for system in ALL_SYSTEMS {
            let first = run_routed(name, system, RoutingPolicy::FirstCapable);
            let cost = run_routed(name, system, RoutingPolicy::Cost);
            let payload = |r: &BenchmarkRun| {
                r.results
                    .iter()
                    .find_map(|res| res.output.as_ref())
                    .map(|p| (p.label().to_string(), p.len(), p.digest()))
            };
            assert_eq!(
                payload(&first),
                payload(&cost),
                "{name} on {system}: cost routing changed the output payload"
            );
            // Cost routing records its decision; the default stays silent.
            assert!(first.trace.events().iter().all(|e| e.label() != "routing_decision"));
            assert!(cost.trace.events().iter().any(|e| e.label() == "routing_decision"));
        }
    }
}

/// A deliberately slow text engine whose optimistic self-estimate wins
/// the first adaptive dispatch — until its observed runtime feeds back.
struct SlowTextEngine;

impl Engine for SlowTextEngine {
    fn name(&self) -> &'static str {
        "slowtext"
    }

    fn capabilities(&self) -> Capabilities {
        NativeEngine.capabilities()
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> bdb_common::Result<Vec<WorkloadResult>> {
        // Busy-wait so the observed runtime dwarfs both the claimed
        // estimate and the native engine's actual runtime.
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(5) {
            std::hint::spin_loop();
        }
        NativeEngine.execute(req)
    }

    fn estimate_cost(&self, _req: &ExecutionRequest<'_>) -> Option<f64> {
        Some(1.0)
    }
}

#[test]
fn adaptive_routing_migrates_off_an_engine_that_lied_about_its_cost() {
    // Two explicit candidates for the native system: the slow engine is
    // registered first and claims to be near-free, so the static view
    // (and the first adaptive pass) picks it. Its observed runtime then
    // contradicts the claim, and the second pass migrates to the native
    // engine — the adaptive loop overruling a wrong cost model.
    let mut bench = Benchmark::new();
    let mut registry = EngineRegistry::new();
    registry.register(Box::new(SlowTextEngine));
    registry.register(Box::new(NativeEngine));
    bench.execution_layer_mut().engines = registry;
    let spec = BenchmarkSpec::new("adaptive")
        .with_prescription("micro/wordcount")
        .with_system(SystemKind::Native)
        .with_scale(200)
        .with_seed(17)
        .with_routing(RoutingPolicy::Adaptive);

    let pass1 = bench.run(&spec).unwrap();
    let (engine1, _) = dispatched_engine(&pass1);
    assert_eq!(engine1, "slowtext", "claimed cost of 1us must win the cold dispatch");

    let pass2 = bench.run(&spec).unwrap();
    let (engine2, _) = dispatched_engine(&pass2);
    assert_eq!(engine2, "native", "observed ~5ms must overrule the claimed 1us");

    // The second pass's decision shows slowtext rejected on its observed
    // EWMA, and both passes compute the same wordcount output.
    assert!(
        pass2.trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::RoutingDecision { engine, rejected, .. }
                if engine == "native"
                    && rejected.iter().any(|r| r.starts_with("slowtext@") && r.ends_with("[observed]"))
        )),
        "pass 2 decision must cite slowtext's observed cost: {:?}",
        pass2.trace.events()
    );
    let payload = |r: &BenchmarkRun| {
        r.results.iter().find_map(|res| res.output.as_ref()).map(|p| (p.len(), p.digest()))
    };
    assert_eq!(payload(&pass1), payload(&pass2), "migration changed the computed output");
}

#[test]
fn run_trace_spans_the_five_figure1_phases() {
    let r = run("relational/join", SystemKind::Sql);
    assert!(!r.trace.is_empty());
    assert_eq!(
        r.trace.phases_finished(),
        vec!["analysis", "data generation", "execution", "planning", "test generation"]
    );
    // Phase spans nest correctly: every started phase also finished.
    let events = r.trace.events();
    let started = events.iter().filter(|e| e.label() == "phase_started").count();
    let finished = events.iter().filter(|e| e.label() == "phase_finished").count();
    assert_eq!(started, 5);
    assert_eq!(finished, 5);
    // The DAG engines record one operation event per executed step.
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::OperationExecuted { engine, .. } if engine == "sql"
    )));
}

#[test]
fn explicit_workers_override_system_config() {
    // --workers 1 (explicit) must force sequential generation even when
    // the execution layer's system config asks for parallelism.
    let spec = BenchmarkSpec::new("seq")
        .with_prescription("micro/wordcount")
        .with_scale(150)
        .with_generator_workers(1)
        .with_seed(3);
    let mut b = Benchmark::new();
    b.execution_layer_mut().system_config =
        b.execution_layer_mut().system_config.clone().with_generator_workers(4);
    let r = b.run(&spec).unwrap();
    assert_eq!(r.generation.unwrap().workers, 1);

    // And with no explicit setting the system config decides.
    let spec = BenchmarkSpec::new("cfg").with_prescription("micro/wordcount").with_scale(150);
    let r = b.run(&spec).unwrap();
    assert_eq!(r.generation.unwrap().workers, 4);
}
