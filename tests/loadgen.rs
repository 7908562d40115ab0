//! End-to-end contracts of the concurrent load driver: the issued-op
//! schedule is a pure function of the seed (never of concurrency), the
//! closed loop conserves ops, the open loop sheds instead of blocking,
//! and KV readers make progress while induced flushes hold the write
//! lock.

use bdbench::core::layers::BenchmarkSpec;
use bdbench::core::pipeline::Benchmark;
use bdbench::exec::engine::EngineRegistry;
use bdbench::exec::loadgen::{
    self, build_schedule, issued_digest, run_target, KvLoadTarget, LoadArrival, LoadProfile,
    KEYSPACE,
};
use bdbench::exec::trace::RunTrace;
use bdbench::kv::lsm::LsmConfig;

fn profile(clients: usize, duration_ms: u64) -> LoadProfile {
    LoadProfile {
        clients,
        duration_ms,
        engines: Some(vec!["native".into()]),
        ..LoadProfile::default()
    }
}

#[test]
fn issued_digest_is_identical_across_client_counts() {
    // The acceptance contract: a fixed seed issues byte-identical ops
    // whether one client or eight drive them.
    let b = Benchmark::new();
    let mut digests = Vec::new();
    for clients in [1, 8] {
        let spec = BenchmarkSpec::new("digest")
            .with_seed(0xBDBE)
            .with_load(profile(clients, 20));
        let run = b.run_load(&spec).unwrap();
        digests.push(run.digest.clone());
        assert!(run.summary.all_conformant(), "clients={clients} diverged");
    }
    assert_eq!(digests[0], digests[1]);
}

#[test]
fn schedule_is_seed_deterministic_and_seed_sensitive() {
    let p = profile(4, 50);
    let a = build_schedule(&p, 7).unwrap();
    let b = build_schedule(&p, 7).unwrap();
    let c = build_schedule(&p, 8).unwrap();
    assert_eq!(issued_digest(&a), issued_digest(&b));
    assert_ne!(issued_digest(&a), issued_digest(&c));
    // Open-loop schedules are deterministic too, and arrival times are
    // monotone non-decreasing.
    let open = LoadProfile {
        arrival: LoadArrival::Poisson { rate_per_sec: 4000.0 },
        ..p
    };
    let oa = build_schedule(&open, 7).unwrap();
    let ob = build_schedule(&open, 7).unwrap();
    assert_eq!(issued_digest(&oa), issued_digest(&ob));
    assert!(oa.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
}

#[test]
fn closed_loop_conserves_issued_ops() {
    let registry = EngineRegistry::with_builtins();
    let trace = RunTrace::new();
    let reports = loadgen::run_load(&registry, &profile(3, 20), 5, &trace).unwrap();
    for r in &reports {
        // The closed loop never sheds: issued == completed.
        assert_eq!(r.shed, 0);
        assert_eq!(r.issued, r.completed);
        assert!(r.completed > 0);
        assert!(r.conformance_passed);
    }
}

#[test]
fn open_loop_conserves_and_sheds_under_an_undersized_queue() {
    // One admission slot against a fast arrival process must shed, and
    // every arrival is accounted for: issued == completed + shed.
    let p = LoadProfile {
        clients: 2,
        duration_ms: 80,
        arrival: LoadArrival::Uniform { rate_per_sec: 20_000.0 },
        queue_capacity: Some(1),
        engines: Some(vec!["kv".into()]),
        ..LoadProfile::default()
    };
    let registry = EngineRegistry::with_builtins();
    let trace = RunTrace::new();
    let reports = loadgen::run_load(&registry, &p, 3, &trace).unwrap();
    assert_eq!(reports.len(), 1);
    let r = &reports[0];
    assert_eq!(r.issued, r.completed + r.shed, "conservation");
    assert!(r.completed > 0, "some ops must still complete");
    assert!(r.shed > 0, "a 1-slot queue at 20k/s must shed");
    let events = trace.events();
    assert!(events.iter().any(|e| e.label() == "load_shed"));
}

#[test]
fn kv_readers_progress_while_load_induces_flushes() {
    // A tiny memtable forces flushes (write-lock holders) during the
    // drive; the run must stay conformant and the store must have
    // actually flushed, proving readers and flushes interleaved.
    let target = KvLoadTarget::with_config(LsmConfig {
        memtable_capacity_bytes: 4 << 10,
        max_runs: 4,
        bloom_bits_per_key: 10,
    });
    let p = LoadProfile {
        clients: 4,
        duration_ms: 40,
        engines: Some(vec!["kv".into()]),
        ..LoadProfile::default()
    };
    let schedule = build_schedule(&p, 9).unwrap();
    let trace = RunTrace::new();
    let before = target.store().stats().flushes;
    let report = run_target(&target, &p, &schedule, &trace).unwrap();
    assert!(report.conformance_passed, "concurrent reads must stay correct");
    assert_eq!(report.completed, report.issued);
    let after = target.store().stats().flushes;
    assert!(after > before, "load must have induced flushes ({before} -> {after})");
    // And the store still holds every preloaded key afterwards.
    for i in (0..KEYSPACE).step_by(97) {
        assert!(target.store().get(loadgen::key_of(i).as_bytes()).is_some());
    }
}
