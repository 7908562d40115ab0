//! The pipeline workloads: whole Figure 1 runs through
//! `bdb_core::Benchmark::run`.
//!
//! One round runs every step of the workload once. The untraced run
//! times rounds end to end. The traced run rebuilds a round from the
//! same public calls `Benchmark::run` makes, with a span around each,
//! and then calls the engine's kernel directly, outside the round, so
//! the execution layer's own overhead can be told apart from the
//! kernel's work.

use crate::spans::Tracer;
use crate::stats::median;
use crate::{Outcome, Samples, Setup, SEGMENTS, THREADS};
use bdb_core::{Benchmark, BenchmarkSpec, ExecutionLayer, FunctionLayer};
use bdb_datagen::volume::VolumeSpec;
use bdb_datagen::Dataset;
use bdb_exec::config::SystemConfig;
use bdb_exec::engine::{EngineRegistry, ExecutionRequest};
use bdb_exec::trace::{RunTrace, TraceEvent};
use bdb_testgen::bind::{PatternExecutor, SqlBinding};
use bdb_testgen::{Prescription, SystemKind, TestGenerator};
use bdb_verify::VerifyMode;
use bdb_workloads::{micro, WorkloadResult};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One `Benchmark::run` of a round.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Prescription name in the repository.
    pub prescription: &'static str,
    /// The system the spec requests.
    pub system: SystemKind,
    /// Items per generated data set.
    pub scale: u64,
}

/// `pipeline-text`: word count on MapReduce over LDA-generated text.
pub const TEXT: &[Step] = &[Step {
    prescription: "micro/wordcount",
    system: SystemKind::MapReduce,
    scale: 200_000,
}];

/// `pipeline-relational`: a join whose execution phase is mostly
/// overhead outside the kernel, then a scan-filter-aggregate query whose
/// time is mostly the SQL operators and table generation.
pub const RELATIONAL: &[Step] = &[
    Step {
        prescription: "relational/join",
        system: SystemKind::Sql,
        scale: 4_000,
    },
    Step {
        prescription: "relational/select-aggregate",
        system: SystemKind::Sql,
        scale: 200_000,
    },
];

fn system_config() -> SystemConfig {
    SystemConfig::default()
        .with_threads(THREADS)
        .with_generator_workers(THREADS)
}

fn benchmark() -> Benchmark {
    let mut bench = Benchmark::new();
    bench.execution_layer_mut().system_config = system_config();
    bench
}

fn spec(step: &Step, seed: u64) -> BenchmarkSpec {
    BenchmarkSpec::new(step.prescription)
        .with_prescription(step.prescription)
        .with_system(step.system)
        .with_scale(step.scale)
        .with_seed(seed)
}

/// Output rows of one step's results: the length of each result's
/// canonical payload.
fn output_rows(step: &Step, results: &[WorkloadResult]) -> Result<u64, String> {
    if results.is_empty() {
        return Err(format!("{}: no results", step.prescription));
    }
    results
        .iter()
        .map(|r| {
            r.output
                .as_ref()
                .map(|p| p.len() as u64)
                .ok_or_else(|| format!("{}: result carries no output payload", step.prescription))
        })
        .sum()
}

/// One untimed round with strict verification against the reference
/// oracle; returns each step's output rows.
fn verified_round(
    bench: &Benchmark,
    steps: &[Step],
    seed: u64,
    work_dir: &Path,
) -> Result<Vec<u64>, String> {
    // Strict mode also records a golden digest for cells that have none;
    // a private directory keeps the repository's goldens untouched.
    let goldens = work_dir.join(format!("goldens-{}", std::process::id()));
    let verdict = steps
        .iter()
        .map(|step| {
            let spec = spec(step, seed)
                .with_verify(VerifyMode::Strict)
                .with_goldens_dir(&goldens.to_string_lossy());
            let run = bench
                .run(&spec)
                .map_err(|e| format!("{}: {e}", step.prescription))?;
            let c = &run.conformance;
            if c.checks == 0 || !c.all_passed() {
                return Err(format!(
                    "{}: not CONFORMANT ({} of {} checks passed): {:?}",
                    step.prescription, c.passes, c.checks, c.failures
                ));
            }
            output_rows(step, &run.results)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&goldens);
    verdict
}

/// One round through `Benchmark::run`; returns each step's output rows.
fn round(bench: &Benchmark, steps: &[Step], seed: u64) -> Result<Vec<u64>, String> {
    steps
        .iter()
        .map(|step| {
            let run = bench
                .run(&spec(step, seed))
                .map_err(|e| format!("{}: {e}", step.prescription))?;
            output_rows(step, &run.results)
        })
        .collect()
}

fn check_rows(got: &[u64], want: &[u64], steps: &[Step]) -> Result<(), String> {
    match steps
        .iter()
        .zip(got.iter().zip(want))
        .find(|(_, (g, w))| g != w)
    {
        None => Ok(()),
        Some((step, (g, w))) => Err(format!(
            "{}: {g} output rows, the verified round had {w}",
            step.prescription
        )),
    }
}

/// The untraced run: one warm-up round, then [`SEGMENTS`] segments of
/// timed rounds for `seconds` in all, each after a batch of set-ups,
/// then the verified round every timed round must match.
pub fn run(steps: &[Step], seed: u64, seconds: f64, work_dir: &Path) -> Result<Outcome, String> {
    let mut setup = Setup::measure(|| Ok(benchmark()))?;
    let mut out = Outcome::default();
    round(&setup.value, steps, seed)?;
    let mut rounds = Vec::new();
    for segment in 0..SEGMENTS {
        if segment > 0 {
            setup.remeasure(|| Ok(benchmark()))?;
        }
        let start = Instant::now();
        let first = rounds.len();
        while rounds.len() == first || start.elapsed().as_secs_f64() < seconds / SEGMENTS as f64 {
            let t0 = Instant::now();
            let rows = round(&setup.value, steps, seed);
            rounds.push((t0.elapsed().as_secs_f64(), rows));
        }
    }
    out.peak_rss()?;
    out.set_median("setup_s", &setup.setup_s);
    let want = verified_round(&setup.value, steps, seed, work_dir)?;
    out.attempted += 1 + rounds.len() as u64;
    let mut round_s = Vec::with_capacity(rounds.len());
    let mut correct = 0;
    for (secs, rows) in rounds {
        match rows.and_then(|rows| check_rows(&rows, &want, steps)) {
            Ok(()) => correct += 1,
            Err(e) => out.fail(e),
        }
        round_s.push(secs);
    }
    out.rounds(&round_s, correct);
    Ok(out)
}

/// Look up a step's prescription and generate its data sets, the way
/// `Benchmark::run` does, each call in a span under `parent`.
fn inputs(
    function: &FunctionLayer,
    tracer: &mut Tracer,
    parent: Option<usize>,
    run: u64,
    step: Step,
    seed: u64,
) -> Result<(Prescription, BTreeMap<String, Dataset>), String> {
    let fail = |e: bdb_common::BdbError| format!("{}: {e}", step.prescription);
    let prescription = tracer
        .time("testgen.lookup", parent, run, || {
            function.repository.get(step.prescription).cloned()
        })
        .map_err(fail)?;
    let mut datasets = BTreeMap::new();
    for (i, data) in prescription.data.iter().enumerate() {
        let generator = tracer
            .time("datagen.build", parent, run, || {
                function.generators.build(&data.generator)
            })
            .map_err(fail)?;
        let dataset = tracer
            .time("datagen.generate", parent, run, || {
                let volume = VolumeSpec::Items(step.scale);
                generator.generate_parallel(seed.wrapping_add(i as u64), &volume, THREADS)
            })
            .map_err(fail)?;
        datasets.insert(data.name.clone(), dataset);
    }
    Ok((prescription, datasets))
}

/// What one traced step produced.
struct TracedStep {
    step: Step,
    rows: u64,
    execute_s: f64,
}

/// Rebuild one step of a round from the calls `Benchmark::run` makes,
/// each in a span under `root`. The step ends, as `Benchmark::run`
/// does, by releasing its data sets and results, in a span of its own.
fn traced_step(
    layers: &(FunctionLayer, ExecutionLayer),
    tracer: &mut Tracer,
    root: usize,
    run: u64,
    step: Step,
    seed: u64,
    samples: &mut Samples,
) -> Result<TracedStep, String> {
    let (function, execution) = layers;
    let fail = |e: bdb_common::BdbError| format!("{}: {e}", step.prescription);
    let (prescription, datasets) = inputs(function, tracer, Some(root), run, step, seed)?;
    let items = datasets.values().map(|d| d.item_count() as f64).sum();
    samples.add("datagen.items", items);
    let test = tracer
        .time("testgen.materialize", Some(root), run, || {
            TestGenerator::materialize(prescription, step.system, seed)
        })
        .map_err(fail)?;
    let trace = RunTrace::new();
    let request = ExecutionRequest {
        prescription: &test.prescription,
        system: step.system,
        seed,
        scale: step.scale,
        datasets: &datasets,
        config: &execution.system_config,
        trace: &trace,
        routing: Default::default(),
    };
    let (engine, _) = tracer
        .time("exec.route", Some(root), run, || {
            execution.engines.route(&request)
        })
        .map_err(fail)?;
    let id = tracer.begin("exec.execute", Some(root), run);
    let results = engine.execute(&request).map_err(fail)?;
    let execute_s = tracer.end(id);
    for event in trace.events() {
        if let TraceEvent::OperationExecuted {
            engine, op, micros, ..
        } = event
        {
            let name = match (engine.as_str(), op.as_str()) {
                ("sql", "join") => "sql.join_s",
                ("sql", "select") => "sql.select_s",
                ("sql", "aggregate") => "sql.aggregate_s",
                _ => continue,
            };
            samples.add(name, micros as f64 / 1e6);
        }
    }
    let rows = output_rows(&step, &results)?;
    samples.add("exec.output_rows", rows as f64);
    tracer.time("core.release", Some(root), run, || {
        drop((results, datasets, test))
    });
    Ok(TracedStep {
        step,
        rows,
        execute_s,
    })
}

/// Call the step's kernel directly, in a span of its own outside the
/// round, on a fresh copy of the step's inputs generated from the same
/// seed; returns the kernel's seconds.
fn direct_kernel(
    layers: &(FunctionLayer, ExecutionLayer),
    tracer: &mut Tracer,
    run: u64,
    traced: &TracedStep,
    seed: u64,
) -> Result<f64, String> {
    let (function, execution) = layers;
    let step = traced.step;
    let fail = |e: String| format!("{} kernel: {e}", step.prescription);
    // The inputs' own spans are not part of this run's trace.
    let (prescription, datasets) = inputs(function, &mut Tracer::new(), None, run, step, seed)?;
    let (secs, rows) = if step.system == SystemKind::MapReduce {
        let Some(Dataset::Text { docs, .. }) = datasets.values().next() else {
            return Err(fail("needs a text data set".into()));
        };
        let trace = RunTrace::new();
        let request = ExecutionRequest {
            prescription: &prescription,
            system: step.system,
            seed,
            scale: step.scale,
            datasets: &datasets,
            config: &execution.system_config,
            trace: &trace,
            routing: Default::default(),
        };
        let job = request.job_config();
        let id = tracer.begin("mapreduce.job", None, run);
        let (counts, _) = micro::wordcount_mapreduce(docs, &job);
        (tracer.end(id), counts.len())
    } else {
        let tables = datasets
            .into_iter()
            .filter_map(|(k, v)| match v {
                Dataset::Table(t) => Some((k, t)),
                _ => None,
            })
            .collect();
        let id = tracer.begin("testgen.bind", None, run);
        let bound = SqlBinding.execute(&prescription.pattern, &tables);
        let secs = tracer.end(id);
        (secs, bound.map_err(|e| fail(e.to_string()))?.output.len())
    };
    if rows as u64 != traced.rows {
        return Err(fail(format!(
            "{rows} output rows, the engine returned {}",
            traced.rows
        )));
    }
    Ok(secs)
}

/// Per-layer metrics that sum a round's spans of one name.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("datagen.build", "datagen.build_s"),
    ("datagen.generate", "datagen.generate_s"),
    ("testgen.materialize", "testgen.materialize_s"),
    ("exec.route", "exec.route_s"),
    ("exec.execute", "exec.execute_s"),
    ("core.release", "core.release_s"),
    ("testgen.bind", "testgen.bind_s"),
    ("mapreduce.job", "mapreduce.job_s"),
];

/// The traced run: untraced and traced rounds alternate for `seconds`,
/// each traced round followed by the direct kernel calls. Per-layer
/// metrics are medians over rounds of each round's totals; the spans go
/// to `trace_file`.
pub fn traced(
    steps: &[Step],
    seed: u64,
    seconds: f64,
    work_dir: &Path,
    meta: &str,
    trace_file: &Path,
) -> Result<Outcome, String> {
    let bench = benchmark();
    let layers = (
        FunctionLayer::default(),
        ExecutionLayer {
            system_config: system_config(),
            engines: EngineRegistry::with_builtins(),
        },
    );
    let mut out = Outcome::default();
    round(&bench, steps, seed)?;
    let mut tracer = Tracer::new();
    let mut per_round = Samples::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut rows_seen = Vec::new();
    let start = Instant::now();
    let mut run = 0u64;
    while run == 0 || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        rows_seen.push(round(&bench, steps, seed)?);
        untraced_s.push(t0.elapsed().as_secs_f64());

        let mut within = Samples::default();
        let root = tracer.begin("core.round", None, run);
        let mut traced_steps = Vec::with_capacity(steps.len());
        for step in steps {
            traced_steps.push(traced_step(
                &layers,
                &mut tracer,
                root,
                run,
                *step,
                seed,
                &mut within,
            )?);
        }
        let root_s = tracer.end(root);
        rows_seen.push(traced_steps.iter().map(|t| t.rows).collect());
        out.attempted += 2;
        traced_s.push(root_s);

        let mut kernel_s = 0.0;
        for t in &traced_steps {
            let k = direct_kernel(&layers, &mut tracer, run, t, seed)?;
            if t.step.prescription == "relational/join" {
                per_round.add("exec.join_overhead_share", (t.execute_s - k) / t.execute_s);
            }
            kernel_s += k;
        }
        let totals = tracer.run_totals(run);
        for &(span, metric) in SPAN_METRICS {
            if let Some(&secs) = totals.get(span) {
                per_round.add(metric, secs);
            }
        }
        let execute_s = totals.get("exec.execute").copied().unwrap_or(0.0);
        per_round.add("exec.overhead_s", execute_s - kernel_s);
        per_round.add("exec.overhead_share", (execute_s - kernel_s) / execute_s);
        if let (Some(&gen_s), Some(items)) =
            (totals.get("datagen.generate"), within.get("datagen.items"))
        {
            per_round.add("datagen.items_per_s", items.iter().sum::<f64>() / gen_s);
        }
        for (name, values) in &within.0 {
            if name != "datagen.items" {
                per_round.add(name, values.iter().sum());
            }
        }
        let self_s = tracer.self_time(root);
        per_round.add("core.self_s", self_s);
        per_round.add("core.child_coverage", 1.0 - self_s / root_s);
        run += 1;
    }
    out.attempted += 1;
    let want = verified_round(&bench, steps, seed, work_dir)?;
    for rows in &rows_seen {
        if let Err(e) = check_rows(rows, &want, steps) {
            out.fail(e);
        }
    }
    out.set_medians(&per_round);
    if let (Some(t), Some(u)) = (median(&traced_s), median(&untraced_s)) {
        out.set("core.trace_overhead_s", t - u, traced_s.len());
    }
    std::fs::write(trace_file, tracer.to_json(meta))
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    Ok(out)
}
