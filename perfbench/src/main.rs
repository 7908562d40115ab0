//! bdbench's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run drives one workload through the layers' public APIs from
//! this one process, checks every output, and prints a line per metric
//! (name, value, unit, sample count) followed by one JSON object as the
//! last line of standard output. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` is a separate traced run that measures the
//! per-layer metrics and writes its spans to `perfbench/out/`.
//! `perfbench/workloads.md` says why each workload exists and which
//! end-to-end metric each per-layer metric should move.

mod inputs;
mod pipeline;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Execution threads, generator workers and serving clients. Pinned so
/// results do not depend on the machine's core count.
pub const THREADS: usize = 2;

/// A timed run is cut into this many segments, each after a batch of
/// set-ups. Interference from outside the process comes in
/// stretches of seconds, so set-ups timed only at the start could all
/// land in one; spread over the run, they see what the timed part sees.
pub const SEGMENTS: usize = 4;

/// A batch repeats the set-up at least this many times, and until
/// [`SETUP_BATCH_SECONDS`] have passed: a cheap set-up is timed
/// thousands of times, a costly one a few.
const SETUP_MIN_REPS: usize = 3;
const SETUP_BATCH_SECONDS: f64 = 0.25;
const SETUP_MAX_REPS: usize = 25_000;

/// Failure messages kept for the report; every failure is counted.
pub const FAILURES_SHOWN: usize = 5;

/// `(name, unit)` of every end-to-end metric, printed by `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by `--trace 1`. A
/// metric whose layer a workload never calls reads 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.build_s", "s"),
    ("datagen.generate_s", "s"),
    ("datagen.items_per_s", "1/s"),
    ("testgen.materialize_s", "s"),
    ("exec.route_s", "s"),
    ("exec.execute_s", "s"),
    ("testgen.bind_s", "s"),
    ("mapreduce.job_s", "s"),
    ("exec.overhead_s", "s"),
    ("exec.overhead_share", "ratio"),
    ("exec.join_overhead_share", "ratio"),
    ("exec.output_rows", "count"),
    ("sql.join_s", "s"),
    ("sql.select_s", "s"),
    ("sql.aggregate_s", "s"),
    ("core.release_s", "s"),
    ("core.self_s", "s"),
    ("core.child_coverage", "ratio"),
    ("core.trace_overhead_s", "s"),
    ("kv.get_p50_us", "us"),
    ("kv.get_p99_us", "us"),
    ("kv.put_p50_us", "us"),
    ("kv.put_p99_us", "us"),
    ("kv.scan_p50_us", "us"),
    ("kv.scan_p99_us", "us"),
    ("kv.run_probes_per_get", "count"),
    ("kv.bloom_skip_ratio", "ratio"),
    ("kv.memtable_hit_ratio", "ratio"),
    ("kv.flushes_per_kput", "count"),
    ("kv.compactions_per_kput", "count"),
    ("kv.preload_s", "s"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.exec_us", "us"),
    ("sql.point_rows_scanned_per_row", "count"),
    ("sql.range_rows_scanned_per_row", "count"),
    ("sql.point_p50_us", "us"),
    ("sql.point_p99_us", "us"),
    ("sql.range_p50_us", "us"),
    ("sql.range_p99_us", "us"),
    ("sql.register_s", "s"),
];

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &[
    "pipeline-text",
    "pipeline-relational",
    "serve-kv",
    "serve-sql",
];

/// Raw samples by metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    /// Record one sample.
    pub fn add(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// The samples of `name`, if any were recorded.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.0.get(name).map(Vec::as_slice)
    }
}

/// The figures of about one second of a serving drive.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Ops that completed in the window.
    pub ops: usize,
    /// Ops with a correct answer.
    pub correct: u64,
    /// The window's length.
    pub seconds: f64,
    /// Exact median of the window's op latencies, in µs.
    pub p50_us: f64,
    /// Exact nearest-rank p99 of the window's op latencies, in µs.
    pub p99_us: f64,
}

impl Window {
    /// The figures of a window of `seconds` in which `correct` ops
    /// answered correctly. A window in which no op completed reads as
    /// its own length: the op in flight took at least that long.
    pub fn of(seconds: f64, correct: u64, latencies_us: &mut [f64]) -> Self {
        latencies_us.sort_by(f64::total_cmp);
        let stalled = seconds * 1e6;
        Self {
            ops: latencies_us.len(),
            correct,
            seconds,
            p50_us: stats::median(latencies_us).unwrap_or(stalled),
            p99_us: stats::percentile(latencies_us, 9_900).unwrap_or(stalled),
        }
    }
}

/// A metric's reported value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    value: f64,
    samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted: pipeline rounds or served requests.
    pub attempted: u64,
    /// Ops that errored or returned a wrong answer.
    pub failed: u64,
    failures: Vec<String>,
    metrics: BTreeMap<String, Measured>,
    notes: Vec<String>,
}

impl Outcome {
    /// Count one failed op.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < FAILURES_SHOWN {
            self.failures.push(message);
        }
    }

    /// Fold in a drive's counts and failures.
    pub fn absorb(&mut self, attempted: u64, failed: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        let room = FAILURES_SHOWN.saturating_sub(self.failures.len());
        self.failures.extend(failures.into_iter().take(room));
    }

    /// Report `value` for `name`.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics
            .insert(name.to_string(), Measured { value, samples });
    }

    /// Report the median of `values` for `name`; nothing when empty.
    pub fn set_median(&mut self, name: &str, values: &[f64]) {
        if let Some(m) = stats::median(values) {
            self.set(name, m, values.len());
        }
    }

    /// Report the median of every metric in `samples`.
    pub fn set_medians(&mut self, samples: &Samples) {
        for (name, values) in &samples.0 {
            self.set_median(name, values);
        }
    }

    /// Report the end-to-end metrics of a serving drive from its
    /// windows.
    ///
    /// `ops_per_s` is the correct ops over the drive's timed seconds.
    /// `p50_us` is the mean over windows of each window's exact median,
    /// and `p99_us` the median over windows of each window's exact p99.
    /// Where cores are shared with other tenants, a neighbour slows an
    /// op by up to about half, in stretches of seconds. Op latencies
    /// then fall into a fast and a slow mode, and a median over all ops,
    /// or over windows, jumps from one mode to the other when the slow
    /// share crosses one half; the mean of the windows' medians moves
    /// in proportion to that share instead. A window's p99 lies in the
    /// slow tail in either state, so its median over windows is steady.
    pub fn windows(&mut self, windows: &[Window]) {
        let n = windows.len();
        let seconds: f64 = windows.iter().map(|w| w.seconds).sum();
        let correct: u64 = windows.iter().map(|w| w.correct).sum();
        if n > 0 {
            self.set("ops_per_s", correct as f64 / seconds, n);
            let p50_sum: f64 = windows.iter().map(|w| w.p50_us).sum();
            self.set("p50_us", p50_sum / n as f64, n);
        }
        let p99s: Vec<f64> = windows.iter().map(|w| w.p99_us).collect();
        self.set_median("p99_us", &p99s);
        let fewest = windows.iter().map(|w| w.ops).min().unwrap_or(0);
        let tail = stats::highest_supported(fewest).map_or("none".into(), stats::percentile_name);
        self.notes.push(format!(
            "windows: {n}, ops per window: at least {fewest}, highest percentile every window supports with >= {} samples beyond it: {tail}",
            stats::MIN_BEYOND
        ));
    }

    /// Report the end-to-end metrics of a pipeline run from the wall
    /// times of its rounds, `correct` of which matched the verified
    /// round: `ops_per_s` is the correct rounds over the timed seconds,
    /// and `p50_us` the median round time. A run holds too few rounds
    /// for any tail, so `p99_us` repeats the median.
    pub fn rounds(&mut self, round_s: &[f64], correct: u64) {
        let n = round_s.len();
        if n > 0 {
            self.set("ops_per_s", correct as f64 / round_s.iter().sum::<f64>(), n);
        }
        let round_us: Vec<f64> = round_s.iter().map(|s| s * 1e6).collect();
        self.set_median("p50_us", &round_us);
        self.set_median("p99_us", &round_us);
        let tail = stats::highest_supported(n).map_or("none".into(), stats::percentile_name);
        self.notes.push(format!(
            "rounds: {n}, highest percentile with >= {} rounds beyond it: {tail}",
            stats::MIN_BEYOND
        ));
    }

    /// Report the exact median and p99 of latencies (µs) as
    /// `<prefix>p50_us` and `<prefix>p99_us`, and note the highest
    /// percentile the sample supports.
    pub fn latencies(&mut self, prefix: &str, latencies_us: &[f64]) {
        let mut sorted = latencies_us.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if let (Some(p50), Some(p99)) = (stats::median(&sorted), stats::percentile(&sorted, 9_900))
        {
            self.set(&format!("{prefix}p50_us"), p50, n);
            self.set(&format!("{prefix}p99_us"), p99, n);
        }
        let tail = match stats::highest_supported(n) {
            Some(p) => format!(
                "{} = {} us",
                stats::percentile_name(p),
                stats::percentile(&sorted, p).unwrap_or(f64::NAN)
            ),
            None => "none".to_string(),
        };
        self.notes.push(format!(
            "{prefix}latency: n={n}, highest percentile with >= {} samples beyond it: {tail}",
            stats::MIN_BEYOND
        ));
    }

    /// Report the process's peak resident set so far.
    pub fn peak_rss(&mut self) -> Result<(), String> {
        let status = std::fs::read_to_string("/proc/self/status")
            .map_err(|e| format!("reading /proc/self/status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line in /proc/self/status")?;
        self.set("peak_rss_mb", kb / 1024.0, 1);
        Ok(())
    }
}

/// A value built by a set-up, with the time of every set-up run.
pub struct Setup<T> {
    /// The last value of the first batch.
    pub value: T,
    /// Seconds per set-up, over every batch.
    pub setup_s: Vec<f64>,
}

impl<T> Setup<T> {
    /// Run one batch of set-ups (see [`SETUP_MIN_REPS`]), timing each
    /// and keeping the last value.
    pub fn measure(mut make: impl FnMut() -> Result<T, String>) -> Result<Self, String> {
        let start = Instant::now();
        let mut setup_s = Vec::new();
        loop {
            let t0 = Instant::now();
            let value = make()?;
            setup_s.push(t0.elapsed().as_secs_f64());
            let enough = setup_s.len() >= SETUP_MIN_REPS
                && start.elapsed().as_secs_f64() >= SETUP_BATCH_SECONDS;
            if enough || setup_s.len() >= SETUP_MAX_REPS {
                return Ok(Self { value, setup_s });
            }
        }
    }

    /// Run another batch, adding its times and dropping its value.
    pub fn remeasure(&mut self, make: impl FnMut() -> Result<T, String>) -> Result<(), String> {
        self.setup_s.extend(Self::measure(make)?.setup_s);
        Ok(())
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} must be in (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, read from `.git` without running git;
/// "unknown" outside a git work tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(name)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run's context as a JSON object: seed, pinned thread counts,
/// machine and load at start, and the commit measured.
fn meta_json(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, m)| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or_else(|| "null".to_string(), |l| l.to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let clients = if args.workload.starts_with("serve-") {
        THREADS
    } else {
        1
    };
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"exec_threads\":{THREADS},\"generator_workers\":{THREADS},\"clients\":{clients},\"nproc\":{nproc},\"cpu_model\":{},\"loadavg_1m\":{load},\"git_commit\":{}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&cpu),
        json_str(&git_commit()),
    )
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn run(args: &Args, meta: &str) -> Result<Outcome, String> {
    let out = out_dir()?;
    let steps = match args.workload.as_str() {
        "pipeline-text" => pipeline::TEXT,
        "pipeline-relational" => pipeline::RELATIONAL,
        "serve-kv" => {
            return serve::kv(
                args.seed,
                args.seconds,
                args.trace.then(|| (meta, trace_path(&out, args))),
            )
        }
        "serve-sql" => {
            return serve::sql(
                args.seed,
                args.seconds,
                args.trace.then(|| (meta, trace_path(&out, args))),
            )
        }
        other => unreachable!("workload {other} was validated"),
    };
    if args.trace {
        pipeline::traced(
            steps,
            args.seed,
            args.seconds,
            &out,
            meta,
            &trace_path(&out, args),
        )
    } else {
        pipeline::run(steps, args.seed, args.seconds, &out)
    }
}

fn trace_path(out: &Path, args: &Args) -> PathBuf {
    out.join(format!("{}-s{}.trace.json", args.workload, args.seed))
}

/// Print every metric of the run's kind, and return the result line.
fn report(args: &Args, meta: &str, outcome: &Outcome) -> Result<String, String> {
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !names.iter().any(|(n, _)| n == k))
    {
        return Err(format!(
            "internal: {} reported unlisted metric {extra}",
            args.workload
        ));
    }
    let mut metrics = Vec::new();
    let mut detail = Vec::new();
    for &(name, unit) in names {
        let m = match outcome.metrics.get(name) {
            Some(m) => *m,
            // Only per-layer metrics may be absent: their layer is not
            // on this workload's path.
            None if args.trace => Measured {
                value: 0.0,
                samples: 0,
            },
            None => {
                return Err(format!(
                    "internal: {} did not measure {name}",
                    args.workload
                ))
            }
        };
        if !m.value.is_finite() {
            return Err(format!("{}: {name} is {}", args.workload, m.value));
        }
        println!(
            "{} {name} = {} {unit} (n={})",
            args.workload, m.value, m.samples
        );
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            m.value,
            json_str(unit)
        ));
        detail.push(format!(
            "{}:{{\"value\":{},\"unit\":{},\"samples\":{}}}",
            json_str(name),
            m.value,
            json_str(unit),
            m.samples
        ));
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{} error_rate = {error_rate} ({} of {} ops failed)",
        args.workload, outcome.failed, outcome.attempted
    );
    for note in &outcome.notes {
        println!("{} {note}", args.workload);
    }
    let correct = outcome.failed == 0;
    let record = format!(
        "{{\"meta\":{meta},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"error_rate\":{error_rate},\"metrics\":{{{}}}}}\n",
        outcome.attempted,
        outcome.failed,
        detail.join(",")
    );
    let path = out_dir()?.join(format!(
        "{}-s{}-trace{}.result.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{} result: {}", args.workload, path.display());
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let meta = meta_json(&args);
    println!("{} meta: {meta}", args.workload);
    let outcome = match run(&args, &meta) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let line = match report(&args, &meta, &outcome) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{line}");
    if outcome.failed > 0 {
        for f in &outcome.failures {
            eprintln!("perfbench: {}: wrong or failed op: {f}", args.workload);
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{w}\",\"why\":")),
                "BENCHMARK.json lacks {w}"
            );
        }
        let listed = compact.matches("{\"name\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }
}
