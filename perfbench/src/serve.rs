//! The serving workloads: closed loops of [`THREADS`] clients against
//! `bdb_kv::SharedLsm` and `bdb_sql::Engine`.
//!
//! Each client sends its next request only when the previous one has
//! returned. Latency runs from call to return; the answer is checked
//! after the clock stops, against a value the benchmark derives itself.

use crate::inputs::{Rng, ScrambledZipf};
use crate::spans::Tracer;
use crate::{Outcome, Samples, Setup, Window, SEGMENTS, THREADS};
use bdb_common::record::Table;
use bdb_common::value::{DataType, Field, Schema, Value};
use bdb_kv::{KvStats, LsmConfig, SharedLsm};
use bdb_sql::{parser, Engine, Executor};
use std::path::PathBuf;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Zipf exponent of key popularity (YCSB's default).
const ZIPF_S: f64 = 0.99;

/// Where a traced run writes its spans, with the run's metadata.
pub type TraceTarget<'a> = Option<(&'a str, PathBuf)>;

/// Length of a drive window, in seconds.
const WINDOW_S: f64 = 1.0;

/// Windows of a drive, filled as clients pass them. A window's latencies
/// are kept only until every client has handed in its share, so the
/// benchmark's own memory does not grow with the program's throughput.
struct WindowSink {
    len_s: f64,
    n: usize,
    clients: usize,
    slots: Mutex<Vec<Slot>>,
}

#[derive(Default)]
struct Slot {
    handed_in: usize,
    correct: u64,
    latencies_us: Vec<f64>,
    window: Option<Window>,
}

impl WindowSink {
    fn new(seconds: f64, clients: usize) -> Self {
        let n = ((seconds / WINDOW_S).round() as usize).max(1);
        Self {
            len_s: seconds / n as f64,
            n,
            clients,
            slots: Mutex::new((0..n).map(|_| Slot::default()).collect()),
        }
    }

    /// The window an op answered `end_s` into the drive belongs to; ops
    /// answered after the deadline fall into the last one.
    fn index(&self, end_s: f64) -> usize {
        ((end_s / self.len_s) as usize).min(self.n - 1)
    }

    /// One client's share of window `k`, which leaves `latencies_us`
    /// empty.
    fn hand_in(&self, k: usize, correct: u64, latencies_us: &mut Vec<f64>) {
        let mut slots = self
            .slots
            .lock()
            .expect("no client panics holding the window lock");
        let slot = &mut slots[k];
        slot.handed_in += 1;
        slot.correct += correct;
        slot.latencies_us.append(latencies_us);
        if slot.handed_in == self.clients {
            let mut all = std::mem::take(&mut slot.latencies_us);
            slot.window = Some(Window::of(self.len_s, slot.correct, &mut all));
        }
    }

    fn into_windows(self) -> Vec<Window> {
        let slots = self
            .slots
            .into_inner()
            .expect("no client panics holding the window lock");
        slots.into_iter().filter_map(|s| s.window).collect()
    }
}

/// What a drive measured, merged over clients.
#[derive(Default)]
struct Drive {
    windows: Vec<Window>,
    /// Every latency in µs per op class, kept only when asked for.
    per_class_us: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// How long a drive lasts and what it keeps.
struct Plan {
    seed: u64,
    /// Timed seconds in all, cut into [`SEGMENTS`] segments.
    seconds: f64,
    /// Keep every latency per class as well as per window.
    keep_all: bool,
}

/// A client with its own request stream and what it has measured.
struct Client<C> {
    id: usize,
    conn: C,
    rng: Rng,
    measured: Drive,
}

/// Drive one closed-loop client per element of `conns` for
/// `plan.seconds`, in [`SEGMENTS`] segments with `between` run alone
/// before each segment but the first. `next` draws a request with its
/// class index, `call` serves it (timed) and `check` judges the answer
/// (untimed).
fn drive<C: Send, Op, R>(
    conns: Vec<C>,
    plan: &Plan,
    mut between: impl FnMut() -> Result<(), String>,
    next: impl Fn(&mut Rng) -> (usize, Op) + Sync,
    call: impl Fn(&mut C, &Op) -> R + Sync,
    check: impl Fn(&Op, R) -> Result<(), String> + Sync,
) -> Result<Drive, String> {
    let mut clients: Vec<Client<C>> = conns
        .into_iter()
        .enumerate()
        .map(|(id, conn)| Client {
            id,
            conn,
            rng: Rng::new(plan.seed, 1 + id as u64),
            measured: Drive::default(),
        })
        .collect();
    let mut windows = Vec::new();
    for segment in 0..SEGMENTS {
        if segment > 0 {
            between()?;
        }
        let sink = WindowSink::new(plan.seconds / SEGMENTS as f64, clients.len());
        let barrier = Barrier::new(clients.len());
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(plan.seconds / SEGMENTS as f64);
        clients = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .map(|mut c| {
                    let (barrier, sink, next, call, check) =
                        (&barrier, &sink, &next, &call, &check);
                    scope.spawn(move || {
                        let (mut window, mut correct, mut latencies_us) = (0, 0, Vec::new());
                        barrier.wait();
                        while Instant::now() < deadline {
                            let (class, op) = next(&mut c.rng);
                            let t0 = Instant::now();
                            let answer = call(&mut c.conn, &op);
                            let end = Instant::now();
                            let latency_us = (end - t0).as_secs_f64() * 1e6;
                            let ok = match check(&op, answer) {
                                Ok(()) => true,
                                Err(e) => {
                                    c.measured.failed += 1;
                                    if c.measured.failures.len() < crate::FAILURES_SHOWN {
                                        c.measured.failures.push(format!("client {}: {e}", c.id));
                                    }
                                    false
                                }
                            };
                            c.measured.attempted += 1;
                            let k = sink.index((end - start).as_secs_f64());
                            while window < k {
                                sink.hand_in(
                                    window,
                                    std::mem::take(&mut correct),
                                    &mut latencies_us,
                                );
                                window += 1;
                            }
                            correct += u64::from(ok);
                            latencies_us.push(latency_us);
                            if plan.keep_all {
                                let per_class = &mut c.measured.per_class_us;
                                if per_class.len() <= class {
                                    per_class.resize(class + 1, Vec::new());
                                }
                                per_class[class].push(latency_us);
                            }
                        }
                        while window < sink.n {
                            sink.hand_in(window, std::mem::take(&mut correct), &mut latencies_us);
                            window += 1;
                        }
                        c
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        windows.extend(sink.into_windows());
    }
    let mut d = Drive {
        windows,
        ..Drive::default()
    };
    for c in clients {
        let mine = c.measured;
        d.attempted += mine.attempted;
        d.failed += mine.failed;
        d.failures.extend(mine.failures);
        if d.per_class_us.len() < mine.per_class_us.len() {
            d.per_class_us.resize(mine.per_class_us.len(), Vec::new());
        }
        for (all, class) in d.per_class_us.iter_mut().zip(mine.per_class_us) {
            all.extend(class);
        }
    }
    Ok(d)
}

fn write_trace(tracer: &Tracer, target: &TraceTarget) -> Result<(), String> {
    if let Some((meta, path)) = target {
        std::fs::write(path, tracer.to_json(meta))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// serve-kv
// ---------------------------------------------------------------------

/// Keys preloaded into the store: about 35 times the memtable.
const KV_KEYS: u64 = 20_000;
/// Bytes per value.
const KV_VALUE_BYTES: usize = 100;
/// Requests a traced run replays with a span each.
const KV_REPLAY: usize = 2_000;

/// The store tuning `KvLoadTarget` uses: a memtable small enough to
/// flush under load, compaction above four runs, 10-bit Bloom filters.
const KV_CONFIG: LsmConfig = LsmConfig {
    memtable_capacity_bytes: 64 << 10,
    max_runs: 4,
    bloom_bits_per_key: 10,
};

fn kv_key(i: u64) -> Vec<u8> {
    format!("user{i:08}").into_bytes()
}

/// The canonical value of key `i`: the only value it ever holds.
fn kv_value(i: u64) -> Vec<u8> {
    let mut v = format!("value-{i:08}-").into_bytes();
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while v.len() < KV_VALUE_BYTES {
        x = x.rotate_left(5) ^ 0x2545_F491_4F6C_DD1D;
        v.push(b'a' + (x % 26) as u8);
    }
    v
}

#[derive(Debug, Clone, Copy)]
enum KvOp {
    Get(u64),
    Put(u64),
    Scan { start: u64, len: u64 },
}

const KV_CLASSES: [&str; 3] = ["get", "put", "scan"];

fn kv_class(op: &KvOp) -> usize {
    match op {
        KvOp::Get(_) => 0,
        KvOp::Put(_) => 1,
        KvOp::Scan { .. } => 2,
    }
}

/// 70% get, 20% put, 10% scan of 8–31 entries, keys Zipf-popular.
fn kv_next(zipf: &ScrambledZipf, rng: &mut Rng) -> KvOp {
    let roll = rng.below(100);
    let key = zipf.sample(rng);
    match roll {
        0..=69 => KvOp::Get(key),
        70..=89 => KvOp::Put(key),
        _ => {
            let len = 8 + rng.below(24);
            KvOp::Scan {
                start: key.min(KV_KEYS - len),
                len,
            }
        }
    }
}

enum KvAnswer {
    Get(Option<Vec<u8>>),
    Put,
    Scan(Vec<(Vec<u8>, Vec<u8>)>),
}

fn kv_call(store: &mut SharedLsm, op: &KvOp) -> KvAnswer {
    match *op {
        KvOp::Get(k) => KvAnswer::Get(store.get(&kv_key(k))),
        KvOp::Put(k) => {
            store.put(kv_key(k), kv_value(k));
            KvAnswer::Put
        }
        KvOp::Scan { start, len } => KvAnswer::Scan(store.scan(&kv_key(start), None, len as usize)),
    }
}

fn kv_check(op: &KvOp, answer: KvAnswer) -> Result<(), String> {
    match (*op, answer) {
        (KvOp::Get(k), KvAnswer::Get(v)) => match v {
            Some(v) if v == kv_value(k) => Ok(()),
            Some(_) => Err(format!("get key {k}: wrong value")),
            None => Err(format!("get key {k}: missing")),
        },
        (KvOp::Put(_), KvAnswer::Put) => Ok(()),
        (KvOp::Scan { start, len }, KvAnswer::Scan(entries)) => {
            if entries.len() as u64 != len {
                return Err(format!("scan {start}+{len}: {} entries", entries.len()));
            }
            for (j, (k, v)) in entries.into_iter().enumerate() {
                let i = start + j as u64;
                if k != kv_key(i) || v != kv_value(i) {
                    return Err(format!(
                        "scan {start}+{len}: entry {j} is not key {i} with its value"
                    ));
                }
            }
            Ok(())
        }
        (op, _) => Err(format!("{op:?}: answer of another op class")),
    }
}

/// Every key once, in a seed-shuffled order.
fn kv_preload_order(seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..KV_KEYS).collect();
    let mut rng = Rng::new(seed, 0x9E10AD);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// A fresh store preloaded with the keys of `order`.
fn kv_preload(order: &[u64]) -> SharedLsm {
    let store = SharedLsm::with_config(KV_CONFIG);
    for &i in order {
        store.put(kv_key(i), kv_value(i));
    }
    store
}

fn ratio(n: u64, base: u64) -> f64 {
    n as f64 / base.max(1) as f64
}

fn kv_counters(out: &mut Outcome, before: KvStats, after: KvStats) {
    let reads = after.reads - before.reads;
    let probes = after.run_probes - before.run_probes;
    let skips = after.bloom_skips - before.bloom_skips;
    let writes = after.writes - before.writes;
    out.set(
        "kv.run_probes_per_get",
        ratio(probes, reads),
        reads as usize,
    );
    out.set(
        "kv.bloom_skip_ratio",
        ratio(skips, skips + probes),
        (skips + probes) as usize,
    );
    out.set(
        "kv.memtable_hit_ratio",
        ratio(after.memtable_hits - before.memtable_hits, reads),
        reads as usize,
    );
    out.set(
        "kv.flushes_per_kput",
        1e3 * ratio(after.flushes - before.flushes, writes),
        writes as usize,
    );
    out.set(
        "kv.compactions_per_kput",
        1e3 * ratio(after.compactions - before.compactions, writes),
        writes as usize,
    );
}

/// `serve-kv`: set-up is the preload; the drive is the timed part. A
/// traced run adds per-class latencies, store counter deltas and a
/// single-client replay with a span per request.
pub fn kv(seed: u64, seconds: f64, trace: TraceTarget) -> Result<Outcome, String> {
    let order = kv_preload_order(seed);
    let mut setup = Setup::measure(|| Ok(kv_preload(&order)))?;
    let store = setup.value.clone();
    let zipf = ScrambledZipf::new(KV_KEYS, ZIPF_S);
    let mut out = Outcome::default();
    let before = store.stats();
    let plan = Plan {
        seed,
        seconds,
        keep_all: trace.is_some(),
    };
    let d = drive(
        vec![store.clone(); THREADS],
        &plan,
        || setup.remeasure(|| Ok(kv_preload(&order))),
        |rng| {
            let op = kv_next(&zipf, rng);
            (kv_class(&op), op)
        },
        kv_call,
        kv_check,
    )?;
    let setup_s = setup.setup_s;
    if trace.is_none() {
        out.peak_rss()?;
        out.set_median("setup_s", &setup_s);
        out.windows(&d.windows);
        out.absorb(d.attempted, d.failed, d.failures);
        return Ok(out);
    }
    kv_counters(&mut out, before, store.stats());
    out.set_median("kv.preload_s", &setup_s);
    for (name, latencies_us) in KV_CLASSES.iter().zip(&d.per_class_us) {
        out.latencies(&format!("kv.{name}_"), latencies_us);
    }
    out.absorb(d.attempted, d.failed, d.failures);

    let mut tracer = Tracer::new();
    let mut rng = Rng::new(seed, 1);
    let mut client = store;
    for run in 0..KV_REPLAY as u64 {
        let op = kv_next(&zipf, &mut rng);
        let name = ["kv.get", "kv.put", "kv.scan"][kv_class(&op)];
        let answer = tracer.time(name, None, run, || kv_call(&mut client, &op));
        out.attempted += 1;
        if let Err(e) = kv_check(&op, answer) {
            out.fail(format!("replay: {e}"));
        }
    }
    write_trace(&tracer, &trace)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// serve-sql
// ---------------------------------------------------------------------

/// Rows of the `load(k INT, v TEXT)` table `bdbench load --engine sql`
/// serves.
const SQL_ROWS: u64 = 1_024;
/// Keys per range aggregate.
const SQL_RANGE: u64 = 32;
/// Statements a traced run replays through parse, plan and execute.
const SQL_REPLAY: usize = 400;

fn sql_value(k: u64) -> String {
    format!("val-{k:06}")
}

fn sql_table() -> Table {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Text),
    ]);
    let mut table = Table::new(schema);
    for k in 0..SQL_ROWS {
        table.push_unchecked(vec![Value::Int(k as i64), Value::from(sql_value(k))]);
    }
    table
}

#[derive(Debug, Clone)]
enum SqlOp {
    Point { k: u64, text: String },
    Range { a: u64, text: String },
}

impl SqlOp {
    fn text(&self) -> &str {
        match self {
            SqlOp::Point { text, .. } | SqlOp::Range { text, .. } => text,
        }
    }
}

const SQL_CLASSES: [&str; 2] = ["point", "range"];

fn sql_class(op: &SqlOp) -> usize {
    match op {
        SqlOp::Point { .. } => 0,
        SqlOp::Range { .. } => 1,
    }
}

/// 90% point selects of a Zipf-popular key, 10% 32-key range
/// aggregates at a uniform start.
fn sql_next(zipf: &ScrambledZipf, rng: &mut Rng) -> SqlOp {
    if rng.below(100) < 90 {
        let k = zipf.sample(rng);
        SqlOp::Point {
            k,
            text: format!("SELECT v FROM load WHERE k = {k}"),
        }
    } else {
        let a = rng.below(SQL_ROWS - SQL_RANGE + 1);
        let b = a + SQL_RANGE;
        SqlOp::Range {
            a,
            text: format!("SELECT COUNT(*), SUM(k) FROM load WHERE k >= {a} AND k < {b}"),
        }
    }
}

fn sql_check(op: &SqlOp, answer: bdb_common::Result<Table>) -> Result<(), String> {
    let table = answer.map_err(|e| format!("{}: {e}", op.text()))?;
    let ok = match (op, table.rows()) {
        (SqlOp::Point { k, .. }, [row]) => {
            row.len() == 1 && row[0].as_str() == Some(sql_value(*k).as_str())
        }
        (SqlOp::Range { a, .. }, [row]) => {
            let sum = SQL_RANGE * a + SQL_RANGE * (SQL_RANGE - 1) / 2;
            row.len() == 2
                && row[0].as_f64() == Some(SQL_RANGE as f64)
                && row[1].as_f64() == Some(sum as f64)
        }
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{}: wrong answer {:?}", op.text(), table.rows()))
    }
}

/// One engine per client, each over its own copy of the table; adds the
/// time of each `Engine::register` to `register_s`.
fn sql_engines(register_s: &mut Vec<f64>) -> Result<Vec<Engine>, String> {
    let table = sql_table();
    (0..THREADS)
        .map(|_| {
            let mut engine = Engine::new();
            let copy = table.clone();
            let t0 = Instant::now();
            engine
                .register("load", copy)
                .map_err(|e| format!("register load: {e}"))?;
            register_s.push(t0.elapsed().as_secs_f64());
            Ok(engine)
        })
        .collect()
}

/// `serve-sql`: set-up builds the table and registers it with each
/// client's engine; the drive is the timed part. A traced run adds
/// per-class latencies and a replay through the engine's parse, plan and
/// execute steps with a span each.
pub fn sql(seed: u64, seconds: f64, trace: TraceTarget) -> Result<Outcome, String> {
    let mut register_s = Vec::new();
    let mut setup = Setup::measure(|| sql_engines(&mut register_s))?;
    let engines = std::mem::take(&mut setup.value);
    let zipf = ScrambledZipf::new(SQL_ROWS, ZIPF_S);
    let mut out = Outcome::default();
    let plan = Plan {
        seed,
        seconds,
        keep_all: trace.is_some(),
    };
    let d = drive(
        engines,
        &plan,
        || setup.remeasure(|| sql_engines(&mut register_s)),
        |rng| {
            let op = sql_next(&zipf, rng);
            (sql_class(&op), op)
        },
        |engine: &mut Engine, op: &SqlOp| engine.sql(op.text()),
        sql_check,
    )?;
    let setup_s = setup.setup_s;
    if trace.is_none() {
        out.peak_rss()?;
        out.set_median("setup_s", &setup_s);
        out.windows(&d.windows);
        out.absorb(d.attempted, d.failed, d.failures);
        return Ok(out);
    }
    out.set_median("sql.register_s", &register_s);
    for (name, latencies_us) in SQL_CLASSES.iter().zip(&d.per_class_us) {
        out.latencies(&format!("sql.{name}_"), latencies_us);
    }
    out.absorb(d.attempted, d.failed, d.failures);

    let mut engine = Engine::new();
    engine
        .register("load", sql_table())
        .map_err(|e| format!("register load: {e}"))?;
    let mut tracer = Tracer::new();
    let mut steps = Samples::default();
    let mut rng = Rng::new(seed, 1);
    for run in 0..SQL_REPLAY as u64 {
        let op = sql_next(&zipf, &mut rng);
        let root = tracer.begin("sql.statement", None, run);
        let parsed = tracer.time("sql.parse", Some(root), run, || parser::parse(op.text()));
        let planned = tracer.time("sql.plan_with_cost", Some(root), run, || {
            engine.plan_with_cost(op.text())
        });
        let mut executor = Executor::new(engine.catalog());
        let answer = match (parsed, planned) {
            (Ok(_), Ok((plan, _))) => {
                tracer.time("sql.exec", Some(root), run, || executor.run(&plan))
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        tracer.end(root);
        let rows_out = answer.as_ref().map_or(0, Table::len);
        out.attempted += 1;
        if let Err(e) = sql_check(&op, answer) {
            out.fail(format!("replay: {e}"));
            continue;
        }
        let totals = tracer.run_totals(run);
        let span_us = |name: &str| totals.get(name).copied().unwrap_or(0.0) * 1e6;
        steps.add("sql.parse_us", span_us("sql.parse"));
        steps.add(
            "sql.plan_us",
            span_us("sql.plan_with_cost") - span_us("sql.parse"),
        );
        steps.add("sql.exec_us", span_us("sql.exec"));
        let scanned = executor.stats().rows_scanned as f64 / rows_out as f64;
        steps.add(
            &format!("sql.{}_rows_scanned_per_row", SQL_CLASSES[sql_class(&op)]),
            scanned,
        );
    }
    out.set_medians(&steps);
    write_trace(&tracer, &trace)?;
    Ok(out)
}
