//! Concurrent load driver: N client sessions, each one op at a time.
//!
//! The paper's velocity axis ("heavy traffic from millions of users")
//! needs engines measured under *sustained concurrent traffic*, not
//! one-shot sequential cells. This module drives point ops against the
//! registered engine substrates with two generator disciplines:
//!
//! * **Closed loop** — `clients` sessions each keep one operation
//!   outstanding; the arrival rate emerges from service time. Workers
//!   claim ops one at a time from a shared cursor, so the set of issued
//!   operations is always a prefix of the deterministic schedule — the
//!   issued-op digest is identical for 1 client and 8.
//! * **Open loop** — arrival instants come from the seeded arrival
//!   processes of [`bdb_testgen::arrival`] (Poisson or uniform). A pacer
//!   thread walks the schedule on the wall clock and admits each op into
//!   a bounded queue; when the queue is full the op is **shed** (counted,
//!   never blocking the arrival clock). Latency is measured from the
//!   *intended arrival instant*, not dispatch, so queueing delay is
//!   charged to the engine — the coordinated-omission discipline.
//!
//! Per-lane latencies land in thread-local histograms, one per
//! [`OpClass`], merged class by class at quiesce
//! ([`bdb_common::histogram::Histogram::merge`] /
//! [`LogHistogram::merge`](bdb_common::histogram::LogHistogram::merge)),
//! reporting p50/p99/p999 and saturation throughput per engine. A sampled
//! subset of op results is compared against a pure oracle through
//! [`OutputPayload`] diffing and recorded as `ConformanceChecked` trace
//! events — concurrency must not change answers.
//!
//! Every drive draws its schedule from an [`OpMix`]: [`build_schedule`]
//! sizes the default mix from a [`LoadProfile`], [`drive_ycsb`] runs the
//! YCSB core mixes for an explicit op count, and [`drive_hybrid`] runs the
//! Section 5.2 "truly hybrid workload" (LSM point ops interleaved with
//! `bdb_sql` analytics).
//!
//! # Chaos under load
//!
//! [`run_load_resilient`] drives the same schedules with an active
//! [`Resilience`]: every op gets its own injector seeded by
//! `mix(seed ^ index)`, so its fault/retry outcome is a pure function of
//! `(seed, index)` — identical counts at any concurrency. Ops that
//! exhaust recovery (or hit a `crash@` kill point, which is terminal
//! per-op) count as **failed**, extending conservation to
//! `issued == completed + shed + failed`. In open-loop drives the pacer
//! additionally runs the serving-side protection in schedule order:
//!
//! * **circuit breaker** — each arrival is admitted through the target
//!   engine's [`HealthStore`] breaker and its *planned* outcome (the
//!   same pure function the lanes will execute) is recorded, so breaker
//!   trips and recoveries form one deterministic sequence; denied
//!   arrivals are shed.
//! * **adaptive brownout** — sustained queue overload or a half-open
//!   breaker builds a pressure counter; past the grace threshold a
//!   proportional, seed-deterministic fraction of arrivals is shed
//!   before dispatch and the episode is traced
//!   (`brownout_engaged`/`brownout_released`).
//!
//! Both mechanisms engage only when the drive carries an active fault
//! plan: passive drives take the historical byte-identical path. With a
//! per-op deadline the *actual* fail/complete split becomes
//! timing-dependent (reports stay truthful; only the breaker feed keeps
//! using planned outcomes), so deterministic chaos suites avoid
//! deadlines.

use crate::engine::EngineRegistry;
use crate::fault::{
    run_with_recovery, FaultInjector, FaultKind, FaultPlan, FaultSite, Resilience, RetryPolicy,
};
use crate::health::{BreakerState, HealthStore};
use crate::trace::{RunTrace, TraceEvent};
use bdb_common::dist::{Distribution, Zipf};
use bdb_common::event::Event;
use bdb_common::histogram::{Histogram, LogHistogram};
use bdb_common::rng::{Rng, SeedTree, SplitMix64};
use bdb_common::value::{DataType, Field, Schema, Value};
use bdb_common::{pool, record::Table, BdbError, Result};
use bdb_kv::{LsmConfig, SharedLsm};
use bdb_metrics::{OpCounts, ShardedCounter, UserMetrics};
use bdb_testgen::arrival::{self, ArrivalProcess, ArrivalSpec};
use bdb_workloads::{behavioral, relational, OutputPayload, WorkloadCategory, WorkloadResult};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Keys in every target's preloaded working set.
pub const KEYSPACE: u64 = 1024;

/// Open-loop admission queue slots per client when
/// [`LoadProfile::queue_capacity`] is unset.
pub const DEFAULT_QUEUE_PER_CLIENT: usize = 8;

/// How ops are admitted to the engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadArrival {
    /// Closed loop: concurrency fixed at `clients`, rate emerges from
    /// service time.
    Closed,
    /// Open loop, exponential inter-arrival gaps (Poisson process).
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// Open loop, constant inter-arrival gaps.
    Uniform {
        /// Arrivals per second.
        rate_per_sec: f64,
    },
}

impl LoadArrival {
    /// True for the open-loop disciplines.
    pub fn is_open(&self) -> bool {
        !matches!(self, LoadArrival::Closed)
    }
}

impl std::fmt::Display for LoadArrival {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadArrival::Closed => write!(f, "closed"),
            LoadArrival::Poisson { rate_per_sec } => write!(f, "poisson:{rate_per_sec}"),
            LoadArrival::Uniform { rate_per_sec } => write!(f, "uniform:{rate_per_sec}"),
        }
    }
}

impl std::str::FromStr for LoadArrival {
    type Err = BdbError;

    /// Parse `closed`, `poisson:RATE` or `uniform:RATE`.
    fn from_str(s: &str) -> Result<Self> {
        if s == "closed" {
            return Ok(LoadArrival::Closed);
        }
        let (kind, rate) = s
            .split_once(':')
            .ok_or_else(|| BdbError::InvalidConfig(format!("bad arrival spec '{s}'")))?;
        let rate_per_sec: f64 = rate
            .parse()
            .map_err(|_| BdbError::InvalidConfig(format!("bad arrival rate '{rate}'")))?;
        if !(rate_per_sec > 0.0 && rate_per_sec.is_finite()) {
            return Err(BdbError::InvalidConfig(format!(
                "arrival rate must be positive, got {rate_per_sec}"
            )));
        }
        match kind {
            "poisson" => Ok(LoadArrival::Poisson { rate_per_sec }),
            "uniform" => Ok(LoadArrival::Uniform { rate_per_sec }),
            other => Err(BdbError::InvalidConfig(format!(
                "unknown arrival process '{other}' (closed|poisson:RATE|uniform:RATE)"
            ))),
        }
    }
}

/// Configuration of one load run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Concurrent client sessions per engine.
    pub clients: usize,
    /// Run length used to size the op schedule, milliseconds.
    pub duration_ms: u64,
    /// Arrival discipline.
    pub arrival: LoadArrival,
    /// Bounded admission queue capacity for open-loop runs; `None`
    /// defaults to [`DEFAULT_QUEUE_PER_CLIENT`] slots per client.
    pub queue_capacity: Option<usize>,
    /// Run every `sample_every`-th op's result through the conformance
    /// oracle.
    pub sample_every: usize,
    /// Restrict the run to these engines (`None` = all load targets the
    /// registry supports).
    pub engines: Option<Vec<String>>,
}

impl Default for LoadProfile {
    fn default() -> Self {
        Self {
            clients: 4,
            duration_ms: 2000,
            arrival: LoadArrival::Closed,
            queue_capacity: None,
            sample_every: 16,
            engines: None,
        }
    }
}

impl LoadProfile {
    /// Check the profile for nonsense values.
    ///
    /// # Errors
    /// Fails on zero clients/sample rate or an empty duration.
    pub fn validate(&self) -> Result<()> {
        if self.clients == 0 {
            return Err(BdbError::InvalidConfig("load profile needs at least 1 client".into()));
        }
        if self.duration_ms == 0 {
            return Err(BdbError::InvalidConfig("load duration must be > 0 ms".into()));
        }
        if self.sample_every == 0 {
            return Err(BdbError::InvalidConfig("sample_every must be >= 1".into()));
        }
        if self.queue_capacity == Some(0) {
            return Err(BdbError::InvalidConfig("queue capacity must be >= 1".into()));
        }
        Ok(())
    }

    /// The open-loop admission queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.queue_capacity.unwrap_or(self.clients * DEFAULT_QUEUE_PER_CLIENT)
    }
}

/// One logical operation of the load schedule.
///
/// Operations are *interleaving-independent* by construction: every
/// value is a pure function of its key, the working set is preloaded with
/// those values, puts and read-modify-writes rewrite the same value,
/// inserts add keys past the preloaded range, and gets and scans address
/// only preloaded keys — so any execution order yields the same answers
/// and sampled results can be checked against a pure oracle even under
/// maximal concurrency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOp {
    /// Point read of `key`.
    Get {
        /// Preloaded key index.
        key: u64,
    },
    /// Rewrite of `key` with its canonical value.
    Put {
        /// Preloaded key index.
        key: u64,
    },
    /// Write of a new key; ids are fixed when the schedule is drawn
    /// (records + insert ordinal).
    Insert {
        /// Key index past the preloaded range.
        key: u64,
    },
    /// Range read of up to `len` preloaded keys from `start`.
    Scan {
        /// First key index.
        start: u64,
        /// Maximum entries returned.
        len: u64,
    },
    /// Read `key`, then rewrite it with its canonical value.
    Rmw {
        /// Preloaded key index.
        key: u64,
    },
}

impl LoadOp {
    /// The op's class.
    pub fn class(&self) -> OpClass {
        match self {
            LoadOp::Get { .. } => OpClass::Get,
            LoadOp::Put { .. } => OpClass::Put,
            LoadOp::Scan { .. } => OpClass::Scan,
            LoadOp::Insert { .. } => OpClass::Insert,
            LoadOp::Rmw { .. } => OpClass::Rmw,
        }
    }

    /// The op's key: the point key, or a scan's first key.
    fn key(&self) -> u64 {
        match *self {
            LoadOp::Get { key }
            | LoadOp::Put { key }
            | LoadOp::Insert { key }
            | LoadOp::Rmw { key }
            | LoadOp::Scan { start: key, .. } => key,
        }
    }
}

/// The operation classes of an [`OpMix`], in draw order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Point reads.
    Get,
    /// Overwrites of preloaded keys.
    Put,
    /// Short range reads.
    Scan,
    /// Writes of new keys.
    Insert,
    /// Read-modify-writes.
    Rmw,
}

impl OpClass {
    /// Every class, in draw order (the index of a class is `class as usize`).
    const ALL: [OpClass; 5] =
        [OpClass::Get, OpClass::Put, OpClass::Scan, OpClass::Insert, OpClass::Rmw];
}

/// A weighted operation mix over a preloaded, Zipf-skewed keyspace: the
/// one workload abstraction every load drive draws its schedule from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of point reads.
    pub get: f64,
    /// Fraction of overwrites of preloaded keys.
    pub put: f64,
    /// Fraction of inserts of new keys.
    pub insert: f64,
    /// Fraction of short range scans.
    pub scan: f64,
    /// Fraction of read-modify-writes.
    pub rmw: f64,
    /// Zipf exponent of the key-popularity curve.
    pub zipf: f64,
    /// Keys preloaded before the drive (`[0, records)`).
    pub records: u64,
    /// Scan lengths, drawn uniformly from the half-open range `[lo, hi)`.
    pub scan_len: (u64, u64),
}

impl OpMix {
    /// The `bdbench load` mix: 70% gets, 20% puts, 10% scans of 8–31
    /// keys over [`KEYSPACE`] keys with Zipf(0.99) popularity (the YCSB
    /// default skew).
    pub const DEFAULT: OpMix = OpMix {
        get: 0.7,
        put: 0.2,
        insert: 0.0,
        scan: 0.1,
        rmw: 0.0,
        zipf: 0.99,
        records: KEYSPACE,
        scan_len: (8, 32),
    };
    /// YCSB workload A: update heavy (50/50 read/update).
    pub const YCSB_A: OpMix = OpMix::ycsb(0.5, 0.5, 0.0, 0.0, 0.0);
    /// YCSB workload B: read mostly (95/5 read/update).
    pub const YCSB_B: OpMix = OpMix::ycsb(0.95, 0.05, 0.0, 0.0, 0.0);
    /// YCSB workload C: read only.
    pub const YCSB_C: OpMix = OpMix::ycsb(1.0, 0.0, 0.0, 0.0, 0.0);
    /// YCSB workload D: 95% reads / 5% inserts.
    pub const YCSB_D: OpMix = OpMix::ycsb(0.95, 0.0, 0.05, 0.0, 0.0);
    /// YCSB workload E: short ranges (95% scans of 1–100 keys / 5% inserts).
    pub const YCSB_E: OpMix = OpMix::ycsb(0.0, 0.0, 0.05, 0.95, 0.0);
    /// YCSB workload F: 50% reads / 50% read-modify-writes.
    pub const YCSB_F: OpMix = OpMix::ycsb(0.5, 0.0, 0.0, 0.0, 0.5);

    const fn ycsb(get: f64, put: f64, insert: f64, scan: f64, rmw: f64) -> OpMix {
        OpMix { get, put, insert, scan, rmw, zipf: 0.99, records: KEYSPACE, scan_len: (1, 101) }
    }

    /// The YCSB preset this mix is, at any record count (`"A"`..`"F"`),
    /// or `"prescribed"` for any other mix.
    fn ycsb_label(&self) -> &'static str {
        [
            ("A", Self::YCSB_A),
            ("B", Self::YCSB_B),
            ("C", Self::YCSB_C),
            ("D", Self::YCSB_D),
            ("E", Self::YCSB_E),
            ("F", Self::YCSB_F),
        ]
        .into_iter()
        .find(|(_, preset)| OpMix { records: self.records, ..*preset } == *self)
        .map_or("prescribed", |(label, _)| label)
    }

    fn fractions(&self) -> [f64; 5] {
        [self.get, self.put, self.scan, self.insert, self.rmw]
    }

    /// Check the mix.
    ///
    /// # Errors
    /// Fails unless the fractions are non-negative and sum to 1, there is
    /// at least one record, the Zipf exponent is positive, and a mix with
    /// scans has a non-empty scan-length range.
    fn validate(&self) -> Result<()> {
        let fractions = self.fractions();
        let total: f64 = fractions.iter().sum();
        // Written so NaN fields fail too.
        let valid = fractions.iter().all(|f| *f >= 0.0)
            && (total - 1.0).abs() < 1e-9
            && self.records > 0
            && self.zipf > 0.0
            && self.zipf.is_finite()
            && (self.scan == 0.0 || self.scan_len.0 < self.scan_len.1);
        if valid {
            Ok(())
        } else {
            Err(BdbError::InvalidConfig(format!(
                "invalid op mix {self:?}: fractions must be non-negative and sum to 1, with \
                 records > 0, a positive Zipf exponent and non-empty scan lengths"
            )))
        }
    }

    /// The class a uniform draw `sel` in `[0, 1)` selects: classes take
    /// consecutive slices of the unit interval in [`OpClass::ALL`] order.
    fn class_at(&self, sel: f64) -> OpClass {
        let mut acc = 0.0;
        let mut last = OpClass::Get;
        for (class, frac) in OpClass::ALL.into_iter().zip(self.fractions()) {
            if frac > 0.0 {
                acc += frac;
                last = class;
                if sel < acc {
                    return class;
                }
            }
        }
        last
    }

    /// A closed-loop schedule of `ops` operations (every arrival at 0).
    ///
    /// # Errors
    /// Fails when the mix is invalid.
    pub fn schedule(&self, ops: usize, seed: u64) -> Result<Vec<ScheduledOp>> {
        self.draw(vec![0.0; ops], seed)
    }

    /// Draw one op per arrival instant from the seed's `loadgen` stream.
    fn draw(&self, arrivals: Vec<f64>, seed: u64) -> Result<Vec<ScheduledOp>> {
        self.validate()?;
        let mut rng = SeedTree::new(seed).child_named("loadgen").rng();
        let zipf = Zipf::new(self.records, self.zipf);
        let mut next_insert = self.records;
        let mut out = Vec::with_capacity(arrivals.len());
        for at_ms in arrivals {
            let op = match self.class_at(rng.next_f64()) {
                OpClass::Get => LoadOp::Get { key: zipf.sample(&mut rng) },
                OpClass::Put => LoadOp::Put { key: zipf.sample(&mut rng) },
                OpClass::Insert => {
                    next_insert += 1;
                    LoadOp::Insert { key: next_insert - 1 }
                }
                OpClass::Scan => {
                    let start = rng.next_bounded(self.records);
                    let (lo, hi) = self.scan_len;
                    LoadOp::Scan { start, len: lo + rng.next_bounded(hi - lo) }
                }
                OpClass::Rmw => LoadOp::Rmw { key: zipf.sample(&mut rng) },
            };
            out.push(ScheduledOp { at_ms, op });
        }
        Ok(out)
    }
}

/// One schedule entry: the op plus its intended arrival instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    /// Intended arrival, milliseconds from run start (0 for closed loop).
    pub at_ms: f64,
    /// The operation.
    pub op: LoadOp,
}

/// Canonical key string for index `i`: fixed width, so lexicographic
/// order is numeric order.
pub fn key_of(i: u64) -> String {
    format!("k{i:010}")
}

/// Canonical value string for key index `i`.
pub fn value_of(i: u64) -> String {
    format!("val-{i:06}")
}

/// Build the deterministic op schedule of [`OpMix::DEFAULT`] for a
/// profile and seed.
///
/// The schedule depends only on `(seed, arrival, duration_ms)` — not on
/// client or worker counts — so the issued-op digest is stable across
/// any concurrency level.
///
/// # Errors
/// Fails when the profile is invalid.
pub fn build_schedule(profile: &LoadProfile, seed: u64) -> Result<Vec<ScheduledOp>> {
    profile.validate()?;
    let open = |rate_per_sec: f64, process| {
        let n = ((rate_per_sec * profile.duration_ms as f64 / 1000.0).round() as usize).max(1);
        arrival::schedule(&ArrivalSpec::Open { rate_per_sec, process }, n, seed)
    };
    let arrivals = match profile.arrival {
        // Closed loop has no arrival clock: duration sizes the schedule
        // (drained as fast as the engine allows).
        LoadArrival::Closed => {
            vec![0.0; profile.duration_ms.saturating_mul(32).clamp(256, 200_000) as usize]
        }
        LoadArrival::Poisson { rate_per_sec } => open(rate_per_sec, ArrivalProcess::Poisson)?,
        LoadArrival::Uniform { rate_per_sec } => open(rate_per_sec, ArrivalProcess::Uniform)?,
    };
    OpMix::DEFAULT.draw(arrivals, seed)
}

/// FNV-1a digest over the issued ops in schedule order — the
/// concurrency-independence witness (`--clients 1` and `--clients 8`
/// with one seed print the same digest).
pub fn issued_digest(schedule: &[ScheduledOp]) -> String {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |b: u64| {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for s in schedule {
        // Tag (1-based class index), key, and a scan's length.
        eat(s.op.class() as u64 + 1);
        eat(s.op.key());
        if let LoadOp::Scan { len, .. } = s.op {
            eat(len);
        }
    }
    format!("0x{h:016x}")
}

/// One engine substrate the load driver can target.
///
/// A target owns the shared preloaded state; each worker thread opens its
/// own [`LoadSession`] against it, and [`expected`](Self::expected) is
/// the pure oracle the sampled results are checked against.
pub trait LoadTarget: Send + Sync {
    /// Engine name ("kv", "sql", "native").
    fn name(&self) -> &'static str;
    /// Open one per-worker session.
    fn session(&self) -> Box<dyn LoadSession + '_>;
    /// The oracle: what any correct execution of `op` must return.
    fn expected(&self, op: &LoadOp) -> String;
}

/// One client session: executes ops, returning a compact outcome string.
pub trait LoadSession {
    /// Execute one op.
    fn execute(&mut self, op: &LoadOp) -> String;
}

/// KV target: a [`SharedLsm`] preloaded with `records` keys, each holding
/// its canonical value. The default store is sized so a load run keeps
/// flushing (reads run concurrently under the store's read lock while
/// flushes take the write lock).
#[derive(Debug)]
pub struct KvLoadTarget {
    store: SharedLsm,
    records: u64,
    value_size: usize,
}

impl KvLoadTarget {
    /// The full keyspace in a store with a memtable small enough to flush
    /// under load.
    pub fn new() -> Self {
        Self::with_config(LsmConfig {
            memtable_capacity_bytes: 64 << 10,
            max_runs: 4,
            bloom_bits_per_key: 10,
        })
    }

    /// The full keyspace in a store with explicit tuning.
    pub fn with_config(config: LsmConfig) -> Self {
        Self::preloaded(config, KEYSPACE, 0)
    }

    /// `records` keys whose values are padded to `value_size` bytes.
    fn preloaded(config: LsmConfig, records: u64, value_size: usize) -> Self {
        let target = Self { store: SharedLsm::with_config(config), records, value_size };
        for i in 0..records {
            target.store.put(key_of(i).into_bytes(), target.value(i));
        }
        target
    }

    /// The canonical value of key `i`: [`value_of`] padded to the value
    /// size.
    fn value(&self, i: u64) -> Vec<u8> {
        let mut v = value_of(i).into_bytes();
        v.resize(v.len().max(self.value_size), b'.');
        v
    }

    /// The underlying store (for stats in tests and reports).
    pub fn store(&self) -> &SharedLsm {
        &self.store
    }
}

impl Default for KvLoadTarget {
    fn default() -> Self {
        Self::new()
    }
}

/// A kv session is a shared borrow of the target: the store serialises
/// its own writers.
impl LoadSession for &KvLoadTarget {
    fn execute(&mut self, op: &LoadOp) -> String {
        let t: &KvLoadTarget = self;
        let read = |key: u64| {
            t.store
                .get(key_of(key).as_bytes())
                .map_or_else(|| "miss".to_string(), |v| String::from_utf8_lossy(&v).into_owned())
        };
        let write = |key: u64| t.store.put(key_of(key).into_bytes(), t.value(key));
        match *op {
            LoadOp::Get { key } => read(key),
            LoadOp::Put { key } | LoadOp::Insert { key } => {
                write(key);
                "ok".to_string()
            }
            LoadOp::Rmw { key } => {
                let value = read(key);
                write(key);
                value
            }
            LoadOp::Scan { start, len } => {
                // Bounded to the preloaded keys, so concurrent inserts
                // never change the answer.
                let end = key_of(t.records);
                let n = t.store.scan(key_of(start).as_bytes(), Some(end.as_bytes()), len as usize);
                format!("scan:{}", n.len())
            }
        }
    }
}

impl LoadTarget for KvLoadTarget {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(self)
    }

    fn expected(&self, op: &LoadOp) -> String {
        match *op {
            // Every read key is preloaded and writes rewrite the same value.
            LoadOp::Get { key } | LoadOp::Rmw { key } => {
                String::from_utf8_lossy(&self.value(key)).into_owned()
            }
            LoadOp::Put { .. } | LoadOp::Insert { .. } => "ok".to_string(),
            // Preloaded keys are contiguous and never deleted.
            LoadOp::Scan { start, len } => format!("scan:{}", len.min(self.records - start)),
        }
    }
}

/// SQL target: a `load(k INT, v TEXT)` table of the full keyspace; every
/// session gets its own engine over a clone of the table (the engine
/// API is `&mut`, so sessions do not share parser state). Reads only —
/// writes and scans map to point selects of the same key.
#[derive(Debug)]
pub struct SqlLoadTarget {
    table: Table,
}

impl SqlLoadTarget {
    /// Build the preloaded table.
    pub fn new() -> Self {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Text),
        ]);
        let mut table = Table::new(schema);
        for i in 0..KEYSPACE {
            table.push_unchecked(vec![Value::Int(i as i64), Value::from(value_of(i))]);
        }
        Self { table }
    }
}

impl Default for SqlLoadTarget {
    fn default() -> Self {
        Self::new()
    }
}

struct SqlSession {
    engine: bdb_sql::Engine,
}

impl SqlSession {
    fn select(&mut self, key: u64) -> String {
        match self.engine.sql(&format!("SELECT v FROM load WHERE k = {key}")) {
            Ok(t) => t
                .rows()
                .first()
                .and_then(|r| r.first())
                .map_or_else(|| "miss".to_string(), ToString::to_string),
            Err(e) => format!("error:{e}"),
        }
    }
}

impl LoadSession for SqlSession {
    fn execute(&mut self, op: &LoadOp) -> String {
        self.select(op.key())
    }
}

impl LoadTarget for SqlLoadTarget {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn session(&self) -> Box<dyn LoadSession + '_> {
        let mut engine = bdb_sql::Engine::new();
        engine
            .register("load", self.table.clone())
            .expect("load table registers");
        Box::new(SqlSession { engine })
    }

    fn expected(&self, op: &LoadOp) -> String {
        value_of(op.key())
    }
}

/// Native target: pure in-process compute (a keyed hash chain), the
/// function-layer baseline with no storage behind it.
#[derive(Debug, Default)]
pub struct NativeLoadTarget;

fn mix(mut x: u64) -> u64 {
    // splitmix64 finaliser, iterated to give the op measurable weight.
    for _ in 0..32 {
        x = x.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
    }
    x
}

fn native_outcome(op: &LoadOp) -> String {
    match *op {
        LoadOp::Get { key } => format!("h:{:016x}", mix(key)),
        LoadOp::Scan { start, len } => {
            let sum = (start..start + len).fold(0u64, |acc, i| acc.wrapping_add(mix(i)));
            format!("s:{sum:016x}")
        }
        // Writes of every kind.
        _ => format!("h:{:016x}", mix(op.key() ^ 0xdead_beef)),
    }
}

struct NativeSession;

impl LoadSession for NativeSession {
    fn execute(&mut self, op: &LoadOp) -> String {
        native_outcome(op)
    }
}

impl LoadTarget for NativeLoadTarget {
    fn name(&self) -> &'static str {
        "native"
    }

    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(NativeSession)
    }

    fn expected(&self, op: &LoadOp) -> String {
        native_outcome(op)
    }
}

/// Events per synthetic clickstream in the streaming target.
const STREAM_EVENTS_PER_KEY: u64 = 48;
/// Session gap of the streaming target's sessionize kernel, ms.
const STREAM_GAP_MS: u64 = 1_000;

/// The synthetic clickstream named by `key`: a pure function of the key,
/// deliberately unsorted (the kernel must sort), so every session and the
/// oracle derive the same stream without shared state.
fn stream_events(key: u64) -> Vec<Event> {
    (0..STREAM_EVENTS_PER_KEY)
        .map(|i| {
            let h = mix(key.wrapping_mul(STREAM_EVENTS_PER_KEY).wrapping_add(i));
            Event::new(h % 60_000, key, (h >> 32 & 0x7) as f64)
        })
        .collect()
}

/// Independent oracle: sessions of `key`'s stream by a naive sorted gap
/// walk (no shared code with the streaming kernel).
fn naive_sessions(key: u64) -> u64 {
    let mut ts: Vec<u64> = stream_events(key).iter().map(|e| e.ts_ms).collect();
    ts.sort_unstable();
    1 + ts.windows(2).filter(|w| w[1] - w[0] > STREAM_GAP_MS).count() as u64
}

/// Streaming target: every op runs the sessionize kernel over a synthetic
/// per-key clickstream — gets and puts sessionize one stream, scans fold
/// session counts over a key range. This puts the behavioral operation
/// class under the same concurrency and tail-latency discipline as the
/// storage engines.
#[derive(Debug, Default)]
pub struct StreamingLoadTarget;

struct StreamingSession;

fn sessionize_of(key: u64) -> u64 {
    let spec = behavioral::BehavioralSpec::Sessionize { gap_ms: STREAM_GAP_MS };
    let out = behavioral::run_behavioral(&stream_events(key), &spec);
    out.rows
        .first()
        .and_then(|r| r.get(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A streaming op's answer, with `sessions` counting one key's sessions:
/// scans fold the count over a key range, other ops take one key's.
fn streaming_outcome(op: &LoadOp, sessions: fn(u64) -> u64) -> String {
    match *op {
        LoadOp::Scan { start, len } => {
            let sum: u64 = (start..(start + len).min(KEYSPACE)).map(sessions).sum();
            format!("sessions-sum:{sum}")
        }
        _ => format!("sessions:{}", sessions(op.key())),
    }
}

impl LoadSession for StreamingSession {
    fn execute(&mut self, op: &LoadOp) -> String {
        streaming_outcome(op, sessionize_of)
    }
}

impl LoadTarget for StreamingLoadTarget {
    fn name(&self) -> &'static str {
        "streaming"
    }

    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(StreamingSession)
    }

    fn expected(&self, op: &LoadOp) -> String {
        streaming_outcome(op, naive_sessions)
    }
}

/// The analytics query of the hybrid target: top pages by ad revenue.
const HYBRID_QUERY: &str = "SELECT dest_page, SUM(ad_revenue) AS r FROM uservisits \
                            GROUP BY dest_page ORDER BY r DESC LIMIT 5";

/// Hybrid target (Section 5.2): gets and writes run on a preloaded
/// [`KvLoadTarget`]; scans are the analytics class and run the
/// `uservisits` revenue aggregate on `bdb_sql`.
#[derive(Debug)]
struct HybridLoadTarget {
    kv: KvLoadTarget,
    table: Table,
    /// The aggregate's answer on a quiescent engine: the oracle every
    /// analytics op under load must reproduce.
    answer: String,
    /// Record ops one aggregate performs on that engine (rows scanned and
    /// produced, group and sort work); the query is deterministic, so
    /// every run of it costs the same.
    query_ops: u64,
}

impl HybridLoadTarget {
    /// `records` preloaded 64-byte kv records beside a `records`-row
    /// `uservisits` table generated from `seed`.
    fn new(records: u64, seed: u64) -> Self {
        let mut target = Self {
            kv: KvLoadTarget::preloaded(LsmConfig::default(), records, RECORD_VALUE_SIZE),
            table: relational::uservisits_generator(1000).generate_shard(seed, 0, records),
            answer: String::new(),
            query_ops: 0,
        };
        let mut session = target.open();
        let answer = session.aggregate();
        let query_ops = session.engine.stats().total_ops();
        (target.answer, target.query_ops) = (answer, query_ops);
        target
    }

    fn open(&self) -> HybridSession<'_> {
        let mut engine = bdb_sql::Engine::new();
        engine
            .register("uservisits", self.table.clone())
            .expect("uservisits table registers");
        HybridSession { kv: &self.kv, engine }
    }
}

struct HybridSession<'a> {
    kv: &'a KvLoadTarget,
    engine: bdb_sql::Engine,
}

impl HybridSession<'_> {
    fn aggregate(&mut self) -> String {
        match self.engine.sql(HYBRID_QUERY) {
            Ok(t) => format!("{:?}", t.rows()),
            Err(e) => format!("error:{e}"),
        }
    }
}

impl LoadSession for HybridSession<'_> {
    fn execute(&mut self, op: &LoadOp) -> String {
        match op {
            LoadOp::Scan { .. } => self.aggregate(),
            _ => self.kv.execute(op),
        }
    }
}

impl LoadTarget for HybridLoadTarget {
    fn name(&self) -> &'static str {
        "kv+sql"
    }

    fn session(&self) -> Box<dyn LoadSession + '_> {
        Box::new(self.open())
    }

    fn expected(&self, op: &LoadOp) -> String {
        match op {
            LoadOp::Scan { .. } => self.answer.clone(),
            _ => self.kv.expected(op),
        }
    }
}

/// The measured outcome of driving one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Engine name.
    pub engine: String,
    /// Client sessions driven.
    pub clients: usize,
    /// Ops the arrival clock issued (the whole schedule).
    pub issued: u64,
    /// Ops that executed to completion.
    pub completed: u64,
    /// Ops shed at the admission queue, by the brownout controller, or by
    /// an open circuit breaker (open loop only).
    pub shed: u64,
    /// Ops that exhausted recovery (or crashed) and failed.
    pub failed: u64,
    /// Faults injected across the drive's lanes.
    pub faults: u64,
    /// Retries the drive's lanes performed.
    pub retries: u64,
    /// Times this engine's circuit breaker tripped open during the drive.
    pub breaker_trips: u64,
    /// Wall-clock of the drive, seconds.
    pub duration_secs: f64,
    /// Saturation throughput: completed ops per second.
    pub throughput_ops_per_sec: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th percentile latency, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile latency, microseconds.
    pub p999_us: f64,
    /// Mean admission-queue delay, milliseconds (0 for closed loop).
    pub mean_queue_delay_ms: f64,
    /// Results sampled into the conformance check.
    pub sampled: u64,
    /// Did the sampled results match the oracle?
    pub conformance_passed: bool,
    /// The issued-op digest of the schedule this engine consumed.
    pub digest: String,
    /// Completed-op latency histograms (ns), one per class, indexed by
    /// `OpClass as usize`.
    pub latency: [LogHistogram; 5],
}

impl LoadReport {
    /// The latency histogram (ns) of one op class's completed ops.
    pub fn class_latency(&self, class: OpClass) -> &LogHistogram {
        &self.latency[class as usize]
    }

    /// The user-perceivable metrics of the drive: every completed op's
    /// latency over the drive's wall-clock.
    fn user_metrics(&self) -> UserMetrics {
        UserMetrics::from_latencies(
            &merged(&self.latency),
            self.completed,
            Duration::from_secs_f64(self.duration_secs),
        )
    }
}

/// One histogram holding every sample of `hists`.
fn merged(hists: &[LogHistogram]) -> LogHistogram {
    let mut out = LogHistogram::new();
    for h in hists {
        out.merge(h);
    }
    out
}

/// Per-lane capture merged at quiesce: a thread-local latency histogram,
/// queue-delay histogram, completion/chaos counts and sampled outcomes.
struct LaneOut {
    lat: [LogHistogram; 5],
    queue_delay: Histogram,
    completed: u64,
    failed: u64,
    faults: u64,
    retries: u64,
    samples: Vec<(usize, String)>,
}

impl LaneOut {
    fn new() -> Self {
        Self {
            lat: Default::default(),
            queue_delay: Histogram::with_bounds(0.0, 1000.0, 500),
            completed: 0,
            failed: 0,
            faults: 0,
            retries: 0,
            samples: Vec::new(),
        }
    }
}

/// Arrivals of sustained overload pressure before the brownout starts
/// shedding.
pub const BROWNOUT_GRACE: u64 = 8;
/// Shed fraction added per pressure unit above the grace threshold.
const BROWNOUT_STEP: f64 = 1.0 / 16.0;
/// The brownout never sheds more than this fraction — enough traffic must
/// get through for half-open probes to run and the queue to drain.
const BROWNOUT_CEILING: f64 = 0.75;

/// The brownout's shed fraction at a given pressure: 0 under the grace
/// threshold, then proportional and capped.
fn brownout_fraction(pressure: u64) -> f64 {
    (pressure.saturating_sub(BROWNOUT_GRACE) as f64 * BROWNOUT_STEP).min(BROWNOUT_CEILING)
}

/// A uniform draw in `[0, 1)` from one mixed word.
fn unit_draw(word: u64) -> f64 {
    (SplitMix64::mix(word) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Everything one chaos drive shares across lanes and the pacer: the
/// fault plan, retry policy, and the run seed per-op injectors derive
/// from.
struct ChaosCtx {
    plan: FaultPlan,
    policy: RetryPolicy,
    seed: u64,
    site: FaultSite,
}

impl ChaosCtx {
    /// Build the context when `res` carries an active injector; `None`
    /// keeps the drive on the historical no-chaos path.
    fn from_resilience(res: &Resilience, seed: u64, engine: &str) -> Option<Self> {
        res.injector.as_ref().map(|inj| ChaosCtx {
            plan: inj.plan().clone(),
            policy: res.policy.clone(),
            seed,
            site: FaultSite::execution(engine, "load"),
        })
    }

    /// The injector seed for op `idx`: a pure function of `(seed, idx)`,
    /// so an op's fault sequence is identical at any concurrency.
    fn op_seed(&self, idx: usize) -> u64 {
        SplitMix64::mix(self.seed ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The outcome op `idx`'s recovery loop will reach, without running
    /// it: a fresh injector over the same `(seed, idx)` draw sequence.
    /// Latency spikes still complete; errors and panics fail once the
    /// retry budget is spent; a crash is terminal on its first injection.
    /// Mirrors [`run_with_recovery`] over an always-succeeding operation
    /// with no deadline.
    fn planned_ok(&self, idx: usize) -> bool {
        let inj = FaultInjector::new(self.plan.clone(), self.op_seed(idx));
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match inj.sample(&self.site) {
                None => return true,
                Some(fault) => match fault.kind {
                    FaultKind::Latency => return true,
                    FaultKind::Crash => return false,
                    FaultKind::Error | FaultKind::Panic => {
                        if attempt >= self.policy.attempts() {
                            return false;
                        }
                    }
                },
            }
        }
    }

    /// Execute op `idx` under its per-op resilience, folding fault/retry
    /// counts into the lane. Returns the outcome string when the op
    /// completed. Recovery-path trace events go to a scratch trace — at
    /// load volumes per-op fault events would swamp the run trace; the
    /// counts land in the [`LoadReport`] instead.
    fn execute(
        &self,
        lane: &mut LaneOut,
        sess: &mut dyn LoadSession,
        op: &LoadOp,
        idx: usize,
    ) -> Option<String> {
        let res = Resilience::new(Some(self.plan.clone()), self.policy.clone(), self.op_seed(idx));
        let scratch = RunTrace::new();
        let mut attempt_op = || Ok(sess.execute(op));
        match run_with_recovery(&res, &scratch, &self.site, Instant::now(), &mut attempt_op) {
            Ok(rec) => {
                lane.faults += u64::from(rec.faults);
                lane.retries += u64::from(rec.attempts.saturating_sub(1));
                Some(rec.value)
            }
            Err(fail) => {
                lane.faults += scratch
                    .events()
                    .iter()
                    .filter(|e| matches!(e, TraceEvent::FaultInjected { .. }))
                    .count() as u64;
                lane.retries += u64::from(fail.attempts.saturating_sub(1));
                lane.failed += 1;
                None
            }
        }
    }
}

fn record_op(
    lane: &mut LaneOut,
    sess: &mut dyn LoadSession,
    schedule: &[ScheduledOp],
    idx: usize,
    sample_every: usize,
    latency_from: Instant,
    chaos: Option<&ChaosCtx>,
) {
    let out = match chaos {
        None => Some(sess.execute(&schedule[idx].op)),
        Some(c) => c.execute(lane, sess, &schedule[idx].op, idx),
    };
    let Some(out) = out else { return };
    lane.lat[schedule[idx].op.class() as usize]
        .record(latency_from.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    lane.completed += 1;
    if idx.is_multiple_of(sample_every) {
        lane.samples.push((idx, out));
    }
}

/// Drive one target with the given schedule and profile, fault-free (the
/// historical path: no injector, no breaker, no brownout).
///
/// # Errors
/// Fails when a worker panics or the profile is invalid.
pub fn run_target(
    target: &dyn LoadTarget,
    profile: &LoadProfile,
    schedule: &[ScheduledOp],
    trace: &RunTrace,
) -> Result<LoadReport> {
    run_target_resilient(
        target,
        profile,
        schedule,
        &Resilience::passive(0),
        &HealthStore::default(),
        0,
        trace,
    )
}

/// Drive one target with the given schedule under a resilience
/// configuration: per-op deterministic fault injection, and — for
/// open-loop drives with an active plan — breaker admission and adaptive
/// brownout at the pacer (see the module docs).
///
/// # Errors
/// Fails when a worker panics, the profile is invalid, or op accounting
/// breaks conservation (`issued == completed + shed + failed`).
pub fn run_target_resilient(
    target: &dyn LoadTarget,
    profile: &LoadProfile,
    schedule: &[ScheduledOp],
    res: &Resilience,
    health: &HealthStore,
    seed: u64,
    trace: &RunTrace,
) -> Result<LoadReport> {
    profile.validate()?;
    let chaos = ChaosCtx::from_resilience(res, seed, target.name());
    let t0 = Instant::now();
    let (lanes, shed, breaker_trips) = if profile.arrival.is_open() {
        run_open_loop(target, profile, schedule, trace, t0, chaos.as_ref(), health)?
    } else {
        run_closed_loop(target, profile, schedule, trace, chaos.as_ref())?
    };

    let mut latency: [LogHistogram; 5] = Default::default();
    let mut queue_delay = Histogram::with_bounds(0.0, 1000.0, 500);
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut faults = 0u64;
    let mut retries = 0u64;
    let mut samples: Vec<(usize, String)> = Vec::new();
    for lane in &lanes {
        for (total, class) in latency.iter_mut().zip(&lane.lat) {
            total.merge(class);
        }
        queue_delay.merge(&lane.queue_delay);
        completed += lane.completed;
        failed += lane.failed;
        faults += lane.faults;
        retries += lane.retries;
        samples.extend(lane.samples.iter().cloned());
    }
    let duration_secs = t0.elapsed().as_secs_f64().max(1e-9);
    // Conservation: every scheduled op completed, was shed, or failed.
    if completed + shed + failed != schedule.len() as u64 {
        return Err(BdbError::Execution(format!(
            "load accounting broke: {completed} completed + {shed} shed + {failed} failed != {} issued",
            schedule.len()
        )));
    }
    if shed > 0 {
        trace.record(TraceEvent::LoadShed { engine: target.name().to_string(), count: shed });
    }

    // Conformance: the sampled outcomes must match the pure oracle.
    let actual = OutputPayload::RowSet(
        samples.iter().map(|(i, out)| vec![i.to_string(), out.clone()]).collect(),
    );
    let expect = OutputPayload::RowSet(
        samples
            .iter()
            .map(|(i, _)| vec![i.to_string(), target.expected(&schedule[*i].op)])
            .collect(),
    );
    let mismatch = actual.diff(&expect, 0.0);
    let passed = mismatch.is_none();
    trace.record(TraceEvent::ConformanceChecked {
        prescription: format!("load/{}", target.name()),
        engine: target.name().to_string(),
        check: "oracle".to_string(),
        payload: "rowset".to_string(),
        passed,
        detail: mismatch.unwrap_or_else(|| format!("digest 0x{:016x}", actual.digest())),
    });

    let lat = merged(&latency);
    Ok(LoadReport {
        engine: target.name().to_string(),
        clients: profile.clients,
        issued: schedule.len() as u64,
        completed,
        shed,
        failed,
        faults,
        retries,
        breaker_trips,
        duration_secs,
        throughput_ops_per_sec: completed as f64 / duration_secs,
        p50_us: lat.quantile(0.50) as f64 / 1e3,
        p99_us: lat.quantile(0.99) as f64 / 1e3,
        p999_us: lat.quantile(0.999) as f64 / 1e3,
        mean_queue_delay_ms: queue_delay.mean(),
        sampled: samples.len() as u64,
        conformance_passed: passed,
        digest: issued_digest(schedule),
        latency,
    })
}

/// Closed loop: each session claims one op at a time from a shared
/// cursor until the schedule drains, so the issued set is always a
/// prefix of the schedule regardless of worker count or interleaving.
fn run_closed_loop(
    target: &dyn LoadTarget,
    profile: &LoadProfile,
    schedule: &[ScheduledOp],
    trace: &RunTrace,
    chaos: Option<&ChaosCtx>,
) -> Result<(Vec<LaneOut>, u64, u64)> {
    let cursor = AtomicUsize::new(0);
    // Global hot-path tally: every worker bumps it per op, so it is
    // sharded (a single atomic would ping-pong its cache line).
    let completed_total = ShardedCounter::new(profile.clients);
    let cursor = &cursor;
    let completed_total = &completed_total;
    let lanes = pool::try_par_map(profile.clients, (0..profile.clients).collect(), |session: usize| {
        trace.record(TraceEvent::LoadSessionStarted {
            engine: target.name().to_string(),
            session,
        });
        let s0 = Instant::now();
        let mut sess = target.session();
        let mut lane = LaneOut::new();
        loop {
            let idx = cursor.fetch_add(1, Ordering::SeqCst);
            if idx >= schedule.len() {
                break;
            }
            let d0 = Instant::now();
            record_op(&mut lane, sess.as_mut(), schedule, idx, profile.sample_every, d0, chaos);
            completed_total.add(1);
        }
        trace.record(TraceEvent::LoadSessionFinished {
            engine: target.name().to_string(),
            session,
            completed: lane.completed,
            micros: s0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        });
        lane
    })
    .map_err(|p| BdbError::Execution(format!("load worker panicked: {p}")))?;
    debug_assert_eq!(
        completed_total.value(),
        lanes.iter().map(|l| l.completed + l.failed).sum::<u64>(),
        "sharded tally must agree with the merged lanes"
    );
    Ok((lanes, 0, 0))
}

/// Open loop: a pacer thread walks the schedule on the wall clock,
/// admitting each op to a bounded queue (full → shed, never block);
/// worker sessions drain the queue. Latency is measured from the
/// intended arrival instant (coordinated omission), and the
/// dispatch-minus-arrival gap is captured separately as queue delay.
///
/// On a chaos drive the pacer is also the serving-side admission
/// controller, in schedule order: the brownout sheds a proportional
/// fraction of arrivals under sustained pressure, the engine's circuit
/// breaker denies (sheds) arrivals while open, and every admitted op's
/// planned outcome feeds the breaker — one deterministic trip/recovery
/// sequence per `(seed, plan)`.
fn run_open_loop(
    target: &dyn LoadTarget,
    profile: &LoadProfile,
    schedule: &[ScheduledOp],
    trace: &RunTrace,
    start: Instant,
    chaos: Option<&ChaosCtx>,
    health: &HealthStore,
) -> Result<(Vec<LaneOut>, u64, u64)> {
    let cap = profile.queue_cap();
    let queue: Mutex<VecDeque<usize>> = Mutex::new(VecDeque::with_capacity(cap));
    let ready = Condvar::new();
    let done = AtomicBool::new(false);
    let shed_total = ShardedCounter::new(1);
    let (queue, ready, done, shed_total) = (&queue, &ready, &done, &shed_total);
    let engine = target.name();

    let (lanes, trips) = std::thread::scope(|scope| {
        let pacer = scope.spawn(move || {
            let mut trips = 0u64;
            let mut pressure = 0u64;
            let mut brownout_shed = 0u64;
            let mut engaged = false;
            for (idx, slot) in schedule.iter().enumerate() {
                let due = Duration::from_secs_f64(slot.at_ms / 1000.0);
                let now = start.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let mut q = queue.lock().expect("load queue");
                if let Some(c) = chaos {
                    // Breaker admission first: open → shed (fail fast),
                    // and every admitted arrival feeds the breaker its
                    // planned outcome — *before* brownout or queue
                    // shedding, so the trip/recovery sequence is a pure
                    // function of `(seed, plan, policy)` regardless of
                    // worker timing.
                    let admission = health.admit(engine);
                    if admission.half_opened {
                        trace.record(TraceEvent::BreakerHalfOpen { engine: engine.to_string() });
                    }
                    if !admission.allowed {
                        shed_total.add(1);
                        continue;
                    }
                    let planned_ok = c.planned_ok(idx);
                    if admission.probe {
                        trace.record(TraceEvent::ProbeResult {
                            engine: engine.to_string(),
                            ok: planned_ok,
                        });
                    }
                    let recorded = health.record(engine, planned_ok, admission.probe);
                    match recorded.transition {
                        Some(BreakerState::Open) => {
                            trips += 1;
                            trace.record(TraceEvent::BreakerOpened {
                                engine: engine.to_string(),
                                failure_rate: recorded.failure_rate,
                            });
                        }
                        Some(BreakerState::Closed) => {
                            trace.record(TraceEvent::BreakerClosed { engine: engine.to_string() });
                        }
                        _ => {}
                    }
                    // Brownout second: sustained queue overload (≥ 3/4
                    // full) or a half-open breaker builds pressure; past
                    // the grace threshold a proportional,
                    // per-index-seeded fraction of arrivals is shed
                    // before dispatch. Adaptive by design — the queue
                    // signal tracks real worker timing.
                    let overloaded = q.len() * 4 >= cap * 3
                        || health.state(engine) == BreakerState::HalfOpen;
                    pressure = if overloaded { pressure + 1 } else { pressure.saturating_sub(1) };
                    let fraction = brownout_fraction(pressure);
                    if fraction > 0.0 && !engaged {
                        engaged = true;
                        trace.record(TraceEvent::BrownoutEngaged {
                            engine: engine.to_string(),
                            pressure,
                            shed_fraction: fraction,
                        });
                    } else if fraction == 0.0 && engaged {
                        engaged = false;
                        trace.record(TraceEvent::BrownoutReleased {
                            engine: engine.to_string(),
                            shed: brownout_shed,
                        });
                    }
                    if fraction > 0.0
                        && unit_draw(c.seed ^ 0xB707_0000 ^ idx as u64) < fraction
                    {
                        brownout_shed += 1;
                        shed_total.add(1);
                        continue;
                    }
                }
                if q.len() >= cap {
                    // Shed: the arrival clock never blocks on a full
                    // queue; the op is counted and dropped.
                    shed_total.add(1);
                    continue;
                }
                q.push_back(idx);
                drop(q);
                ready.notify_one();
            }
            if engaged {
                trace.record(TraceEvent::BrownoutReleased {
                    engine: engine.to_string(),
                    shed: brownout_shed,
                });
            }
            done.store(true, Ordering::SeqCst);
            ready.notify_all();
            trips
        });

        let lanes = pool::try_par_map(
            profile.clients,
            (0..profile.clients).collect(),
            |session: usize| {
                trace.record(TraceEvent::LoadSessionStarted {
                    engine: target.name().to_string(),
                    session,
                });
                let s0 = Instant::now();
                let mut sess = target.session();
                let mut lane = LaneOut::new();
                loop {
                    let idx = {
                        let mut q = queue.lock().expect("load queue");
                        loop {
                            if let Some(idx) = q.pop_front() {
                                break Some(idx);
                            }
                            if done.load(Ordering::SeqCst) {
                                break None;
                            }
                            let (guard, _) = ready
                                .wait_timeout(q, Duration::from_millis(10))
                                .expect("load queue");
                            q = guard;
                        }
                    };
                    let Some(idx) = idx else { break };
                    let intended = Duration::from_secs_f64(schedule[idx].at_ms / 1000.0);
                    let dispatch_delay = start.elapsed().saturating_sub(intended);
                    lane.queue_delay.record(dispatch_delay.as_secs_f64() * 1e3);
                    // Latency clock starts at the intended arrival: the
                    // virtual instant `start + intended`.
                    let latency_from = start
                        .checked_add(intended)
                        .filter(|t| *t <= Instant::now())
                        .unwrap_or_else(Instant::now);
                    record_op(
                        &mut lane,
                        sess.as_mut(),
                        schedule,
                        idx,
                        profile.sample_every,
                        latency_from,
                        chaos,
                    );
                }
                trace.record(TraceEvent::LoadSessionFinished {
                    engine: target.name().to_string(),
                    session,
                    completed: lane.completed,
                    micros: s0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                });
                lane
            },
        );
        let trips = pacer.join().expect("pacer thread");
        lanes
            .map(|l| (l, trips))
            .map_err(|p| BdbError::Execution(format!("load worker panicked: {p}")))
    })?;
    Ok((lanes, shed_total.value(), trips))
}

/// The load targets the registry's engines support, honouring the
/// profile's engine filter. Targets: `kv` (LSM store), `sql` (point
/// selects), `native` (pure compute), `streaming` (sessionize kernel) —
/// each present when the registry registers the corresponding engine.
pub fn default_targets(
    registry: &EngineRegistry,
    profile: &LoadProfile,
) -> Result<Vec<Box<dyn LoadTarget>>> {
    let names = registry.names();
    let wanted = |n: &str| -> bool {
        profile
            .engines
            .as_ref()
            .is_none_or(|list| list.iter().any(|e| e == n))
    };
    let mut targets: Vec<Box<dyn LoadTarget>> = Vec::new();
    if names.contains(&"kv") && wanted("kv") {
        targets.push(Box::new(KvLoadTarget::new()));
    }
    if names.contains(&"sql") && wanted("sql") {
        targets.push(Box::new(SqlLoadTarget::new()));
    }
    if names.contains(&"native") && wanted("native") {
        targets.push(Box::new(NativeLoadTarget));
    }
    if names.contains(&"streaming") && wanted("streaming") {
        targets.push(Box::new(StreamingLoadTarget));
    }
    if targets.is_empty() {
        return Err(BdbError::InvalidConfig(format!(
            "no load targets match the engine filter {:?} (registry: {})",
            profile.engines,
            names.join(", ")
        )));
    }
    Ok(targets)
}

/// Drive every selected target with one shared deterministic schedule,
/// engine after engine (saturation measurements must not overlap),
/// fault-free.
///
/// # Errors
/// Fails on an invalid profile, an empty engine filter, or a worker
/// panic.
pub fn run_load(
    registry: &EngineRegistry,
    profile: &LoadProfile,
    seed: u64,
    trace: &RunTrace,
) -> Result<Vec<LoadReport>> {
    run_load_resilient(registry, profile, &Resilience::passive(seed), seed, trace)
}

/// Drive every selected target under a resilience configuration: the
/// chaos counterpart of [`run_load`], injecting per-op faults into the
/// lanes and running breaker/brownout admission at the pacer. Breaker
/// state lives in the registry's shared [`HealthStore`], keyed per
/// engine, so a drive's trips are visible to later resilient dispatch
/// (and to [`crate::analyzer::HealthSummary`]).
///
/// # Errors
/// Fails on an invalid profile, an empty engine filter, a worker panic,
/// or broken op conservation.
pub fn run_load_resilient(
    registry: &EngineRegistry,
    profile: &LoadProfile,
    res: &Resilience,
    seed: u64,
    trace: &RunTrace,
) -> Result<Vec<LoadReport>> {
    let schedule = build_schedule(profile, seed)?;
    let targets = default_targets(registry, profile)?;
    let health = registry.health();
    let mut reports = Vec::with_capacity(targets.len());
    for target in &targets {
        reports.push(run_target_resilient(
            target.as_ref(),
            profile,
            &schedule,
            res,
            &health,
            seed,
            trace,
        )?);
    }
    Ok(reports)
}

/// Value size of the records YCSB and hybrid drives preload, bytes.
const RECORD_VALUE_SIZE: usize = 64;

/// A passive closed-loop drive of `schedule` on `target` by `clients`
/// sessions, failing when a sampled answer diverges from the oracle.
fn drive_checked(
    target: &dyn LoadTarget,
    clients: usize,
    schedule: &[ScheduledOp],
) -> Result<LoadReport> {
    let profile = LoadProfile { clients: clients.max(1), ..LoadProfile::default() };
    // Session and conformance events go to a scratch trace: callers
    // report the drive as one operation of their own.
    let report = run_target(target, &profile, schedule, &RunTrace::new())?;
    if !report.conformance_passed {
        return Err(BdbError::Execution(format!(
            "{} drive: sampled answers diverge from the oracle",
            target.name()
        )));
    }
    Ok(report)
}

/// YCSB on the load driver: `ops` operations drawn from `mix` into one
/// closed-loop schedule, drained by `clients` sessions against a fresh
/// store preloaded with `mix.records` records of 64 bytes. The result is
/// named `oltp/ycsb-{A..F}` after the preset the mix is, or
/// `oltp/ycsb-prescribed`; its op counts and final key population depend
/// only on `(mix, ops, seed)`.
///
/// # Errors
/// Fails on an invalid mix, a worker panic, or an oracle divergence.
pub fn drive_ycsb(
    mix: &OpMix,
    ops: usize,
    clients: usize,
    seed: u64,
) -> Result<(LoadReport, WorkloadResult)> {
    let schedule = mix.schedule(ops, seed)?;
    let target = KvLoadTarget::preloaded(LsmConfig::default(), mix.records, RECORD_VALUE_SIZE);
    let report = drive_checked(&target, clients, &schedule)?;
    let result = WorkloadResult::assemble(
        &format!("oltp/ycsb-{}", mix.ycsb_label()),
        "kv",
        WorkloadCategory::OnlineServices,
        report.user_metrics(),
        OpCounts { record_ops: target.store().stats().total_ops(), float_ops: 0 },
        mix.records,
    );
    Ok((report, result))
}

/// Configuration of the Section 5.2 hybrid mix.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// Fraction of operations that are analytics queries; the rest split
    /// evenly into gets and puts.
    pub olap_share: f64,
    /// Total operations to issue.
    pub operations: usize,
    /// Records preloaded into the KV store, and rows in the analytics
    /// table.
    pub records: u64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self { olap_share: 0.1, operations: 1000, records: 2000 }
    }
}

/// The Section 5.2 "truly hybrid workload": OLTP gets and puts on the LSM
/// store interleaved with analytics aggregates on `bdb_sql`, in one
/// seeded sequence drained by a single closed-loop client. Per-component
/// details: `oltp_ops`, `olap_ops`, `oltp_p50_us`, `olap_p50_us`.
///
/// # Errors
/// Fails on an analytics share outside `[0, 1]`, a worker panic, or an
/// oracle divergence.
pub fn drive_hybrid(config: &HybridConfig, seed: u64) -> Result<WorkloadResult> {
    let oltp = 1.0 - config.olap_share;
    let mix = OpMix {
        get: oltp / 2.0,
        put: oltp / 2.0,
        insert: 0.0,
        scan: config.olap_share,
        rmw: 0.0,
        records: config.records,
        ..OpMix::DEFAULT
    };
    let schedule = mix.schedule(config.operations, seed)?;
    let target = HybridLoadTarget::new(config.records, seed);
    let report = drive_checked(&target, 1, &schedule)?;
    let mut oltp_lat = report.class_latency(OpClass::Get).clone();
    oltp_lat.merge(report.class_latency(OpClass::Put));
    let olap_lat = report.class_latency(OpClass::Scan);
    let record_ops =
        target.kv.store().stats().total_ops() + olap_lat.count() * target.query_ops;
    Ok(WorkloadResult::assemble(
        "hybrid/oltp+olap",
        "kv+sql",
        WorkloadCategory::OnlineServices,
        report.user_metrics(),
        OpCounts { record_ops, float_ops: 0 },
        config.operations as u64,
    )
    .with_detail("oltp_ops", oltp_lat.count() as f64)
    .with_detail("olap_ops", olap_lat.count() as f64)
    .with_detail("oltp_p50_us", oltp_lat.quantile(0.50) as f64 / 1e3)
    .with_detail("olap_p50_us", olap_lat.quantile(0.50) as f64 / 1e3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_profile() -> LoadProfile {
        LoadProfile { clients: 2, duration_ms: 10, ..LoadProfile::default() }
    }

    /// A target whose every op sleeps `delay_ms` and answers `out`, while
    /// its oracle expects `expect`.
    #[derive(Clone, Copy)]
    struct Canned {
        delay_ms: u64,
        out: &'static str,
        expect: &'static str,
    }

    /// An engine far slower than the test arrival rates.
    const SLOW: Canned = Canned { delay_ms: 3, out: "slow", expect: "slow" };

    impl LoadSession for Canned {
        fn execute(&mut self, _op: &LoadOp) -> String {
            std::thread::sleep(Duration::from_millis(self.delay_ms));
            self.out.to_string()
        }
    }

    impl LoadTarget for Canned {
        fn name(&self) -> &'static str {
            "canned"
        }
        fn session(&self) -> Box<dyn LoadSession + '_> {
            Box::new(*self)
        }
        fn expected(&self, _op: &LoadOp) -> String {
            self.expect.to_string()
        }
    }

    #[test]
    fn arrival_parses_and_displays() {
        for s in ["closed", "poisson:500", "uniform:250.5"] {
            let a: LoadArrival = s.parse().unwrap();
            assert_eq!(a.to_string(), s);
        }
        assert!("poisson".parse::<LoadArrival>().is_err());
        assert!("poisson:-5".parse::<LoadArrival>().is_err());
        assert!("burst:10".parse::<LoadArrival>().is_err());
        assert!(LoadArrival::Closed.to_string() == "closed");
        assert!(!LoadArrival::Closed.is_open());
        assert!(LoadArrival::Poisson { rate_per_sec: 1.0 }.is_open());
    }

    #[test]
    fn profile_validation() {
        assert!(LoadProfile::default().validate().is_ok());
        assert!(LoadProfile { clients: 0, ..LoadProfile::default() }.validate().is_err());
        assert!(LoadProfile { duration_ms: 0, ..LoadProfile::default() }.validate().is_err());
        assert!(LoadProfile { sample_every: 0, ..LoadProfile::default() }.validate().is_err());
        assert!(LoadProfile { queue_capacity: Some(0), ..LoadProfile::default() }
            .validate()
            .is_err());
        assert_eq!(LoadProfile::default().queue_cap(), 32);
    }

    #[test]
    fn schedule_is_seed_deterministic_and_client_independent() {
        let p1 = LoadProfile { clients: 1, ..quick_profile() };
        let p8 = LoadProfile { clients: 8, ..quick_profile() };
        let a = build_schedule(&p1, 42).unwrap();
        let b = build_schedule(&p8, 42).unwrap();
        assert_eq!(a, b, "schedule must not depend on client count");
        assert_eq!(issued_digest(&a), issued_digest(&b));
        let c = build_schedule(&p1, 43).unwrap();
        assert_ne!(issued_digest(&a), issued_digest(&c), "different seed, different ops");
    }

    #[test]
    fn open_loop_schedule_is_monotone_and_rate_sized() {
        let p = LoadProfile {
            arrival: LoadArrival::Poisson { rate_per_sec: 1000.0 },
            duration_ms: 100,
            ..quick_profile()
        };
        let s = build_schedule(&p, 7).unwrap();
        assert_eq!(s.len(), 100);
        for w in s.windows(2) {
            assert!(w[0].at_ms <= w[1].at_ms, "arrivals must be monotone");
        }
    }

    #[test]
    fn kv_target_oracle_matches_execution() {
        let t = KvLoadTarget::new();
        let mut sess = t.session();
        for op in [
            LoadOp::Get { key: 3 },
            LoadOp::Put { key: 9 },
            LoadOp::Scan { start: KEYSPACE - 4, len: 16 },
        ] {
            assert_eq!(sess.execute(&op), t.expected(&op), "{op:?}");
        }
    }

    #[test]
    fn sql_target_oracle_matches_execution() {
        let t = SqlLoadTarget::new();
        let mut sess = t.session();
        for op in [LoadOp::Get { key: 0 }, LoadOp::Put { key: 17 }, LoadOp::Scan { start: 5, len: 3 }] {
            assert_eq!(sess.execute(&op), t.expected(&op), "{op:?}");
        }
    }

    #[test]
    fn streaming_target_oracle_matches_execution() {
        let t = StreamingLoadTarget;
        let mut sess = t.session();
        for op in [
            LoadOp::Get { key: 2 },
            LoadOp::Put { key: 40 },
            LoadOp::Scan { start: KEYSPACE - 3, len: 9 },
        ] {
            let out = sess.execute(&op);
            assert_eq!(out, t.expected(&op), "{op:?}");
            assert!(out.starts_with("sessions"), "{out}");
        }
        // The synthetic streams really sessionize: multiple sessions.
        assert!(naive_sessions(2) > 1, "gap walk found {} sessions", naive_sessions(2));
    }

    #[test]
    fn closed_loop_completes_everything() {
        let trace = RunTrace::new();
        let p = quick_profile();
        let schedule = build_schedule(&p, 1).unwrap();
        let t = NativeLoadTarget;
        let r = run_target(&t, &p, &schedule, &trace).unwrap();
        assert_eq!(r.issued, schedule.len() as u64);
        assert_eq!(r.completed, r.issued, "closed loop sheds nothing");
        assert_eq!(r.shed, 0);
        assert!(r.conformance_passed);
        assert!(r.throughput_ops_per_sec > 0.0);
        assert!(r.p50_us <= r.p99_us && r.p99_us <= r.p999_us);
        // Session start/finish events for every client.
        let events = trace.events();
        let started = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::LoadSessionStarted { .. }))
            .count();
        assert_eq!(started, p.clients);
    }

    #[test]
    fn open_loop_conserves_issued_ops() {
        let trace = RunTrace::new();
        let p = LoadProfile {
            arrival: LoadArrival::Uniform { rate_per_sec: 2000.0 },
            duration_ms: 100,
            clients: 2,
            queue_capacity: Some(4),
            ..LoadProfile::default()
        };
        let schedule = build_schedule(&p, 5).unwrap();
        let t = NativeLoadTarget;
        let r = run_target(&t, &p, &schedule, &trace).unwrap();
        assert_eq!(r.issued, r.completed + r.shed, "conservation");
        assert!(r.completed > 0);
        assert!(r.conformance_passed);
    }

    #[test]
    fn undersized_queue_sheds_without_blocking() {
        let trace = RunTrace::new();
        // One slow client, a queue of 1, arrivals far faster than the
        // engine: most ops must shed and the run must still finish
        // promptly (the pacer never blocks).
        let p = LoadProfile {
            arrival: LoadArrival::Uniform { rate_per_sec: 5000.0 },
            duration_ms: 60,
            clients: 1,
            queue_capacity: Some(1),
            ..LoadProfile::default()
        };
        let schedule = build_schedule(&p, 9).unwrap();
        let r = run_target(&SLOW, &p, &schedule, &trace).unwrap();
        assert!(r.shed > 0, "undersized queue must shed");
        assert_eq!(r.issued, r.completed + r.shed);
        let shed_events = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::LoadShed { .. }))
            .count();
        assert_eq!(shed_events, 1);
    }

    #[test]
    fn closed_loop_chaos_conserves_and_is_deterministic() {
        let plan: FaultPlan = "error@exec:0.4".parse().unwrap();
        let drive = || {
            let trace = RunTrace::new();
            let p = quick_profile();
            let schedule = build_schedule(&p, 21).unwrap();
            let res = Resilience::new(
                Some(plan.clone()),
                RetryPolicy { max_retries: 1, base_delay_ms: 0, ..RetryPolicy::default() },
                21,
            );
            let health = HealthStore::default();
            run_target_resilient(&NativeLoadTarget, &p, &schedule, &res, &health, 21, &trace)
                .unwrap()
        };
        let a = drive();
        let b = drive();
        assert_eq!(a.completed + a.failed, a.issued, "closed loop sheds nothing");
        assert_eq!(a.shed, 0);
        assert!(a.failed > 0, "rate 0.4 with one retry must exhaust some ops");
        assert!(a.faults > a.failed, "every failure burned >= 2 faults");
        assert!(a.retries > 0);
        assert!(a.conformance_passed, "failed ops never reach the sample set");
        assert_eq!(
            (a.completed, a.failed, a.faults, a.retries, &a.digest),
            (b.completed, b.failed, b.faults, b.retries, &b.digest),
            "chaos counts must be a pure function of the seed"
        );
    }

    #[test]
    fn open_loop_chaos_breaker_sequence_is_deterministic() {
        let plan: FaultPlan = "error@exec:0.8".parse().unwrap();
        let p = LoadProfile {
            arrival: LoadArrival::Uniform { rate_per_sec: 2000.0 },
            duration_ms: 100,
            clients: 2,
            queue_capacity: Some(4),
            ..LoadProfile::default()
        };
        let drive = || {
            let trace = RunTrace::new();
            let schedule = build_schedule(&p, 5).unwrap();
            let res = Resilience::new(
                Some(plan.clone()),
                RetryPolicy { base_delay_ms: 0, ..RetryPolicy::default() },
                5,
            );
            let health = HealthStore::default();
            let r = run_target_resilient(&NativeLoadTarget, &p, &schedule, &res, &health, 5, &trace)
                .unwrap();
            let breaker: Vec<String> = trace
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        TraceEvent::BreakerOpened { .. }
                            | TraceEvent::BreakerHalfOpen { .. }
                            | TraceEvent::BreakerClosed { .. }
                            | TraceEvent::ProbeResult { .. }
                    )
                })
                .map(|e| format!("{e:?}"))
                .collect();
            (r, breaker)
        };
        let (a, breaker_a) = drive();
        let (b, breaker_b) = drive();
        assert_eq!(a.issued, a.completed + a.shed + a.failed, "conservation");
        assert!(a.breaker_trips >= 1, "planned failure rate 0.8 must trip the breaker");
        assert!(a.shed > 0, "an open breaker denies (sheds) arrivals");
        assert_eq!(a.breaker_trips, b.breaker_trips, "trips are seed-deterministic");
        assert_eq!(
            breaker_a, breaker_b,
            "the breaker event sequence is fed planned outcomes in schedule order \
             and must not depend on worker timing"
        );
    }

    #[test]
    fn brownout_engages_under_sustained_overload() {
        // The undersized-queue scenario with chaos active: arrivals far
        // outpace a slow single worker, so the queue stays full and the
        // pacer's pressure counter passes the grace threshold.
        let trace = RunTrace::new();
        let p = LoadProfile {
            arrival: LoadArrival::Uniform { rate_per_sec: 5000.0 },
            duration_ms: 60,
            clients: 1,
            queue_capacity: Some(1),
            ..LoadProfile::default()
        };
        let schedule = build_schedule(&p, 9).unwrap();
        let res = Resilience::new(
            Some("error@exec:0.01".parse().unwrap()),
            RetryPolicy::default(),
            9,
        );
        let health = HealthStore::default();
        let r = run_target_resilient(&SLOW, &p, &schedule, &res, &health, 9, &trace).unwrap();
        assert_eq!(r.issued, r.completed + r.shed + r.failed, "conservation");
        assert!(r.shed > 0, "overload must shed");
        let labels: Vec<&'static str> = trace.events().iter().map(|e| e.label()).collect();
        assert!(labels.contains(&"brownout_engaged"), "{labels:?}");
        assert!(labels.contains(&"brownout_released"), "{labels:?}");
    }

    #[test]
    fn run_load_covers_registry_targets() {
        let registry = EngineRegistry::with_builtins();
        let trace = RunTrace::new();
        let p = LoadProfile {
            engines: Some(vec!["native".into(), "kv".into()]),
            ..quick_profile()
        };
        let reports = run_load(&registry, &p, 11, &trace).unwrap();
        let names: Vec<&str> = reports.iter().map(|r| r.engine.as_str()).collect();
        assert_eq!(names, vec!["kv", "native"]);
        assert!(reports.iter().all(|r| r.conformance_passed));
        // One shared schedule: identical digests across engines.
        assert_eq!(reports[0].digest, reports[1].digest);
    }

    #[test]
    fn op_mix_validation_errors_instead_of_panicking() {
        let presets = [OpMix::YCSB_A, OpMix::YCSB_B, OpMix::YCSB_C, OpMix::YCSB_D, OpMix::YCSB_E];
        for mix in presets.into_iter().chain([OpMix::YCSB_F, OpMix::DEFAULT]) {
            assert!(mix.validate().is_ok(), "{mix:?}");
        }
        let d = OpMix::DEFAULT;
        assert!(OpMix { get: 0.5, ..d }.schedule(8, 1).is_err(), "sums to 0.8");
        for bad in [
            OpMix { get: 0.9, put: -0.1, scan: 0.2, ..d },
            OpMix { get: f64::NAN, ..d },
            OpMix { records: 0, ..d },
            OpMix { zipf: 0.0, ..d },
            OpMix { scan_len: (4, 4), ..d },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn ycsb_e_draws_scans_and_fixed_insert_ids() {
        let mix = OpMix { records: 500, ..OpMix::YCSB_E };
        let s = mix.schedule(2000, 3).unwrap();
        let count = |c: OpClass| s.iter().filter(|o| o.op.class() == c).count();
        assert_eq!(count(OpClass::Scan) + count(OpClass::Insert), 2000);
        assert!(count(OpClass::Scan) > 1850, "scans {}", count(OpClass::Scan));
        let inserts: Vec<u64> =
            s.iter().filter(|o| o.op.class() == OpClass::Insert).map(|o| o.op.key()).collect();
        assert_eq!(inserts, (500..500 + inserts.len() as u64).collect::<Vec<_>>());
        assert!(s.iter().all(|o| match o.op {
            LoadOp::Scan { start, len } => start < 500 && (1..101).contains(&len),
            _ => true,
        }));
    }

    #[test]
    fn kv_target_answers_inserts_rmw_and_bounded_scans() {
        let t = KvLoadTarget::preloaded(LsmConfig::default(), 100, 32);
        let mut sess = t.session();
        for op in [
            LoadOp::Get { key: 3 },
            LoadOp::Rmw { key: 7 },
            LoadOp::Insert { key: 100 },
            LoadOp::Scan { start: 95, len: 20 },
        ] {
            assert_eq!(sess.execute(&op), t.expected(&op), "{op:?}");
        }
        // Inserted keys are readable, values are padded, and scans stop
        // at the preloaded range.
        assert_eq!(t.store().get(key_of(100).as_bytes()).map(|v| v.len()), Some(32));
        assert_eq!(sess.execute(&LoadOp::Scan { start: 95, len: 20 }), "scan:5");
    }

    #[test]
    fn ycsb_drive_counts_do_not_depend_on_clients() {
        for (label, mix) in [("A", OpMix::YCSB_A), ("D", OpMix::YCSB_D), ("F", OpMix::YCSB_F)] {
            let mix = OpMix { records: 300, ..mix };
            let (one, result) = drive_ycsb(&mix, 600, 1, 4).unwrap();
            let (four, _) = drive_ycsb(&mix, 600, 4, 4).unwrap();
            for c in OpClass::ALL {
                assert_eq!(one.class_latency(c).count(), four.class_latency(c).count(), "{c:?}");
            }
            assert_eq!(result.report.workload, format!("oltp/ycsb-{label}"));
            assert_eq!(result.category, WorkloadCategory::OnlineServices);
            assert_eq!(result.report.user.latency_samples, 600);
        }
        let other = OpMix { scan_len: (1, 11), ..OpMix::YCSB_E };
        assert_eq!(drive_ycsb(&other, 50, 1, 4).unwrap().1.report.workload, "oltp/ycsb-prescribed");
    }

    #[test]
    fn checked_drive_fails_on_oracle_divergence() {
        let liar = Canned { delay_ms: 0, out: "lie", expect: "truth" };
        let schedule = OpMix::DEFAULT.schedule(32, 1).unwrap();
        assert!(drive_checked(&liar, 1, &schedule).is_err());
    }

    #[test]
    fn hybrid_drive_follows_weights_and_separates_classes() {
        let cfg = HybridConfig { operations: 400, ..HybridConfig::default() };
        let a = drive_hybrid(&cfg, 2).unwrap();
        let b = drive_hybrid(&cfg, 2).unwrap();
        let d = |r: &WorkloadResult, key: &str| r.detail(key).unwrap();
        assert_eq!(d(&a, "oltp_ops") + d(&a, "olap_ops"), 400.0);
        assert_eq!(d(&a, "olap_ops"), d(&b, "olap_ops"), "seeded sequence");
        let frac = d(&a, "oltp_ops") / 400.0;
        assert!((frac - 0.9).abs() < 0.06, "oltp fraction {frac}");
        assert!(d(&a, "olap_p50_us") > d(&a, "oltp_p50_us"), "analytics are the slow class");
        assert_eq!(a.report.workload, "hybrid/oltp+olap");
        assert!(drive_hybrid(&HybridConfig { olap_share: 1.5, ..cfg }, 2).is_err());
        // An aggregate's measured cost covers more than its table scan.
        assert!(HybridLoadTarget::new(200, 2).query_ops > 200);
    }

    #[test]
    fn unknown_engine_filter_fails() {
        let registry = EngineRegistry::with_builtins();
        let p = LoadProfile { engines: Some(vec!["nosuch".into()]), ..quick_profile() };
        assert!(default_targets(&registry, &p).is_err());
    }
}
