//! The reference interpreter: a naive, obviously-correct implementation
//! of every operation class, used as the differential oracle.
//!
//! Each oracle re-derives the result an engine should have produced,
//! sharing only the low-level substrate that *defines* the semantics
//! (the seeded RNG tree, `Value`'s total order, the generated data sets) —
//! never the engine's execution path. Relational DAGs run through a
//! straight-line interpreter over `Vec<Record>`; graph kernels use
//! union-find and a from-scratch power iteration instead of CSR
//! label propagation; the kv op mix is re-derived from the prescription
//! and its seeded draw replayed serially and counted, instead of driven
//! by concurrent clients over the LSM.

use bdb_common::prelude::*;
use bdb_datagen::Dataset;
use bdb_exec::engine::{ExecutionRequest, WorkloadClass};
use bdb_testgen::ops::{AggSpec, CompareOp, Operation, ScalarSpec};
use bdb_testgen::pattern::{InputRef, WorkloadPattern};
use bdb_workloads::search::PageRankConfig;
use bdb_workloads::social::{self, KMeansConfig};
use bdb_workloads::OutputPayload;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

/// Compute the reference result for a request, as the payload the
/// dispatched engine is expected to match.
///
/// # Errors
/// Fails when the prescription references data sets or columns the
/// request does not provide — the same shapes the engines reject.
pub fn oracle_payload(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    match WorkloadClass::of(req.prescription) {
        WorkloadClass::Text => text_oracle(req),
        WorkloadClass::Behavioral => behavioral_oracle(req),
        WorkloadClass::Windowed => windowed_oracle(req),
        WorkloadClass::Iterative => iterative_oracle(req),
        WorkloadClass::Element => element_oracle(req),
        WorkloadClass::Relational => relational_oracle(req),
    }
}

// ---------------------------------------------------------------------
// Text kernels
// ---------------------------------------------------------------------

fn text_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let (docs, vocab) = req
        .datasets
        .values()
        .find_map(|d| match d {
            Dataset::Text { docs, vocab } => Some((docs.as_slice(), vocab)),
            _ => None,
        })
        .ok_or_else(|| {
            BdbError::Execution(format!(
                "oracle needs a text data set for prescription {}",
                req.prescription.name
            ))
        })?;
    let ops = req.prescription.pattern.operations();
    if let Some(Operation::Grep { pattern }) =
        ops.iter().find(|o| matches!(o, Operation::Grep { .. }))
    {
        let hits: Vec<String> = match vocab.id(pattern) {
            Some(t) => docs
                .iter()
                .enumerate()
                .filter(|(_, d)| d.words.contains(&t))
                .map(|(i, _)| i.to_string())
                .collect(),
            None => Vec::new(),
        };
        return Ok(OutputPayload::Ordered(hits));
    }
    let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
    for d in docs {
        for &w in &d.words {
            *counts.entry(w).or_insert(0) += 1;
        }
    }
    Ok(OutputPayload::RowSet(
        counts.into_iter().map(|(w, c)| vec![w.to_string(), c.to_string()]).collect(),
    ))
}

// ---------------------------------------------------------------------
// Behavioral analytics
// ---------------------------------------------------------------------

/// Naive batch reference for the behavioral operation class. Every
/// computation here is the textbook O(n·m) formulation over the
/// `(ts, action)`-sorted per-user sequence — deliberately different code
/// from the engines' bounded-state aggregates (the funnel uses an
/// anchor-by-anchor forward scan, not the engines' dynamic program).
fn behavioral_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let events = req
        .datasets
        .values()
        .find_map(|d| match d {
            Dataset::Stream(e) => Some(e.as_slice()),
            _ => None,
        })
        .ok_or_else(|| BdbError::Execution("oracle needs a stream data set".into()))?;
    // Behavioral results are defined on the event-time-ordered per-user
    // sequence, independent of arrival order.
    let mut users: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for e in events {
        users.entry(e.key).or_default().push((e.ts_ms, e.value as u64));
    }
    for seq in users.values_mut() {
        seq.sort_unstable();
    }
    let ops = req.prescription.pattern.operations();
    let op = ops
        .iter()
        .find(|o| {
            matches!(
                o,
                Operation::Sessionize { .. }
                    | Operation::Retention { .. }
                    | Operation::WindowFunnel { .. }
                    | Operation::SequenceMatch { .. }
            )
        })
        .ok_or_else(|| BdbError::Execution("oracle needs a behavioral operation".into()))?;
    let rows: Vec<Vec<String>> = match op {
        Operation::Sessionize { gap_ms } => users
            .iter()
            .map(|(user, seq)| {
                let sessions =
                    1 + seq.windows(2).filter(|w| w[1].0 - w[0].0 > *gap_ms).count() as u64;
                vec![user.to_string(), sessions.to_string(), seq.len().to_string()]
            })
            .collect(),
        Operation::Retention { period_ms, periods } => {
            // One period set per user; periods past 63 clamp to 63 (the
            // engines' documented 64-bit cohort-mask saturation).
            let total = users.len() as u64;
            let sets: Vec<BTreeSet<u64>> = users
                .values()
                .map(|seq| {
                    seq.iter().map(|(ts, _)| (ts / (*period_ms).max(1)).min(63)).collect()
                })
                .collect();
            (0..(*periods).min(64))
                .map(|d| {
                    let returned = sets
                        .iter()
                        .filter(|s| {
                            s.first().is_some_and(|c| {
                                c + u64::from(d) < 64 && s.contains(&(c + u64::from(d)))
                            })
                        })
                        .count() as u64;
                    vec![d.to_string(), returned.to_string(), total.to_string()]
                })
                .collect()
        }
        Operation::WindowFunnel { window_ms, steps } => {
            // A duplicate step action counts for its first matching step.
            let step_of = |action: u64| steps.iter().position(|&a| a == action);
            users
                .iter()
                .map(|(user, seq)| {
                    let mut best = 0u64;
                    for (i, &(t0, a0)) in seq.iter().enumerate() {
                        if step_of(a0) != Some(0) {
                            continue;
                        }
                        let mut level = 1usize;
                        for &(ts, action) in &seq[i + 1..] {
                            if level >= steps.len() || ts - t0 > *window_ms {
                                break;
                            }
                            if step_of(action) == Some(level) {
                                level += 1;
                            }
                        }
                        best = best.max(level as u64);
                    }
                    vec![user.to_string(), best.to_string()]
                })
                .collect()
        }
        Operation::SequenceMatch { steps } => users
            .iter()
            .map(|(user, seq)| {
                let mut ptr = 0usize;
                for &(_, action) in seq {
                    if ptr < steps.len() && action == steps[ptr] {
                        ptr += 1;
                    }
                }
                let hit = u64::from(ptr == steps.len());
                vec![user.to_string(), ptr.to_string(), hit.to_string()]
            })
            .collect(),
        _ => unreachable!("filtered to behavioral operations above"),
    };
    Ok(OutputPayload::RowSet(rows))
}

// ---------------------------------------------------------------------
// Windowed streams
// ---------------------------------------------------------------------

fn windowed_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let window_ms = req
        .prescription
        .pattern
        .operations()
        .iter()
        .find_map(|o| match o {
            Operation::WindowAggregate { window_ms, .. } => Some(*window_ms),
            _ => None,
        })
        .ok_or_else(|| BdbError::Execution("oracle needs a window-aggregate operation".into()))?;
    if window_ms == 0 {
        return Err(BdbError::Execution("zero-width window".into()));
    }
    let events = req
        .datasets
        .values()
        .find_map(|d| match d {
            Dataset::Stream(e) => Some(e.as_slice()),
            _ => None,
        })
        .ok_or_else(|| BdbError::Execution("oracle needs a stream data set".into()))?;
    // Tumbling panes under the zero-lateness watermark contract: an event
    // only counts while its window is still open (start + size >
    // watermark); the watermark is the largest timestamp seen so far.
    let mut watermark = 0u64;
    let mut panes: BTreeMap<(u64, u64), (u64, f64, f64, f64)> = BTreeMap::new();
    for e in events {
        let start = (e.ts_ms / window_ms) * window_ms;
        if start + window_ms > watermark {
            let p = panes
                .entry((start, e.key))
                .or_insert((0, 0.0, f64::INFINITY, f64::NEG_INFINITY));
            p.0 += 1;
            p.1 += e.value;
            p.2 = p.2.min(e.value);
            p.3 = p.3.max(e.value);
        }
        watermark = watermark.max(e.ts_ms);
    }
    Ok(OutputPayload::Ordered(
        panes
            .into_iter()
            .map(|((start, key), (count, sum, min, max))| {
                format!(
                    "{}|{}|{}|{}|{:?}|{:?}|{:?}",
                    start,
                    start + window_ms,
                    key,
                    count,
                    sum,
                    min,
                    max
                )
            })
            .collect(),
    ))
}

// ---------------------------------------------------------------------
// Iterative kernels
// ---------------------------------------------------------------------

fn iterative_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let agg = match &req.prescription.pattern {
        WorkloadPattern::Iterative { body, .. } => body.iter().find_map(|s| match &s.op {
            Operation::Aggregate { function, .. } => Some(*function),
            _ => None,
        }),
        _ => None,
    };
    if let Some(Dataset::Graph(g)) =
        req.datasets.values().find(|d| matches!(d, Dataset::Graph(_)))
    {
        let vals = if agg == Some(AggSpec::Min) {
            cc_union_find(g.num_vertices(), g.edges())
        } else {
            pagerank_reference(g.num_vertices(), g.edges(), &PageRankConfig::default())
        };
        return Ok(OutputPayload::Numeric(
            vals.into_iter().enumerate().map(|(i, v)| (format!("v{i}"), v)).collect(),
        ));
    }
    let table = req
        .datasets
        .values()
        .find_map(|d| match d {
            Dataset::Table(t) => Some(t),
            _ => None,
        })
        .ok_or_else(|| {
            BdbError::Execution("iterative oracle needs a graph or table data set".into())
        })?;
    let points = social::points_from_table(table)?;
    let centroids = kmeans_reference(&points, &KMeansConfig::default(), req.seed);
    Ok(OutputPayload::Numeric(
        centroids
            .into_iter()
            .enumerate()
            .flat_map(|(i, c)| {
                c.into_iter()
                    .enumerate()
                    .map(move |(d, x)| (format!("c{i}.{d}"), x))
                    .collect::<Vec<_>>()
            })
            .collect(),
    ))
}

/// Connected components by union-find over the undirected closure,
/// labelling every vertex with the smallest vertex id in its component —
/// the fixpoint min-label propagation converges to, computed without
/// iterating.
fn cc_union_find(n: usize, edges: &[(u32, u32)]) -> Vec<f64> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for &(u, v) in edges {
        let (ru, rv) = (find(&mut parent, u as usize), find(&mut parent, v as usize));
        if ru != rv {
            parent[ru] = rv;
        }
    }
    let mut min_label: Vec<usize> = (0..n).collect();
    for v in 0..n {
        let r = find(&mut parent, v);
        min_label[r] = min_label[r].min(v);
    }
    (0..n).map(|v| min_label[find(&mut parent, v)] as f64).collect()
}

/// Power iteration with dangling-mass redistribution, written over the
/// raw edge list (no CSR) with the same damping/epsilon/cap contract as
/// the engines' kernels.
fn pagerank_reference(n: usize, edges: &[(u32, u32)], config: &PageRankConfig) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    let d = config.damping;
    let mut out_deg = vec![0u64; n];
    for &(u, _) in edges {
        out_deg[u as usize] += 1;
    }
    let mut ranks = vec![1.0 / n as f64; n];
    for _ in 0..config.max_iterations {
        let mut next = vec![0.0f64; n];
        let mut dangling = 0.0;
        for v in 0..n {
            if out_deg[v] == 0 {
                dangling += ranks[v];
            }
        }
        for &(u, v) in edges {
            next[v as usize] += ranks[u as usize] / out_deg[u as usize] as f64;
        }
        let base = (1.0 - d) / n as f64 + d * dangling / n as f64;
        let mut residual = 0.0;
        for v in 0..n {
            next[v] = base + d * next[v];
            residual += (next[v] - ranks[v]).abs();
        }
        ranks = next;
        if residual < config.epsilon {
            break;
        }
    }
    ranks
}

/// Naive Lloyd iteration. The seeded initialisation (a Fisher–Yates
/// shuffle of point indices under the run seed's "init" child) is part of
/// the prescription's semantics, so the oracle replays it; everything
/// after — assignment to the first strictly-nearest centroid, mean
/// update, movement-based stop — is re-derived independently.
fn kmeans_reference(points: &[Vec<f64>], config: &KMeansConfig, seed: u64) -> Vec<Vec<f64>> {
    if points.is_empty() || config.k == 0 {
        return Vec::new();
    }
    let mut rng = SeedTree::new(seed).child_named("init").rng();
    let mut idx: Vec<usize> = (0..points.len()).collect();
    rng.shuffle(&mut idx);
    let mut centroids: Vec<Vec<f64>> =
        (0..config.k).map(|i| points[idx[i % idx.len()]].clone()).collect();
    let dims = points[0].len();
    let d2 = |a: &[f64], b: &[f64]| -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    };
    for _ in 0..config.max_iterations {
        let mut sums = vec![vec![0.0f64; dims]; config.k];
        let mut counts = vec![0u64; config.k];
        for p in points {
            let mut best = 0;
            let mut best_d = d2(p, &centroids[0]);
            for (c, centroid) in centroids.iter().enumerate().skip(1) {
                let dist = d2(p, centroid);
                if dist < best_d {
                    best_d = dist;
                    best = c;
                }
            }
            for (s, x) in sums[best].iter_mut().zip(p) {
                *s += x;
            }
            counts[best] += 1;
        }
        let mut movement = 0.0;
        for c in 0..config.k {
            if counts[c] == 0 {
                continue;
            }
            let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            movement += d2(&centroids[c], &new).sqrt();
            centroids[c] = new;
        }
        if movement < config.epsilon {
            break;
        }
    }
    centroids
}

// ---------------------------------------------------------------------
// Element mixes (YCSB)
// ---------------------------------------------------------------------

/// Serial replay of the kv engine's drive, without a store. Each element
/// step is one op of the mix: gets read, key updates update, puts and
/// deletes insert, range scans scan up to the first scan's limit.
/// `2 × scale` ops are drawn from the seed's `loadgen` stream: a uniform
/// class draw over consecutive slices in the order read, update, scan,
/// insert (a draw past the last slice, by rounding, takes the last class
/// present), then a Zipf(0.99) key for a read or update, or a uniform
/// start and length for a scan. Inserts take fresh ids and reads address
/// only preloaded keys, so these counts are what any correct execution
/// completes, at any client count.
fn element_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    // Steps, then drawn ops, per class: read, update, scan, insert.
    let mut steps = [0u64; 4];
    let mut scan_limit = None;
    for op in req.prescription.pattern.operations() {
        let class = match op {
            Operation::Get { .. } => 0,
            Operation::UpdateKey { .. } => 1,
            Operation::ScanRange { limit, .. } => {
                scan_limit.get_or_insert(*limit as u64);
                2
            }
            Operation::Put { .. } | Operation::DeleteKey { .. } => 3,
            _ => continue,
        };
        steps[class] += 1;
    }
    let total: u64 = steps.iter().sum();
    if total == 0 || scan_limit == Some(0) || req.scale == 0 {
        return Err(BdbError::Execution(format!(
            "oracle needs element operations, scan limits above 0 and records in prescription {}",
            req.prescription.name
        )));
    }
    let mut acc = 0.0;
    let bounds = steps.map(|n| {
        acc += n as f64 / total as f64;
        acc
    });
    let last = (0..4).rev().find(|c| steps[*c] > 0).unwrap_or(0);
    let records = req.scale;
    let zipf = Zipf::new(records, 0.99);
    let mut rng = SeedTree::new(req.seed).child_named("loadgen").rng();
    let mut counts = [0u64; 4];
    for _ in 0..records * 2 {
        let u = rng.next_f64();
        let class = (0..4).find(|c| steps[*c] > 0 && u < bounds[*c]).unwrap_or(last);
        counts[class] += 1;
        if class < 2 {
            zipf.sample(&mut rng);
        } else if class == 2 {
            rng.next_bounded(records);
            rng.next_bounded(scan_limit.unwrap_or(1));
        }
    }
    let [reads, updates, scans, inserts] = counts.map(|n| n as f64);
    Ok(OutputPayload::Numeric(vec![
        ("final_keys".into(), records as f64 + inserts),
        ("inserts".into(), inserts),
        ("reads".into(), reads),
        ("rmws".into(), 0.0),
        ("scans".into(), scans),
        ("updates".into(), updates),
    ]))
}

// ---------------------------------------------------------------------
// Relational DAGs
// ---------------------------------------------------------------------

/// An intermediate relation: named columns over plain rows.
#[derive(Debug, Clone)]
struct Rel {
    cols: Vec<String>,
    rows: Vec<Record>,
}

impl Rel {
    fn from_table(t: &Table) -> Self {
        Self {
            cols: t.schema().fields().iter().map(|f| f.name.clone()).collect(),
            rows: t.rows().to_vec(),
        }
    }

    fn col(&self, name: &str) -> Result<usize> {
        self.cols
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| BdbError::NotFound(format!("column {name}")))
    }
}

fn scalar_value(s: &ScalarSpec) -> Value {
    match s {
        ScalarSpec::Int(i) => Value::Int(*i),
        ScalarSpec::Float(f) => Value::Float(*f),
        ScalarSpec::Text(t) => Value::Text(t.clone()),
    }
}

fn relational_oracle(req: &ExecutionRequest<'_>) -> Result<OutputPayload> {
    let tables: BTreeMap<&str, &Table> = req
        .datasets
        .iter()
        .filter_map(|(k, v)| match v {
            Dataset::Table(t) => Some((k.as_str(), t)),
            _ => None,
        })
        .collect();
    let rel_of = |name: &str| -> Result<Rel> {
        tables
            .get(name)
            .map(|t| Rel::from_table(t))
            .ok_or_else(|| BdbError::NotFound(format!("data set {name}")))
    };
    let out = match &req.prescription.pattern {
        WorkloadPattern::Single { op, input } => apply(op, &[rel_of(input)?])?,
        WorkloadPattern::Multi { steps } => {
            let mut outs: BTreeMap<u32, Rel> = BTreeMap::new();
            let mut last = None;
            for step in steps {
                let inputs: Vec<Rel> = step
                    .inputs
                    .iter()
                    .map(|r| match r {
                        InputRef::Dataset(d) => rel_of(d),
                        InputRef::Step(id) => outs
                            .get(id)
                            .cloned()
                            .ok_or_else(|| BdbError::Execution(format!("step {id} not run"))),
                    })
                    .collect::<Result<_>>()?;
                let out = apply(&step.op, &inputs)?;
                outs.insert(step.id, out.clone());
                last = Some(out);
            }
            last.ok_or_else(|| BdbError::Execution("empty multi-operation pattern".into()))?
        }
        WorkloadPattern::Iterative { .. } => {
            return Err(BdbError::Execution(
                "iterative patterns take the kernel oracles, not the relational one".into(),
            ))
        }
    };
    Ok(OutputPayload::RowSet(
        out.rows
            .iter()
            .map(|row| row.iter().map(std::string::ToString::to_string).collect())
            .collect(),
    ))
}

/// One operation over its inputs, with the Execution Layer's documented
/// semantics: SQL three-valued predicates (NULL comparisons filter out),
/// nulls sort first, aggregates skip nulls, joins drop null keys.
fn apply(op: &Operation, inputs: &[Rel]) -> Result<Rel> {
    let one = || -> Result<&Rel> {
        inputs.first().ok_or_else(|| BdbError::Execution("missing input".into()))
    };
    let two = || -> Result<(&Rel, &Rel)> {
        match inputs {
            [a, b, ..] => Ok((a, b)),
            _ => Err(BdbError::Execution("double-set operation needs two inputs".into())),
        }
    };
    match op {
        Operation::Select { predicate } => {
            let rel = one()?;
            let idx = rel.col(&predicate.column)?;
            let lit = scalar_value(&predicate.value);
            let rows = rel
                .rows
                .iter()
                .filter(|row| {
                    let v = &row[idx];
                    if v.is_null() || lit.is_null() {
                        return false;
                    }
                    match v.cmp_values(&lit) {
                        Some(ord) => match predicate.op {
                            CompareOp::Eq => ord == Ordering::Equal,
                            CompareOp::Ne => ord != Ordering::Equal,
                            CompareOp::Lt => ord == Ordering::Less,
                            CompareOp::Le => ord != Ordering::Greater,
                            CompareOp::Gt => ord == Ordering::Greater,
                            CompareOp::Ge => ord != Ordering::Less,
                        },
                        None => false,
                    }
                })
                .cloned()
                .collect();
            Ok(Rel { cols: rel.cols.clone(), rows })
        }
        Operation::Project { columns } => {
            let rel = one()?;
            let idx: Vec<usize> =
                columns.iter().map(|c| rel.col(c)).collect::<Result<_>>()?;
            Ok(Rel {
                cols: columns.clone(),
                rows: rel
                    .rows
                    .iter()
                    .map(|row| idx.iter().map(|&i| row[i].clone()).collect())
                    .collect(),
            })
        }
        Operation::SortBy { column, descending } => {
            let rel = one()?;
            let idx = rel.col(column)?;
            let mut rows = rel.rows.clone();
            rows.sort_by(|a, b| {
                if *descending {
                    b[idx].cmp(&a[idx])
                } else {
                    a[idx].cmp(&b[idx])
                }
            });
            Ok(Rel { cols: rel.cols.clone(), rows })
        }
        Operation::TopK { column, k } => {
            let rel = one()?;
            let idx = rel.col(column)?;
            let mut rows = rel.rows.clone();
            rows.sort_by(|a, b| b[idx].cmp(&a[idx]));
            rows.truncate(*k);
            Ok(Rel { cols: rel.cols.clone(), rows })
        }
        Operation::Count => {
            let rel = one()?;
            Ok(Rel {
                cols: vec!["count".into()],
                rows: vec![vec![Value::Int(rel.rows.len() as i64)]],
            })
        }
        Operation::Distinct { column } => {
            let rel = one()?;
            let idx = rel.col(column)?;
            let distinct: BTreeSet<&Value> = rel.rows.iter().map(|row| &row[idx]).collect();
            Ok(Rel {
                cols: vec![column.clone()],
                rows: distinct.into_iter().map(|v| vec![v.clone()]).collect(),
            })
        }
        Operation::Aggregate { function, column, group_by } => {
            let rel = one()?;
            let gi: Vec<usize> = group_by.iter().map(|g| rel.col(g)).collect::<Result<_>>()?;
            let ci = column.as_ref().map(|c| rel.col(c)).transpose()?;
            // Group in input-row order so float accumulation matches the
            // engines' single-pass reducers bit for bit.
            let mut groups: BTreeMap<Vec<&Value>, Vec<Value>> = BTreeMap::new();
            for row in &rel.rows {
                let key: Vec<&Value> = gi.iter().map(|&i| &row[i]).collect();
                let v = match ci {
                    Some(i) => row[i].clone(),
                    None => Value::Int(1),
                };
                groups.entry(key).or_default().push(v);
            }
            let mut rows = Vec::with_capacity(groups.len());
            for (key, vs) in groups {
                let agg = match function {
                    AggSpec::Count => {
                        Value::Int(vs.iter().filter(|v| !v.is_null()).count() as i64)
                    }
                    AggSpec::Sum => {
                        let all_int =
                            vs.iter().all(|v| matches!(v, Value::Int(_) | Value::Null));
                        if all_int {
                            Value::Int(vs.iter().filter_map(Value::as_i64).sum())
                        } else {
                            Value::Float(vs.iter().filter_map(Value::as_f64).sum())
                        }
                    }
                    AggSpec::Avg => {
                        let xs: Vec<f64> = vs.iter().filter_map(Value::as_f64).collect();
                        if xs.is_empty() {
                            Value::Null
                        } else {
                            Value::Float(xs.iter().sum::<f64>() / xs.len() as f64)
                        }
                    }
                    AggSpec::Min => {
                        vs.iter().filter(|v| !v.is_null()).min().cloned().unwrap_or(Value::Null)
                    }
                    AggSpec::Max => {
                        vs.iter().filter(|v| !v.is_null()).max().cloned().unwrap_or(Value::Null)
                    }
                };
                let mut row: Record = key.into_iter().cloned().collect();
                row.push(agg);
                rows.push(row);
            }
            let mut cols = group_by.clone();
            cols.push("agg".into());
            Ok(Rel { cols, rows })
        }
        Operation::Join { left_on, right_on } => {
            let (left, right) = two()?;
            let li = left.col(left_on)?;
            let ri = right.col(right_on)?;
            let mut by_key: BTreeMap<&Value, Vec<&Record>> = BTreeMap::new();
            for row in &right.rows {
                if !row[ri].is_null() {
                    by_key.entry(&row[ri]).or_default().push(row);
                }
            }
            let mut rows = Vec::new();
            for lrow in &left.rows {
                if lrow[li].is_null() {
                    continue;
                }
                if let Some(matches) = by_key.get(&lrow[li]) {
                    for rrow in matches {
                        let mut row = lrow.clone();
                        row.extend(rrow.iter().cloned());
                        rows.push(row);
                    }
                }
            }
            let mut cols: Vec<String> =
                left.cols.iter().map(|c| format!("l.{c}")).collect();
            cols.extend(right.cols.iter().map(|c| format!("r.{c}")));
            Ok(Rel { cols, rows })
        }
        Operation::Union => {
            let (left, right) = two()?;
            if left.cols != right.cols {
                return Err(BdbError::Execution("union column mismatch".into()));
            }
            let mut rows = left.rows.clone();
            rows.extend(right.rows.iter().cloned());
            Ok(Rel { cols: left.cols.clone(), rows })
        }
        Operation::IntersectOn { column } => {
            let (left, right) = two()?;
            let li = left.col(column)?;
            let ri = right.col(column)?;
            let keys: BTreeSet<&Value> = right.rows.iter().map(|row| &row[ri]).collect();
            let rows = left
                .rows
                .iter()
                .filter(|row| keys.contains(&row[li]))
                .cloned()
                .collect();
            Ok(Rel { cols: left.cols.clone(), rows })
        }
        other => Err(BdbError::Execution(format!(
            "operation {} has no relational oracle",
            other.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_testgen::ops::PredicateSpec;

    fn rel(cols: &[&str], rows: Vec<Vec<Value>>) -> Rel {
        Rel { cols: cols.iter().map(|c| (*c).to_string()).collect(), rows }
    }

    #[test]
    fn select_uses_three_valued_logic() {
        let r = rel(
            &["x"],
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        );
        let out = apply(
            &Operation::Select {
                predicate: PredicateSpec {
                    column: "x".into(),
                    op: CompareOp::Ge,
                    value: ScalarSpec::Int(2),
                },
            },
            &[r],
        )
        .unwrap();
        // NULL >= 2 is NULL, which filters out — not "less".
        assert_eq!(out.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn aggregate_sum_stays_integral_over_ints() {
        let r = rel(
            &["g", "v"],
            vec![
                vec![Value::from("a"), Value::Int(2)],
                vec![Value::from("a"), Value::Int(3)],
                vec![Value::from("b"), Value::Null],
            ],
        );
        let out = apply(
            &Operation::Aggregate {
                function: AggSpec::Sum,
                column: Some("v".into()),
                group_by: vec!["g".into()],
            },
            &[r],
        )
        .unwrap();
        assert_eq!(out.cols, vec!["g".to_string(), "agg".to_string()]);
        assert!(out.rows.contains(&vec![Value::from("a"), Value::Int(5)]));
        assert!(out.rows.contains(&vec![Value::from("b"), Value::Int(0)]));
    }

    #[test]
    fn join_drops_null_keys_and_cross_products() {
        let l = rel(
            &["k", "a"],
            vec![
                vec![Value::Int(1), Value::from("l1")],
                vec![Value::Int(1), Value::from("l2")],
                vec![Value::Null, Value::from("l3")],
            ],
        );
        let r = rel(
            &["k", "b"],
            vec![vec![Value::Int(1), Value::from("r1")], vec![Value::Int(1), Value::from("r2")]],
        );
        let out =
            apply(&Operation::Join { left_on: "k".into(), right_on: "k".into() }, &[l, r])
                .unwrap();
        assert_eq!(out.rows.len(), 4);
        assert_eq!(out.cols, vec!["l.k", "l.a", "r.k", "r.b"]);
    }

    #[test]
    fn union_find_labels_are_component_minima() {
        // 0-1-2 form one component; 3 is isolated; 4-5 another.
        let labels = cc_union_find(6, &[(1, 0), (1, 2), (5, 4)]);
        assert_eq!(labels, vec![0.0, 0.0, 0.0, 3.0, 4.0, 4.0]);
    }

    #[test]
    fn pagerank_reference_sums_to_one() {
        let ranks = pagerank_reference(3, &[(0, 1), (1, 2), (2, 0)], &PageRankConfig::default());
        let total: f64 = ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        // A 3-cycle is symmetric: every vertex holds 1/3.
        for r in ranks {
            assert!((r - 1.0 / 3.0).abs() < 1e-9);
        }
    }
}
