//! Physical execution of logical plans.
//!
//! The executor interprets the (optimised) logical plan directly with
//! materialised row batches: scan with projection pushdown, filter,
//! project, build/probe hash join, hash aggregation, sort, limit. Every
//! operator updates [`ExecStats`], the engine's operation counters for the
//! architecture metrics.

use crate::catalog::Catalog;
use crate::parser::AggFunc;
use crate::plan::LogicalPlan;
use bdb_common::record::{Record, Table};
use bdb_common::value::Value;
use bdb_common::{BdbError, Result};
use std::collections::HashMap;

/// Operation counters collected during execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from base tables.
    pub rows_scanned: u64,
    /// Predicate evaluations.
    pub predicate_evals: u64,
    /// Rows produced by all operators.
    pub rows_produced: u64,
    /// Hash-table inserts (join build + aggregation).
    pub hash_build_rows: u64,
    /// Hash-table probes (join probe side).
    pub hash_probe_rows: u64,
    /// Key comparisons performed by sorts.
    pub sort_comparisons: u64,
}

impl ExecStats {
    /// Accumulate another stats block.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.predicate_evals += other.predicate_evals;
        self.rows_produced += other.rows_produced;
        self.hash_build_rows += other.hash_build_rows;
        self.hash_probe_rows += other.hash_probe_rows;
        self.sort_comparisons += other.sort_comparisons;
    }

    /// Total counted operations — the instruction proxy for MIPS-style
    /// architecture metrics.
    pub fn total_ops(&self) -> u64 {
        self.rows_scanned
            + self.predicate_evals
            + self.rows_produced
            + self.hash_build_rows
            + self.hash_probe_rows
            + self.sort_comparisons
    }
}

/// Executes plans against a catalog.
#[derive(Debug)]
pub struct Executor<'a> {
    catalog: &'a Catalog,
    stats: ExecStats,
}

impl<'a> Executor<'a> {
    /// An executor over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog, stats: ExecStats::default() }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Execute a plan to a materialised table.
    pub fn run(&mut self, plan: &LogicalPlan) -> Result<Table> {
        let rows = self.execute(plan)?;
        Table::from_rows(plan.schema().clone(), rows)
    }

    fn execute(&mut self, plan: &LogicalPlan) -> Result<Vec<Record>> {
        match plan {
            LogicalPlan::Scan { table, projection, .. } => {
                let t = self.catalog.get(table)?;
                self.stats.rows_scanned += t.len() as u64;
                let rows: Vec<Record> = match projection {
                    None => t.rows().to_vec(),
                    Some(cols) => t
                        .rows()
                        .iter()
                        .map(|r| cols.iter().map(|&c| r[c].clone()).collect())
                        .collect(),
                };
                self.stats.rows_produced += rows.len() as u64;
                Ok(rows)
            }
            LogicalPlan::Filter { input, predicate } => {
                let schema = input.schema().clone();
                let rows = self.execute(input)?;
                self.stats.predicate_evals += rows.len() as u64;
                let mut out = Vec::new();
                for r in rows {
                    if predicate.eval_predicate(&schema, &r)? {
                        out.push(r);
                    }
                }
                self.stats.rows_produced += out.len() as u64;
                Ok(out)
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let schema = input.schema().clone();
                let rows = self.execute(input)?;
                let mut out = Vec::with_capacity(rows.len());
                for r in rows {
                    let row: Record = exprs
                        .iter()
                        .map(|(e, _)| e.eval(&schema, &r))
                        .collect::<Result<_>>()?;
                    out.push(row);
                }
                self.stats.rows_produced += out.len() as u64;
                Ok(out)
            }
            LogicalPlan::Join { left, right, left_key, right_key, .. } => {
                let left_schema = left.schema().clone();
                let right_schema = right.schema().clone();
                let left_rows = self.execute(left)?;
                let right_rows = self.execute(right)?;
                let lk = left_schema
                    .index_of(left_key)
                    .ok_or_else(|| BdbError::NotFound(format!("join key {left_key}")))?;
                let rk = right_schema
                    .index_of(right_key)
                    .ok_or_else(|| BdbError::NotFound(format!("join key {right_key}")))?;
                // Build on the smaller side for memory; probe the larger.
                let (build_rows, probe_rows, build_idx, probe_idx, build_is_left) =
                    if left_rows.len() <= right_rows.len() {
                        (&left_rows, &right_rows, lk, rk, true)
                    } else {
                        (&right_rows, &left_rows, rk, lk, false)
                    };
                let mut table: HashMap<&Value, Vec<&Record>> = HashMap::new();
                for r in build_rows {
                    if r[build_idx].is_null() {
                        continue; // NULL never joins
                    }
                    self.stats.hash_build_rows += 1;
                    table.entry(&r[build_idx]).or_default().push(r);
                }
                let mut out = Vec::new();
                for probe in probe_rows {
                    self.stats.hash_probe_rows += 1;
                    if probe[probe_idx].is_null() {
                        continue;
                    }
                    if let Some(matches) = table.get(&probe[probe_idx]) {
                        for build in matches {
                            let mut row =
                                Vec::with_capacity(build.len() + probe.len());
                            if build_is_left {
                                row.extend(build.iter().cloned());
                                row.extend(probe.iter().cloned());
                            } else {
                                row.extend(probe.iter().cloned());
                                row.extend(build.iter().cloned());
                            }
                            out.push(row);
                        }
                    }
                }
                self.stats.rows_produced += out.len() as u64;
                Ok(out)
            }
            LogicalPlan::Aggregate { input, group_by, aggregates, .. } => {
                let schema = input.schema().clone();
                let rows = self.execute(input)?;
                let group_idx: Vec<usize> = group_by
                    .iter()
                    .map(|g| {
                        schema
                            .index_of(g)
                            .ok_or_else(|| BdbError::NotFound(format!("group key {g}")))
                    })
                    .collect::<Result<_>>()?;
                let agg_idx: Vec<Option<usize>> = aggregates
                    .iter()
                    .map(|(_, arg, _)| {
                        arg.as_ref()
                            .map(|a| {
                                schema
                                    .index_of(a)
                                    .ok_or_else(|| BdbError::NotFound(format!("agg arg {a}")))
                            })
                            .transpose()
                    })
                    .collect::<Result<_>>()?;
                // Group states keyed by the grouping values; a group's key is
                // its first row's values.
                let new_states = || -> Vec<AggState> {
                    aggregates.iter().map(|(f, _, _)| AggState::new(*f)).collect()
                };
                let mut groups: HashMap<Vec<&Value>, Vec<AggState>> = HashMap::new();
                for r in &rows {
                    self.stats.hash_build_rows += 1;
                    let key: Vec<&Value> = group_idx.iter().map(|&i| &r[i]).collect();
                    let states = groups.entry(key).or_insert_with(new_states);
                    for (state, idx) in states.iter_mut().zip(&agg_idx) {
                        let v = idx.map(|i| &r[i]);
                        state.update(v);
                    }
                }
                // A global aggregate over zero rows still yields one row.
                if groups.is_empty() && group_idx.is_empty() {
                    groups.insert(Vec::new(), new_states());
                }
                let mut out: Vec<Record> = groups
                    .into_iter()
                    .map(|(key, states)| {
                        key.into_iter()
                            .cloned()
                            .chain(states.into_iter().map(AggState::finish))
                            .collect()
                    })
                    .collect();
                // Deterministic output order for tests and reports.
                out.sort();
                self.stats.rows_produced += out.len() as u64;
                Ok(out)
            }
            LogicalPlan::Sort { input, keys } => {
                let schema = input.schema().clone();
                let mut rows = self.execute(input)?;
                let key_idx: Vec<(usize, bool)> = keys
                    .iter()
                    .map(|(k, desc)| {
                        schema
                            .index_of(k)
                            .map(|i| (i, *desc))
                            .ok_or_else(|| BdbError::NotFound(format!("sort key {k}")))
                    })
                    .collect::<Result<_>>()?;
                let mut comparisons = 0u64;
                rows.sort_by(|a, b| {
                    for &(i, desc) in &key_idx {
                        comparisons += 1;
                        let ord = if desc { b[i].cmp(&a[i]) } else { a[i].cmp(&b[i]) };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                self.stats.sort_comparisons += comparisons;
                self.stats.rows_produced += rows.len() as u64;
                Ok(rows)
            }
            LogicalPlan::Limit { input, n } => {
                let mut rows = self.execute(input)?;
                rows.truncate(*n);
                self.stats.rows_produced += rows.len() as u64;
                Ok(rows)
            }
        }
    }
}

/// Streaming aggregate accumulator.
#[derive(Debug, Clone)]
enum AggState {
    Count(u64),
    SumInt { sum: i64, any: bool, as_float: bool, fsum: f64 },
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::SumInt { sum: 0, any: false, as_float: false, fsum: 0.0 },
            AggFunc::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) {
        match self {
            AggState::Count(n) => {
                // COUNT(*) counts rows; COUNT(col) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    Some(_) => {}
                }
            }
            AggState::SumInt { sum, any, as_float, fsum } => {
                if let Some(val) = v {
                    match val {
                        Value::Int(i) => {
                            *sum += i;
                            *fsum += *i as f64;
                            *any = true;
                        }
                        Value::Float(f) => {
                            *fsum += f;
                            *as_float = true;
                            *any = true;
                        }
                        _ => {}
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(x) = v.and_then(Value::as_f64) {
                    *sum += x;
                    *n += 1;
                }
            }
            // Of equal values, MIN keeps the first and MAX the last, as
            // `Iterator::min` and `Iterator::max` do.
            AggState::Min(cur) => {
                if let Some(val) = v.filter(|val| !val.is_null()) {
                    if cur.as_ref().is_none_or(|c| val < c) {
                        *cur = Some(val.clone());
                    }
                }
            }
            AggState::Max(cur) => {
                if let Some(val) = v.filter(|val| !val.is_null()) {
                    if cur.as_ref().is_none_or(|c| val >= c) {
                        *cur = Some(val.clone());
                    }
                }
            }
        }
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n as i64),
            AggState::SumInt { sum, any, as_float, fsum } => {
                if !any {
                    Value::Null
                } else if as_float {
                    Value::Float(fsum)
                } else {
                    Value::Int(sum)
                }
            }
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use bdb_common::value::{DataType, Field, Schema};

    fn engine() -> Engine {
        let mut e = Engine::new();
        let orders = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("user_id", DataType::Int),
            Field::new("total", DataType::Float),
            Field::new("city", DataType::Text),
        ]);
        let mut t = Table::new(orders);
        for (id, uid, total, city) in [
            (1, 10, 5.0, "york"),
            (2, 11, 7.5, "leeds"),
            (3, 10, 2.5, "york"),
            (4, 12, 10.0, "hull"),
            (5, 10, 1.0, "leeds"),
        ] {
            t.push(vec![
                Value::Int(id),
                Value::Int(uid),
                Value::Float(total),
                Value::from(city),
            ])
            .unwrap();
        }
        e.register("orders", t).unwrap();

        let users = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Text),
        ]);
        let mut u = Table::new(users);
        for (id, name) in [(10, "ann"), (11, "bob"), (13, "cat")] {
            u.push(vec![Value::Int(id), Value::from(name)]).unwrap();
        }
        e.register("users", u).unwrap();
        e
    }

    #[test]
    fn filter_project() {
        let mut e = engine();
        let out = e
            .sql("SELECT id, total * 2 AS dbl FROM orders WHERE total >= 5.0")
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out.rows()[0][1], Value::Float(10.0));
    }

    #[test]
    fn global_aggregates() {
        let mut e = engine();
        let out = e
            .sql("SELECT COUNT(*), SUM(total), AVG(total), MIN(total), MAX(total) FROM orders")
            .unwrap();
        let r = &out.rows()[0];
        assert_eq!(r[0], Value::Int(5));
        assert_eq!(r[1], Value::Float(26.0));
        assert_eq!(r[2], Value::Float(5.2));
        assert_eq!(r[3], Value::Float(1.0));
        assert_eq!(r[4], Value::Float(10.0));
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let mut e = engine();
        let out = e
            .sql("SELECT COUNT(*), SUM(total) FROM orders WHERE total > 100.0")
            .unwrap();
        let r = &out.rows()[0];
        assert_eq!(r[0], Value::Int(0));
        assert!(r[1].is_null());
    }

    #[test]
    fn group_by_aggregation() {
        let mut e = engine();
        let out = e
            .sql("SELECT city, COUNT(*) AS n, SUM(total) AS t FROM orders GROUP BY city ORDER BY city")
            .unwrap();
        let rows = out.rows();
        assert_eq!(rows.len(), 3);
        // hull, leeds, york in order.
        assert_eq!(rows[0][0], Value::from("hull"));
        assert_eq!(rows[0][1], Value::Int(1));
        assert_eq!(rows[2][0], Value::from("york"));
        assert_eq!(rows[2][2], Value::Float(7.5));
    }

    #[test]
    fn hash_join_inner_semantics() {
        let mut e = engine();
        let out = e
            .sql(
                "SELECT users.name, orders.total FROM orders JOIN users ON orders.user_id = users.id ORDER BY orders.total",
            )
            .unwrap();
        // user 12 has no match; user 13 has no orders.
        assert_eq!(out.len(), 4);
        assert_eq!(out.rows()[0][0], Value::from("ann")); // total 1.0
        assert_eq!(out.rows()[3][1], Value::Float(7.5)); // bob's order
    }

    #[test]
    fn join_then_group() {
        let mut e = engine();
        let out = e
            .sql(
                "SELECT users.name, SUM(orders.total) AS spend FROM orders JOIN users ON orders.user_id = users.id GROUP BY users.name ORDER BY spend DESC",
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rows()[0][0], Value::from("ann"));
        assert_eq!(out.rows()[0][1], Value::Float(8.5));
    }

    #[test]
    fn order_by_desc_and_limit() {
        let mut e = engine();
        let out = e
            .sql("SELECT id FROM orders ORDER BY total DESC LIMIT 2")
            .unwrap();
        let ids: Vec<i64> = out.rows().iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![4, 2]);
    }

    #[test]
    fn count_column_skips_nulls() {
        let mut e = Engine::new();
        let schema = Schema::new(vec![Field::nullable("x", DataType::Int)]);
        let mut t = Table::new(schema);
        t.push(vec![Value::Int(1)]).unwrap();
        t.push(vec![Value::Null]).unwrap();
        t.push(vec![Value::Int(3)]).unwrap();
        e.register("t", t).unwrap();
        let out = e.sql("SELECT COUNT(*), COUNT(x) FROM t").unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(3));
        assert_eq!(out.rows()[0][1], Value::Int(2));
    }

    #[test]
    fn stats_count_join_work() {
        let mut e = engine();
        e.sql("SELECT users.name FROM orders JOIN users ON orders.user_id = users.id")
            .unwrap();
        let s = e.stats();
        assert!(s.hash_build_rows > 0);
        assert!(s.hash_probe_rows > 0);
        assert!(s.total_ops() > 0);
    }

    #[test]
    fn select_distinct_dedupes() {
        let mut e = engine();
        let out = e.sql("SELECT DISTINCT city FROM orders ORDER BY city").unwrap();
        let cities: Vec<String> = out
            .rows()
            .iter()
            .map(|r| r[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(cities, vec!["hull", "leeds", "york"]);
    }

    #[test]
    fn having_filters_groups() {
        let mut e = engine();
        let out = e
            .sql("SELECT city, COUNT(*) AS n FROM orders GROUP BY city HAVING n >= 2 ORDER BY city")
            .unwrap();
        assert_eq!(out.len(), 2); // leeds and york have 2 orders each
        for row in out.rows() {
            assert!(row[1].as_i64().unwrap() >= 2);
        }
        // HAVING on an aggregate's default name works too.
        let out = e
            .sql("SELECT city, SUM(total) FROM orders GROUP BY city HAVING sum_total > 8.0")
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn having_without_group_by_is_rejected() {
        let mut e = engine();
        assert!(e.sql("SELECT id FROM orders HAVING id > 1").is_err());
    }

    #[test]
    fn sum_of_ints_stays_int() {
        let mut e = engine();
        let out = e.sql("SELECT SUM(id) FROM orders").unwrap();
        assert_eq!(out.rows()[0][0], Value::Int(15));
    }
}
