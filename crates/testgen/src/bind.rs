//! Binding abstract tests to concrete engines (the *system view*).
//!
//! "An abstracted benchmark test ... is independent of underlying systems
//! and software stacks. From the system view, this abstract test can be
//! implemented over different systems and thereby allows the comparison of
//! systems of the same type" — and, via the functional view, of different
//! types. [`SqlBinding`] lowers a pattern to relational plans on
//! `bdb-sql`; [`MapReduceBinding`] lowers the same pattern to MapReduce
//! jobs on `bdb-mapreduce`. Both must produce identical result sets (up to
//! row order), which the ABL2 ablation bench and the binding tests verify.

use crate::ops::{AggSpec, CompareOp, Operation, PredicateSpec, ScalarSpec};
use crate::pattern::{InputRef, Step, WorkloadPattern};
use bdb_common::record::{Record, Table};
use bdb_common::value::{DataType, Field, Schema, Value};
use bdb_common::{BdbError, Result};
use bdb_mapreduce::{run_job, JobConfig};
use bdb_sql::expr::{BinOp, Expr};
use bdb_sql::plan::LogicalPlan;
use bdb_sql::{Catalog, Executor};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One executed step of a bound test, for structured tracing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepExecution {
    /// Operation name (see `Operation::name`).
    pub op: String,
    /// Rows the step produced.
    pub rows_out: u64,
    /// Wall-clock time of the step.
    pub elapsed: Duration,
}

/// The result of executing a bound test.
#[derive(Debug)]
pub struct BoundExecution {
    /// The terminal step's output.
    pub output: Table,
    /// Record-level operations the engine performed.
    pub record_ops: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Per-step execution records, in DAG order.
    pub steps: Vec<StepExecution>,
}

impl BoundExecution {
    /// Output rows in `Value`'s total order, for cross-engine comparison.
    pub fn sorted_rows(&self) -> Vec<Record> {
        let mut rows = self.output.rows().to_vec();
        rows.sort();
        rows
    }
}

/// An engine that can execute table-processing workload patterns.
pub trait PatternExecutor {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Execute `pattern` over the named input tables.
    fn execute(
        &self,
        pattern: &WorkloadPattern,
        datasets: &BTreeMap<String, Table>,
    ) -> Result<BoundExecution>;
}

// ---------------------------------------------------------------------
// Shared lowering helpers
// ---------------------------------------------------------------------

fn predicate_to_expr(p: &PredicateSpec) -> Expr {
    let lit = match &p.value {
        ScalarSpec::Int(i) => Value::Int(*i),
        ScalarSpec::Float(f) => Value::Float(*f),
        ScalarSpec::Text(s) => Value::Text(s.clone()),
    };
    let op = match p.op {
        CompareOp::Eq => BinOp::Eq,
        CompareOp::Ne => BinOp::Ne,
        CompareOp::Lt => BinOp::Lt,
        CompareOp::Le => BinOp::Le,
        CompareOp::Gt => BinOp::Gt,
        CompareOp::Ge => BinOp::Ge,
    };
    Expr::binary(Expr::col(&p.column), op, Expr::Literal(lit))
}

fn predicate_matches(p: &PredicateSpec, schema: &Schema, row: &Record) -> Result<bool> {
    predicate_to_expr(p).eval_predicate(schema, row)
}

/// Resolve the tables each step consumes, in pattern order; returns the
/// terminal output. `run_step` executes one operation over its inputs.
fn run_dag<F>(
    steps: &[Step],
    datasets: &BTreeMap<String, Table>,
    mut run_step: F,
) -> Result<Table>
where
    F: FnMut(&Operation, Vec<&Table>) -> Result<Table>,
{
    let mut outputs: BTreeMap<u32, Table> = BTreeMap::new();
    let mut terminal = None;
    for step in steps {
        let mut inputs: Vec<&Table> = Vec::with_capacity(step.inputs.len());
        for r in &step.inputs {
            let t = match r {
                InputRef::Dataset(name) => datasets
                    .get(name)
                    .ok_or_else(|| BdbError::NotFound(format!("dataset {name}")))?,
                InputRef::Step(id) => outputs
                    .get(id)
                    .ok_or_else(|| BdbError::TestGen(format!("step {id} not yet run")))?,
            };
            inputs.push(t);
        }
        let out = run_step(&step.op, inputs)?;
        outputs.insert(step.id, out);
        terminal = Some(step.id);
    }
    let id = terminal.ok_or_else(|| BdbError::TestGen("empty pattern".into()))?;
    Ok(outputs.remove(&id).expect("terminal output exists"))
}

fn steps_of(pattern: &WorkloadPattern) -> Result<Vec<Step>> {
    pattern.validate()?;
    Ok(match pattern {
        WorkloadPattern::Single { op, input } => vec![Step {
            id: 0,
            op: op.clone(),
            inputs: vec![InputRef::Dataset(input.clone())],
        }],
        WorkloadPattern::Multi { steps } => steps.clone(),
        WorkloadPattern::Iterative { .. } => {
            return Err(BdbError::TestGen(
                "iterative patterns bind via workload kernels, not table engines".into(),
            ))
        }
    })
}

// ---------------------------------------------------------------------
// SQL binding
// ---------------------------------------------------------------------

/// Lower patterns to `bdb-sql` logical plans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SqlBinding;

impl SqlBinding {
    /// Register step inputs as `__in0` / `__in1` in a fresh catalog.
    fn input_catalog(inputs: &[&Table]) -> Result<Catalog> {
        let mut catalog = Catalog::new();
        for (i, t) in inputs.iter().enumerate() {
            catalog.register(&format!("__in{i}"), (*t).clone())?;
        }
        Ok(catalog)
    }

    /// Build the logical plan one operation lowers to, or `None` for the
    /// direct table operations (union, intersect) that bypass the
    /// planner.
    ///
    /// # Errors
    /// Fails when the operation has no relational lowering.
    fn build_step_plan(op: &Operation, inputs: &[&Table]) -> Result<Option<LogicalPlan>> {
        let scan = |i: usize| -> LogicalPlan {
            LogicalPlan::Scan {
                table: format!("__in{i}"),
                schema: inputs[i].schema().clone(),
                projection: None,
            }
        };
        let plan = match op {
            Operation::Select { predicate } => LogicalPlan::Filter {
                input: Box::new(scan(0)),
                predicate: predicate_to_expr(predicate),
            },
            Operation::Project { columns } => {
                let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                let schema = inputs[0].schema().project(&names)?;
                LogicalPlan::Project {
                    input: Box::new(scan(0)),
                    exprs: columns
                        .iter()
                        .map(|c| (Expr::col(c), c.clone()))
                        .collect(),
                    schema,
                }
            }
            Operation::SortBy { column, descending } => LogicalPlan::Sort {
                input: Box::new(scan(0)),
                keys: vec![(column.clone(), *descending)],
            },
            Operation::TopK { column, k } => LogicalPlan::Limit {
                input: Box::new(LogicalPlan::Sort {
                    input: Box::new(scan(0)),
                    keys: vec![(column.clone(), true)],
                }),
                n: *k,
            },
            Operation::Count => LogicalPlan::Aggregate {
                input: Box::new(scan(0)),
                group_by: vec![],
                aggregates: vec![(bdb_sql::parser::AggFunc::Count, None, "count".into())],
                schema: Schema::new(vec![Field::nullable("count", DataType::Int)]),
            },
            Operation::Distinct { column } => {
                let field = inputs[0]
                    .schema()
                    .field(column)
                    .ok_or_else(|| BdbError::NotFound(format!("column {column}")))?
                    .clone();
                LogicalPlan::Aggregate {
                    input: Box::new(scan(0)),
                    group_by: vec![column.clone()],
                    aggregates: vec![],
                    schema: Schema::new(vec![field]),
                }
            }
            Operation::Aggregate { function, column, group_by } => {
                let func = match function {
                    AggSpec::Count => bdb_sql::parser::AggFunc::Count,
                    AggSpec::Sum => bdb_sql::parser::AggFunc::Sum,
                    AggSpec::Avg => bdb_sql::parser::AggFunc::Avg,
                    AggSpec::Min => bdb_sql::parser::AggFunc::Min,
                    AggSpec::Max => bdb_sql::parser::AggFunc::Max,
                };
                let in_schema = inputs[0].schema();
                let mut fields: Vec<Field> = group_by
                    .iter()
                    .map(|g| {
                        in_schema
                            .field(g)
                            .cloned()
                            .ok_or_else(|| BdbError::NotFound(format!("column {g}")))
                    })
                    .collect::<Result<_>>()?;
                let out_name = "agg".to_string();
                let out_type = match function {
                    AggSpec::Count => DataType::Int,
                    AggSpec::Avg => DataType::Float,
                    _ => column
                        .as_ref()
                        .and_then(|c| in_schema.field(c))
                        .map_or(DataType::Float, |f| f.data_type),
                };
                fields.push(Field::nullable(out_name.clone(), out_type));
                LogicalPlan::Aggregate {
                    input: Box::new(scan(0)),
                    group_by: group_by.clone(),
                    aggregates: vec![(func, column.clone(), out_name)],
                    schema: Schema::new(fields),
                }
            }
            Operation::Join { left_on, right_on } => {
                // Qualify both sides to avoid duplicate column names.
                let qualify = |prefix: &str, t: &Table, idx: usize| -> LogicalPlan {
                    let schema = Schema::new(
                        t.schema()
                            .fields()
                            .iter()
                            .map(|f| Field::nullable(format!("{prefix}.{}", f.name), f.data_type))
                            .collect(),
                    );
                    LogicalPlan::Project {
                        input: Box::new(LogicalPlan::Scan {
                            table: format!("__in{idx}"),
                            schema: t.schema().clone(),
                            projection: None,
                        }),
                        exprs: t
                            .schema()
                            .fields()
                            .iter()
                            .map(|f| (Expr::col(&f.name), format!("{prefix}.{}", f.name)))
                            .collect(),
                        schema,
                    }
                };
                let left = qualify("l", inputs[0], 0);
                let right = qualify("r", inputs[1], 1);
                let mut fields = left.schema().fields().to_vec();
                fields.extend(right.schema().fields().to_vec());
                LogicalPlan::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    left_key: format!("l.{left_on}"),
                    right_key: format!("r.{right_on}"),
                    schema: Schema::new(fields),
                }
            }
            Operation::Union | Operation::IntersectOn { .. } => return Ok(None),
            other => {
                return Err(BdbError::TestGen(format!(
                    "operation {} has no relational lowering",
                    other.name()
                )))
            }
        };
        Ok(Some(plan))
    }

    /// Execute the direct table operations that bypass the planner.
    fn run_direct(op: &Operation, inputs: &[&Table]) -> Result<Table> {
        match op {
            Operation::Union => {
                if inputs[0].schema() != inputs[1].schema() {
                    return Err(BdbError::TestGen("union schema mismatch".into()));
                }
                let mut t = inputs[0].clone();
                t.append(inputs[1].clone())?;
                Ok(t)
            }
            Operation::IntersectOn { column } => {
                // Semi-join: keep left rows whose key appears on the right.
                let rk: std::collections::BTreeSet<Value> =
                    inputs[1].column(column)?.into_iter().collect();
                let idx = inputs[0]
                    .schema()
                    .index_of(column)
                    .ok_or_else(|| BdbError::NotFound(format!("column {column}")))?;
                let rows: Vec<Record> = inputs[0]
                    .rows()
                    .iter()
                    .filter(|r| rk.contains(&r[idx]))
                    .cloned()
                    .collect();
                Table::from_rows(inputs[0].schema().clone(), rows)
            }
            other => Err(BdbError::TestGen(format!(
                "operation {} is not a direct table operation",
                other.name()
            ))),
        }
    }

    fn lower_step(op: &Operation, inputs: Vec<&Table>) -> Result<Table> {
        match Self::build_step_plan(op, &inputs)? {
            Some(plan) => {
                let catalog = Self::input_catalog(&inputs)?;
                let (plan, _) = bdb_sql::memo::optimize_with_cost(plan, &catalog);
                let mut exec = Executor::new(&catalog);
                exec.run(&plan)
            }
            None => Self::run_direct(op, &inputs),
        }
    }

    /// Price the memo-extracted plans the binding would execute for
    /// `pattern` over `datasets`, in the memo's rows-touched units.
    ///
    /// Steps whose inputs are all concrete data sets are priced through
    /// [`bdb_sql::memo::optimize_with_cost`]; steps consuming
    /// intermediate results (whose tables don't exist yet) fall back to
    /// per-operation cardinality rules over the estimated input rows.
    /// Returns `None` when the pattern has no relational lowering.
    pub fn estimate_cost(
        pattern: &WorkloadPattern,
        datasets: &BTreeMap<String, Table>,
    ) -> Option<f64> {
        let steps = steps_of(pattern).ok()?;
        let mut rows_of: BTreeMap<u32, f64> = BTreeMap::new();
        let mut total = 0.0;
        for step in &steps {
            let mut tables: Vec<Option<&Table>> = Vec::with_capacity(step.inputs.len());
            let mut in_rows: Vec<f64> = Vec::with_capacity(step.inputs.len());
            for r in &step.inputs {
                match r {
                    InputRef::Dataset(name) => {
                        let t = datasets.get(name)?;
                        tables.push(Some(t));
                        in_rows.push(t.len() as f64);
                    }
                    InputRef::Step(id) => {
                        tables.push(None);
                        in_rows.push(*rows_of.get(id)?);
                    }
                }
            }
            let concrete: Option<Vec<&Table>> = tables.into_iter().collect();
            let (rows, cost) = match concrete {
                Some(ts) => match Self::build_step_plan(&step.op, &ts) {
                    Ok(Some(plan)) => {
                        let catalog = Self::input_catalog(&ts).ok()?;
                        let (_, c) = bdb_sql::memo::optimize_with_cost(plan, &catalog);
                        (c.rows, c.cost)
                    }
                    Ok(None) => Self::approx_step(&step.op, &in_rows)?,
                    Err(_) => return None,
                },
                None => Self::approx_step(&step.op, &in_rows)?,
            };
            rows_of.insert(step.id, rows);
            total += cost;
        }
        Some(total)
    }

    /// Cardinality-rule fallback for steps the memo can't price because
    /// their input tables aren't materialised yet. Mirrors the memo's
    /// default selectivities.
    fn approx_step(op: &Operation, in_rows: &[f64]) -> Option<(f64, f64)> {
        let lg = |n: f64| if n > 1.0 { n.log2() } else { 0.0 };
        let sum: f64 = in_rows.iter().sum();
        let first = in_rows.first().copied().unwrap_or(0.0);
        let pair_min = in_rows
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(first);
        Some(match op {
            Operation::Select { .. } => (first * 0.25, sum),
            Operation::Project { .. } => (first, sum),
            Operation::SortBy { .. } => (first, sum + first * lg(first)),
            Operation::TopK { k, .. } => ((*k as f64).min(first), sum + first * lg(first)),
            Operation::Count => (1.0, sum),
            Operation::Distinct { .. } => ((first * 0.1).max(1.0), sum),
            Operation::Aggregate { group_by, .. } => (
                if group_by.is_empty() { 1.0 } else { (first * 0.1).max(1.0) },
                sum,
            ),
            Operation::Join { .. } => (pair_min, sum),
            Operation::Union => (sum, sum),
            Operation::IntersectOn { .. } => (pair_min, sum),
            _ => return None,
        })
    }
}

impl PatternExecutor for SqlBinding {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn execute(
        &self,
        pattern: &WorkloadPattern,
        datasets: &BTreeMap<String, Table>,
    ) -> Result<BoundExecution> {
        let steps = steps_of(pattern)?;
        let start = Instant::now();
        let mut record_ops = 0u64;
        let mut executed = Vec::with_capacity(steps.len());
        let output = run_dag(&steps, datasets, |op, inputs| {
            let before: u64 = inputs.iter().map(|t| t.len() as u64).sum();
            let t0 = Instant::now();
            let out = Self::lower_step(op, inputs)?;
            record_ops += before + out.len() as u64;
            executed.push(StepExecution {
                op: op.name().to_string(),
                rows_out: out.len() as u64,
                elapsed: t0.elapsed(),
            });
            Ok(out)
        })?;
        Ok(BoundExecution { output, record_ops, elapsed: start.elapsed(), steps: executed })
    }
}

// ---------------------------------------------------------------------
// MapReduce binding
// ---------------------------------------------------------------------

/// Lower patterns to MapReduce jobs.
#[derive(Debug, Clone, Copy)]
#[derive(Default)]
pub struct MapReduceBinding {
    /// Job configuration used for every lowered job.
    pub config: JobConfig,
}


impl MapReduceBinding {
    fn run_step(&self, op: &Operation, inputs: Vec<&Table>) -> Result<(Table, u64)> {
        let cfg = &self.config;
        match op {
            Operation::Select { predicate } => {
                let schema = inputs[0].schema().clone();
                let pred_schema = schema.clone();
                let pred = predicate.clone();
                let rows = inputs[0].rows().to_vec();
                let r = run_job(
                    cfg,
                    rows,
                    move |row: &Record, emit| {
                        if predicate_matches(&pred, &pred_schema, row).unwrap_or(false) {
                            emit(0u8, row.clone());
                        }
                    },
                    |_k: &u8, vs: Vec<Record>, out| {
                        for v in vs {
                            out(v);
                        }
                    },
                );
                Ok((
                    Table::from_rows(schema, r.outputs)?,
                    r.counters.total_record_ops(),
                ))
            }
            Operation::Project { columns } => {
                let names: Vec<&str> = columns.iter().map(String::as_str).collect();
                let schema = inputs[0].schema().project(&names)?;
                let idx: Vec<usize> = columns
                    .iter()
                    .map(|c| inputs[0].schema().index_of(c).expect("projected"))
                    .collect();
                let rows = inputs[0].rows().to_vec();
                let r = run_job(
                    cfg,
                    rows,
                    move |row: &Record, emit| {
                        emit(0u8, idx.iter().map(|&i| row[i].clone()).collect::<Record>());
                    },
                    |_k: &u8, vs: Vec<Record>, out| {
                        for v in vs {
                            out(v);
                        }
                    },
                );
                Ok((
                    Table::from_rows(schema, r.outputs)?,
                    r.counters.total_record_ops(),
                ))
            }
            Operation::SortBy { column, descending } => {
                // The classic MR sort: key on the column, one reducer,
                // framework sort order.
                let schema = inputs[0].schema().clone();
                let idx = schema
                    .index_of(column)
                    .ok_or_else(|| BdbError::NotFound(format!("column {column}")))?;
                let rows = inputs[0].rows().to_vec();
                let single = JobConfig { reduce_tasks: 1, ..*cfg };
                let r = run_job(
                    &single,
                    rows,
                    move |row: &Record, emit| emit(row[idx].clone(), row.clone()),
                    |_k: &Value, vs: Vec<Record>, out| {
                        for v in vs {
                            out(v);
                        }
                    },
                );
                let mut rows = r.outputs;
                if *descending {
                    rows.reverse();
                }
                Ok((Table::from_rows(schema, rows)?, r.counters.total_record_ops()))
            }
            Operation::TopK { column, k } => {
                let (sorted, ops) = self.run_step(
                    &Operation::SortBy { column: column.clone(), descending: true },
                    inputs,
                )?;
                let rows: Vec<Record> = sorted.rows().iter().take(*k).cloned().collect();
                Ok((Table::from_rows(sorted.schema().clone(), rows)?, ops))
            }
            Operation::Count => {
                let rows = inputs[0].rows().to_vec();
                let r = run_job(
                    cfg,
                    rows,
                    |_row: &Record, emit| emit(0u8, 1u64),
                    |_k: &u8, vs: Vec<u64>, out| out(vs.iter().sum::<u64>()),
                );
                let count = r.outputs.first().copied().unwrap_or(0);
                let schema = Schema::new(vec![Field::nullable("count", DataType::Int)]);
                Ok((
                    Table::from_rows(schema, vec![vec![Value::Int(count as i64)]])?,
                    r.counters.total_record_ops(),
                ))
            }
            Operation::Distinct { column } => {
                let field = inputs[0]
                    .schema()
                    .field(column)
                    .cloned()
                    .ok_or_else(|| BdbError::NotFound(format!("column {column}")))?;
                let idx = inputs[0].schema().index_of(column).expect("field exists");
                let rows = inputs[0].rows().to_vec();
                let r = run_job(
                    cfg,
                    rows,
                    move |row: &Record, emit| emit(row[idx].clone(), ()),
                    |k: &Value, _vs: Vec<()>, out| out(vec![k.clone()]),
                );
                Ok((
                    Table::from_rows(Schema::new(vec![field]), r.outputs)?,
                    r.counters.total_record_ops(),
                ))
            }
            Operation::Aggregate { function, column, group_by } => {
                self.run_aggregate(*function, column.as_deref(), group_by, inputs[0])
            }
            Operation::Join { left_on, right_on } => {
                self.run_join(left_on, right_on, inputs[0], inputs[1])
            }
            Operation::Union => {
                if inputs[0].schema() != inputs[1].schema() {
                    return Err(BdbError::TestGen("union schema mismatch".into()));
                }
                let mut t = inputs[0].clone();
                t.append(inputs[1].clone())?;
                let n = t.len() as u64;
                Ok((t, n))
            }
            Operation::IntersectOn { column } => {
                // Repartition semi-join as one MR job over tagged rows.
                let idx0 = inputs[0]
                    .schema()
                    .index_of(column)
                    .ok_or_else(|| BdbError::NotFound(format!("column {column}")))?;
                let idx1 = inputs[1]
                    .schema()
                    .index_of(column)
                    .ok_or_else(|| BdbError::NotFound(format!("column {column}")))?;
                let tagged: Vec<(u8, Record)> = inputs[0]
                    .rows()
                    .iter()
                    .map(|r| (0u8, r.clone()))
                    .chain(inputs[1].rows().iter().map(|r| (1u8, r.clone())))
                    .collect();
                let r = run_job(
                    cfg,
                    tagged,
                    move |(tag, row): &(u8, Record), emit| {
                        let key = if *tag == 0 { &row[idx0] } else { &row[idx1] };
                        emit(key.clone(), (*tag, row.clone()));
                    },
                    |_k: &Value, vs: Vec<(u8, Record)>, out| {
                        let right_present = vs.iter().any(|(t, _)| *t == 1);
                        if right_present {
                            for (t, row) in vs {
                                if t == 0 {
                                    out(row);
                                }
                            }
                        }
                    },
                );
                Ok((
                    Table::from_rows(inputs[0].schema().clone(), r.outputs)?,
                    r.counters.total_record_ops(),
                ))
            }
            other => Err(BdbError::TestGen(format!(
                "operation {} has no MapReduce lowering",
                other.name()
            ))),
        }
    }

    fn run_aggregate(
        &self,
        function: AggSpec,
        column: Option<&str>,
        group_by: &[String],
        input: &Table,
    ) -> Result<(Table, u64)> {
        let schema = input.schema();
        let group_idx: Vec<usize> = group_by
            .iter()
            .map(|g| {
                schema
                    .index_of(g)
                    .ok_or_else(|| BdbError::NotFound(format!("column {g}")))
            })
            .collect::<Result<_>>()?;
        let col_idx = column
            .map(|c| {
                schema
                    .index_of(c)
                    .ok_or_else(|| BdbError::NotFound(format!("column {c}")))
            })
            .transpose()?;
        let mut fields: Vec<Field> = group_idx
            .iter()
            .map(|&i| schema.fields()[i].clone())
            .collect();
        let out_type = match function {
            AggSpec::Count => DataType::Int,
            AggSpec::Avg => DataType::Float,
            _ => col_idx.map_or(DataType::Float, |i| schema.fields()[i].data_type),
        };
        fields.push(Field::nullable("agg", out_type));
        let out_schema = Schema::new(fields);

        let rows = input.rows().to_vec();
        let gi = group_idx.clone();
        let r = run_job(
            &self.config,
            rows,
            move |row: &Record, emit| {
                let key: Record = gi.iter().map(|&i| row[i].clone()).collect();
                // Carry (value, count) so AVG composes.
                let payload = match col_idx {
                    Some(i) => (row[i].clone(), 1u64),
                    None => (Value::Int(1), 1u64),
                };
                emit(key, payload);
            },
            move |key: &Record, vs: Vec<(Value, u64)>, out| {
                let agg = match function {
                    AggSpec::Count => Value::Int(
                        vs.iter()
                            .filter(|(v, _)| !v.is_null())
                            .map(|(_, c)| *c as i64)
                            .sum(),
                    ),
                    AggSpec::Sum => {
                        let all_int = vs
                            .iter()
                            .all(|(v, _)| matches!(v, Value::Int(_) | Value::Null));
                        if all_int {
                            Value::Int(vs.iter().filter_map(|(v, _)| v.as_i64()).sum())
                        } else {
                            Value::Float(vs.iter().filter_map(|(v, _)| v.as_f64()).sum())
                        }
                    }
                    AggSpec::Avg => {
                        let xs: Vec<f64> =
                            vs.iter().filter_map(|(v, _)| v.as_f64()).collect();
                        if xs.is_empty() {
                            Value::Null
                        } else {
                            Value::Float(xs.iter().sum::<f64>() / xs.len() as f64)
                        }
                    }
                    AggSpec::Min => {
                        let vals = vs.iter().map(|(v, _)| v).filter(|v| !v.is_null());
                        vals.min().cloned().unwrap_or(Value::Null)
                    }
                    AggSpec::Max => {
                        let vals = vs.iter().map(|(v, _)| v).filter(|v| !v.is_null());
                        vals.max().cloned().unwrap_or(Value::Null)
                    }
                };
                let mut row = key.clone();
                row.push(agg);
                out(row);
            },
        );
        let mut rows = r.outputs;
        // Deterministic order, matching the SQL engine's aggregate output.
        rows.sort();
        Ok((
            Table::from_rows(out_schema, rows)?,
            r.counters.total_record_ops(),
        ))
    }

    fn run_join(
        &self,
        left_on: &str,
        right_on: &str,
        left: &Table,
        right: &Table,
    ) -> Result<(Table, u64)> {
        let li = left
            .schema()
            .index_of(left_on)
            .ok_or_else(|| BdbError::NotFound(format!("column {left_on}")))?;
        let ri = right
            .schema()
            .index_of(right_on)
            .ok_or_else(|| BdbError::NotFound(format!("column {right_on}")))?;
        // Output schema matches the SQL binding: qualified l.* then r.*.
        let mut fields: Vec<Field> = left
            .schema()
            .fields()
            .iter()
            .map(|f| Field::nullable(format!("l.{}", f.name), f.data_type))
            .collect();
        fields.extend(
            right
                .schema()
                .fields()
                .iter()
                .map(|f| Field::nullable(format!("r.{}", f.name), f.data_type)),
        );
        let out_schema = Schema::new(fields);

        let tagged: Vec<(u8, Record)> = left
            .rows()
            .iter()
            .map(|r| (0u8, r.clone()))
            .chain(right.rows().iter().map(|r| (1u8, r.clone())))
            .collect();
        let r = run_job(
            &self.config,
            tagged,
            move |(tag, row): &(u8, Record), emit| {
                let key = if *tag == 0 { &row[li] } else { &row[ri] };
                if !key.is_null() {
                    emit(key.clone(), (*tag, row.clone()));
                }
            },
            |_k: &Value, vs: Vec<(u8, Record)>, out| {
                let (lefts, rights): (Vec<_>, Vec<_>) =
                    vs.into_iter().partition(|(t, _)| *t == 0);
                for (_, l) in &lefts {
                    for (_, r) in &rights {
                        let mut row = l.clone();
                        row.extend(r.iter().cloned());
                        out(row);
                    }
                }
            },
        );
        Ok((
            Table::from_rows(out_schema, r.outputs)?,
            r.counters.total_record_ops(),
        ))
    }
}

impl PatternExecutor for MapReduceBinding {
    fn name(&self) -> &'static str {
        "mapreduce"
    }

    fn execute(
        &self,
        pattern: &WorkloadPattern,
        datasets: &BTreeMap<String, Table>,
    ) -> Result<BoundExecution> {
        let steps = steps_of(pattern)?;
        let start = Instant::now();
        let mut record_ops = 0u64;
        let mut executed = Vec::with_capacity(steps.len());
        let output = run_dag(&steps, datasets, |op, inputs| {
            let t0 = Instant::now();
            let (out, ops) = self.run_step(op, inputs)?;
            record_ops += ops;
            executed.push(StepExecution {
                op: op.name().to_string(),
                rows_out: out.len() as u64,
                elapsed: t0.elapsed(),
            });
            Ok(out)
        })?;
        Ok(BoundExecution { output, record_ops, elapsed: start.elapsed(), steps: executed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CompareOp, ScalarSpec};
    use crate::pattern::{InputRef, Step};

    fn orders() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("user_id", DataType::Int),
            Field::new("total", DataType::Float),
            Field::new("city", DataType::Text),
        ]);
        let mut t = Table::new(schema);
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
        t
    }

    fn users() -> Table {
        let schema = Schema::new(vec![
            Field::new("uid", DataType::Int),
            Field::new("name", DataType::Text),
        ]);
        let mut t = Table::new(schema);
        for (uid, name) in [(10, "ann"), (11, "bob"), (13, "cat")] {
            t.push(vec![Value::Int(uid), Value::from(name)]).unwrap();
        }
        t
    }

    fn datasets() -> BTreeMap<String, Table> {
        let mut m = BTreeMap::new();
        m.insert("orders".to_string(), orders());
        m.insert("users".to_string(), users());
        m
    }

    fn both_agree(pattern: &WorkloadPattern) -> (BoundExecution, BoundExecution) {
        let ds = datasets();
        let sql = SqlBinding.execute(pattern, &ds).unwrap();
        let mr = MapReduceBinding::default().execute(pattern, &ds).unwrap();
        assert_eq!(
            sql.sorted_rows(),
            mr.sorted_rows(),
            "engines disagree on {pattern:?}"
        );
        (sql, mr)
    }

    #[test]
    fn select_agrees_across_engines() {
        let p = WorkloadPattern::Single {
            op: Operation::Select {
                predicate: PredicateSpec {
                    column: "total".into(),
                    op: CompareOp::Ge,
                    value: ScalarSpec::Float(5.0),
                },
            },
            input: "orders".into(),
        };
        let (sql, _) = both_agree(&p);
        assert_eq!(sql.output.len(), 3);
    }

    #[test]
    fn project_and_sort_agree() {
        let p = WorkloadPattern::Multi {
            steps: vec![
                Step {
                    id: 0,
                    op: Operation::Project { columns: vec!["city".into(), "total".into()] },
                    inputs: vec![InputRef::Dataset("orders".into())],
                },
                Step {
                    id: 1,
                    op: Operation::SortBy { column: "total".into(), descending: false },
                    inputs: vec![InputRef::Step(0)],
                },
            ],
        };
        let (sql, mr) = both_agree(&p);
        // Sorted ascending by total on both engines (ordered comparison,
        // not just set equality).
        let totals = |t: &Table| -> Vec<f64> {
            t.rows().iter().map(|r| r[1].as_f64().unwrap()).collect()
        };
        assert_eq!(totals(&sql.output), vec![1.0, 2.5, 5.0, 7.5, 10.0]);
        assert_eq!(totals(&mr.output), totals(&sql.output));
    }

    #[test]
    fn grouped_aggregate_agrees() {
        let p = WorkloadPattern::Single {
            op: Operation::Aggregate {
                function: AggSpec::Sum,
                column: Some("total".into()),
                group_by: vec!["city".into()],
            },
            input: "orders".into(),
        };
        let (sql, _) = both_agree(&p);
        assert_eq!(sql.output.len(), 3);
    }

    #[test]
    fn global_avg_agrees() {
        let p = WorkloadPattern::Single {
            op: Operation::Aggregate {
                function: AggSpec::Avg,
                column: Some("total".into()),
                group_by: vec![],
            },
            input: "orders".into(),
        };
        let (sql, _) = both_agree(&p);
        assert_eq!(sql.output.rows()[0].last().unwrap(), &Value::Float(5.2));
    }

    #[test]
    fn count_distinct_topk_agree() {
        for op in [
            Operation::Count,
            Operation::Distinct { column: "city".into() },
            Operation::TopK { column: "total".into(), k: 2 },
        ] {
            let p = WorkloadPattern::Single { op, input: "orders".into() };
            both_agree(&p);
        }
    }

    #[test]
    fn join_agrees_and_matches_inner_semantics() {
        let p = WorkloadPattern::Multi {
            steps: vec![Step {
                id: 0,
                op: Operation::Join { left_on: "user_id".into(), right_on: "uid".into() },
                inputs: vec![
                    InputRef::Dataset("orders".into()),
                    InputRef::Dataset("users".into()),
                ],
            }],
        };
        let (sql, _) = both_agree(&p);
        assert_eq!(sql.output.len(), 4); // user 12 unmatched, user 13 orderless
        assert!(sql.output.schema().index_of("l.total").is_some());
        assert!(sql.output.schema().index_of("r.name").is_some());
    }

    #[test]
    fn join_then_aggregate_pipeline_agrees() {
        let p = WorkloadPattern::Multi {
            steps: vec![
                Step {
                    id: 0,
                    op: Operation::Join { left_on: "user_id".into(), right_on: "uid".into() },
                    inputs: vec![
                        InputRef::Dataset("orders".into()),
                        InputRef::Dataset("users".into()),
                    ],
                },
                Step {
                    id: 1,
                    op: Operation::Aggregate {
                        function: AggSpec::Sum,
                        column: Some("l.total".into()),
                        group_by: vec!["r.name".into()],
                    },
                    inputs: vec![InputRef::Step(0)],
                },
            ],
        };
        let (sql, _) = both_agree(&p);
        assert_eq!(sql.output.len(), 2);
    }

    #[test]
    fn union_and_intersect_agree() {
        let union = WorkloadPattern::Multi {
            steps: vec![Step {
                id: 0,
                op: Operation::Union,
                inputs: vec![
                    InputRef::Dataset("orders".into()),
                    InputRef::Dataset("orders".into()),
                ],
            }],
        };
        let (sql, _) = both_agree(&union);
        assert_eq!(sql.output.len(), 10);

        let mut ds = datasets();
        // Intersect orders with a table sharing the user_id column name.
        let schema = Schema::new(vec![Field::new("user_id", DataType::Int)]);
        let mut small = Table::new(schema);
        small.push(vec![Value::Int(10)]).unwrap();
        ds.insert("keys".into(), small);
        let p = WorkloadPattern::Multi {
            steps: vec![Step {
                id: 0,
                op: Operation::IntersectOn { column: "user_id".into() },
                inputs: vec![
                    InputRef::Dataset("orders".into()),
                    InputRef::Dataset("keys".into()),
                ],
            }],
        };
        let sql = SqlBinding.execute(&p, &ds).unwrap();
        let mr = MapReduceBinding::default().execute(&p, &ds).unwrap();
        assert_eq!(sql.sorted_rows(), mr.sorted_rows());
        assert_eq!(sql.output.len(), 3);
    }

    #[test]
    fn engines_report_work_and_time() {
        let p = WorkloadPattern::Single { op: Operation::Count, input: "orders".into() };
        let (sql, mr) = both_agree(&p);
        assert!(sql.record_ops > 0);
        assert!(mr.record_ops > 0);
        // Both bindings report per-step execution records for tracing.
        assert_eq!(sql.steps.len(), 1);
        assert_eq!(sql.steps[0].op, "count");
        assert_eq!(sql.steps[0].rows_out, 1);
        assert_eq!(mr.steps.len(), 1);
        assert_eq!(mr.steps[0].op, "count");
    }

    #[test]
    fn unbindable_operation_errors() {
        let p = WorkloadPattern::Single {
            op: Operation::Get { key: "k".into() },
            input: "orders".into(),
        };
        assert!(SqlBinding.execute(&p, &datasets()).is_err());
        assert!(MapReduceBinding::default().execute(&p, &datasets()).is_err());
    }

    #[test]
    fn missing_dataset_errors() {
        let p = WorkloadPattern::Single { op: Operation::Count, input: "nope".into() };
        assert!(SqlBinding.execute(&p, &datasets()).is_err());
    }

    #[test]
    fn estimate_cost_prices_bindable_patterns() {
        let ds = datasets();
        let single = WorkloadPattern::Single { op: Operation::Count, input: "orders".into() };
        let c1 = SqlBinding::estimate_cost(&single, &ds).unwrap();
        assert!(c1 > 0.0);

        // A join + aggregate pipeline (intermediate-input second step)
        // must price higher than the lone count.
        let pipeline = WorkloadPattern::Multi {
            steps: vec![
                Step {
                    id: 0,
                    op: Operation::Join { left_on: "user_id".into(), right_on: "uid".into() },
                    inputs: vec![
                        InputRef::Dataset("orders".into()),
                        InputRef::Dataset("users".into()),
                    ],
                },
                Step {
                    id: 1,
                    op: Operation::Aggregate {
                        function: AggSpec::Sum,
                        column: Some("l.total".into()),
                        group_by: vec!["r.name".into()],
                    },
                    inputs: vec![InputRef::Step(0)],
                },
            ],
        };
        let c2 = SqlBinding::estimate_cost(&pipeline, &ds).unwrap();
        assert!(c2 > c1);

        // Kernel-only ops and missing datasets have no price.
        let kv = WorkloadPattern::Single {
            op: Operation::Get { key: "k".into() },
            input: "orders".into(),
        };
        assert!(SqlBinding::estimate_cost(&kv, &ds).is_none());
        let missing = WorkloadPattern::Single { op: Operation::Count, input: "nope".into() };
        assert!(SqlBinding::estimate_cost(&missing, &ds).is_none());
    }
}
