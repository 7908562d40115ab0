//! The workload implementations named by the paper's Table 2.
//!
//! Every example workload the survey attributes to the studied benchmark
//! suites is implemented here, runnable against the workspace's engines:
//!
//! | Module | Workloads | Table 2 category |
//! |---|---|---|
//! | [`micro`] | sort, TeraSort-style sampled range-partition sort, WordCount, grep | offline analytics (HiBench/GridMix/BigDataBench micro) |
//! | [`search`] | inverted index ("Nutch indexing" analog), PageRank | search engine domain |
//! | [`social`] | k-means, connected components | social network domain |
//! | [`ecommerce`] | naive Bayes, item-based collaborative filtering | e-commerce domain |
//! | [`relational`] | Pavlo-benchmark tasks: load, selection, aggregation, join | real-time analytics |
//! | [`streaming`] | windowed stream analytics at paced arrival rates | real-time analytics |
//!
//! The Cloud OLTP mixes (YCSB A–F) and the Section 5.2 hybrid workload are
//! operation mixes on the load driver, `bdb_exec::loadgen`.
//!
//! The analytics kernels come in two bindings where Table 2's suites do:
//! a native in-memory kernel and a MapReduce lowering — the *functional
//! view* requires both to produce identical answers, which the tests
//! assert.

pub mod behavioral;
pub mod ecommerce;
pub mod micro;
pub mod relational;
pub mod search;
pub mod social;
pub mod streaming;

use bdb_metrics::{CostModel, MetricReport, OpCounts, PowerModel, UserMetrics};
use std::collections::BTreeMap;

/// Table 2's three workload categories ("from the perspective of
/// application users").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadCategory {
    /// Response-delay sensitive services.
    OnlineServices,
    /// Complex, time-consuming computations on big data.
    OfflineAnalytics,
    /// Interactive analytics (relational queries, stream dashboards).
    RealTimeAnalytics,
}

impl std::fmt::Display for WorkloadCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WorkloadCategory::OnlineServices => "online services",
            WorkloadCategory::OfflineAnalytics => "offline analytics",
            WorkloadCategory::RealTimeAnalytics => "real-time analytics",
        };
        f.write_str(s)
    }
}

/// The canonical, comparable *answer* a workload computed, carried
/// alongside the metrics so a conformance checker can diff the result of
/// one engine against another (or against a reference oracle).
///
/// Three shapes cover every operation class, each with its own equality
/// contract:
///
/// * [`OutputPayload::RowSet`] — relational / batch output compared as a
///   multiset of rows (row order is meaningless);
/// * [`OutputPayload::Ordered`] — stream output compared element by
///   element in emission order (in-order streams with zero allowed
///   lateness emit panes in deterministic `(window_start, key)` order);
/// * [`OutputPayload::Numeric`] — named floating-point results compared
///   within a stated epsilon (iterative kernels whose summation order may
///   legally differ across engines).
#[derive(Debug, Clone, PartialEq)]
pub enum OutputPayload {
    /// Unordered relational output: a multiset of stringified rows.
    RowSet(Vec<Vec<String>>),
    /// Ordered output: one string per emitted element, in order.
    Ordered(Vec<String>),
    /// Named numeric outputs: `(name, value)` pairs in name order.
    Numeric(Vec<(String, f64)>),
}

impl OutputPayload {
    /// A short label naming the payload shape.
    pub fn label(&self) -> &'static str {
        match self {
            OutputPayload::RowSet(_) => "rowset",
            OutputPayload::Ordered(_) => "ordered",
            OutputPayload::Numeric(_) => "numeric",
        }
    }

    /// Number of elements (rows / entries / values) in the payload.
    pub fn len(&self) -> usize {
        match self {
            OutputPayload::RowSet(rows) => rows.len(),
            OutputPayload::Ordered(items) => items.len(),
            OutputPayload::Numeric(vals) => vals.len(),
        }
    }

    /// True when the payload holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical text lines: the digest and all comparisons run over this
    /// form. Row sets are sorted (making multiset equality a plain
    /// sequence comparison); ordered payloads keep their order; numeric
    /// values render with full precision via `{:?}`.
    pub fn canonical_lines(&self) -> Vec<String> {
        match self {
            OutputPayload::RowSet(rows) => {
                let mut lines: Vec<String> =
                    rows.iter().map(|r| r.join("\u{1f}")).collect();
                lines.sort_unstable();
                lines
            }
            OutputPayload::Ordered(items) => items.clone(),
            OutputPayload::Numeric(vals) => {
                vals.iter().map(|(k, v)| format!("{k}\u{1f}{v:?}")).collect()
            }
        }
    }

    /// A stable 64-bit FNV-1a digest of the canonical form, prefixed by
    /// the payload shape so a row set never collides with an ordered
    /// stream of the same lines.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.label().as_bytes());
        eat(&[0x1e]);
        for line in self.canonical_lines() {
            eat(line.as_bytes());
            eat(&[0x1e]);
        }
        h
    }

    /// Compare against another payload under this shape's equality
    /// contract. Numeric values match within `epsilon` relative error
    /// (absolute for values below 1). Returns a human-readable mismatch
    /// description, or `None` when the payloads agree.
    pub fn diff(&self, other: &OutputPayload, epsilon: f64) -> Option<String> {
        match (self, other) {
            (OutputPayload::Numeric(a), OutputPayload::Numeric(b)) => {
                if a.len() != b.len() {
                    return Some(format!(
                        "numeric arity differs: {} vs {} values",
                        a.len(),
                        b.len()
                    ));
                }
                for ((ka, va), (kb, vb)) in a.iter().zip(b) {
                    if ka != kb {
                        return Some(format!("numeric keys differ: {ka} vs {kb}"));
                    }
                    let tol = epsilon * va.abs().max(1.0);
                    if !((va - vb).abs() <= tol
                        || (va.is_nan() && vb.is_nan()))
                    {
                        return Some(format!(
                            "{ka}: {va} vs {vb} (tolerance {tol:e})"
                        ));
                    }
                }
                None
            }
            (a, b) if a.label() != b.label() => Some(format!(
                "payload shapes differ: {} vs {}",
                a.label(),
                b.label()
            )),
            (a, b) => {
                let la = a.canonical_lines();
                let lb = b.canonical_lines();
                if la.len() != lb.len() {
                    return Some(format!(
                        "{} size differs: {} vs {} entries",
                        a.label(),
                        la.len(),
                        lb.len()
                    ));
                }
                for (i, (x, y)) in la.iter().zip(&lb).enumerate() {
                    if x != y {
                        return Some(format!(
                            "{} entry {i} differs: {:?} vs {:?}",
                            a.label(),
                            x.replace('\u{1f}', "|"),
                            y.replace('\u{1f}', "|")
                        ));
                    }
                }
                None
            }
        }
    }
}

/// The uniform result of running any workload.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Full metric report (user + architecture + energy + cost).
    pub report: MetricReport,
    /// Table 2 category.
    pub category: WorkloadCategory,
    /// Workload-specific scalar outputs (iterations, accuracy, …).
    pub details: BTreeMap<String, f64>,
    /// The computed answer in canonical comparable form, when the
    /// executing engine captured one (engines attach this so conformance
    /// checking can diff results without re-running).
    pub output: Option<OutputPayload>,
}

impl WorkloadResult {
    /// Assemble a result from raw measurements with default energy/cost
    /// models.
    pub fn assemble(
        workload: &str,
        system: &str,
        category: WorkloadCategory,
        user: UserMetrics,
        ops: OpCounts,
        input_items: u64,
    ) -> Self {
        let report = MetricReport::assemble(
            workload,
            system,
            user,
            ops,
            input_items,
            &PowerModel::default(),
            &CostModel::default(),
            0.7,
            std::thread::available_parallelism().map_or(4, |n| n.get()),
        );
        Self { report, category, details: BTreeMap::new(), output: None }
    }

    /// Attach a named detail value.
    pub fn with_detail(mut self, key: &str, value: f64) -> Self {
        self.details.insert(key.to_string(), value);
        self
    }

    /// Attach the canonical output payload.
    pub fn with_output(mut self, output: OutputPayload) -> Self {
        self.output = Some(output);
        self
    }

    /// Read a detail value.
    pub fn detail(&self, key: &str) -> Option<f64> {
        self.details.get(key).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_display() {
        assert_eq!(WorkloadCategory::OnlineServices.to_string(), "online services");
        assert_eq!(WorkloadCategory::OfflineAnalytics.to_string(), "offline analytics");
    }

    #[test]
    fn result_assembly_and_details() {
        let r = WorkloadResult::assemble(
            "micro/sort",
            "native",
            WorkloadCategory::OfflineAnalytics,
            UserMetrics { duration_secs: 1.0, operations: 10, ..Default::default() },
            OpCounts { record_ops: 100, float_ops: 0 },
            10,
        )
        .with_detail("items", 10.0);
        assert_eq!(r.report.workload, "micro/sort");
        assert_eq!(r.detail("items"), Some(10.0));
        assert_eq!(r.detail("missing"), None);
        assert!(r.output.is_none());
    }

    #[test]
    fn rowset_equality_ignores_row_order() {
        let a = OutputPayload::RowSet(vec![
            vec!["1".into(), "x".into()],
            vec!["2".into(), "y".into()],
        ]);
        let b = OutputPayload::RowSet(vec![
            vec!["2".into(), "y".into()],
            vec!["1".into(), "x".into()],
        ]);
        assert_eq!(a.diff(&b, 0.0), None);
        assert_eq!(a.digest(), b.digest());
        let c = OutputPayload::RowSet(vec![vec!["1".into(), "z".into()]]);
        assert!(a.diff(&c, 0.0).is_some());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn ordered_equality_is_positional() {
        let a = OutputPayload::Ordered(vec!["w1".into(), "w2".into()]);
        let b = OutputPayload::Ordered(vec!["w2".into(), "w1".into()]);
        assert!(a.diff(&b, 0.0).is_some());
        assert_eq!(a.diff(&a.clone(), 0.0), None);
    }

    #[test]
    fn numeric_equality_uses_epsilon() {
        let a = OutputPayload::Numeric(vec![("rank0".into(), 100.0)]);
        let close = OutputPayload::Numeric(vec![("rank0".into(), 100.0 + 1e-7)]);
        let far = OutputPayload::Numeric(vec![("rank0".into(), 101.0)]);
        assert_eq!(a.diff(&close, 1e-6), None);
        assert!(a.diff(&far, 1e-6).is_some());
        // Shape mismatches are always reported.
        assert!(a.diff(&OutputPayload::Ordered(vec![]), 1e-6).is_some());
    }

    #[test]
    fn digest_separates_shapes() {
        let rows = OutputPayload::RowSet(vec![vec!["a".into()]]);
        let ordered = OutputPayload::Ordered(vec!["a".into()]);
        assert_ne!(rows.digest(), ordered.digest());
        assert_eq!(rows.len(), 1);
        assert!(!rows.is_empty());
        assert!(OutputPayload::Numeric(vec![]).is_empty());
    }
}
