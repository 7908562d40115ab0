//! Pluggable engine backends for the Execution Layer.
//!
//! "The Execution Layer offers several functions to support the execution
//! of benchmark tests over different software stacks." Each software
//! stack is an [`Engine`]: it declares [`Capabilities`] — which
//! [`SystemKind`]s it implements, which data kinds, operation classes and
//! pattern shapes it can execute — and runs an [`ExecutionRequest`] into
//! workload results. An [`EngineRegistry`] routes a prescribed test by
//! capability match: engines implementing the requested system form the
//! *explicit* partition and always outrank capability fallbacks. Within
//! each partition the order is decided by the request's
//! [`RoutingPolicy`]: first-capable keeps registration order (the
//! historical behaviour, mirroring BigOP-style automatic mapping of
//! abstract operations onto concrete systems), while the cost and
//! adaptive policies hand the candidates to the [`crate::planner`]
//! router, which ranks them by predicted cost (static model,
//! engine-reported plan costs, and — adaptively — runtimes observed
//! earlier in the run). Adding a backend is a registry entry, not a
//! pipeline edit.
//!
//! [`EngineRegistry::dispatch_resilient`] wraps each candidate engine in
//! the [`crate::fault`] retry loop (seeded fault injection, jittered
//! backoff, per-operation deadline) and fails over to the next capable
//! engine when the selected one exhausts its retries, recording the
//! degradation in the run trace.

use crate::config::SystemConfig;
use crate::cost::ObservedCosts;
use crate::fault::{self, FaultSite, Resilience};
use crate::loadgen::{self, OpClass, OpMix};
use crate::planner::{Ranked, Router, RoutingPolicy, Score};
use crate::trace::RunTrace;
use bdb_common::record::Table;
use bdb_common::text::{Document, Vocabulary};
use bdb_common::{BdbError, Result};
use bdb_datagen::{DataSourceKind, Dataset};
use bdb_mapreduce::JobConfig;
use bdb_metrics::{MetricsCollector, OpCounts};
use bdb_testgen::bind::{BoundExecution, MapReduceBinding, PatternExecutor, SqlBinding};
use bdb_testgen::ops::{AggSpec, Operation};
use bdb_testgen::pattern::WorkloadPattern;
use bdb_testgen::{Prescription, SystemKind};
use bdb_workloads::{
    behavioral, micro, search, social, streaming, OutputPayload, WorkloadCategory, WorkloadResult,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// The shape of a prescription's workload pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PatternShape {
    /// One operation.
    Single,
    /// A finite DAG of operations.
    Multi,
    /// A body repeated until a stopping condition holds.
    Iterative,
}

impl PatternShape {
    /// The shape of a concrete pattern.
    pub fn of(pattern: &WorkloadPattern) -> Self {
        match pattern {
            WorkloadPattern::Single { .. } => PatternShape::Single,
            WorkloadPattern::Multi { .. } => PatternShape::Multi,
            WorkloadPattern::Iterative { .. } => PatternShape::Iterative,
        }
    }
}

impl std::fmt::Display for PatternShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PatternShape::Single => "single",
            PatternShape::Multi => "multi",
            PatternShape::Iterative => "iterative",
        })
    }
}

/// The operation class a prescribed test belongs to.
///
/// The classes partition the operation taxonomy the way the old dispatch
/// chain did, in the same precedence order: windowed stream operations,
/// text kernels, iterative patterns, element-operation mixes, and
/// relational (single/double-set) table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkloadClass {
    /// Behavioral analytics over a user event stream (sessionize,
    /// retention, window-funnel, sequence-match).
    Behavioral,
    /// Windowed aggregation over an event stream.
    Windowed,
    /// Text kernels (WordCount, grep).
    Text,
    /// Iterative convergence workloads (PageRank, k-means, components).
    Iterative,
    /// Element-operation mixes (get/put/scan — Cloud OLTP).
    Element,
    /// Single/double-set table operations (select, aggregate, join, …).
    Relational,
}

impl WorkloadClass {
    /// Classify a prescription by its pattern and operations, with the
    /// same precedence the Execution Layer uses for routing.
    pub fn of(prescription: &Prescription) -> Self {
        let ops = prescription.pattern.operations();
        if ops.iter().any(|o| {
            matches!(
                o,
                Operation::Sessionize { .. }
                    | Operation::Retention { .. }
                    | Operation::WindowFunnel { .. }
                    | Operation::SequenceMatch { .. }
            )
        }) {
            return WorkloadClass::Behavioral;
        }
        if ops.iter().any(|o| matches!(o, Operation::WindowAggregate { .. })) {
            return WorkloadClass::Windowed;
        }
        if ops
            .iter()
            .any(|o| matches!(o, Operation::WordCount | Operation::Grep { .. }))
        {
            return WorkloadClass::Text;
        }
        if matches!(prescription.pattern, WorkloadPattern::Iterative { .. }) {
            return WorkloadClass::Iterative;
        }
        if ops.iter().any(|o| {
            matches!(
                o,
                Operation::Get { .. }
                    | Operation::Put { .. }
                    | Operation::UpdateKey { .. }
                    | Operation::DeleteKey { .. }
                    | Operation::ScanRange { .. }
            )
        }) {
            return WorkloadClass::Element;
        }
        WorkloadClass::Relational
    }
}

impl std::fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WorkloadClass::Behavioral => "behavioral",
            WorkloadClass::Windowed => "windowed",
            WorkloadClass::Text => "text",
            WorkloadClass::Iterative => "iterative",
            WorkloadClass::Element => "element",
            WorkloadClass::Relational => "relational",
        })
    }
}

/// What an engine can execute.
#[derive(Debug, Clone)]
pub struct Capabilities {
    /// The [`SystemKind`]s this engine implements.
    pub systems: Vec<SystemKind>,
    /// Operation classes the engine executes.
    pub classes: Vec<WorkloadClass>,
    /// Data kinds the engine consumes.
    pub data_kinds: Vec<DataSourceKind>,
    /// Pattern shapes the engine understands.
    pub patterns: Vec<PatternShape>,
}

impl Capabilities {
    /// Can the engine execute a test with this profile? True when the
    /// shape and class are supported and every present data kind is
    /// consumable.
    pub fn supports(&self, profile: &TestProfile) -> bool {
        self.patterns.contains(&profile.shape)
            && self.classes.contains(&profile.class)
            && profile.data_kinds.iter().all(|k| self.data_kinds.contains(k))
    }

    /// True when the engine implements `system`.
    pub fn implements(&self, system: SystemKind) -> bool {
        self.systems.contains(&system)
    }

    /// One-line rendering for `bdbench list`.
    pub fn summary(&self) -> String {
        let join = |parts: Vec<String>| parts.join(",");
        format!(
            "systems={} classes={} data={} patterns={}",
            join(self.systems.iter().map(|s| s.to_string()).collect()),
            join(self.classes.iter().map(|c| c.to_string()).collect()),
            join(self.data_kinds.iter().map(|k| k.to_string()).collect()),
            join(self.patterns.iter().map(|p| p.to_string()).collect()),
        )
    }
}

/// The routing-relevant profile of a prescribed test.
#[derive(Debug, Clone)]
pub struct TestProfile {
    /// Pattern shape.
    pub shape: PatternShape,
    /// Operation class.
    pub class: WorkloadClass,
    /// Kinds of the generated input data sets.
    pub data_kinds: Vec<DataSourceKind>,
}

/// Everything an engine needs to execute one prescribed test.
#[derive(Debug)]
pub struct ExecutionRequest<'a> {
    /// The abstract test to execute.
    pub prescription: &'a Prescription,
    /// The system the spec requested.
    pub system: SystemKind,
    /// Master seed of the run.
    pub seed: u64,
    /// Data volume (items) of the run.
    pub scale: u64,
    /// The generated input data sets, by prescription data-spec name.
    pub datasets: &'a BTreeMap<String, Dataset>,
    /// Engine configuration.
    pub config: &'a SystemConfig,
    /// The run's structured event sink.
    pub trace: &'a RunTrace,
    /// How the registry orders capable candidates for this request.
    pub routing: RoutingPolicy,
}

impl ExecutionRequest<'_> {
    /// The routing profile of this request.
    pub fn profile(&self) -> TestProfile {
        let kinds: BTreeSet<DataSourceKind> =
            self.datasets.values().map(Dataset::kind).collect();
        TestProfile {
            shape: PatternShape::of(&self.prescription.pattern),
            class: WorkloadClass::of(self.prescription),
            data_kinds: kinds.into_iter().collect(),
        }
    }

    /// The MapReduce job configuration derived from the system config.
    pub fn job_config(&self) -> JobConfig {
        JobConfig { workers: self.config.threads, ..JobConfig::default() }
    }

    fn text_dataset(&self) -> Result<(&Vec<Document>, &Vocabulary)> {
        self.datasets
            .values()
            .find_map(|d| match d {
                Dataset::Text { docs, vocab } => Some((docs, vocab)),
                _ => None,
            })
            .ok_or_else(|| BdbError::Execution("prescription needs a text data set".into()))
    }

    fn first_table(&self) -> Result<&Table> {
        self.datasets
            .values()
            .find_map(|d| match d {
                Dataset::Table(t) => Some(t),
                _ => None,
            })
            .ok_or_else(|| BdbError::Execution("prescription needs a table data set".into()))
    }
}

/// A pluggable execution backend.
pub trait Engine: Send + Sync {
    /// Engine name, used in reports and dispatch traces.
    fn name(&self) -> &'static str;

    /// What the engine can execute.
    fn capabilities(&self) -> Capabilities;

    /// Execute a prescribed test.
    fn execute(&self, request: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>>;

    /// The engine's own cost estimate for this request, in estimated
    /// microseconds — e.g. the SQL engine prices its memo-extracted plan.
    /// `None` (the default) defers to the router's static cost table.
    fn estimate_cost(&self, _request: &ExecutionRequest<'_>) -> Option<f64> {
        None
    }
}

/// The outcome of routing a request through the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Routing {
    /// The chosen engine's name.
    pub engine: String,
    /// Whether the requested [`SystemKind`] selected the engine (`false`
    /// means capability fallback).
    pub explicit: bool,
}

/// The Execution Layer's table of registered engines.
///
/// Routing: engines that both *implement the requested system* and
/// *support the test profile* outrank engines that merely support the
/// profile; within each partition the request's [`RoutingPolicy`] decides
/// — registration order under first-capable, predicted cost (ties keep
/// registration order) under the cost and adaptive policies. When no
/// engine is capable the error lists every candidate with its
/// capabilities.
pub struct EngineRegistry {
    engines: Vec<Box<dyn Engine>>,
    router: Router,
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry").field("engines", &self.names()).finish()
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self { engines: Vec::new(), router: Router::new() }
    }

    /// The five built-in backends. Registration order is the capability
    /// fallback order: native kernels, then the SQL engine, the KV store,
    /// the streaming engine, and the (most general) MapReduce engine last.
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register(Box::new(NativeEngine));
        r.register(Box::new(SqlEngine));
        r.register(Box::new(KvEngine));
        r.register(Box::new(StreamingEngine));
        r.register(Box::new(MapReduceEngine));
        r
    }

    /// Append an engine (later entries lose capability-fallback ties).
    pub fn register(&mut self, engine: Box<dyn Engine>) {
        self.engines.push(engine);
    }

    /// Registered engine names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.engines.iter().map(|e| e.name()).collect()
    }

    /// Iterate the registered engines.
    pub fn engines(&self) -> impl Iterator<Item = &dyn Engine> {
        self.engines.iter().map(Box::as_ref)
    }

    /// The router scoring candidates for this registry.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Share an observed-cost store with this registry's router (e.g.
    /// one store across every cell of a matrix sweep).
    pub fn set_observed(&mut self, store: Arc<ObservedCosts>) {
        self.router.set_observed(store);
    }

    /// The observed-runtime store the router consults under the adaptive
    /// policy.
    pub fn observed(&self) -> Arc<ObservedCosts> {
        self.router.observed()
    }

    /// Share a health store (per-engine circuit breakers) with this
    /// registry's router, e.g. one store across every run of a server.
    pub fn set_health(&mut self, store: Arc<crate::health::HealthStore>) {
        self.router.set_health(store);
    }

    /// The per-engine breaker store: the router demotes open engines,
    /// resilient dispatch skips them and records outcomes, and the load
    /// driver's admission controller consults it for brownout.
    pub fn health(&self) -> Arc<crate::health::HealthStore> {
        self.router.health()
    }

    /// The single capability-matching pass every routing entry point
    /// shares: the engines that support the request's profile, split into
    /// the explicit partition (implementing the requested system) and the
    /// capability fallbacks, each in registration order. Failover and
    /// cost ranking both consume this candidate order.
    fn capable_candidates(
        &self,
        request: &ExecutionRequest<'_>,
    ) -> Result<Vec<(&dyn Engine, Routing)>> {
        // Validate the routing smoothing factor and breaker thresholds up
        // front: every dispatch entry point funnels through here, so a bad
        // `routing.ewma_alpha` or `breaker.*` parameter fails loudly
        // before any engine runs instead of corrupting the observed-cost
        // store or disarming the breaker after the fact.
        request.config.routing_ewma_alpha()?;
        request.config.breaker_policy()?;
        let profile = request.profile();
        let capable: Vec<&dyn Engine> = self
            .engines
            .iter()
            .map(Box::as_ref)
            .filter(|e| e.capabilities().supports(&profile))
            .collect();
        if capable.is_empty() {
            let candidates = self
                .engines
                .iter()
                .map(|e| format!("{} [{}]", e.name(), e.capabilities().summary()))
                .collect::<Vec<_>>()
                .join("; ");
            return Err(BdbError::Execution(format!(
                "no engine can execute prescription {} (system={}, class={}, pattern={}, data={}); candidate engines: {}",
                request.prescription.name,
                request.system,
                profile.class,
                profile.shape,
                profile
                    .data_kinds
                    .iter()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                if candidates.is_empty() { "(none registered)".into() } else { candidates },
            )));
        }
        let (explicit, fallback): (Vec<&dyn Engine>, Vec<&dyn Engine>) = capable
            .into_iter()
            .partition(|e| e.capabilities().implements(request.system));
        Ok(explicit
            .into_iter()
            .map(|e| (e, Routing { engine: e.name().into(), explicit: true }))
            .chain(
                fallback
                    .into_iter()
                    .map(|e| (e, Routing { engine: e.name().into(), explicit: false })),
            )
            .collect())
    }

    /// Capable candidates in the order the active policy dispatches them,
    /// with their cost scores.
    fn ranked_candidates(&self, request: &ExecutionRequest<'_>) -> Result<Vec<Ranked<'_>>> {
        Ok(self.router.rank(self.capable_candidates(request)?, request))
    }

    /// Record the cost-ranked routing decision in the trace (a no-op
    /// under the default first-capable policy, whose order is static).
    fn record_routing_decision(&self, request: &ExecutionRequest<'_>, ranked: &[Ranked<'_>]) {
        if request.routing == RoutingPolicy::FirstCapable || ranked.is_empty() {
            return;
        }
        let finite = |s: &Score| {
            if s.predicted_micros.is_finite() { s.predicted_micros } else { 0.0 }
        };
        request.trace.record(crate::trace::TraceEvent::RoutingDecision {
            prescription: request.prescription.name.clone(),
            policy: request.routing.to_string(),
            engine: ranked[0].routing.engine.clone(),
            predicted_micros: finite(&ranked[0].score),
            source: ranked[0].score.source.to_string(),
            rejected: ranked[1..]
                .iter()
                .map(|r| {
                    format!(
                        "{}@{:.1}us[{}]",
                        r.routing.engine, r.score.predicted_micros, r.score.source
                    )
                })
                .collect(),
        });
    }

    /// Fold an observed engine runtime into the router's store and record
    /// it in the trace (skipped under first-capable, which never consults
    /// the store).
    fn record_observed_cost(
        &self,
        request: &ExecutionRequest<'_>,
        engine: &str,
        micros: u64,
    ) {
        if request.routing == RoutingPolicy::FirstCapable {
            return;
        }
        let (key, entry) = self.router.observe(engine, request, micros as f64);
        request.trace.record(crate::trace::TraceEvent::CostObserved {
            prescription: request.prescription.name.clone(),
            engine: engine.to_string(),
            key,
            micros,
            ewma_micros: entry.ewma_micros,
            samples: entry.samples,
        });
    }

    /// Every engine capable of executing a request, in dispatch order:
    /// the explicit partition first, each partition ordered by the
    /// request's routing policy (registration order under first-capable,
    /// predicted cost otherwise). Failover walks this same order.
    pub fn route_all(&self, request: &ExecutionRequest<'_>) -> Result<Vec<(&dyn Engine, Routing)>> {
        Ok(self
            .ranked_candidates(request)?
            .into_iter()
            .map(|r| (r.engine, r.routing))
            .collect())
    }

    /// Pick the engine for a request without executing it.
    pub fn route(&self, request: &ExecutionRequest<'_>) -> Result<(&dyn Engine, Routing)> {
        Ok(self.route_all(request)?.remove(0))
    }

    /// Resilient dispatch: route the request, run the chosen engine under
    /// the retry policy (with fault injection when a plan is active), and
    /// **fail over** to the next capable engine when the selected one
    /// exhausts its retries. Recovery is recorded in the trace (fault,
    /// retry, failover and deadline events) and on the results
    /// (`attempts` / `failovers` details) whenever the run was degraded.
    ///
    /// Dispatch is health-aware: every candidate's circuit breaker is
    /// consulted before it runs. Open breakers are skipped outright
    /// (half-open ones admit only their deterministic probes, whose
    /// outcomes close or reopen the breaker), each real outcome is
    /// folded back into the breaker window, and when *every* capable
    /// engine is denied the dispatch fails fast with each breaker's
    /// status named in the error.
    pub fn dispatch_resilient(
        &self,
        request: &ExecutionRequest<'_>,
        resilience: &Resilience,
    ) -> Result<Vec<WorkloadResult>> {
        let candidates = self.ranked_candidates(request)?;
        let health = self.router.health();
        let started = Instant::now();
        let mut total_attempts = 0u32;
        let mut total_faults = 0u32;
        let mut failovers = 0u32;
        let mut last_error: Option<BdbError> = None;
        // The last candidate that actually ran and failed: failover
        // events narrate real engine handoffs (with the triggering error
        // and that engine's own attempt count), never breaker skips.
        let mut prev_failed: Option<(String, u32)> = None;
        let mut dispatched = false;
        for candidate in &candidates {
            let engine = candidate.engine;
            let admission = health.admit(engine.name());
            if admission.half_opened {
                request.trace.record(crate::trace::TraceEvent::BreakerHalfOpen {
                    engine: engine.name().to_string(),
                });
            }
            if !admission.allowed {
                continue;
            }
            if !dispatched {
                dispatched = true;
                // The primary routing decision is recorded exactly as
                // plain dispatch records it; failover events then narrate
                // re-routes.
                request.trace.record(crate::trace::TraceEvent::EngineDispatched {
                    prescription: request.prescription.name.clone(),
                    engine: candidate.routing.engine.clone(),
                    requested_system: request.system.to_string(),
                    explicit: candidate.routing.explicit,
                    candidates: self.names().iter().map(|n| n.to_string()).collect(),
                });
                self.record_routing_decision(request, &candidates);
            }
            if let Some((from, engine_attempts)) = prev_failed.take() {
                failovers += 1;
                request.trace.record(crate::trace::TraceEvent::EngineFailedOver {
                    prescription: request.prescription.name.clone(),
                    from,
                    to: candidate.routing.engine.clone(),
                    attempts: total_attempts,
                    engine_attempts,
                    error: last_error
                        .as_ref()
                        .map(ToString::to_string)
                        .unwrap_or_default(),
                });
            }
            let site = FaultSite::execution(engine.name(), &request.prescription.name);
            let engine_started = Instant::now();
            let outcome = fault::run_with_recovery(
                resilience,
                request.trace,
                &site,
                started,
                &mut || engine.execute(request),
            );
            let record_breaker = |ok: bool| {
                if admission.probe {
                    request.trace.record(crate::trace::TraceEvent::ProbeResult {
                        engine: engine.name().to_string(),
                        ok,
                    });
                }
                let recorded = health.record(engine.name(), ok, admission.probe);
                match recorded.transition {
                    Some(crate::health::BreakerState::Open) => {
                        request.trace.record(crate::trace::TraceEvent::BreakerOpened {
                            engine: engine.name().to_string(),
                            failure_rate: recorded.failure_rate,
                        });
                    }
                    Some(crate::health::BreakerState::Closed) => {
                        request.trace.record(crate::trace::TraceEvent::BreakerClosed {
                            engine: engine.name().to_string(),
                        });
                    }
                    _ => {}
                }
            };
            match outcome {
                Ok(recovered) => {
                    record_breaker(true);
                    // Feed the adaptive loop: what this engine actually
                    // took (including any injected faults and retries it
                    // absorbed) becomes its next predicted cost.
                    self.record_observed_cost(
                        request,
                        engine.name(),
                        engine_started.elapsed().as_micros() as u64,
                    );
                    total_attempts += recovered.attempts;
                    total_faults += recovered.faults;
                    let degraded = failovers > 0 || total_attempts > 1 || total_faults > 0;
                    let results = recovered
                        .value
                        .into_iter()
                        .map(|r| {
                            if degraded {
                                r.with_detail("attempts", f64::from(total_attempts))
                                    .with_detail("failovers", f64::from(failovers))
                            } else {
                                r
                            }
                        })
                        .collect();
                    return Ok(results);
                }
                Err(failure) => {
                    record_breaker(false);
                    total_attempts += failure.attempts;
                    // A crash is the process dying, not this engine
                    // misbehaving — failing over would "survive" a death
                    // the chaos run is trying to prove we handle by
                    // resuming. Deadline exhaustion likewise ends the
                    // whole dispatch, not just this candidate.
                    let terminal = failure.deadline_hit || failure.crashed;
                    prev_failed = Some((candidate.routing.engine.clone(), failure.attempts));
                    last_error = Some(failure.error);
                    if terminal {
                        break;
                    }
                }
            }
        }
        Err(last_error.unwrap_or_else(|| {
            // Nothing ran at all: every capable engine's breaker denied
            // admission. Fail fast, naming each breaker's status, instead
            // of hammering engines the health layer already condemned.
            let status = health
                .unhealthy()
                .iter()
                .map(|(e, s)| format!("{e}: {s}"))
                .collect::<Vec<_>>()
                .join(", ");
            BdbError::Execution(format!(
                "all {} capable engine(s) for prescription {} denied by open circuit \
                 breakers ({status}); admission resumes when a breaker's cooldown \
                 elapses and its probes succeed",
                candidates.len(),
                request.prescription.name,
            ))
        }))
    }
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// The row-set payload of a bound execution: the output rows, in engine
/// order, with every value stringified. A row set is a multiset, so it is
/// not sorted here: its canonical lines are, for the digest and the diff.
fn table_payload(bound: &BoundExecution) -> OutputPayload {
    OutputPayload::RowSet(
        bound
            .output
            .rows()
            .iter()
            .map(|row| row.iter().map(std::string::ToString::to_string).collect())
            .collect(),
    )
}

/// The request's table data sets, cloned into the map a
/// [`PatternExecutor`] takes.
fn table_inputs(req: &ExecutionRequest<'_>) -> BTreeMap<String, Table> {
    req.datasets
        .iter()
        .filter_map(|(k, v)| match v {
            Dataset::Table(t) => Some((k.clone(), t.clone())),
            _ => None,
        })
        .collect()
}

/// Run a table-pattern binding and assemble the uniform result, emitting
/// one trace event per executed DAG step.
fn execute_table_binding(
    binding: &dyn PatternExecutor,
    engine: &'static str,
    req: &ExecutionRequest<'_>,
) -> Result<Vec<WorkloadResult>> {
    let tables = table_inputs(req);
    if tables.is_empty() {
        return Err(BdbError::Execution(format!(
            "engine {engine} needs a table data set for prescription {}",
            req.prescription.name
        )));
    }
    let bound = binding.execute(&req.prescription.pattern, &tables)?;
    for step in &bound.steps {
        req.trace.operation(engine, &step.op, step.rows_out, step.elapsed);
    }
    let mut collector = MetricsCollector::new();
    collector.record_operations(bound.output.len() as u64);
    let user = collector.finish_with_duration(bound.elapsed);
    let result = WorkloadResult::assemble(
        &req.prescription.name,
        engine,
        WorkloadCategory::RealTimeAnalytics,
        user,
        OpCounts { record_ops: bound.record_ops, float_ops: 0 },
        req.scale,
    )
    .with_detail("output_rows", bound.output.len() as f64)
    .with_output(table_payload(&bound));
    Ok(vec![result])
}

/// Grep hits (matching document indices, in match order) as an ordered
/// payload.
fn grep_payload(hits: &[usize]) -> OutputPayload {
    OutputPayload::Ordered(hits.iter().map(|i| i.to_string()).collect())
}

/// Word counts as an order-insensitive row set of `(word id, count)`.
fn wordcount_payload(counts: &[(u32, u64)]) -> OutputPayload {
    OutputPayload::RowSet(
        counts.iter().map(|(w, c)| vec![w.to_string(), c.to_string()]).collect(),
    )
}

/// Per-vertex numeric results (`v<i>` → value) for iterative graph
/// kernels, compared within epsilon across engines.
fn vertex_payload<T: Copy + Into<f64>>(values: &[T]) -> OutputPayload {
    OutputPayload::Numeric(
        values.iter().enumerate().map(|(i, v)| (format!("v{i}"), (*v).into())).collect(),
    )
}

/// Final centroid coordinates (`c<i>.<dim>` → coordinate) for k-means.
fn centroid_payload(centroids: &[social::Point]) -> OutputPayload {
    OutputPayload::Numeric(
        centroids
            .iter()
            .enumerate()
            .flat_map(|(i, c)| {
                c.iter().enumerate().map(move |(d, x)| (format!("c{i}.{d}"), *x)).collect::<Vec<_>>()
            })
            .collect(),
    )
}

/// The aggregate function of an iterative pattern's body, which selects
/// the iterative kernel (Min → connected components, Avg → k-means
/// centroids, otherwise PageRank-style rank summation).
fn iterative_agg(pattern: &WorkloadPattern) -> Option<AggSpec> {
    match pattern {
        WorkloadPattern::Iterative { body, .. } => body.iter().find_map(|s| match &s.op {
            Operation::Aggregate { function, .. } => Some(*function),
            _ => None,
        }),
        _ => None,
    }
}

fn timed<T>(
    req: &ExecutionRequest<'_>,
    engine: &'static str,
    op: &str,
    f: impl FnOnce() -> T,
    rows: impl FnOnce(&T) -> u64,
) -> T {
    let t0 = Instant::now();
    let out = f();
    req.trace.operation(engine, op, rows(&out), t0.elapsed());
    out
}

// ---------------------------------------------------------------------
// Built-in engines
// ---------------------------------------------------------------------

/// Hand-written native kernels (`bdb-workloads`): text and iterative
/// workloads on in-memory data structures.
#[derive(Debug, Default, Clone, Copy)]
pub struct NativeEngine;

impl Engine for NativeEngine {
    fn name(&self) -> &'static str {
        "native"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            systems: vec![SystemKind::Native],
            classes: vec![WorkloadClass::Text, WorkloadClass::Iterative],
            data_kinds: vec![
                DataSourceKind::Text,
                DataSourceKind::Graph,
                DataSourceKind::Table,
            ],
            patterns: vec![PatternShape::Single, PatternShape::Multi, PatternShape::Iterative],
        }
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
        let ops = req.prescription.pattern.operations();
        match WorkloadClass::of(req.prescription) {
            WorkloadClass::Text => {
                let (docs, vocab) = req.text_dataset()?;
                let r = if let Some(Operation::Grep { pattern }) =
                    ops.iter().find(|o| matches!(o, Operation::Grep { .. }))
                {
                    let (hits, r) = timed(req, "native", "grep", || {
                        micro::grep_native(docs, vocab, pattern)
                    }, |r| r.0.len() as u64);
                    r.with_output(grep_payload(&hits))
                } else {
                    let (counts, r) = timed(req, "native", "wordcount", || {
                        micro::wordcount_native(docs)
                    }, |r| r.0.len() as u64);
                    r.with_output(wordcount_payload(&counts))
                };
                Ok(vec![r])
            }
            WorkloadClass::Iterative => execute_iterative(req, IterativeBackend::Native),
            other => Err(BdbError::Execution(format!(
                "native engine cannot execute {other} workloads"
            ))),
        }
    }
}

/// Which concrete kernels an iterative prescription lowers to.
enum IterativeBackend {
    Native,
    MapReduce,
}

/// Iterative dispatch shared by the native and MapReduce engines: graph
/// data runs connected components (Min fold) or PageRank; table data runs
/// k-means over the generated feature vectors.
fn execute_iterative(
    req: &ExecutionRequest<'_>,
    backend: IterativeBackend,
) -> Result<Vec<WorkloadResult>> {
    let agg = iterative_agg(&req.prescription.pattern);
    let engine = match backend {
        IterativeBackend::Native => "native",
        IterativeBackend::MapReduce => "mapreduce",
    };
    if let Some(Dataset::Graph(g)) =
        req.datasets.values().find(|d| matches!(d, Dataset::Graph(_)))
    {
        let r = if agg == Some(AggSpec::Min) {
            // Connected components over the undirected closure.
            let mut und = g.clone();
            for &(u, v) in g.edges() {
                und.add_edge(v, u);
            }
            let csr = und.to_csr();
            let (labels, _, r) = match backend {
                IterativeBackend::Native => {
                    timed(req, engine, "aggregate", || {
                        social::connected_components(&csr)
                    }, |r| r.0.len() as u64)
                }
                IterativeBackend::MapReduce => {
                    let job = req.job_config();
                    timed(req, engine, "aggregate", || {
                        social::connected_components_mapreduce(&csr, &job)
                    }, |r| r.0.len() as u64)
                }
            };
            r.with_output(vertex_payload(&labels))
        } else {
            let (ranks, _, r) = match backend {
                IterativeBackend::Native => {
                    let csr = g.to_csr();
                    timed(req, engine, "aggregate", || {
                        search::pagerank_native(&csr, &Default::default())
                    }, |r| r.0.len() as u64)
                }
                IterativeBackend::MapReduce => {
                    let job = req.job_config();
                    timed(req, engine, "aggregate", || {
                        search::pagerank_mapreduce(g, &Default::default(), &job)
                    }, |r| r.0.len() as u64)
                }
            };
            r.with_output(vertex_payload(&ranks))
        };
        return Ok(vec![r]);
    }
    // Table-backed iteration: k-means over the *generated* table's numeric
    // columns, so --scale/--seed data actually reaches the kernel.
    let table = req.first_table()?;
    let points = social::points_from_table(table)?;
    let n = points.len();
    let (centroids, _, _, r) = match backend {
        IterativeBackend::Native => {
            timed(req, engine, "aggregate", || {
                social::kmeans_native(&points, &Default::default(), req.seed)
            }, |r| r.1.len() as u64)
        }
        IterativeBackend::MapReduce => {
            let job = req.job_config();
            timed(req, engine, "aggregate", || {
                social::kmeans_mapreduce(&points, &Default::default(), req.seed, &job)
            }, |r| r.1.len() as u64)
        }
    };
    Ok(vec![r
        .with_detail("input_points", n as f64)
        .with_output(centroid_payload(&centroids))])
}

/// The MapReduce engine (`bdb-mapreduce`): text kernels, iterative jobs,
/// and relational patterns lowered to map/reduce rounds.
#[derive(Debug, Default, Clone, Copy)]
pub struct MapReduceEngine;

impl Engine for MapReduceEngine {
    fn name(&self) -> &'static str {
        "mapreduce"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            systems: vec![SystemKind::MapReduce],
            classes: vec![
                WorkloadClass::Text,
                WorkloadClass::Iterative,
                WorkloadClass::Relational,
                WorkloadClass::Behavioral,
            ],
            data_kinds: vec![
                DataSourceKind::Text,
                DataSourceKind::Graph,
                DataSourceKind::Table,
                DataSourceKind::Stream,
            ],
            patterns: vec![PatternShape::Single, PatternShape::Multi, PatternShape::Iterative],
        }
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
        let ops = req.prescription.pattern.operations();
        match WorkloadClass::of(req.prescription) {
            WorkloadClass::Text => {
                let (docs, vocab) = req.text_dataset()?;
                let job = req.job_config();
                let r = if let Some(Operation::Grep { pattern }) =
                    ops.iter().find(|o| matches!(o, Operation::Grep { .. }))
                {
                    let (hits, r) = timed(req, "mapreduce", "grep", || {
                        micro::grep_mapreduce(docs, vocab, pattern, &job)
                    }, |r| r.0.len() as u64);
                    r.with_output(grep_payload(&hits))
                } else {
                    let (counts, r) = timed(req, "mapreduce", "wordcount", || {
                        micro::wordcount_mapreduce(docs, &job)
                    }, |r| r.0.len() as u64);
                    r.with_output(wordcount_payload(&counts))
                };
                Ok(vec![r])
            }
            WorkloadClass::Iterative => execute_iterative(req, IterativeBackend::MapReduce),
            WorkloadClass::Relational => execute_table_binding(
                &MapReduceBinding { config: req.job_config() },
                "mapreduce",
                req,
            ),
            WorkloadClass::Behavioral => execute_behavioral(req, BehavioralBackend::MapReduce),
            other => Err(BdbError::Execution(format!(
                "mapreduce engine cannot execute {other} workloads"
            ))),
        }
    }
}

/// The relational engine (`bdb-sql`): table patterns lowered to logical
/// plans.
#[derive(Debug, Default, Clone, Copy)]
pub struct SqlEngine;

impl Engine for SqlEngine {
    fn name(&self) -> &'static str {
        "sql"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            systems: vec![SystemKind::Sql],
            classes: vec![WorkloadClass::Relational],
            data_kinds: vec![DataSourceKind::Table],
            patterns: vec![PatternShape::Single, PatternShape::Multi],
        }
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
        execute_table_binding(&SqlBinding, "sql", req)
    }

    /// The cost of the memo-extracted plans the binding would execute:
    /// the SQL engine reports its optimizer's own estimate to the router
    /// instead of relying on the static table.
    fn estimate_cost(&self, req: &ExecutionRequest<'_>) -> Option<f64> {
        let tables = table_inputs(req);
        if tables.is_empty() {
            return None;
        }
        SqlBinding::estimate_cost(&req.prescription.pattern, &tables)
    }
}

/// The key-value engine (`bdb-kv`): an element-operation prescription
/// runs as a load-driver op mix against a preloaded LSM store.
#[derive(Debug, Default, Clone, Copy)]
pub struct KvEngine;

impl Engine for KvEngine {
    fn name(&self) -> &'static str {
        "kv"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            systems: vec![SystemKind::KeyValue],
            classes: vec![WorkloadClass::Element],
            data_kinds: vec![DataSourceKind::Table],
            patterns: vec![PatternShape::Single, PatternShape::Multi],
        }
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
        let mix = element_mix(req.prescription, req.scale)?;
        let clients = req.config.effective_threads().min(8);
        let (report, r) = timed(
            req,
            "kv",
            "element-mix",
            || loadgen::drive_ycsb(&mix, (req.scale * 2) as usize, clients, req.seed),
            |r| r.as_ref().map_or(0, |(report, _)| report.completed),
        )?;
        // Sessions claim ops from one seeded schedule, so the per-class
        // counts depend only on (mix, records, ops, seed), never on the
        // client count.
        let count = |c| report.class_latency(c).count();
        let payload = OutputPayload::Numeric(vec![
            ("final_keys".into(), (req.scale + count(OpClass::Insert)) as f64),
            ("inserts".into(), count(OpClass::Insert) as f64),
            ("reads".into(), count(OpClass::Get) as f64),
            ("rmws".into(), count(OpClass::Rmw) as f64),
            ("scans".into(), count(OpClass::Scan) as f64),
            ("updates".into(), count(OpClass::Put) as f64),
        ]);
        Ok(vec![r.with_output(payload)])
    }
}

/// The op mix an element-operation prescription prescribes: one op per
/// step — gets read, key updates put, puts and deletes insert, range
/// scans scan up to the first scan step's limit — over `records`
/// preloaded keys with Zipf(0.99) popularity.
///
/// # Errors
/// Fails when the prescription has no element operations or a range
/// scan with limit 0.
fn element_mix(prescription: &Prescription, records: u64) -> Result<OpMix> {
    let mut scan_limit = None;
    let mut classes = Vec::new();
    for (step, op) in prescription.pattern.operations().into_iter().enumerate() {
        classes.push(match op {
            Operation::Get { .. } => OpClass::Get,
            Operation::UpdateKey { .. } => OpClass::Put,
            Operation::Put { .. } | Operation::DeleteKey { .. } => OpClass::Insert,
            Operation::ScanRange { limit, .. } => {
                if *limit == 0 {
                    return Err(BdbError::InvalidConfig(format!(
                        "prescription {}: ScanRange step {step} has limit 0",
                        prescription.name
                    )));
                }
                scan_limit.get_or_insert(*limit as u64);
                OpClass::Scan
            }
            _ => continue,
        });
    }
    if classes.is_empty() {
        return Err(BdbError::Execution(format!(
            "kv engine needs element operations in prescription {}",
            prescription.name
        )));
    }
    let frac =
        |c: OpClass| classes.iter().filter(|k| **k == c).count() as f64 / classes.len() as f64;
    Ok(OpMix {
        get: frac(OpClass::Get),
        put: frac(OpClass::Put),
        insert: frac(OpClass::Insert),
        scan: frac(OpClass::Scan),
        rmw: 0.0,
        zipf: 0.99,
        records,
        scan_len: (1, scan_limit.unwrap_or(1).saturating_add(1)),
    })
}

/// Which binding a behavioral prescription lowers to.
enum BehavioralBackend {
    Streaming,
    MapReduce,
}

/// Extract the behavioral operation from a prescription's pattern.
fn behavioral_spec(prescription: &Prescription) -> Result<behavioral::BehavioralSpec> {
    prescription
        .pattern
        .operations()
        .iter()
        .find_map(|o| match o {
            Operation::Sessionize { gap_ms } => {
                Some(behavioral::BehavioralSpec::Sessionize { gap_ms: *gap_ms })
            }
            Operation::Retention { period_ms, periods } => {
                Some(behavioral::BehavioralSpec::Retention {
                    period_ms: *period_ms,
                    periods: *periods,
                })
            }
            Operation::WindowFunnel { window_ms, steps } => {
                Some(behavioral::BehavioralSpec::WindowFunnel {
                    window_ms: *window_ms,
                    steps: steps.clone(),
                })
            }
            Operation::SequenceMatch { steps } => {
                Some(behavioral::BehavioralSpec::SequenceMatch { steps: steps.clone() })
            }
            _ => None,
        })
        .ok_or_else(|| {
            BdbError::Execution("behavioral dispatch needs a behavioral operation".into())
        })
}

/// Behavioral dispatch shared by the streaming and MapReduce engines:
/// both bindings run the same order-insensitive per-user aggregates, so
/// their row sets are identical (the conformance matrix asserts it).
fn execute_behavioral(
    req: &ExecutionRequest<'_>,
    backend: BehavioralBackend,
) -> Result<Vec<WorkloadResult>> {
    let spec = behavioral_spec(req.prescription)?;
    let events = req
        .datasets
        .values()
        .find_map(|d| match d {
            Dataset::Stream(e) => Some(e.as_slice()),
            _ => None,
        })
        .ok_or_else(|| {
            BdbError::Execution("behavioral operations need a stream data set".into())
        })?;
    let r = match backend {
        BehavioralBackend::Streaming => {
            timed(
                req,
                "streaming",
                spec.name(),
                || behavioral::behavioral_streaming(events, &spec),
                |r| r.0.rows.len() as u64,
            )
            .1
        }
        BehavioralBackend::MapReduce => {
            let job = req.job_config();
            timed(
                req,
                "mapreduce",
                spec.name(),
                || behavioral::behavioral_mapreduce(events, &spec, &job),
                |r| r.0.rows.len() as u64,
            )
            .1
        }
    };
    Ok(vec![r])
}

/// The streaming engine (`bdb-stream`): windowed aggregation and
/// behavioral analytics over event streams.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamingEngine;

impl Engine for StreamingEngine {
    fn name(&self) -> &'static str {
        "streaming"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            systems: vec![SystemKind::Streaming],
            classes: vec![WorkloadClass::Windowed, WorkloadClass::Behavioral],
            data_kinds: vec![DataSourceKind::Stream],
            patterns: vec![PatternShape::Single],
        }
    }

    fn execute(&self, req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
        if WorkloadClass::of(req.prescription) == WorkloadClass::Behavioral {
            return execute_behavioral(req, BehavioralBackend::Streaming);
        }
        let window_ms = req
            .prescription
            .pattern
            .operations()
            .iter()
            .find_map(|o| match o {
                Operation::WindowAggregate { window_ms, .. } => Some(*window_ms),
                _ => None,
            })
            .ok_or_else(|| {
                BdbError::Execution("streaming engine needs a window-aggregate operation".into())
            })?;
        let events = req
            .datasets
            .values()
            .find_map(|d| match d {
                Dataset::Stream(e) => Some(e.clone()),
                _ => None,
            })
            .ok_or_else(|| {
                BdbError::Execution("window aggregation needs a stream data set".into())
            })?;
        let cfg = streaming::StreamAnalyticsConfig { window_ms, ..Default::default() };
        let (outcome, r) = timed(
            req,
            "streaming",
            "window-aggregate",
            || streaming::windowed_aggregation(events, &cfg),
            |r| r.0.windows.len() as u64,
        );
        // Stream output is ordered: with zero allowed lateness and an
        // in-order source, panes close in deterministic
        // (window_start, key) order — the documented lateness contract.
        let payload = OutputPayload::Ordered(
            outcome
                .windows
                .iter()
                .map(|w| {
                    format!(
                        "{}|{}|{}|{}|{:?}|{:?}|{:?}",
                        w.window_start, w.window_end, w.key, w.count, w.sum, w.min, w.max
                    )
                })
                .collect(),
        );
        Ok(vec![r.with_output(payload)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_testgen::repository::builtin_prescriptions;

    fn prescription(name: &str) -> Prescription {
        builtin_prescriptions()
            .into_iter()
            .find(|p| p.name == name)
            .expect("builtin prescription exists")
    }

    #[test]
    fn kv_output_does_not_depend_on_thread_count() {
        let datasets = BTreeMap::new();
        let trace = RunTrace::new();
        for name in ["oltp/read-mostly", "oltp/scan-heavy"] {
            let p = prescription(name);
            let digest = |threads: usize| {
                let config = SystemConfig::default().with_threads(threads);
                let req = ExecutionRequest {
                    prescription: &p,
                    system: SystemKind::KeyValue,
                    seed: 42,
                    scale: 300,
                    datasets: &datasets,
                    config: &config,
                    trace: &trace,
                    routing: RoutingPolicy::FirstCapable,
                };
                KvEngine.execute(&req).unwrap()[0].output.as_ref().expect("kv payload").digest()
            };
            assert_eq!(digest(1), digest(8), "{name}");
        }
    }

    #[test]
    fn element_mix_takes_the_first_scan_limit_and_rejects_zero() {
        use bdb_testgen::pattern::Step;
        let scans = |limits: &[usize]| WorkloadPattern::Multi {
            steps: limits
                .iter()
                .enumerate()
                .map(|(id, &limit)| Step {
                    id: id as u32,
                    op: Operation::ScanRange { start_key: "zipfian".into(), limit },
                    inputs: vec![],
                })
                .collect(),
        };
        let mut p = prescription("oltp/scan-heavy");
        p.pattern = scans(&[5, 9]);
        assert_eq!(element_mix(&p, 10).unwrap().scan_len, (1, 6));
        p.pattern = scans(&[usize::MAX]);
        assert_eq!(element_mix(&p, 10).unwrap().scan_len.1, u64::MAX);
        p.pattern = scans(&[5, 0]);
        let err = element_mix(&p, 10).unwrap_err().to_string();
        assert!(err.contains("oltp/scan-heavy") && err.contains("ScanRange step 1"), "{err}");
    }

    #[test]
    fn classes_match_the_old_dispatch_precedence() {
        for (name, class) in [
            ("behavioral/sessionize", WorkloadClass::Behavioral),
            ("behavioral/retention", WorkloadClass::Behavioral),
            ("behavioral/window-funnel", WorkloadClass::Behavioral),
            ("behavioral/sequence-match", WorkloadClass::Behavioral),
            ("streaming/window-aggregation", WorkloadClass::Windowed),
            ("micro/wordcount", WorkloadClass::Text),
            ("micro/grep", WorkloadClass::Text),
            ("search/pagerank", WorkloadClass::Iterative),
            ("social/kmeans", WorkloadClass::Iterative),
            ("oltp/read-mostly", WorkloadClass::Element),
            ("micro/sort", WorkloadClass::Relational),
            ("relational/join", WorkloadClass::Relational),
        ] {
            assert_eq!(WorkloadClass::of(&prescription(name)), class, "{name}");
        }
    }

    #[test]
    fn builtin_registry_covers_all_system_kinds() {
        let registry = EngineRegistry::with_builtins();
        let mut systems = BTreeSet::new();
        for engine in registry.engines() {
            for s in engine.capabilities().systems {
                systems.insert(s.to_string());
            }
        }
        assert_eq!(
            systems.into_iter().collect::<Vec<_>>(),
            vec!["kv", "mapreduce", "native", "sql", "streaming"]
        );
        assert_eq!(registry.names(), vec!["native", "sql", "kv", "streaming", "mapreduce"]);
    }

    #[test]
    fn capability_summary_is_descriptive() {
        let caps = SqlEngine.capabilities();
        let s = caps.summary();
        assert!(s.contains("systems=sql"));
        assert!(s.contains("classes=relational"));
        assert!(s.contains("data=table"));
    }

    #[test]
    fn empty_registry_reports_no_candidates() {
        let registry = EngineRegistry::new();
        let p = prescription("micro/sort");
        let datasets = BTreeMap::new();
        let config = SystemConfig::default();
        let trace = RunTrace::new();
        let req = ExecutionRequest {
            prescription: &p,
            system: SystemKind::Sql,
            seed: 1,
            scale: 10,
            datasets: &datasets,
            config: &config,
            trace: &trace,
            routing: RoutingPolicy::FirstCapable,
        };
        let err = registry.dispatch_resilient(&req, &Resilience::passive(0)).unwrap_err();
        assert!(err.to_string().contains("none registered"), "{err}");
    }

    #[test]
    fn dispatch_rejects_out_of_range_ewma_alpha() {
        // The registry validates `routing.ewma_alpha` up front, so a bad
        // value fails loudly at routing time instead of being silently
        // ignored inside the router's observation fold.
        let registry = EngineRegistry::with_builtins();
        let p = prescription("micro/sort");
        let datasets = BTreeMap::new();
        let config = SystemConfig::default().with_parameter("routing.ewma_alpha", "2.0");
        let trace = RunTrace::new();
        let req = ExecutionRequest {
            prescription: &p,
            system: SystemKind::Sql,
            seed: 1,
            scale: 10,
            datasets: &datasets,
            config: &config,
            trace: &trace,
            routing: RoutingPolicy::Cost,
        };
        let err = match registry.route(&req) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("route accepted alpha=2.0"),
        };
        assert!(err.contains("(0, 1]"), "error names the valid range: {err}");
        let err = registry
            .dispatch_resilient(&req, &Resilience::passive(0))
            .unwrap_err()
            .to_string();
        assert!(err.contains("routing.ewma_alpha=2"), "dispatch rejects too: {err}");
    }

    /// A capable fake relational engine with a fixed self-reported cost.
    struct PricedEngine {
        name: &'static str,
        system: SystemKind,
        cost: f64,
    }

    impl Engine for PricedEngine {
        fn name(&self) -> &'static str {
            self.name
        }

        fn capabilities(&self) -> Capabilities {
            Capabilities {
                systems: vec![self.system],
                classes: vec![WorkloadClass::Relational],
                data_kinds: vec![DataSourceKind::Table],
                patterns: vec![PatternShape::Single, PatternShape::Multi],
            }
        }

        fn execute(&self, _req: &ExecutionRequest<'_>) -> Result<Vec<WorkloadResult>> {
            Err(BdbError::Execution("priced fake does not execute".into()))
        }

        fn estimate_cost(&self, _req: &ExecutionRequest<'_>) -> Option<f64> {
            Some(self.cost)
        }
    }

    fn priced_registry(costs: &[(&'static str, SystemKind, f64)]) -> EngineRegistry {
        let mut r = EngineRegistry::new();
        for (name, system, cost) in costs {
            r.register(Box::new(PricedEngine { name, system: *system, cost: *cost }));
        }
        r
    }

    fn route_names(registry: &EngineRegistry, routing: RoutingPolicy) -> Vec<String> {
        let p = prescription("micro/sort");
        let datasets = BTreeMap::new();
        let config = SystemConfig::default();
        let trace = RunTrace::new();
        let req = ExecutionRequest {
            prescription: &p,
            system: SystemKind::Sql,
            seed: 1,
            scale: 100,
            datasets: &datasets,
            config: &config,
            trace: &trace,
            routing,
        };
        registry
            .route_all(&req)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r.engine)
            .collect()
    }

    #[test]
    fn cost_policy_reorders_within_a_partition() {
        // Both fakes implement the requested system; the cheaper one wins
        // under cost routing despite registering second, while
        // first-capable keeps registration order.
        let registry = priced_registry(&[
            ("pricey", SystemKind::Sql, 900.0),
            ("bargain", SystemKind::Sql, 10.0),
        ]);
        assert_eq!(route_names(&registry, RoutingPolicy::FirstCapable), vec!["pricey", "bargain"]);
        assert_eq!(route_names(&registry, RoutingPolicy::Cost), vec!["bargain", "pricey"]);
    }

    #[test]
    fn explicit_pin_outranks_cheaper_fallback() {
        // The engine implementing the requested system wins even when a
        // capability fallback predicts a far lower cost.
        let registry = priced_registry(&[
            ("cheap-fallback", SystemKind::MapReduce, 1.0),
            ("pinned", SystemKind::Sql, 5_000.0),
        ]);
        assert_eq!(
            route_names(&registry, RoutingPolicy::Cost),
            vec!["pinned", "cheap-fallback"]
        );
    }

    proptest::proptest! {
        /// Whatever the candidate costs, cost routing always dispatches a
        /// capable engine whose predicted cost is minimal within the
        /// leading partition, and ties keep registration order.
        #[test]
        fn router_picks_minimal_cost_capable_engine(
            costs in proptest::collection::vec(0u32..10_000, 1..6)
        ) {
            static NAMES: [&str; 6] = ["e0", "e1", "e2", "e3", "e4", "e5"];
            let registry = priced_registry(
                &costs
                    .iter()
                    .enumerate()
                    .map(|(i, c)| (NAMES[i], SystemKind::Sql, f64::from(*c)))
                    .collect::<Vec<_>>(),
            );
            let order = route_names(&registry, RoutingPolicy::Cost);
            let min = costs.iter().copied().min().unwrap();
            // The winner carries the minimal cost; among minimal-cost
            // candidates the earliest-registered wins.
            let first_min = costs.iter().position(|c| *c == min).unwrap();
            proptest::prop_assert_eq!(&order[0], NAMES[first_min]);
            proptest::prop_assert_eq!(order.len(), costs.len());
        }
    }
}
