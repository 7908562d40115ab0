//! Threaded stream pipelines with bounded channels.
//!
//! Each stage runs on its own thread; stages are connected by bounded
//! `std::sync::mpsc` channels, so a slow stage backpressures its upstream
//! exactly as in a real streaming system. [`Pipeline::run`] replays the
//! input as fast as possible (measuring sustainable processing rate);
//! [`Pipeline::run_paced`] replays at a target arrival rate and measures
//! the processing lag behind the source — the "keep up with arriving
//! speed" test of the paper's velocity discussion.

use crate::window::{WindowAggregate, WindowSpec, Windower};
use bdb_common::event::Event;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

enum Stage {
    Map(Box<dyn Fn(Event) -> Event + Send>),
    Filter(Box<dyn Fn(&Event) -> bool + Send>),
}

/// The outcome of a pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Events fed by the source.
    pub events_in: u64,
    /// Events that survived all map/filter stages.
    pub events_out: u64,
    /// Closed window aggregates (empty without a window stage).
    pub windows: Vec<WindowAggregate>,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Input events per wall-clock second.
    pub throughput_eps: f64,
    /// Under paced replay: the maximum wall-clock lag (ms) between an
    /// event's scheduled arrival and the moment the sink finished with it.
    pub max_lag_ms: Option<f64>,
    /// Events the window operator dropped as too late.
    pub late_events: u64,
}

/// A linear pipeline: source → stages… → \[window\] → sink.
#[derive(Default)]
pub struct Pipeline {
    stages: Vec<Stage>,
    window: Option<WindowSpec>,
    allowed_lateness_ms: u64,
    channel_capacity: usize,
}

impl Pipeline {
    /// An empty pipeline (identity).
    pub fn new() -> Self {
        Self {
            stages: Vec::new(),
            window: None,
            allowed_lateness_ms: 0,
            channel_capacity: 1024,
        }
    }

    /// Append a map stage.
    pub fn map(mut self, f: impl Fn(Event) -> Event + Send + 'static) -> Self {
        self.stages.push(Stage::Map(Box::new(f)));
        self
    }

    /// Append a filter stage.
    pub fn filter(mut self, f: impl Fn(&Event) -> bool + Send + 'static) -> Self {
        self.stages.push(Stage::Filter(Box::new(f)));
        self
    }

    /// Add the terminal keyed-window aggregation stage.
    pub fn window(mut self, spec: WindowSpec) -> Self {
        self.window = Some(spec);
        self
    }

    /// Keep windows open this long past their end so mildly out-of-order
    /// events still count instead of being dropped as late.
    pub fn with_allowed_lateness(mut self, ms: u64) -> Self {
        self.allowed_lateness_ms = ms;
        self
    }

    /// Set the inter-stage channel capacity (backpressure depth).
    pub fn with_channel_capacity(mut self, cap: usize) -> Self {
        self.channel_capacity = cap.max(1);
        self
    }

    /// Replay `events` as fast as possible.
    pub fn run(self, events: Vec<Event>) -> RunOutcome {
        self.execute(events, None)
    }

    /// Replay `events` at `arrival_rate_eps` events/second and measure lag.
    ///
    /// # Panics
    /// Panics on a non-positive rate.
    pub fn run_paced(self, events: Vec<Event>, arrival_rate_eps: f64) -> RunOutcome {
        assert!(arrival_rate_eps > 0.0, "arrival rate must be positive");
        self.execute(events, Some(arrival_rate_eps))
    }

    fn execute(self, events: Vec<Event>, pace: Option<f64>) -> RunOutcome {
        // At least one slot: a zero-capacity `sync_channel` is a rendezvous
        // channel, which would turn backpressure into lock-step hand-offs.
        let cap = self.channel_capacity.max(1);
        let events_in = events.len() as u64;
        let start = Instant::now();

        // source → first channel
        let (src_tx, mut cur_rx) = sync_channel::<(Event, Instant)>(cap);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                for (i, e) in events.into_iter().enumerate() {
                    let due = match pace {
                        Some(rate) => {
                            let due = start + Duration::from_secs_f64(i as f64 / rate);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                            due
                        }
                        None => start,
                    };
                    if src_tx.send((e, due)).is_err() {
                        break;
                    }
                }
                // src_tx drops here, closing the channel.
            });

            // stage threads
            for stage in self.stages {
                let (tx, rx) = sync_channel::<(Event, Instant)>(cap);
                let input = cur_rx;
                scope.spawn(move || {
                    match stage {
                        Stage::Map(f) => {
                            for (e, due) in input {
                                if tx.send((f(e), due)).is_err() {
                                    break;
                                }
                            }
                        }
                        Stage::Filter(f) => {
                            for (e, due) in input {
                                if f(&e)
                                    && tx.send((e, due)).is_err() {
                                        break;
                                    }
                            }
                        }
                    }
                });
                cur_rx = rx;
            }

            // sink (+ optional windowing) on this thread
            let lateness = self.allowed_lateness_ms;
            let mut windower = self
                .window
                .map(|spec| Windower::with_allowed_lateness(spec, lateness));
            let mut windows = Vec::new();
            let mut events_out = 0u64;
            let mut max_lag_ms: Option<f64> = None;
            for (e, due) in cur_rx {
                events_out += 1;
                if let Some(w) = windower.as_mut() {
                    windows.extend(w.push(&e));
                }
                if pace.is_some() {
                    let lag = Instant::now().saturating_duration_since(due);
                    let ms = lag.as_secs_f64() * 1e3;
                    max_lag_ms = Some(max_lag_ms.map_or(ms, |m: f64| m.max(ms)));
                }
            }
            let mut late_events = 0;
            if let Some(w) = windower.as_mut() {
                windows.extend(w.flush());
                late_events = w.late_events();
            }
            let elapsed = start.elapsed().as_secs_f64().max(1e-9);
            RunOutcome {
                events_in,
                events_out,
                windows,
                elapsed_secs: elapsed,
                throughput_eps: events_in as f64 / elapsed,
                max_lag_ms,
                late_events,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(n: u64) -> Vec<Event> {
        (0..n).map(|i| Event::new(i * 10, i % 4, i as f64)).collect()
    }

    #[test]
    fn identity_pipeline_passes_everything() {
        let out = Pipeline::new().run(events(100));
        assert_eq!(out.events_in, 100);
        assert_eq!(out.events_out, 100);
        assert!(out.windows.is_empty());
        assert!(out.throughput_eps > 0.0);
        assert_eq!(out.max_lag_ms, None);
    }

    #[test]
    fn map_and_filter_stages_compose() {
        let out = Pipeline::new()
            .map(|mut e| {
                e.value *= 2.0;
                e
            })
            .filter(|e| e.value >= 100.0)
            .run(events(100));
        // value = 2*i >= 100 → i >= 50: 50 events survive.
        assert_eq!(out.events_out, 50);
    }

    #[test]
    fn windowed_pipeline_matches_batch_computation() {
        let evts = events(1000);
        // Batch ground truth: tumbling 100ms windows over key.
        let mut expected: std::collections::BTreeMap<(u64, u64), u64> = Default::default();
        for e in &evts {
            *expected.entry(((e.ts_ms / 100) * 100, e.key)).or_insert(0) += 1;
        }
        let out = Pipeline::new().window(WindowSpec::tumbling(100)).run(evts);
        assert_eq!(out.windows.len(), expected.len());
        for w in &out.windows {
            assert_eq!(
                expected.get(&(w.window_start, w.key)),
                Some(&w.count),
                "pane ({}, {})",
                w.window_start,
                w.key
            );
        }
    }

    #[test]
    fn paced_replay_reports_lag() {
        let out = Pipeline::new()
            .window(WindowSpec::tumbling(50))
            .run_paced(events(200), 20_000.0);
        let lag = out.max_lag_ms.expect("paced run must report lag");
        assert!(lag >= 0.0);
        // At 20k events/s the run should take ~10ms of pacing.
        assert!(out.elapsed_secs >= 0.009, "elapsed {}", out.elapsed_secs);
    }

    #[test]
    fn paced_arrival_rate_is_respected() {
        let out = Pipeline::new().run_paced(events(500), 50_000.0);
        // 500 events at 50k/s = 10ms minimum.
        assert!(out.elapsed_secs >= 0.009);
        assert!(out.throughput_eps <= 60_000.0, "rate {}", out.throughput_eps);
    }

    #[test]
    fn backpressure_does_not_deadlock_with_tiny_channels() {
        let out = Pipeline::new()
            .with_channel_capacity(1)
            .map(|e| e)
            .filter(|_| true)
            .window(WindowSpec::tumbling(100))
            .run(events(2000));
        assert_eq!(out.events_out, 2000);
    }

    #[test]
    fn out_of_order_stream_reports_late_events() {
        // Interleave a badly late event into an otherwise ordered stream.
        let mut evts = events(100);
        evts.push(Event::new(5, 0, 1.0)); // far behind the watermark
        let strict = Pipeline::new().window(WindowSpec::tumbling(50)).run(evts.clone());
        assert_eq!(strict.late_events, 1);
        // With generous lateness the same event is accepted.
        let lenient = Pipeline::new()
            .window(WindowSpec::tumbling(50))
            .with_allowed_lateness(10_000)
            .run(evts);
        assert_eq!(lenient.late_events, 0);
        let counted: u64 = lenient.windows.iter().map(|w| w.count).sum();
        assert_eq!(counted, 101);
    }

    #[test]
    fn empty_input_is_fine() {
        let out = Pipeline::new().window(WindowSpec::tumbling(10)).run(vec![]);
        assert_eq!(out.events_in, 0);
        assert!(out.windows.is_empty());
    }
}
