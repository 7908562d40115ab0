//! Operation arrival patterns (Section 5.2).
//!
//! "A representative workload should reflect both typical data processing
//! operations and the arrival patterns of these operations (i.e. the
//! arriving rate and sequence of operations)." An [`ArrivalSpec`]
//! describes rate and sequencing; [`schedule`] materialises it into
//! timestamped operation slots. The "truly hybrid workload" the paper
//! says no existing benchmark supports is an operation mix on the load
//! driver (`bdb_exec::loadgen`).

use bdb_common::prelude::*;
use bdb_common::{BdbError, Result};
use serde::{Deserialize, Serialize};

/// How operations arrive at the system under test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum ArrivalSpec {
    /// Closed loop: `clients` issue one operation at a time with a fixed
    /// think time between completions. Rate emerges from service time.
    Closed {
        /// Concurrent clients.
        clients: u32,
        /// Pause between a completion and the next request, ms.
        think_time_ms: f64,
    },
    /// Open loop: operations arrive at a target rate regardless of
    /// completions.
    Open {
        /// Mean arrivals per second.
        rate_per_sec: f64,
        /// Arrival process shape.
        process: ArrivalProcess,
    },
    /// Run everything back-to-back (batch jobs).
    #[default]
    Batch,
}

/// The stochastic shape of an open-loop arrival stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Exponential gaps (Poisson arrivals).
    Poisson,
    /// Constant gaps.
    Uniform,
    /// Two-state bursty arrivals: `burst_factor`× rate inside bursts.
    Bursty {
        /// Rate multiplier inside a burst.
        burst_factor: f64,
    },
}

/// Materialise `n` arrival instants from a spec: when each operation
/// should be issued, ms from test start.
///
/// Closed-loop specs have no a-priori schedule (arrivals depend on
/// completions), so they return evenly spaced estimates at
/// `clients / think_time` for planning purposes.
pub fn schedule(spec: &ArrivalSpec, n: usize, seed: u64) -> Result<Vec<f64>> {
    let mut rng = SeedTree::new(seed).child_named("arrivals").rng();
    let mut out = Vec::with_capacity(n);
    match spec {
        ArrivalSpec::Batch => out.resize(n, 0.0),
        ArrivalSpec::Closed { clients, think_time_ms } => {
            if *clients == 0 {
                return Err(BdbError::InvalidConfig("closed loop needs clients".into()));
            }
            let rate_per_ms = *clients as f64 / think_time_ms.max(0.001);
            for i in 0..n {
                out.push(i as f64 / rate_per_ms);
            }
        }
        ArrivalSpec::Open { rate_per_sec, process } => {
            if *rate_per_sec <= 0.0 {
                return Err(BdbError::InvalidConfig("open loop needs a positive rate".into()));
            }
            let mean_gap_ms = 1000.0 / rate_per_sec;
            let mut t = 0.0;
            for i in 0..n {
                let gap = match process {
                    ArrivalProcess::Uniform => mean_gap_ms,
                    ArrivalProcess::Poisson => {
                        Exponential::new(1.0 / mean_gap_ms).sample(&mut rng)
                    }
                    ArrivalProcess::Bursty { burst_factor } => {
                        // Alternate burst/calm every 64 arrivals; keep the
                        // long-run mean gap equal to `mean_gap_ms`.
                        let f = burst_factor.max(1.0);
                        let in_burst = (i / 64) % 2 == 0;
                        let local_mean = if in_burst {
                            mean_gap_ms / f
                        } else {
                            mean_gap_ms * (2.0 - 1.0 / f)
                        };
                        Exponential::new(1.0 / local_mean).sample(&mut rng)
                    }
                };
                t += gap;
                out.push(t);
            }
        }
    }
    Ok(out)
}

/// Fit an [`ArrivalSpec`] from a profiled history log of operation
/// timestamps (Section 5.2: "profiling history logs of real applications
/// is a good way to obtain the representative arrival patterns").
///
/// The mean rate comes from the log's span; the process shape from the
/// index of dispersion of the inter-arrival gaps (variance/mean²):
/// ≈0 ⇒ uniform, ≈1 ⇒ Poisson, >1 ⇒ bursty with a factor estimated from
/// the dispersion.
///
/// # Errors
/// Fails with fewer than three timestamps or a zero-length span.
pub fn fit_from_log(timestamps_ms: &[f64]) -> Result<ArrivalSpec> {
    if timestamps_ms.len() < 3 {
        return Err(BdbError::InvalidConfig(
            "need at least 3 log timestamps to fit an arrival pattern".into(),
        ));
    }
    let mut ts = timestamps_ms.to_vec();
    ts.sort_by(|a, b| a.partial_cmp(b).expect("finite timestamps"));
    let span_ms = ts.last().expect("non-empty") - ts[0];
    if span_ms <= 0.0 {
        return Err(BdbError::InvalidConfig("log has zero time span".into()));
    }
    let rate_per_sec = (ts.len() as f64 - 1.0) / (span_ms / 1000.0);
    let gaps: Vec<f64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
    let s = Summary::of(&gaps);
    let mean = s.mean().max(1e-12);
    // Squared coefficient of variation: 0 deterministic, 1 exponential.
    let cv2 = s.variance() / (mean * mean);
    let process = if cv2 < 0.25 {
        ArrivalProcess::Uniform
    } else if cv2 <= 2.0 {
        ArrivalProcess::Poisson
    } else {
        // Heuristic: dispersion grows with the burst factor.
        ArrivalProcess::Bursty { burst_factor: cv2.sqrt().clamp(2.0, 32.0) }
    };
    Ok(ArrivalSpec::Open { rate_per_sec, process })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_schedule_is_all_zero() {
        let s = schedule(&ArrivalSpec::Batch, 5, 1).unwrap();
        assert!(s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn open_poisson_matches_rate() {
        let spec = ArrivalSpec::Open { rate_per_sec: 1000.0, process: ArrivalProcess::Poisson };
        let s = schedule(&spec, 10_000, 2).unwrap();
        let span = s.last().unwrap() / 1000.0;
        let rate = 10_000.0 / span;
        assert!((900.0..1100.0).contains(&rate), "rate {rate}");
        // Monotone non-decreasing.
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn uniform_gaps_are_constant() {
        let spec = ArrivalSpec::Open { rate_per_sec: 100.0, process: ArrivalProcess::Uniform };
        let s = schedule(&spec, 10, 3).unwrap();
        let gap = s[1] - s[0];
        assert!((gap - 10.0).abs() < 1e-9);
    }

    #[test]
    fn bursty_has_higher_gap_variance_than_uniform() {
        let bursty = ArrivalSpec::Open {
            rate_per_sec: 1000.0,
            process: ArrivalProcess::Bursty { burst_factor: 8.0 },
        };
        let poisson =
            ArrivalSpec::Open { rate_per_sec: 1000.0, process: ArrivalProcess::Poisson };
        let gaps = |s: &[f64]| -> Vec<f64> { s.windows(2).map(|w| w[1] - w[0]).collect() };
        let vb = Summary::of(&gaps(&schedule(&bursty, 5000, 7).unwrap())).variance();
        let vp = Summary::of(&gaps(&schedule(&poisson, 5000, 7).unwrap())).variance();
        assert!(vb > vp, "bursty {vb} vs poisson {vp}");
    }

    #[test]
    fn closed_loop_estimates_rate() {
        let spec = ArrivalSpec::Closed { clients: 10, think_time_ms: 10.0 };
        let s = schedule(&spec, 100, 4).unwrap();
        // 10 clients / 10ms think = 1 op/ms.
        assert!((s[99] - 99.0).abs() < 1e-9);
        assert!(schedule(&ArrivalSpec::Closed { clients: 0, think_time_ms: 1.0 }, 1, 1).is_err());
    }

    #[test]
    fn fit_from_log_recovers_rate_and_shape() {
        // Uniform log: constant 10ms gaps => 100 ops/s, uniform process.
        let uniform: Vec<f64> = (0..500).map(|i| i as f64 * 10.0).collect();
        match fit_from_log(&uniform).unwrap() {
            ArrivalSpec::Open { rate_per_sec, process: ArrivalProcess::Uniform } => {
                assert!((rate_per_sec - 100.0).abs() < 1.0, "rate {rate_per_sec}");
            }
            other => panic!("expected uniform, got {other:?}"),
        }
        // Poisson log round-trips to Poisson at the same rate.
        let spec = ArrivalSpec::Open { rate_per_sec: 200.0, process: ArrivalProcess::Poisson };
        let log = schedule(&spec, 5_000, 9).unwrap();
        match fit_from_log(&log).unwrap() {
            ArrivalSpec::Open { rate_per_sec, process: ArrivalProcess::Poisson } => {
                assert!((rate_per_sec - 200.0).abs() < 20.0, "rate {rate_per_sec}");
            }
            other => panic!("expected poisson, got {other:?}"),
        }
        // A strongly bursty log is recognised as bursty.
        let bursty_spec = ArrivalSpec::Open {
            rate_per_sec: 200.0,
            process: ArrivalProcess::Bursty { burst_factor: 16.0 },
        };
        let log = schedule(&bursty_spec, 5_000, 9).unwrap();
        match fit_from_log(&log).unwrap() {
            ArrivalSpec::Open { process: ArrivalProcess::Bursty { burst_factor }, .. } => {
                assert!(burst_factor >= 2.0);
            }
            other => panic!("expected bursty, got {other:?}"),
        }
    }

    #[test]
    fn fit_from_log_rejects_bad_logs() {
        assert!(fit_from_log(&[1.0, 2.0]).is_err());
        assert!(fit_from_log(&[5.0, 5.0, 5.0]).is_err());
        // Unsorted input is fine (the fitter sorts).
        assert!(fit_from_log(&[30.0, 10.0, 20.0, 40.0]).is_ok());
    }
}
