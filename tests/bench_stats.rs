//! Property and integration tests for the statistical bench subsystem:
//! the t-interval math, the MAD outlier guard, the non-overlapping-CI
//! significance comparator, ledger tamper detection, and the loadgen
//! p99 stability contract.

use bdbench::bench::hotpaths::ORIGINAL_HOT_PATHS;
use bdbench::bench::ledger::{BenchLedger, PathEntry};
use bdbench::bench::sampling::Distribution;
use bdbench::common::stats::{classify_outliers, SampleStats};
use bdbench::exec::analyzer::{BenchComparison, BenchVerdict, PathCi};
use bdbench::exec::engine::EngineRegistry;
use bdbench::exec::loadgen::{self, LoadProfile};
use bdbench::exec::trace::RunTrace;
use proptest::prelude::*;

fn arb_samples(max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1.0f64..1e6, 1..=max_n)
}

/// A random confidence interval: mean, a half-width up to 30% of the
/// mean, and a sample count.
fn arb_ci(path: &'static str) -> impl Strategy<Value = PathCi> {
    (1.0f64..1e6, 0.0f64..0.3, 1u64..20).prop_map(move |(mean, rel_hw, samples)| {
        let hw = mean * rel_hw;
        PathCi {
            path: path.to_string(),
            mean,
            ci_lo: mean - hw,
            ci_hi: mean + hw,
            samples,
        }
    })
}

fn mirror(v: BenchVerdict) -> BenchVerdict {
    match v {
        BenchVerdict::Improved => BenchVerdict::Regressed,
        BenchVerdict::Regressed => BenchVerdict::Improved,
        BenchVerdict::Added => BenchVerdict::Removed,
        BenchVerdict::Removed => BenchVerdict::Added,
        BenchVerdict::Unchanged => BenchVerdict::Unchanged,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The 95% t-interval always brackets the sample mean, and the mean
    /// always sits inside the observed range.
    #[test]
    fn ci_bounds_contain_the_mean(xs in arb_samples(40)) {
        let s = SampleStats::from_samples(&xs);
        prop_assert!(s.ci_lo <= s.mean && s.mean <= s.ci_hi);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.ci_width() >= 0.0);
    }

    /// The MAD classifier never drops half the samples or more, no
    /// matter how pathological the distribution.
    #[test]
    fn outlier_classifier_never_drops_half(xs in arb_samples(60), k in 0.5f64..10.0) {
        let flags = classify_outliers(&xs, k);
        let dropped = flags.iter().filter(|&&f| f).count();
        prop_assert!(dropped <= (xs.len() - 1) / 2,
            "dropped {dropped} of {}", xs.len());
        // And the Distribution built on top always keeps a majority.
        let d = Distribution::from_samples(xs);
        prop_assert!(d.kept() > d.outliers());
    }

    /// Comparing A against B and B against A yields mirrored verdicts
    /// for every path — the significance rule has no direction bias.
    #[test]
    fn comparator_is_symmetric(
        a in arb_ci("alpha"), b in arb_ci("alpha"),
        only_old in arb_ci("bravo"), only_new in arb_ci("charlie"),
        min_effect in 0.0f64..0.6,
    ) {
        let olds = vec![a.clone(), only_old.clone()];
        let news = vec![b.clone(), only_new.clone()];
        let fwd = BenchComparison::of(&olds, &news, min_effect, &[]);
        let rev = BenchComparison::of(&news, &olds, min_effect, &[]);
        for f in &fwd.rows {
            let r = rev.rows.iter().find(|r| r.path == f.path).expect("mirrored row");
            prop_assert_eq!(r.verdict, mirror(f.verdict), "path {}", f.path);
        }
    }

    /// Comparing a run against itself is always all-unchanged: identical
    /// intervals overlap and the effect is zero.
    #[test]
    fn comparator_is_reflexive(
        a in arb_ci("alpha"), b in arb_ci("bravo"), min_effect in 0.0f64..0.6,
    ) {
        let run = vec![a, b];
        let c = BenchComparison::of(&run, &run, min_effect, &[]);
        prop_assert!(!c.has_regressions());
        for row in &c.rows {
            prop_assert_eq!(row.verdict, BenchVerdict::Unchanged);
        }
    }
}

/// With the same underlying spread, the interval tightens as samples
/// accumulate (t-critical shrinks and 1/sqrt(n) dominates).
#[test]
fn ci_width_shrinks_with_more_samples() {
    let pattern = [0.0, 4.0, -3.0, 2.0, -3.0];
    let xs = |n: usize| -> Vec<f64> {
        (0..n).map(|i| 100.0 + pattern[i % pattern.len()]).collect()
    };
    let w5 = SampleStats::from_samples(&xs(5)).ci_width();
    let w30 = SampleStats::from_samples(&xs(30)).ci_width();
    assert!(w5 > 0.0 && w30 > 0.0);
    assert!(
        w30 < w5 / 2.0,
        "30 samples must tighten the interval well below 5 ({w30} vs {w5})"
    );
}

/// Acceptance: a synthetic 2x slowdown on a gated hot path is flagged as
/// a statistically significant regression.
#[test]
fn synthetic_2x_slowdown_is_flagged_regressed() {
    let path = ORIGINAL_HOT_PATHS[0];
    let ci = |mean: f64| PathCi {
        path: path.to_string(),
        mean,
        ci_lo: mean * 0.98,
        ci_hi: mean * 1.02,
        samples: 5,
    };
    let gate: Vec<String> = vec![path.to_string()];
    let c = BenchComparison::of(&[ci(1000.0)], &[ci(500.0)], 0.25, &gate);
    assert_eq!(c.rows[0].verdict, BenchVerdict::Regressed);
    assert!(c.has_regressions(), "the gate must trip on a 2x slowdown");
    // The same ledgers the other way round read as an improvement.
    let c = BenchComparison::of(&[ci(500.0)], &[ci(1000.0)], 0.25, &gate);
    assert_eq!(c.rows[0].verdict, BenchVerdict::Improved);
    assert!(!c.has_regressions());
}

/// A small well-formed two-path ledger for the tamper tests.
fn golden_ledger() -> BenchLedger {
    let alpha = Distribution::from_samples(vec![1000.0, 1010.0, 990.0]);
    let load = Distribution::from_samples(vec![500.0, 505.0, 495.0]);
    let p99 = Distribution::from_samples(vec![210.0, 200.0, 190.0]);
    BenchLedger {
        bench: "hotpaths".into(),
        seed: 42,
        samples: Some(3),
        warmup: Some(1),
        results: vec![
            PathEntry::from_distributions("lsm_put_ops", 1000, 1.0, &alpha, None),
            PathEntry::from_distributions("loadgen_saturation_kv", 500, 1.0, &load, Some(&p99)),
        ],
    }
}

/// Replace one `"field":value` pair on the ledger line naming `path`.
fn corrupt_field(text: &str, path: &str, field: &str, replacement: &str) -> String {
    text.lines()
        .map(|line| {
            if !line.contains(&format!("\"name\":\"{path}\"")) {
                return line.to_string();
            }
            let tag = format!("\"{field}\":");
            let start = line.find(&tag).expect("field present");
            let rest = &line[start + tag.len()..];
            let end = rest
                .find([',', '}'])
                .expect("field terminated");
            format!(
                "{}{}{}{}",
                &line[..start],
                tag,
                replacement,
                &rest[end..]
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Tampered ledgers are rejected at parse/validate time with an error
/// naming the offending hot path and field.
#[test]
fn tampered_ledger_is_rejected_naming_the_path() {
    let text = golden_ledger().emit();
    BenchLedger::parse(&text).expect("the untampered ledger parses");

    // Type corruption: a string where the CI bound belongs.
    let bad = corrupt_field(&text, "lsm_put_ops", "ci_lo", "\"bogus\"");
    let err = BenchLedger::parse(&bad).expect_err("type tamper must fail").to_string();
    assert!(
        err.contains("lsm_put_ops") && err.contains("ci_lo"),
        "error must name the path and field: {err}"
    );

    // Shape corruption: kept + outliers no longer matches the samples.
    let bad = corrupt_field(&text, "loadgen_saturation_kv", "kept", "17");
    let err = BenchLedger::parse(&bad).expect_err("count tamper must fail").to_string();
    assert!(err.contains("loadgen_saturation_kv"), "error must name the path: {err}");

    // Interval corruption: a CI that excludes its own mean.
    let bad = corrupt_field(&text, "lsm_put_ops", "ci_hi", "1.0");
    let err = BenchLedger::parse(&bad).expect_err("interval tamper must fail").to_string();
    assert!(
        err.contains("lsm_put_ops") && err.contains("CI"),
        "error must name the path and the broken interval: {err}"
    );
}

/// The committed legacy single-shot ledger still parses, with point
/// intervals standing in for the missing distributions.
#[test]
fn legacy_single_shot_baseline_still_parses() {
    let ledger = BenchLedger::load("BENCH_8.json").expect("committed baseline parses");
    for ci in ledger.path_cis() {
        assert_eq!(ci.samples, 1, "{}: legacy entries are single-shot", ci.path);
        assert_eq!(ci.ci_lo, ci.mean);
        assert_eq!(ci.ci_hi, ci.mean);
    }
}

/// Drive the kv load target repeatedly at a fixed seed and return the
/// p99 interval (inverted to the throughput-like 1e6/p99 scale the
/// ledger uses, so "higher is better" polarity applies).
fn kv_p99_ci(samples: usize) -> PathCi {
    let registry = EngineRegistry::with_builtins();
    let profile = LoadProfile {
        clients: 2,
        duration_ms: 80,
        engines: Some(vec!["kv".into()]),
        ..LoadProfile::default()
    };
    let mut inv_p99 = Vec::new();
    for i in 0..=samples {
        let trace = RunTrace::new();
        let reports = loadgen::run_load(&registry, &profile, 42, &trace).expect("kv drive");
        assert_eq!(reports.len(), 1);
        assert!(reports[0].conformance_passed, "kv diverged under load");
        if i > 0 {
            // First drive is warmup.
            inv_p99.push(1e6 / reports[0].p99_us.max(1e-3));
        }
    }
    let d = Distribution::from_samples(inv_p99);
    PathCi {
        path: "loadgen_saturation_kv::p99".into(),
        mean: d.stats.mean,
        ci_lo: d.stats.ci_lo,
        ci_hi: d.stats.ci_hi,
        samples: d.kept(),
    }
}

/// Stability contract: two same-seed sampled runs of the kv load driver
/// produce p99 intervals the significance rule calls unchanged — the CI
/// gate's noise floor genuinely covers run-to-run scheduler jitter.
#[test]
fn loadgen_p99_is_stable_across_same_seed_runs() {
    let a = kv_p99_ci(3);
    let b = kv_p99_ci(3);
    let c = BenchComparison::of(
        &[a],
        &[b],
        0.5,
        &["loadgen_saturation_kv::p99".to_string()],
    );
    assert_eq!(c.rows.len(), 1);
    assert_eq!(
        c.rows[0].verdict,
        BenchVerdict::Unchanged,
        "same-seed p99 drifted past the gate's floor: {:+.1}% ({:?} vs {:?})",
        c.rows[0].change * 100.0,
        c.rows[0].old,
        c.rows[0].new,
    );
}
