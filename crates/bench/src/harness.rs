//! A minimal timing harness for the workspace's `harness = false` benches.
//!
//! The offline build environment cannot fetch Criterion, so the benches use
//! this small stand-in: automatic iteration-count calibration to a target
//! batch duration, several timed batches, and median-of-batches reporting
//! (robust to scheduler noise). Results can be serialized to a JSON file so
//! CI can track the performance trajectory (`BENCH_eval.json`).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing summary of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations per timed batch.
    pub iters_per_batch: u64,
    /// Number of timed batches.
    pub batches: usize,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Minimum per-iteration time in nanoseconds.
    pub min_ns: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
}

impl BenchResult {
    /// Median per-iteration time in seconds.
    pub fn median_secs(&self) -> f64 {
        self.median_ns / 1e9
    }
}

/// Measures `f`, returning per-iteration statistics.
///
/// Calibrates the iteration count so one batch takes roughly
/// `target_batch`, then times `batches` batches and reports per-iteration
/// medians. The closure's result is passed through [`black_box`] so the
/// optimizer cannot discard the work.
pub fn bench_with<R>(
    name: &str,
    target_batch: Duration,
    batches: usize,
    mut f: impl FnMut() -> R,
) -> BenchResult {
    let iters = calibrate(target_batch, &mut f);
    let samples = (0..batches.max(1))
        .map(|_| time_batch(iters, &mut f))
        .collect();
    summarize(name, iters, samples)
}

/// Measures two arms against each other: each arm is calibrated on its
/// own, then their timed batches alternate (`a`, `b`, `a`, `b`, …) so a
/// host-speed swing lands on both arms of a pair instead of on one arm.
///
/// Returns both arms' statistics (as [`bench_with`] reports them) and the
/// median over the `batches` pairs of the per-pair ratio `a / b`, a speedup
/// when `a` is the slow path.
pub fn bench_pair<A, B>(
    (name_a, mut a): (&str, impl FnMut() -> A),
    (name_b, mut b): (&str, impl FnMut() -> B),
    target_batch: Duration,
    batches: usize,
) -> (BenchResult, BenchResult, f64) {
    let iters_a = calibrate(target_batch, &mut a);
    let iters_b = calibrate(target_batch, &mut b);
    let (samples_a, samples_b): (Vec<f64>, Vec<f64>) = (0..batches.max(1))
        .map(|_| (time_batch(iters_a, &mut a), time_batch(iters_b, &mut b)))
        .unzip();
    let mut ratios: Vec<f64> = samples_a
        .iter()
        .zip(&samples_b)
        .map(|(a, b)| a / b)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    (
        summarize(name_a, iters_a, samples_a),
        summarize(name_b, iters_b, samples_b),
        ratio,
    )
}

/// Warms up and calibrates: doubles the batch size until one batch exceeds
/// ~1/4 of `target_batch`, then scales to the target. Returns the
/// iterations per timed batch.
fn calibrate<R>(target_batch: Duration, f: &mut impl FnMut() -> R) -> u64 {
    let mut iters: u64 = 1;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= target_batch / 4 || iters >= 1 << 30 {
            break elapsed.as_secs_f64() / iters as f64;
        }
        iters *= 2;
    };
    ((target_batch.as_secs_f64() / per_iter).ceil() as u64).max(1)
}

/// Times one batch of `iters` calls, in nanoseconds per call.
fn time_batch<R>(iters: u64, f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// Per-iteration statistics over the timed batches' samples.
fn summarize(name: &str, iters_per_batch: u64, mut samples: Vec<f64>) -> BenchResult {
    samples.sort_by(f64::total_cmp);
    BenchResult {
        name: name.to_string(),
        iters_per_batch,
        batches: samples.len(),
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        mean_ns: samples.iter().sum::<f64>() / samples.len() as f64,
    }
}

/// [`bench_with`] using the default budget (100 ms batches × 9 batches) and
/// printing the result in a `cargo bench`-like format.
pub fn bench<R>(name: &str, f: impl FnMut() -> R) -> BenchResult {
    let result = bench_with(name, Duration::from_millis(100), 9, f);
    println!("{result}");
    result
}

impl std::fmt::Display for BenchResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bench {:<44} {:>14} /iter (min {}, {} iters x {} batches)",
            self.name,
            format_ns(self.median_ns),
            format_ns(self.min_ns),
            self.iters_per_batch,
            self.batches
        )
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// Renders `(key, value)` metric pairs as a flat JSON object, for the
/// `BENCH_*.json` artifacts CI tracks, pretty-printed with
/// [`gf_json::pretty`]. Non-finite values become `null` (JSON has no
/// lexeme for them); everything else round-trips with full precision
/// through the real JSON writer in [`gf_json`].
pub fn metrics_json<K: AsRef<str>>(metrics: &[(K, f64)]) -> String {
    let mut w = gf_json::JsonWriter::new();
    w.begin_object();
    for (key, value) in metrics {
        w.key(key.as_ref());
        if value.is_finite() {
            w.number(*value);
        } else {
            w.null();
        }
    }
    w.end_object();
    gf_json::pretty(&w.finish().expect("non-finite values are written as null"))
}

/// Parses a metrics artifact produced by [`metrics_json`] back into
/// `(key, value)` pairs in file order (`null` → `None`) — the read half
/// `bench_gate` and the merge-updating writers use.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a non-object
/// document, or non-numeric members.
pub fn parse_metrics_json(text: &str) -> Result<Vec<(String, Option<f64>)>, String> {
    let doc = gf_json::Document::parse(text, gf_json::ParseLimits::default())
        .map_err(|e| e.to_string())?;
    let members = doc
        .root()
        .members()
        .ok_or_else(|| "expected a flat JSON object of metrics".to_string())?;
    members
        .map(|(key, member)| {
            let key = key.as_str().unwrap_or_default().into_owned();
            match member.as_f64() {
                Some(n) => Ok((key, Some(n))),
                None if member.is_null() => Ok((key, None)),
                None => Err(format!("non-numeric value for {key}")),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something_positive() {
        let result = bench_with("spin", Duration::from_millis(2), 3, || {
            (0..100u64).map(black_box).sum::<u64>()
        });
        assert!(result.median_ns > 0.0);
        assert!(result.min_ns <= result.median_ns);
        assert!(result.iters_per_batch >= 1);
        assert_eq!(result.batches, 3);
        assert!(result.to_string().contains("spin"));
    }

    #[test]
    fn bench_pair_times_both_arms_and_their_ratio() {
        let spin = |n: u64| move || (0..n).map(black_box).sum::<u64>();
        let (slow, fast, ratio) = bench_pair(
            ("slow", spin(4_000)),
            ("fast", spin(100)),
            Duration::from_millis(2),
            3,
        );
        assert_eq!((slow.name.as_str(), fast.name.as_str()), ("slow", "fast"));
        assert_eq!((slow.batches, fast.batches), (3, 3));
        assert!(fast.median_ns > 0.0 && slow.median_ns > 0.0);
        assert!(
            ratio > 1.0,
            "a 40x larger loop timed {ratio:.2}x the small one"
        );
    }

    #[test]
    fn json_is_well_formed() {
        let json = metrics_json(&[("a", 1.5), ("b", f64::NAN), ("c", 3.0)]);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"a\": 1.5,"));
        assert!(json.contains("\"b\": null,"));
        assert!(json.contains("\"c\": 3\n"));
        assert_eq!(
            json, "{\n  \"a\": 1.5,\n  \"b\": null,\n  \"c\": 3\n}\n",
            "the artifact layout is pinned byte for byte"
        );
        assert_eq!(metrics_json::<&str>(&[]), "{}\n");
    }

    #[test]
    fn committed_baseline_rewrites_to_the_same_bytes() {
        let committed = include_str!("../../../BENCH_eval.json");
        let metrics: Vec<(String, f64)> = parse_metrics_json(committed)
            .unwrap()
            .into_iter()
            .map(|(key, value)| (key, value.unwrap_or(f64::NAN)))
            .collect();
        assert_eq!(metrics_json(&metrics), committed);
    }

    #[test]
    fn metrics_round_trip_through_the_parser() {
        let metrics = [
            ("grid_ns", 1234.5678),
            ("speedup", 61.25),
            ("broken", f64::INFINITY),
        ];
        let parsed = parse_metrics_json(&metrics_json(&metrics)).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0], ("grid_ns".to_string(), Some(1234.5678)));
        assert_eq!(parsed[1], ("speedup".to_string(), Some(61.25)));
        assert_eq!(parsed[2], ("broken".to_string(), None));
        assert!(parse_metrics_json("not json").is_err());
        assert!(parse_metrics_json("[1, 2]").is_err());
        assert!(parse_metrics_json("{\"k\": \"text\"}").is_err());
    }

    #[test]
    fn format_ns_picks_sensible_units() {
        assert!(format_ns(12.0).contains("ns"));
        assert!(format_ns(12_000.0).contains("us"));
        assert!(format_ns(12_000_000.0).contains("ms"));
        assert!(format_ns(2.5e9).contains(" s"));
    }
}
