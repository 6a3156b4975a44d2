//! `bench_gate` — CI guard over the `BENCH_eval.json` performance
//! trajectory.
//!
//! Compares a freshly measured metrics file against the committed baseline
//! and fails (exit code 1) when anything tracked regresses beyond the
//! tolerance (default 25%, override with `GF_BENCH_GATE_TOLERANCE`, e.g.
//! `1.25`):
//!
//! * **`*_ns` kernel timings** — absolute nanoseconds, meaningful when
//!   baseline and candidate ran on comparable machines (the committed
//!   baseline is single-core; a much slower runner trips these first, so
//!   raise the tolerance rather than re-baselining blindly);
//! * **`*_speedup` ratios** — algorithm-vs-algorithm on the *same* machine
//!   and therefore machine-independent: a candidate speedup may not fall
//!   below `baseline / tolerance`;
//! * **`serve_rps*` throughputs** — gated downward; like the `_ns`
//!   timings they are machine-shaped absolutes, meaningful against a
//!   baseline from a comparable machine, so a serving regression at any
//!   client count fails the build;
//! * absolute quality floors on the candidate, independent of whatever the
//!   baseline recorded — a bad baseline must not grandfather a bad kernel
//!   in: the frontier evaluation budget (`frontier_eval_fraction ≤ 0.2`),
//!   the frontier no slower than the dense grid on the same lattice
//!   (`frontier_speedup ≥ 1`), the batch kernel's cost per point
//!   (`evaluate_ns_per_point ≤`
//!   [`gf_bench::EVALUATE_NS_PER_POINT_CEILING`]), the shortest-`f64`
//!   printer's cost per number (`codec_f64_ns ≤`
//!   [`gf_bench::CODEC_F64_NS_CEILING`]), the serving soak
//!   holding at least [`gf_bench::SERVE_CONNECTIONS_FLOOR`] verified live
//!   keep-alive connections (`serve_connections`), and the default-on
//!   tracing costing at most 3% of serve throughput (`trace_overhead ≥`
//!   [`gf_bench::TRACE_OVERHEAD_FLOOR`]).
//!
//! ```text
//! bench_gate <baseline.json> <candidate.json>
//! ```

use std::process::ExitCode;

use gf_bench::harness::parse_metrics_json;
use gf_bench::{
    CODEC_F64_NS_CEILING, EVALUATE_NS_PER_POINT_CEILING, SERVE_CONNECTIONS_FLOOR,
    TRACE_OVERHEAD_FLOOR,
};

/// Absolute bounds on candidate metrics, checked whatever the baseline
/// recorded, so a regressed committed baseline cannot lower the bar:
/// `(key, limit, is_floor, print scale, print decimals, print unit)`. A
/// floor fails below its limit, a ceiling above it.
const ABSOLUTE_BOUNDS: [(&str, f64, bool, f64, usize, &str); 6] = [
    // The frontier evaluates at most 20% of the dense grid's cells.
    ("frontier_eval_fraction", 0.20, false, 100.0, 1, "%"),
    // Skipping cells must pay off in time too: the winner map may not be
    // slower than the dense grid it replaces.
    ("frontier_speedup", 1.0, true, 1.0, 2, "x"),
    // Per-application work creeping back into the closed-form kernel.
    (
        "evaluate_ns_per_point",
        EVALUATE_NS_PER_POINT_CEILING,
        false,
        1.0,
        1,
        "ns",
    ),
    // The shortest-f64 printer, next to its relative gate.
    ("codec_f64_ns", CODEC_F64_NS_CEILING, false, 1.0, 1, "ns"),
    // Live keep-alive connections the serving soak re-verified (a failure
    // zeroes the metric before this gate runs).
    (
        "serve_connections",
        SERVE_CONNECTIONS_FLOOR,
        true,
        1.0,
        0,
        "",
    ),
    // Tracing is on by default, so its cost rides on every request: the
    // traced/untraced throughput ratio of `serve_load`'s interleaved passes.
    ("trace_overhead", TRACE_OVERHEAD_FLOOR, true, 1.0, 3, "x"),
];

fn lookup(metrics: &[(String, Option<f64>)], key: &str) -> Option<f64> {
    metrics.iter().find(|(k, _)| k == key).and_then(|(_, v)| *v)
}

fn run(baseline_path: &str, candidate_path: &str, tolerance: f64) -> Result<bool, String> {
    let baseline = parse_metrics_json(
        &std::fs::read_to_string(baseline_path)
            .map_err(|e| format!("read {baseline_path}: {e}"))?,
    )
    .map_err(|e| format!("{baseline_path}: {e}"))?;
    let candidate = parse_metrics_json(
        &std::fs::read_to_string(candidate_path)
            .map_err(|e| format!("read {candidate_path}: {e}"))?,
    )
    .map_err(|e| format!("{candidate_path}: {e}"))?;

    let mut failed = false;
    println!("bench gate: tolerance {:.0}%", (tolerance - 1.0) * 100.0);
    for (key, base_value) in &baseline {
        let timing = key.ends_with("_ns");
        // Speedups and serving throughputs are higher-is-better ratios on
        // the same machine: they gate downward.
        let higher_is_better = key.ends_with("_speedup") || key.starts_with("serve_rps");
        if !timing && !higher_is_better {
            continue;
        }
        let (Some(base), Some(new)) = (*base_value, lookup(&candidate, key)) else {
            continue;
        };
        if base <= 0.0 {
            continue;
        }
        // Timings regress upward, ratios/throughputs regress downward.
        let ratio = new / base;
        let regressed = if timing {
            ratio > tolerance
        } else {
            ratio < 1.0 / tolerance
        };
        let verdict = if regressed {
            failed = true;
            "REGRESSED"
        } else {
            "ok"
        };
        let unit = if timing {
            "ns"
        } else if higher_is_better && !key.ends_with("_speedup") {
            "/s"
        } else {
            "x "
        };
        println!("  {key:<40} {base:>14.1} -> {new:>14.1} {unit}  ({ratio:>5.2}x)  {verdict}");
    }
    for (key, limit, floor, scale, decimals, unit) in ABSOLUTE_BOUNDS {
        let Some(value) = lookup(&candidate, key) else {
            continue;
        };
        let (kind, regressed) = if floor {
            ("floor", value < limit)
        } else {
            ("ceiling", value > limit)
        };
        failed |= regressed;
        let verdict = if regressed { "REGRESSED" } else { "ok" };
        let shown = format!("{:.decimals$}{unit}", value * scale);
        println!(
            "  {:<40} {shown:>35}   {verdict}  (absolute {kind} {:.decimals$}{unit})",
            format!("{key} ({kind})"),
            limit * scale
        );
    }
    Ok(failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, candidate_path] = args.as_slice() else {
        eprintln!("usage: bench_gate <baseline.json> <candidate.json>");
        return ExitCode::from(2);
    };
    let tolerance = std::env::var("GF_BENCH_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t >= 1.0)
        .unwrap_or(1.25);
    match run(baseline_path, candidate_path, tolerance) {
        Ok(false) => {
            println!("bench gate: no tracked kernel regressed");
            ExitCode::SUCCESS
        }
        Ok(true) => {
            eprintln!("bench gate: tracked kernel timings regressed beyond tolerance");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench gate error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_harness_format() {
        let json = "{\n  \"a_ns\": 12.5,\n  \"b\": null,\n  \"c_ns\": 3\n}\n";
        let metrics = parse_metrics_json(json).unwrap();
        assert_eq!(metrics.len(), 3);
        assert_eq!(lookup(&metrics, "a_ns"), Some(12.5));
        assert_eq!(lookup(&metrics, "b"), None);
        assert_eq!(lookup(&metrics, "c_ns"), Some(3.0));
        assert_eq!(lookup(&metrics, "missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_metrics_json("not json").is_err());
        assert!(parse_metrics_json("{\"k\" 1}").is_err());
        assert!(parse_metrics_json("{\"k\": x}").is_err());
        assert!(parse_metrics_json("{k: 1}").is_err());
    }

    #[test]
    fn gate_flags_regressions_beyond_tolerance() {
        let dir = std::env::temp_dir().join("gf_bench_gate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let candidate = dir.join("candidate.json");
        std::fs::write(&baseline, "{\n  \"k_ns\": 100,\n  \"speedup\": 10\n}\n").unwrap();

        // Within tolerance (and untracked keys ignored even when worse).
        std::fs::write(&candidate, "{\n  \"k_ns\": 120,\n  \"speedup\": 1\n}\n").unwrap();
        assert!(!run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());

        // Beyond tolerance.
        std::fs::write(&candidate, "{\n  \"k_ns\": 130\n}\n").unwrap();
        assert!(run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());

        // Speedup ratios gate downward: falling below baseline/tolerance
        // fails even when every timing is fine.
        std::fs::write(
            &baseline,
            "{\n  \"k_ns\": 100,\n  \"heatmap_speedup\": 50\n}\n",
        )
        .unwrap();
        std::fs::write(
            &candidate,
            "{\n  \"k_ns\": 100,\n  \"heatmap_speedup\": 45\n}\n",
        )
        .unwrap();
        assert!(!run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
        std::fs::write(
            &candidate,
            "{\n  \"k_ns\": 100,\n  \"heatmap_speedup\": 30\n}\n",
        )
        .unwrap();
        assert!(run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
        std::fs::write(&baseline, "{\n  \"k_ns\": 100\n}\n").unwrap();

        // Frontier budget is enforced on the candidate.
        std::fs::write(
            &candidate,
            "{\n  \"k_ns\": 100,\n  \"frontier_eval_fraction\": 0.5\n}\n",
        )
        .unwrap();
        assert!(run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
    }

    #[test]
    fn frontier_eval_fraction_ceiling_is_inclusive() {
        let dir = std::env::temp_dir().join("gf_bench_gate_eval_fraction_test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let candidate = dir.join("candidate.json");
        std::fs::write(&baseline, "{\n  \"k_ns\": 100\n}\n").unwrap();
        // Exactly at the 20% budget passes; one point over fails.
        for (fraction, fails) in [("0.2", false), ("0.20", false), ("0.21", true)] {
            std::fs::write(
                &candidate,
                format!("{{\n  \"k_ns\": 100,\n  \"frontier_eval_fraction\": {fraction}\n}}\n"),
            )
            .unwrap();
            assert_eq!(
                run(
                    baseline.to_str().unwrap(),
                    candidate.to_str().unwrap(),
                    1.25
                )
                .unwrap(),
                fails,
                "frontier_eval_fraction {fraction}"
            );
        }
    }

    #[test]
    fn frontier_speedup_has_an_absolute_floor() {
        let dir = std::env::temp_dir().join("gf_bench_gate_frontier_test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let candidate = dir.join("candidate.json");
        // A baseline that recorded a slow frontier cannot grandfather a
        // candidate slower than the dense grid in.
        std::fs::write(&baseline, "{\n  \"frontier_speedup\": 0.35\n}\n").unwrap();
        std::fs::write(&candidate, "{\n  \"frontier_speedup\": 0.9\n}\n").unwrap();
        assert!(run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
        for passing in ["1", "1.8"] {
            std::fs::write(
                &candidate,
                format!("{{\n  \"frontier_speedup\": {passing}\n}}\n"),
            )
            .unwrap();
            assert!(!run(
                baseline.to_str().unwrap(),
                candidate.to_str().unwrap(),
                1.25
            )
            .unwrap());
        }
        // A candidate without the key is not failed.
        std::fs::write(&candidate, "{\n  \"k_ns\": 100\n}\n").unwrap();
        assert!(!run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
    }

    #[test]
    fn serve_rps_gates_downward_at_every_client_count() {
        let dir = std::env::temp_dir().join("gf_bench_gate_rps_test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let candidate = dir.join("candidate.json");
        std::fs::write(
            &baseline,
            "{\n  \"serve_rps\": 10000,\n  \"serve_rps_4\": 30000,\n  \"serve_rps_8\": 40000\n}\n",
        )
        .unwrap();

        // Throughput within tolerance passes, even a little below baseline.
        std::fs::write(
            &candidate,
            "{\n  \"serve_rps\": 9000,\n  \"serve_rps_4\": 29000,\n  \"serve_rps_8\": 39000\n}\n",
        )
        .unwrap();
        assert!(!run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());

        // A collapse at one client count fails the gate.
        std::fs::write(
            &candidate,
            "{\n  \"serve_rps\": 9000,\n  \"serve_rps_4\": 29000,\n  \"serve_rps_8\": 20000\n}\n",
        )
        .unwrap();
        assert!(run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
    }

    #[test]
    fn serve_connections_has_an_absolute_floor() {
        let dir = std::env::temp_dir().join("gf_bench_gate_conns_test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let candidate = dir.join("candidate.json");
        // Even a baseline that never recorded the soak cannot grandfather
        // a candidate below the floor in.
        std::fs::write(&baseline, "{\n  \"k_ns\": 100\n}\n").unwrap();
        std::fs::write(
            &candidate,
            "{\n  \"k_ns\": 100,\n  \"serve_connections\": 512\n}\n",
        )
        .unwrap();
        assert!(run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
        std::fs::write(
            &candidate,
            "{\n  \"k_ns\": 100,\n  \"serve_connections\": 4104\n}\n",
        )
        .unwrap();
        assert!(!run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
        // A candidate that has no soak key (older artifact) is not failed
        // by the floor alone.
        std::fs::write(&candidate, "{\n  \"k_ns\": 100\n}\n").unwrap();
        assert!(!run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
    }

    #[test]
    fn trace_overhead_has_an_absolute_floor() {
        let dir = std::env::temp_dir().join("gf_bench_gate_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let candidate = dir.join("candidate.json");
        // The floor binds on the candidate alone — a baseline without the
        // key (or with a bad value) cannot grandfather a slow span path in.
        std::fs::write(&baseline, "{\n  \"k_ns\": 100\n}\n").unwrap();
        std::fs::write(
            &candidate,
            "{\n  \"k_ns\": 100,\n  \"trace_overhead\": 0.90\n}\n",
        )
        .unwrap();
        assert!(run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
        for passing in ["0.97", "0.995", "1.01"] {
            std::fs::write(
                &candidate,
                format!("{{\n  \"k_ns\": 100,\n  \"trace_overhead\": {passing}\n}}\n"),
            )
            .unwrap();
            assert!(!run(
                baseline.to_str().unwrap(),
                candidate.to_str().unwrap(),
                1.25
            )
            .unwrap());
        }
        // A candidate without the key (older artifact) is not failed.
        std::fs::write(&candidate, "{\n  \"k_ns\": 100\n}\n").unwrap();
        assert!(!run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
    }

    #[test]
    fn evaluate_ns_per_point_has_an_absolute_ceiling() {
        let dir = std::env::temp_dir().join("gf_bench_gate_per_point_test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let candidate = dir.join("candidate.json");
        // A baseline that recorded the same slow kernel cannot grandfather
        // it in: the relative comparison is green, the ceiling still fails.
        std::fs::write(&baseline, "{\n  \"evaluate_ns_per_point\": 95\n}\n").unwrap();
        std::fs::write(&candidate, "{\n  \"evaluate_ns_per_point\": 95\n}\n").unwrap();
        assert!(run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
        // At or under the ceiling passes.
        for passing in [7.5, 12.0, gf_bench::EVALUATE_NS_PER_POINT_CEILING] {
            std::fs::write(
                &candidate,
                format!("{{\n  \"evaluate_ns_per_point\": {passing}\n}}\n"),
            )
            .unwrap();
            assert!(!run(
                baseline.to_str().unwrap(),
                candidate.to_str().unwrap(),
                1.25
            )
            .unwrap());
        }
    }

    #[test]
    fn codec_f64_ns_has_an_absolute_ceiling() {
        let dir = std::env::temp_dir().join("gf_bench_gate_codec_f64_test");
        std::fs::create_dir_all(&dir).unwrap();
        let baseline = dir.join("baseline.json");
        let candidate = dir.join("candidate.json");
        // A baseline that recorded the same slow printer cannot grandfather
        // it in: the relative comparison is green, the ceiling still fails.
        std::fs::write(&baseline, "{\n  \"codec_f64_ns\": 55\n}\n").unwrap();
        std::fs::write(&candidate, "{\n  \"codec_f64_ns\": 55\n}\n").unwrap();
        assert!(run(
            baseline.to_str().unwrap(),
            candidate.to_str().unwrap(),
            1.25
        )
        .unwrap());
        // At or under the ceiling passes against a baseline it is within
        // tolerance of.
        std::fs::write(&baseline, "{\n  \"codec_f64_ns\": 25\n}\n").unwrap();
        for passing in [12.0, 20.0, gf_bench::CODEC_F64_NS_CEILING] {
            std::fs::write(
                &candidate,
                format!("{{\n  \"codec_f64_ns\": {passing}\n}}\n"),
            )
            .unwrap();
            assert!(!run(
                baseline.to_str().unwrap(),
                candidate.to_str().unwrap(),
                1.25
            )
            .unwrap());
        }
    }
}
