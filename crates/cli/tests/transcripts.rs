//! Byte-exact transcripts of the `greenfpga` binary.
//!
//! Each case runs one command line and compares its exit code, stdout and
//! stderr against `tests/transcripts/<name>.txt`. On a mismatch the actual
//! transcript is written next to the test's scratch directory
//! (`CARGO_TARGET_TMPDIR/transcripts/<name>.txt`) so it can be diffed
//! against, or copied over, the committed one.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// `(name, arguments, stdin)`: the arguments split on whitespace.
const CASES: &[(&str, &str, Option<&str>)] = &[
    // README: Quickstart.
    ("quickstart_compare", "compare --domain dnn --apps 5 --lifetime 2 --volume 1000000", None),
    ("quickstart_grid", "grid --domain dnn --steps 24", None),
    ("quickstart_frontier", "frontier --domain dnn --steps 64", None),
    (
        "quickstart_frontier_volume",
        "frontier --domain dnn --x-axis volume --x-from 1000 --x-to 10000000 --y-axis apps --y-from 1 --y-to 16 --steps 48",
        None,
    ),
    ("quickstart_crossover", "crossover --domain imgproc", None),
    ("quickstart_tornado", "tornado --domain dnn", None),
    ("quickstart_montecarlo", "montecarlo --domain crypto --samples 10000", None),
    (
        "quickstart_optimize",
        "optimize dnn_fleet_10k_3y --objective ratio --knob apps:1:12 --knob lifetime:0.5:4 --fpga-wins",
        None,
    ),
    ("quickstart_frontier_json", "frontier --domain dnn --steps 32 --json", None),
    (
        "quickstart_query",
        "query",
        Some(r#"{"kind":"compare","scenarios":[{"domain":"dnn"},{"domain":"crypto"}]}"#),
    ),
    // README: Scenario catalog.
    ("catalog_list", "scenarios", None),
    ("catalog_run", "scenarios dnn_fleet_10k_3y", None),
    ("catalog_replay", "replay crypto_fleet_1m_5y --region solar_duck --interpolate", None),
    // README: Optimizer.
    (
        "optimizer_budget",
        "optimize --domain crypto --objective budget --platform asic --budget-kg 5000000 --knob volume:1000:2000000",
        None,
    ),
    // The paper's figures that one query reproduces: each figure's claim,
    // then the cases that show its numbers. The figures no query returns
    // are bins of `gf-bench`, pinned by `crates/bench/tests/figures.rs`.
    //
    // Figure 2: DNN, T_i = 2 years, N_vol = 1e6, one application against
    // ten. Paper result: for one application the ASIC is greener; reused
    // across ten applications the FPGA ends up with roughly 25% lower total
    // CFP (here 1 - 0.662, about 34% lower).
    ("paper_fig02_one_app", "compare --domain dnn --apps 1", None),
    ("paper_fig02_ten_apps", "compare --domain dnn --apps 10", None),
    // Figure 4: total CFP versus N_app (1-12), with T_i = 2 years and
    // N_vol = 1e6, for all three domains. Paper result: A2F crossover after
    // 1 application (Crypto), 6 applications (DNN) and 12 applications
    // (ImgProc). The crossovers are the `paper_crossover_*` cases.
    ("paper_fig04_dnn", "sweep --domain dnn --axis apps --from 1 --to 12 --steps 12", None),
    ("paper_fig04_imgproc", "sweep --domain imgproc --axis apps --from 1 --to 12 --steps 12", None),
    ("paper_fig04_crypto", "sweep --domain crypto --axis apps --from 1 --to 12 --steps 12", None),
    // Figure 5: total CFP versus T_i (0.3-2.5 years), with N_app = 5 and
    // N_vol = 1e6, for all three domains. Paper result: Crypto always
    // favours the FPGA, ImgProc always favours the ASIC, and DNN shows an
    // F2A crossover at roughly 1.6 years.
    ("paper_fig05_dnn", "sweep --domain dnn --axis lifetime --from 0.3 --to 2.5 --steps 12", None),
    (
        "paper_fig05_imgproc",
        "sweep --domain imgproc --axis lifetime --from 0.3 --to 2.5 --steps 12",
        None,
    ),
    (
        "paper_fig05_crypto",
        "sweep --domain crypto --axis lifetime --from 0.3 --to 2.5 --steps 12",
        None,
    ),
    // Figure 7: embodied (EC: design, manufacturing, packaging, EOL) versus
    // operational (OC: operation, app dev) carbon for the DNN domain while
    // varying (a) N_app, (b) T_i and (c) N_vol; the unset members are the
    // paper's point (5 applications, 2 years, 1e6 units). Paper result:
    // varying N_app grows the ASIC's EC (new chips per application) until
    // it dominates; varying T_i grows the FPGA's OC; at low volumes EC
    // dominates both platforms, at high volumes the FPGA's growing EC makes
    // it the less sustainable choice.
    (
        "paper_fig07a_apps",
        "query",
        Some(
            r#"{"kind":"batch","domain":"dnn","points":[{"applications":1},{"applications":2},{"applications":3},{"applications":4},{"applications":5},{"applications":6},{"applications":8}]}"#,
        ),
    ),
    (
        "paper_fig07b_lifetime",
        "query",
        Some(
            r#"{"kind":"batch","domain":"dnn","points":[{"lifetime_years":0.5},{"lifetime_years":1.0},{"lifetime_years":1.5},{"lifetime_years":2.0},{"lifetime_years":2.5}]}"#,
        ),
    ),
    (
        "paper_fig07c_volume",
        "query",
        Some(
            r#"{"kind":"batch","domain":"dnn","points":[{"volume":1000},{"volume":10000},{"volume":100000},{"volume":300000},{"volume":1000000},{"volume":3000000}]}"#,
        ),
    ),
    // The headline claims (contribution 5 / abstract), and the crossover
    // lines of Figures 4-6: FPGAs are the sustainable choice when (i)
    // application lifetimes are below ~1.6 years, (ii) the FPGA is reused
    // for more than ~5 applications, or (iii) application volumes are below
    // ~2 million units in specific domains. ImgProc's crossovers are
    // `quickstart_crossover`.
    ("paper_crossover_dnn", "crossover --domain dnn", None),
    ("paper_crossover_crypto", "crossover --domain crypto", None),
    // Figures 10 and 11: CFP components of the industry FPGAs
    // (Agilex-7-class IndustryFPGA1, Stratix-10-class IndustryFPGA2; six
    // years, three applications, one million units) and ASICs
    // (Antoum-class IndustryASIC1, TPU-class IndustryASIC2; one six-year
    // application, no reprogramming). Paper result: operational CFP
    // dominates, followed by manufacturing and design; application
    // development is minimal even after three reprogrammings; design is
    // roughly 15% of the FPGAs' embodied CFP; EOL is tiny.
    ("industry", "industry", None),
    ("json_industry", "industry --json", None),
    // Other human renderings.
    ("help", "help", None),
    ("sweep_csv", "sweep --axis apps --from 1 --to 12 --steps 12 --csv", None),
    ("sweep_table", "sweep --domain crypto --axis lifetime --from 0.5 --to 4 --steps 8", None),
    ("grid_stream", "grid --steps 8 --stream", None),
    ("grid_adaptive", "grid --steps 16 --adaptive", None),
    ("compare_domains", "compare --domain dnn,crypto", None),
    ("scenario_override", "scenarios dnn_baseline --apps 9", None),
    ("replay_years", "replay crypto_fleet_1m_5y --years 3", None),
    // One `--json` line per subcommand.
    ("json_evaluate", "evaluate --domain imgproc --apps 3 --json", None),
    ("json_compare", "compare --domain dnn,imgproc --lifetime 1.5 --json", None),
    ("json_sweep", "sweep --axis volume --from 1000 --to 100000 --steps 4 --json", None),
    ("json_crossover", "crossover --domain crypto --json", None),
    ("json_grid", "grid --steps 4 --json", None),
    ("json_grid_stream", "grid --steps 4 --stream --json", None),
    ("json_tornado", "tornado --domain crypto --json", None),
    ("json_montecarlo", "montecarlo --samples 64 --seed 7 --json", None),
    ("json_catalog", "scenarios --json", None),
    ("json_scenario", "scenarios crypto_baseline --volume 5000 --json", None),
    ("json_replay", "replay dnn_baseline --region dirty_coal --json", None),
    (
        "json_optimize",
        "optimize --objective total --knob apps:1:12 --cap-kg 1e9 --cap-platform asic --json",
        None,
    ),
    // Errors.
    ("error_apps_zero", "evaluate --apps 0", None),
    ("error_lifetime_zero", "evaluate --lifetime 0", None),
    ("error_lifetime_negative", "evaluate --lifetime -1", None),
    ("error_volume_zero", "compare --volume 0", None),
    ("error_unknown_and_inapplicable", "evaluate --frobnicate 1 --steps 9", None),
    ("error_unknown_flag", "evaluate --frobnicate 1", None),
    ("error_inapplicable_flag", "evaluate --steps 9", None),
    ("error_industry_apps", "industry --apps 0", None),
    ("error_unknown_command", "frobnicate", None),
    ("error_bad_number", "evaluate --apps x", None),
    ("error_missing_value", "compare --apps", None),
    ("error_serve_json", "serve --json", None),
    ("error_help_json", "help --json", None),
    ("error_replay_without_id", "replay", None),
    ("error_sweep_steps", "sweep --axis apps --from 1 --to 8 --steps 1", None),
    ("error_grid_same_axis", "grid --x-axis apps --y-axis apps", None),
    ("error_montecarlo_seed", "montecarlo --seed 9007199254740992", None),
    ("error_unknown_catalog_id", "scenarios no_such_entry", None),
    ("error_knob_malformed", "optimize --objective total --knob apps:1", None),
    ("error_optimize_infeasible", "optimize --objective budget --budget-kg 1 --knob apps:1:12", None),
    ("error_apps_above_2_53", "evaluate --apps 9007199254740994", None),
    ("error_serve_unknown_flag", "serve --trace-log x --frobnicate 1", None),
    ("error_catalog_point_flag", "scenarios --apps 9", None),
    ("error_domain_list", "evaluate --domain dnn,crypto", None),
    (
        "error_domain_with_id",
        "optimize dnn_baseline --domain crypto --objective total --knob apps:1:12",
        None,
    ),
    (
        "error_cap_platform_alone",
        "optimize --objective total --knob apps:1:12 --cap-platform asic",
        None,
    ),
    ("error_budget_partner", "optimize --objective total --budget-kg 5 --knob apps:1:12", None),
    ("serve_help", "serve --help", None),
];

fn transcript(args: &str, stdin: Option<&str>) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_greenfpga"))
        .args(args.split_whitespace())
        .env_remove("GF_LOG")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn greenfpga");
    let mut input = child.stdin.take().expect("stdin");
    input
        .write_all(stdin.unwrap_or("").as_bytes())
        .expect("write stdin");
    drop(input);
    let output = child.wait_with_output().expect("wait for greenfpga");
    let header = match stdin {
        Some(text) => format!("$ greenfpga {args} < {text}"),
        None => format!("$ greenfpga {args}"),
    };
    format!(
        "{header}\nexit {}\n--- stdout\n{}--- stderr\n{}",
        output
            .status
            .code()
            .map_or("signal".to_string(), |c| c.to_string()),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    )
}

#[test]
fn every_transcript_matches_its_golden() {
    let goldens = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/transcripts");
    let actuals = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("transcripts");
    // Stale transcripts of an earlier run would read as current mismatches.
    let _ = std::fs::remove_dir_all(&actuals);
    std::fs::create_dir_all(&actuals).expect("create the actual-transcript directory");
    let mut mismatched = Vec::new();
    for &(name, args, stdin) in CASES {
        let actual = transcript(args, stdin);
        let file = format!("{name}.txt");
        let expected = std::fs::read_to_string(goldens.join(&file)).unwrap_or_default();
        if actual != expected {
            std::fs::write(actuals.join(&file), &actual).expect("write the actual transcript");
            mismatched.push(name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "transcripts differ from their goldens: {mismatched:?} (actual output in {})",
        actuals.display()
    );
}

/// A reader that stops early (`| head -1`) ends the run quietly: exit 0,
/// nothing on stderr. Each output exceeds the 64 KiB pipe buffer, so the
/// write after the read end closes really fails.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    for args in [
        "sweep --axis apps --from 1 --to 12 --steps 100000 --csv",
        "grid --steps 1024 --stream",
        "grid --steps 1024 --stream --json",
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_greenfpga"))
            .args(args.split_whitespace())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn greenfpga");
        let mut stdout = child.stdout.take().expect("stdout");
        let mut first_line = [0u8; 16];
        stdout
            .read_exact(&mut first_line)
            .expect("the output starts");
        drop(stdout);
        let output = child.wait_with_output().expect("wait for greenfpga");
        assert_eq!(output.status.code(), Some(0), "{args}");
        assert_eq!(String::from_utf8_lossy(&output.stderr), "", "{args}");
    }
}
