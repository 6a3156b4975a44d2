//! Byte-exact stdout of the paper's figure, table and ablation bins.
//!
//! Each bin in `src/bin/` (apart from `serve_load` and `bench_gate`, which
//! measure the server rather than reproduce the paper) runs once and its
//! stdout is compared with `tests/figures/<bin>.txt`. The figures that one
//! `greenfpga` query reproduces are not bins: they are the `paper_*` cases
//! of the CLI's transcript suite. On a mismatch the actual output is written
//! to `CARGO_TARGET_TMPDIR/figures/<bin>.txt` so it can be diffed against,
//! or copied over, the committed golden.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The bins in `src/bin/` that are not paper figures.
const NOT_FIGURES: &[&str] = &["bench_gate", "serve_load"];

macro_rules! figures {
    ($($bin:ident),* $(,)?) => {
        &[$((stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))))),*]
    };
}

/// `(bin, executable)` for every pinned figure bin.
const FIGURES: &[(&str, &str)] = figures![
    ablation_design_model,
    ablation_yield_model,
    calibration_debug,
    fig06_app_volume,
    fig08_heatmaps,
    fig09_chip_lifetime,
    sensitivity_tornado,
    table1_parameters,
    table2_testcases,
    table3_industry,
    uncertainty_analysis,
];

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The file stems in `dir` with the given extension.
fn stems(dir: &Path, extension: &str) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == extension))
        .map(|path| {
            path.file_stem()
                .expect("file stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect()
}

#[test]
fn every_figure_matches_its_golden() {
    let goldens = manifest_dir().join("tests/figures");
    let actuals = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("figures");
    // Stale outputs of an earlier run would read as current mismatches.
    let _ = std::fs::remove_dir_all(&actuals);
    std::fs::create_dir_all(&actuals).expect("create the actual-output directory");
    let mut mismatched = Vec::new();
    for &(bin, exe) in FIGURES {
        let output = Command::new(exe)
            .output()
            .unwrap_or_else(|e| panic!("run {bin}: {e}"));
        assert!(
            output.status.success(),
            "{bin} exited with {}",
            output.status
        );
        let actual = String::from_utf8_lossy(&output.stdout);
        let file = format!("{bin}.txt");
        let expected = std::fs::read_to_string(goldens.join(&file)).unwrap_or_default();
        if actual != expected {
            std::fs::write(actuals.join(&file), actual.as_bytes())
                .expect("write the actual output");
            mismatched.push(bin);
        }
    }
    assert!(
        mismatched.is_empty(),
        "figure bins differ from their goldens: {mismatched:?} (actual output in {})",
        actuals.display()
    );
}

/// A figure bin cannot land unpinned, and a golden cannot outlive its bin.
#[test]
fn every_figure_bin_has_a_golden() {
    let bins: BTreeSet<String> = stems(&manifest_dir().join("src/bin"), "rs")
        .into_iter()
        .filter(|bin| !NOT_FIGURES.contains(&bin.as_str()))
        .collect();
    let goldens = stems(&manifest_dir().join("tests/figures"), "txt");
    let pinned: BTreeSet<String> = FIGURES.iter().map(|&(bin, _)| bin.to_string()).collect();
    assert_eq!(
        bins, goldens,
        "src/bin/ and tests/figures/ name different figures"
    );
    assert_eq!(bins, pinned, "FIGURES does not list every figure bin");
}
