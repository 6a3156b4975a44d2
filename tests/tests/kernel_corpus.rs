//! Frozen kernel corpus (`tests/kernel_corpus.txt`, one `<name> <json>`
//! case per line): the exact outcome envelope bytes of the two compute
//! kernels behind `POST /v1/replay` and `POST /v1/montecarlo`, over a grid
//! of inputs wide enough that a wrong wrap, a reordered sum or a changed
//! per-step or per-trial operation shows.
//!
//! * replay: every region preset (the constant `global_flat` cannot show
//!   a wrong wrap or a per-step intensity, the other three can), stepwise
//!   and interpolated, 1–3 years, on three cataloged fleets;
//! * montecarlo: every domain, two seeds, 8 and 512 samples, plus one
//!   spec with knob overrides, each run at two engine thread counts.
//!
//! On a mismatch the produced corpus is written to
//! `target/tmp/kernel_corpus.txt` for inspection.

use std::path::PathBuf;

use greenfpga::api::{MonteCarloRequest, Query, ReplayRequest, ScenarioRef, SeriesRef};
use greenfpga::{CarbonIntensitySeries, Domain, Engine, EngineConfig, Knob, ScenarioSpec};

const CORPUS: &str = include_str!("../kernel_corpus.txt");

/// Cataloged fleets whose lifetimes admit a three-year replay.
const FLEETS: [&str; 3] = [
    "dnn_fleet_10k_3y",
    "crypto_fleet_1m_5y",
    "dnn_hyperscale_10m_4y",
];

const SEEDS: [u64; 2] = [1, 0x1F_FFFF_FFFF_FFFF];

fn engine(eval_threads: usize) -> Engine {
    Engine::new(EngineConfig {
        eval_threads,
        ..EngineConfig::default()
    })
    .unwrap()
}

fn outcome_text(engine: &Engine, query: &Query) -> String {
    let outcome = engine
        .run(query)
        .unwrap_or_else(|e| panic!("{query:?}: {e}"));
    gf_json::ToJson::to_json_string(&outcome).unwrap()
}

fn replay_cases() -> Vec<(String, Query)> {
    let mut cases = Vec::new();
    for fleet in FLEETS {
        for region in CarbonIntensitySeries::REGIONS {
            for interpolate in [false, true] {
                for years in 1..=3u64 {
                    let mode = if interpolate { "interp" } else { "step" };
                    cases.push((
                        format!("replay.{fleet}.{region}.{mode}.y{years}"),
                        Query::Replay(ReplayRequest {
                            scenario: ScenarioRef::Catalog {
                                id: fleet.to_string(),
                                knobs: Vec::new(),
                            },
                            point: None,
                            series: SeriesRef::Region(region.to_string()),
                            interpolate,
                            years,
                        }),
                    ));
                }
            }
        }
    }
    cases
}

fn montecarlo_cases() -> Vec<(String, Query)> {
    let mut cases = Vec::new();
    let mut push = |name: String, scenario: ScenarioSpec, samples: usize, seed: u64| {
        cases.push((
            name,
            Query::MonteCarlo(MonteCarloRequest {
                scenario,
                point: greenfpga::OperatingPoint::paper_default(),
                samples,
                seed,
            }),
        ));
    };
    for domain in Domain::ALL {
        for seed in SEEDS {
            for samples in [8, 512] {
                push(
                    format!("montecarlo.{}.s{seed}.n{samples}", domain.id()),
                    ScenarioSpec::baseline(domain),
                    samples,
                    seed,
                );
            }
        }
    }
    push(
        "montecarlo.crypto.knobs.s7.n512".to_string(),
        ScenarioSpec {
            domain: Domain::Crypto,
            knobs: vec![
                (Knob::DutyCycle, 0.45),
                (Knob::FabGridIntensity, 90.0),
                (Knob::EolRecycledFraction, 0.6),
            ],
        },
        512,
        7,
    );
    cases
}

#[test]
fn replay_and_montecarlo_outcomes_match_the_frozen_corpus() {
    let serial = engine(1);
    let fanned = engine(3);
    let mut produced = Vec::new();
    for (name, query) in replay_cases() {
        produced.push(format!("{name} {}", outcome_text(&serial, &query)));
    }
    for (name, query) in montecarlo_cases() {
        let text = outcome_text(&serial, &query);
        assert_eq!(
            outcome_text(&fanned, &query),
            text,
            "{name}: thread-count independent"
        );
        produced.push(format!("{name} {text}"));
    }
    let frozen: Vec<&str> = CORPUS.lines().collect();
    if produced != frozen {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../target/tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kernel_corpus.txt");
        std::fs::write(&path, produced.join("\n") + "\n").unwrap();
        for (line, (got, want)) in produced.iter().zip(&frozen).enumerate() {
            assert_eq!(got, want, "line {}; produced corpus in {path:?}", line + 1);
        }
        assert_eq!(
            produced.len(),
            frozen.len(),
            "case count; produced corpus in {path:?}"
        );
    }
}
