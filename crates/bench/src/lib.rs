//! Shared helpers for the GreenFPGA experiment harness.
//!
//! The binaries in `src/bin/` print the paper's figures and tables that no
//! `greenfpga` query returns (the rest are `paper_*` cases of the CLI's
//! transcript suite; README "Reproducing the paper's figures" has the
//! index), and `tests/figures.rs` pins each one's stdout. `serve_load` and
//! `bench_gate` drive and gate the serving benchmark; the `eval` bench in
//! `benches/` measures the evaluation throughput of the model itself
//! through the [`harness`] mini-framework (the offline environment has no
//! Criterion).

pub mod harness;

/// Absolute ceiling for the `evaluate_ns_per_point` metric — the batch
/// kernel's median time per evaluated point over the 4096-point grid batch
/// of `bench eval` — shared by that bench's assertion and `bench_gate`'s
/// candidate check so the two can never enforce different bars. The
/// closed-form kernel is a few dozen flops per point whatever its
/// application count (~25–35 ns per point on a 2-vCPU x86-64 container,
/// thread hand-off included); a change that brings back per-application
/// work, or puts an allocation or a lock on the per-point path, lands
/// above the ceiling even when a stale baseline would wave it through.
pub const EVALUATE_NS_PER_POINT_CEILING: f64 = 50.0;

/// Absolute ceiling for the `codec_f64_ns` metric — `bench eval`'s median
/// time per number of `gf_json::write_f64` over 4096 ratios and kilogram
/// totals — checked by `bench_gate` on the candidate. The Schubfach
/// printer spends three 128-bit multiplies and at most one digit-removal
/// step per number and writes the digits straight into the body; a
/// digit-search loop, a staging copy or a per-number UTF-8 check coming
/// back lands above the ceiling even when a stale baseline would wave it
/// through. On a shared 2-vCPU x86-64 VM the printer measures 35–43 ns,
/// so a runner that slow fails this ceiling.
pub const CODEC_F64_NS_CEILING: f64 = 30.0;

/// Absolute floor for the `serve_connections` soak metric: the event-loop
/// server must demonstrably hold at least this many concurrently-live,
/// individually re-verified keep-alive connections while serving active
/// traffic. Checked by `bench_gate` on the candidate whenever the key is
/// present, so a regression to thread-per-connection scaling (or an fd
/// leak that starves the soak) cannot ride in behind a stale baseline.
/// `serve_load` runs the soak at `GF_SERVE_SOAK_CONNECTIONS` (default
/// 4096, matching this floor); smoke runs at reduced counts should write
/// to a separate artifact rather than lower the floor.
pub const SERVE_CONNECTIONS_FLOOR: f64 = 4096.0;

/// Absolute floor for the `trace_overhead` metric: serve throughput with
/// tracing enabled divided by throughput with tracing disabled, measured
/// by `serve_load` as interleaved best-of passes on the same machine and
/// therefore machine-independent. Tracing is on by default, so its cost is
/// paid by every production request — the floor caps that cost at 3%. A
/// change that puts a lock, an allocation, or an unconditional syscall on
/// the span path shows up here as a ratio well under the floor even when
/// absolute throughput still clears `serve_rps` against a stale baseline.
pub const TRACE_OVERHEAD_FLOOR: f64 = 0.97;
