//! `bench-report` — the machine-readable benchmark pipeline.
//!
//! The workspace's one measurement pipeline: it times the smoke-scale
//! suite with plain wall clocks and writes one JSON document CI can
//! archive and diff:
//!
//! - every [`failmpi_experiments::robustness::scenario_suite`] scenario,
//!   run under [`failmpi_experiments::run_one_profiled`], reporting
//!   simulator throughput (events/sec) and the per-event-kind handler
//!   profile;
//! - every figure sweep at smoke fidelity, reporting wall time per figure;
//! - a causal-tracing overhead pair: two representative scenarios timed
//!   with the engine's happens-before tracing off and on
//!   ([`failmpi_experiments::run_one_traced`]), so the cost of `--trace-out`
//!   — and the zero-cost claim of the disabled path — stays measured;
//! - the model checker's exploration throughput: the Fig. 10 grid checked
//!   full vs reduced at 4 ranks (the reduction factor), plus the reduced
//!   paper-scale 25-rank grids, reporting states expanded per second;
//! - a per-backend throughput row (`backends`): the fault-free smoke
//!   scenario timed under vcl, ulfm and replica;
//! - a per-backend deterministic profile section (`profile`): allocs per
//!   event, bytes copied per event and same-instant burst percentiles,
//!   from a `failmpi_obs::prof` context wrapped around one run per
//!   backend (allocation counts need a `--features alloc-profile`
//!   build);
//! - process totals (total wall time, peak RSS via `VmHWM`).
//!
//! ```text
//! cargo run --release -p failmpi-bench --bin bench-report -- --out BENCH_pr9.json
//! ```
//!
//! Wall-clock numbers are machine-dependent by nature and are kept strictly
//! out of the deterministic metrics snapshots (`--metrics` on the figure
//! binaries); this report is the one place they belong. The `profile`
//! section is the inverse: fully deterministic, so CI can pin it.
//! `--profile PATH` additionally writes the merged raw [`RunProfile`]
//! JSON of the profile-section runs for `failmpi-prof` (merged across
//! backends, so its tag reads `mixed`).

use std::process::ExitCode;
use std::time::Instant;

use serde::Serialize;

use failmpi_analyze::{model_check_source, ModelCheckConfig};
use failmpi_experiments::figures::{
    ablation, delay, fig11, fig5, fig6, fig7, fig9, lbh04, FIG10_SRC, FIG5_SRC, FIG8_SRC,
};
use failmpi_experiments::robustness::{fault_free_smoke_spec, fig10_stress_spec, scenario_suite};
use failmpi_experiments::{
    run_one, run_one_profiled, run_one_traced, BackendKind, ExperimentSpec,
};
use failmpi_mpichv::DispatcherMode;
use failmpi_obs::{peak_rss_bytes, RunProfile};

failmpi_experiments::install_alloc_profiler!();

/// Schema version of the report document. v2 added the `tracing`
/// (causal-tracing overhead) section; v3 added `model_check` (reduced
/// exploration throughput and reduction factors); v4 added `backends`
/// (per-backend events/sec) and `profile` (deterministic per-backend
/// allocation/copy/queue attribution).
const SCHEMA_VERSION: u32 = 4;

#[derive(Serialize)]
struct HandlerBin {
    kind: String,
    count: u64,
    nanos: u64,
}

#[derive(Serialize)]
struct ScenarioBench {
    name: String,
    outcome: String,
    events: u64,
    wall_nanos: u64,
    events_per_sec: f64,
    handler_profile: Vec<HandlerBin>,
}

#[derive(Serialize)]
struct FigureBench {
    name: String,
    wall_nanos: u64,
    wall_secs: f64,
}

#[derive(Serialize)]
struct TracingBench {
    name: String,
    events: u64,
    /// Events/sec with causal tracing off (the default engine path).
    off_events_per_sec: f64,
    /// Events/sec with causal tracing on (`--trace-out` runs).
    on_events_per_sec: f64,
    /// `on / off` throughput ratio; < 1.0 is the cost of tracing.
    on_off_ratio: f64,
    /// Happens-before nodes the traced run recorded.
    trace_nodes: u64,
}

#[derive(Serialize)]
struct ModelCheckBench {
    name: String,
    n_ranks: usize,
    reduce: bool,
    verdict: String,
    /// Canonical states the exploration expanded.
    explored: u64,
    wall_nanos: u64,
    /// Exploration throughput: states expanded per second of wall time.
    states_per_sec: f64,
    /// `full.explored / reduced.explored` for the reduced half of a
    /// full-vs-reduced pair; absent on full runs and on grids whose
    /// unreduced exploration is not benched.
    reduction_factor: Option<f64>,
    /// Minimal witness length when the verdict is a freeze.
    witness_steps: Option<u64>,
}

/// One backend timed on the shared fault-free smoke scenario, so the
/// three protocol runtimes stay comparable run over run.
#[derive(Serialize)]
struct BackendBench {
    backend: String,
    outcome: String,
    events: u64,
    wall_nanos: u64,
    events_per_sec: f64,
}

/// Deterministic per-backend profile summary: the headline ratios CI
/// tracks, distilled from one [`RunProfile`] per backend. Allocation
/// ratios are zero unless built with `--features alloc-profile`.
#[derive(Serialize)]
struct ProfileBench {
    backend: String,
    events: u64,
    allocs_per_event: f64,
    alloc_bytes_per_event: f64,
    copied_bytes_per_event: f64,
    /// Same-instant pop-burst length percentiles (upper bucket bounds).
    burst_p50: u64,
    burst_p99: u64,
    queue_depth_max: u64,
}

#[derive(Serialize)]
struct BenchReport {
    schema_version: u32,
    seed: u64,
    scenarios: Vec<ScenarioBench>,
    figures: Vec<FigureBench>,
    tracing: Vec<TracingBench>,
    model_check: Vec<ModelCheckBench>,
    backends: Vec<BackendBench>,
    profile: Vec<ProfileBench>,
    total_wall_nanos: u64,
    peak_rss_bytes: Option<u64>,
}

struct Options {
    out: String,
    seed: u64,
    profile_out: Option<String>,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        out: "BENCH_pr9.json".to_string(),
        seed: 0xB_EAC4,
        profile_out: None,
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => o.out = args.next().ok_or("--out needs a path")?,
            "--seed" => {
                o.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?
            }
            "--profile" => o.profile_out = Some(args.next().ok_or("--profile needs a path")?),
            "--help" | "-h" => {
                return Err(
                    "usage: bench-report [--out PATH] [--seed S] [--profile PATH]".to_string(),
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

fn bench_scenarios(seed: u64) -> Vec<ScenarioBench> {
    scenario_suite(seed)
        .into_iter()
        .map(|(name, spec)| {
            // srclint: allow(SD002): bench-report times the smoke suite on the wall clock by design
            let start = Instant::now();
            let (record, profile) = run_one_profiled(&spec);
            let wall = start.elapsed();
            let wall_nanos = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
            let secs = wall.as_secs_f64();
            let events_per_sec = if secs > 0.0 {
                record.events as f64 / secs
            } else {
                0.0
            };
            println!(
                "scenario {name:<24} {:>9} events  {:>8.1} ms  {:>12.0} events/s",
                record.events,
                secs * 1e3,
                events_per_sec,
            );
            ScenarioBench {
                name: name.to_string(),
                outcome: format!("{:?}", record.outcome),
                events: record.events,
                wall_nanos,
                events_per_sec,
                handler_profile: profile
                    .bins()
                    .map(|(kind, bin)| HandlerBin {
                        kind: kind.to_string(),
                        count: bin.count,
                        nanos: bin.nanos,
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Best-of-N wall-clock reps (minimum is the standard noise-robust pick
/// for micro-ish timings).
const TRACING_REPS: u32 = 3;

fn best_events_per_sec(events: u64, run: impl Fn()) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..TRACING_REPS {
        // srclint: allow(SD002): bench-report times the smoke suite on the wall clock by design
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    if best > 0.0 {
        events as f64 / best
    } else {
        0.0
    }
}

fn bench_tracing_pair(name: &str, spec: &ExperimentSpec) -> TracingBench {
    let baseline = run_one(spec);
    let traced = run_one_traced(spec);
    assert_eq!(
        baseline.fingerprint, traced.record.fingerprint,
        "causal tracing must not perturb the schedule"
    );
    let off = best_events_per_sec(baseline.events, || {
        run_one(spec);
    });
    let on = best_events_per_sec(baseline.events, || {
        run_one_traced(spec);
    });
    let ratio = if off > 0.0 { on / off } else { 0.0 };
    println!(
        "tracing  {name:<24} off {off:>12.0} ev/s  on {on:>12.0} ev/s  ratio {ratio:.3}",
    );
    TracingBench {
        name: name.to_string(),
        events: baseline.events,
        off_events_per_sec: off,
        on_events_per_sec: on,
        on_off_ratio: ratio,
        trace_nodes: traced.causal.len() as u64,
    }
}

fn bench_tracing(seed: u64) -> Vec<TracingBench> {
    vec![
        bench_tracing_pair("fault_free", &fault_free_smoke_spec(seed)),
        bench_tracing_pair(
            "fig10_historical",
            &fig10_stress_spec(DispatcherMode::Historical, seed),
        ),
    ]
}

fn mc_run(name: &str, src: &str, params: &[(&str, i64)], n_ranks: usize, reduce: bool) -> ModelCheckBench {
    let cfg = ModelCheckConfig {
        params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        n_ranks,
        n_hosts: n_ranks + 1,
        reduce,
        ..ModelCheckConfig::default()
    };
    // srclint: allow(SD002): bench-report times the smoke suite on the wall clock by design
    let start = Instant::now();
    let r = model_check_source(src, &cfg);
    let wall = start.elapsed();
    let secs = wall.as_secs_f64();
    let explored = r.summary.explored as u64;
    let states_per_sec = if secs > 0.0 { explored as f64 / secs } else { 0.0 };
    println!(
        "model    {name:<17} ranks {n_ranks:<3} reduce {reduce:<5} {explored:>7} states  \
         {:>8.1} ms  {states_per_sec:>10.0} states/s",
        secs * 1e3,
    );
    ModelCheckBench {
        name: name.to_string(),
        n_ranks,
        reduce,
        verdict: r.summary.verdict.to_string(),
        explored,
        wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        states_per_sec,
        reduction_factor: None,
        witness_steps: r.summary.witness.as_ref().map(|w| w.steps.len() as u64),
    }
}

/// Fig. 10 full vs reduced at 4 ranks (the reduction factor on the
/// headline scenario), plus the reduced paper-scale 25-rank grids the
/// `failck --model-check` tentpole targets.
fn bench_model_check() -> Vec<ModelCheckBench> {
    let fig10_params: &[(&str, i64)] = &[("T", 2), ("N", 5)];
    let full = mc_run("fig10_full", FIG10_SRC, fig10_params, 4, false);
    let mut reduced = mc_run("fig10_reduced", FIG10_SRC, fig10_params, 4, true);
    if reduced.explored > 0 {
        reduced.reduction_factor = Some(full.explored as f64 / reduced.explored as f64);
    }
    vec![
        full,
        reduced,
        mc_run("fig5_grid25", FIG5_SRC, &[("X", 4), ("N", 5)], 25, true),
        mc_run("fig8_grid25", FIG8_SRC, &[("T", 2), ("N", 5)], 25, true),
        mc_run("fig10_grid25", FIG10_SRC, fig10_params, 25, true),
    ]
}

/// The shared spec every backend is timed and profiled on: the
/// fault-free smoke scenario, retargeted at each protocol runtime.
fn backend_spec(kind: BackendKind, seed: u64) -> ExperimentSpec {
    let mut spec = fault_free_smoke_spec(seed);
    spec.backend = kind;
    spec
}

fn bench_backends(seed: u64) -> Vec<BackendBench> {
    BackendKind::all()
        .into_iter()
        .map(|kind| {
            let spec = backend_spec(kind, seed);
            // srclint: allow(SD002): bench-report times the smoke suite on the wall clock by design
            let start = Instant::now();
            let record = run_one(&spec);
            let wall = start.elapsed();
            let secs = wall.as_secs_f64();
            let events_per_sec = if secs > 0.0 {
                record.events as f64 / secs
            } else {
                0.0
            };
            println!(
                "backend  {:<24} {:>9} events  {:>8.1} ms  {:>12.0} events/s",
                kind.name(),
                record.events,
                secs * 1e3,
                events_per_sec,
            );
            BackendBench {
                backend: kind.name().to_string(),
                outcome: format!("{:?}", record.outcome),
                events: record.events,
                wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
                events_per_sec,
            }
        })
        .collect()
}

/// One deep-profiled run per backend. `run_one` executes the engine on
/// the calling thread, so wrapping it in a thread-local prof context
/// captures exactly that run; the experiments profile sink stays
/// unarmed here, so the harness does not open a competing context.
fn bench_profiles(seed: u64) -> (Vec<ProfileBench>, RunProfile) {
    let mut merged = RunProfile::new();
    let rows = BackendKind::all()
        .into_iter()
        .map(|kind| {
            let spec = backend_spec(kind, seed);
            failmpi_obs::prof::start_run(kind.name());
            run_one(&spec);
            let p = failmpi_obs::prof::finish_run().expect("profiling context active");
            let per_event = |n: u64| {
                if p.events > 0 {
                    n as f64 / p.events as f64
                } else {
                    0.0
                }
            };
            let row = ProfileBench {
                backend: kind.name().to_string(),
                events: p.events,
                allocs_per_event: per_event(p.total_allocs()),
                alloc_bytes_per_event: per_event(p.total_alloc_bytes()),
                copied_bytes_per_event: per_event(p.total_copied_bytes()),
                burst_p50: p.queue.burst.quantile_upper_bound(0.50),
                burst_p99: p.queue.burst.quantile_upper_bound(0.99),
                queue_depth_max: p.queue.depth.max,
            };
            println!(
                "profile  {:<24} {:>9} events  {:>6.2} allocs/ev  {:>8.1} copied B/ev  burst p99 {}",
                row.backend, row.events, row.allocs_per_event, row.copied_bytes_per_event,
                row.burst_p99,
            );
            merged.merge(&p);
            row
        })
        .collect();
    (rows, merged)
}

fn bench_figure(name: &str, run: impl FnOnce()) -> FigureBench {
    // srclint: allow(SD002): bench-report times the smoke suite on the wall clock by design
    let start = Instant::now();
    run();
    let wall = start.elapsed();
    println!("figure   {name:<24} {:>8.1} ms", wall.as_secs_f64() * 1e3);
    FigureBench {
        name: name.to_string(),
        wall_nanos: u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
        wall_secs: wall.as_secs_f64(),
    }
}

fn bench_figures() -> Vec<FigureBench> {
    vec![
        bench_figure("fig5_frequency", || {
            fig5::run(&fig5::Config::smoke());
        }),
        bench_figure("fig6_scale", || {
            fig6::run(&fig6::Config::smoke());
        }),
        bench_figure("fig7_simultaneous", || {
            fig7::run(&fig7::Config::smoke());
        }),
        bench_figure("fig9_synchronized", || {
            fig9::run(&fig9::Config::smoke());
        }),
        bench_figure("fig11_state_sync", || {
            fig11::run(&fig11::smoke_config());
        }),
        bench_figure("ablation", || {
            let cfg = ablation::Config::smoke();
            ablation::dispatcher(&cfg);
            ablation::checkpoint_style(&cfg);
            ablation::checkpoint_period(&cfg);
            ablation::protocol(&cfg);
        }),
        bench_figure("delay_sweep", || {
            delay::run(&delay::Config::smoke());
        }),
        bench_figure("lbh04_protocols", || {
            lbh04::run(&lbh04::Config::smoke());
        }),
    ]
}

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // srclint: allow(SD002): bench-report times the smoke suite on the wall clock by design
    let start = Instant::now();
    let scenarios = bench_scenarios(opts.seed);
    let figures = bench_figures();
    let tracing = bench_tracing(opts.seed);
    let model_check = bench_model_check();
    let backends = bench_backends(opts.seed);
    let (profile, merged_profile) = bench_profiles(opts.seed);
    let total = start.elapsed();

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        seed: opts.seed,
        scenarios,
        figures,
        tracing,
        model_check,
        backends,
        profile,
        total_wall_nanos: u64::try_from(total.as_nanos()).unwrap_or(u64::MAX),
        peak_rss_bytes: peak_rss_bytes(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    if let Err(e) = std::fs::write(&opts.out, json + "\n") {
        eprintln!("cannot write {}: {e}", opts.out);
        return ExitCode::FAILURE;
    }
    if let Some(path) = &opts.profile_out {
        if let Err(e) = std::fs::write(path, merged_profile.to_pretty_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("bench-report: wrote merged run profile to {path}");
    }
    println!(
        "bench-report: {} scenarios, {} figures, {} model checks, {} backends, {:.1} s total -> {}",
        report.scenarios.len(),
        report.figures.len(),
        report.model_check.len(),
        report.backends.len(),
        total.as_secs_f64(),
        opts.out,
    );
    ExitCode::SUCCESS
}
