//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep|check25|fuzz [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each invocation runs one workload in its own process. It sets the
//! workload's inputs up (several times; the median is `setup_s`), then
//! repeats the workload's fixed job until `--seconds` are spent, checking
//! every operation's result. The untraced run (`--trace 0`) prints the
//! end-to-end metrics; the traced run (`--trace 1`) runs one untraced job
//! and then traced ones, which call each layer's public functions from
//! here, and prints the per-layer metrics. The last line of standard
//! output is the result as one JSON object. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod check25;
mod common;
mod fuzz;
mod sweep;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use common::{
    cpu_seconds, median, ms_since, now, p90, parse_pins, ratio, render_pins, rss_bytes, Layers, Op,
    Tally,
};

// Allocation counts for `sim.allocs_per_event`. The allocator only bumps
// two thread-local counters per allocation, and it is installed in traced
// and untraced runs alike.
#[global_allocator]
static ALLOC: failmpi_obs::CountingAlloc = failmpi_obs::CountingAlloc;

/// The seed the pins were taken with.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up repetitions per run, whose median is `setup_s`: at least
/// `SETUP_MIN_REPS`, and more while all of them took under
/// `SETUP_MIN_SECS`, so that a set-up of microseconds still gives a
/// steady median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 101;
const SETUP_MIN_SECS: f64 = 0.5;

/// Untraced jobs per run, at least: the determinism check compares
/// repeats.
const MIN_JOBS: usize = 2;

/// One pass of a workload's fixed job.
pub struct Job {
    /// Every operation, in job order.
    pub ops: Vec<Op>,
    /// Job-level exact results (the fuzz campaign summary), compared
    /// across repeats.
    pub summary: Option<String>,
}

/// A benchmark workload.
pub trait Workload {
    /// Inputs built by set-up.
    type Inputs: Sync;
    /// The `--workload` name.
    const NAME: &'static str;
    /// Threads the workload runs on (pool workers or checker threads).
    const WORKERS: usize;
    /// The pin file: `key<TAB>value` per operation of the default seed.
    const PINS: &'static str;
    /// Whether the pins describe the inputs of `seed`.
    fn pins_apply(seed: u64) -> bool;
    /// Builds and checks the inputs.
    fn setup(seed: u64) -> Self::Inputs;
    /// One untraced pass of the job.
    fn job(inputs: &Self::Inputs) -> Job;
    /// One traced pass of the job, adding per-layer samples to `layers`.
    fn traced_job(inputs: &Self::Inputs, layers: &mut Layers) -> Job;
    /// Turns the samples into the workload's per-layer metrics.
    fn layer_metrics(layers: &Layers, out: &mut dyn FnMut(&str, f64));
}

/// End-to-end metrics of the untraced run, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Event kinds the simulator's handler profile can report.
const HANDLER_KINDS: [&str; 18] = [
    "boot_connect",
    "compute_done",
    "daemon_exit",
    "disk_loaded",
    "fail_msg",
    "fail_timer",
    "launch_failed",
    "net.accepted",
    "net.closed",
    "net.connect_failed",
    "net.delivered",
    "net.established",
    "restore_done",
    "retry_peer_connect",
    "sched_tick",
    "self_ckpt",
    "server_write_done",
    "spawn_daemon",
];

/// Per-layer metrics of the traced run, handler kinds aside. A workload
/// that does not reach a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 40] = [
    ("experiments.run_ms", "ms"),
    ("workloads.programs_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("analyze.lint_ms", "ms"),
    ("sim.events", "count"),
    ("sim.queue_depth_hwm", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.engine_ms", "ms"),
    ("sim.allocs_per_event", "count"),
    ("sim.alloc_bytes_per_event", "B"),
    ("sim.trace_overhead", "ratio"),
    ("net.messages", "count"),
    ("net.bytes", "B"),
    ("mpichv.waves_committed", "count"),
    ("mpichv.recoveries", "count"),
    ("experiments.classify_us", "us"),
    ("experiments.validate_us", "us"),
    ("analyze.model.check_ms", "ms"),
    ("analyze.model.explored", "count"),
    ("analyze.model.interned", "count"),
    ("analyze.model.orbit_hits", "count"),
    ("analyze.model.por_pruned", "count"),
    ("analyze.model.frontier", "count"),
    ("analyze.model.states_per_s", "1/s"),
    ("analyze.model.bytes_per_state", "B"),
    ("fuzz.gen_ms", "ms"),
    ("fuzz.eval_ms", "ms"),
    ("fuzz.findings_ms", "ms"),
    ("fuzz.static_ms", "ms"),
    ("fuzz.dynamic_ms", "ms"),
    ("backend.vcl.run_ms", "ms"),
    ("backend.ulfm.run_ms", "ms"),
    ("backend.replica.run_ms", "ms"),
    ("trace.explain_ms", "ms"),
    ("fuzz.accepted_frac", "frac"),
    ("fuzz.error_findings", "count"),
    ("proc.cpu_s", "s"),
    ("proc.parallel_eff", "frac"),
    ("unattributed_frac", "frac"),
    ("trace_overhead_frac", "frac"),
];

/// Share of op time the layers must account for before the run flags it.
const UNATTRIBUTED_FLAG: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        write_pins: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--write-pins" => a.write_pins = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

/// The commit the working directory is checked out at, read from
/// `.git` without running git; "unknown" outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The counting allocator is live when an allocation moves the
    // thread's counter.
    let before = failmpi_obs::alloc_counters().0;
    drop(std::hint::black_box(vec![0u8; 64]));
    let counting = failmpi_obs::alloc_counters().0 > before;
    format!(
        "provenance workload={} seed={} nproc={} rustc=\"{}\" profile={} features={} commit={}",
        a.workload,
        a.seed,
        nproc,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        if counting { "alloc-profile" } else { "none" },
        git_commit(),
    )
}

/// The result of one invocation.
struct Outcome {
    tally: Tally,
    /// The metrics of the JSON result line.
    metrics: Vec<(String, f64, &'static str)>,
    /// Further lines for the human-readable report.
    notes: Vec<String>,
}

/// Sets the inputs up repeatedly (the first time measured from process
/// start) and returns them with the median set-up seconds.
fn setup<W: Workload>(seed: u64, process_start: Instant) -> (W::Inputs, f64) {
    let mut secs = Vec::new();
    let mut start = process_start;
    loop {
        let inputs = W::setup(seed);
        secs.push(ms_since(start) / 1e3);
        let spent: f64 = secs.iter().sum();
        let enough = secs.len() >= SETUP_MIN_REPS && spent >= SETUP_MIN_SECS;
        if enough || secs.len() >= SETUP_MAX_REPS {
            return (inputs, median(&secs));
        }
        start = now();
    }
}

fn check_job(tally: &mut Tally, job: &Job, first_summary: &mut Option<String>) {
    for op in &job.ops {
        tally.check(op);
    }
    if let Some(s) = &job.summary {
        match first_summary {
            None => *first_summary = Some(s.clone()),
            Some(prev) if prev != s => tally.fail(format!(
                "job summary not deterministic: `{prev}` then `{s}`"
            )),
            Some(_) => {}
        }
    }
}

fn run<W: Workload>(a: &Args, process_start: Instant) -> Outcome {
    let (inputs, setup_s) = setup::<W>(a.seed, process_start);
    let pins = W::pins_apply(a.seed).then(|| parse_pins(W::PINS));
    let mut tally = Tally::new(pins);
    let mut first_summary = None;
    let budget = a.seconds;
    let start = now();
    let elapsed = || start.elapsed().as_secs_f64();

    // Untraced jobs: all of the untraced run, and the reference job of the
    // traced run.
    let mut layers = Layers::default();
    let mut walls = Vec::new();
    let mut op_ms = Vec::new();
    let cpu0 = cpu_seconds();
    let rss0 = rss_bytes();
    loop {
        let t = now();
        let job = W::job(&inputs);
        walls.push(ms_since(t) / 1e3);
        if walls.len() == 1 {
            let peak = failmpi_obs::peak_rss_bytes().unwrap_or(0);
            layers.add(
                "proc.first_job_rss_growth",
                peak.saturating_sub(rss0) as f64,
            );
        }
        op_ms.extend(job.ops.iter().map(|o| o.ms));
        check_job(&mut tally, &job, &mut first_summary);
        if a.trace || (walls.len() >= MIN_JOBS && elapsed() + median(&walls) > budget) {
            break;
        }
    }
    let untraced_cpu = cpu_seconds() - cpu0;
    let wall_s = median(&walls);

    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    if !a.trace {
        let peak = failmpi_obs::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
        let values = [setup_s, wall_s, median(&op_ms), peak];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), v, *unit));
        }
        notes.push(match p90(&op_ms) {
            Some(v) => format!("{} op_p90_ms {v:.6} ms", W::NAME),
            None => format!(
                "{} op_p90_ms n/a (fewer than 10 of {} samples beyond it)",
                W::NAME,
                op_ms.len()
            ),
        });
        notes.push(format!(
            "{} failed_frac {:.6} frac ({} of {} ops failed)",
            W::NAME,
            ratio(tally.failed as f64, tally.attempted as f64),
            tally.failed,
            tally.attempted
        ));
        notes.push(format!(
            "{} samples: {} ops over {} jobs of {:.3?} s",
            W::NAME,
            op_ms.len(),
            walls.len(),
            walls
        ));
        return Outcome {
            tally,
            metrics,
            notes,
        };
    }

    // Traced jobs, for the rest of the time.
    let mut traced_walls = Vec::new();
    loop {
        let t = now();
        let job = W::traced_job(&inputs, &mut layers);
        traced_walls.push(ms_since(t) / 1e3);
        layers.add("passes", 1.0);
        check_job(&mut tally, &job, &mut first_summary);
        if elapsed() + median(&traced_walls) > budget {
            break;
        }
    }
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    W::layer_metrics(&layers, &mut |name, v| {
        values.insert(name.to_string(), v);
    });
    let traced_wall = median(&traced_walls);
    let unattributed = 1.0 - ratio(layers.sum("attributed_ms"), layers.sum("op_ms"));
    values.insert("unattributed_frac".into(), unattributed);
    values.insert(
        "trace_overhead_frac".into(),
        ratio(traced_wall, wall_s) - 1.0,
    );
    values.insert("proc.cpu_s".into(), untraced_cpu);
    values.insert(
        "proc.parallel_eff".into(),
        ratio(untraced_cpu, wall_s * W::WORKERS as f64),
    );
    notes.push(format!(
        "{} traced: {} jobs, median {traced_wall:.3} s; untraced reference job {wall_s:.3} s",
        W::NAME,
        traced_walls.len()
    ));
    if unattributed > UNATTRIBUTED_FLAG {
        notes.push(format!(
            "FLAG {}: unattributed_frac {unattributed:.3} > {UNATTRIBUTED_FLAG}: the layers \
             timed from outside leave that share of op time unexplained",
            W::NAME
        ));
    }
    let handler_names = HANDLER_KINDS.map(|k| format!("sim.handler_ms.{k}"));
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name) || handler_names.contains(name),
            "{name} is not a declared per-layer metric"
        );
    }
    for (name, unit) in PER_LAYER {
        metrics.push((
            name.to_string(),
            values.get(name).copied().unwrap_or(0.0),
            unit,
        ));
    }
    for name in handler_names {
        let v = values.get(&name).copied().unwrap_or(0.0);
        metrics.push((name, v, "ms"));
    }
    Outcome {
        tally,
        metrics,
        notes,
    }
}

/// Formats a value for JSON: every digit as measured, 0 for a
/// non-finite value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn report(a: &Args, o: &Outcome) {
    for (name, v, unit) in &o.metrics {
        println!("{} {name} {v:.6} {unit}", a.workload);
    }
    for n in &o.notes {
        println!("{n}");
    }
    for p in &o.tally.problems {
        println!("FAILED {p}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.tally.failed == 0 && o.tally.attempted > 0,
        o.tally.attempted.max(1),
        o.tally.failed,
        metrics.join(", ")
    );
}

/// Prints the pin file of one untraced job at the default seed.
fn write_pins<W: Workload>() {
    let inputs = W::setup(DEFAULT_SEED);
    let job = W::job(&inputs);
    print!(
        "{}",
        render_pins(
            &format!(
                "perfbench --workload {} --seed {DEFAULT_SEED} --write-pins",
                W::NAME
            ),
            &job.ops
        )
    );
}

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["sweep", "check25", "fuzz"];

/// `--workload all`: each workload in a process of its own, one after
/// the other, so each peak RSS belongs to one workload.
fn run_all(a: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate the running executable");
        return ExitCode::FAILURE;
    };
    let mut code = ExitCode::SUCCESS;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            eprintln!("perfbench: workload {w} did not finish cleanly");
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn main() -> ExitCode {
    let process_start = now();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" && !a.write_pins {
        return run_all(&a);
    }
    if a.write_pins {
        match a.workload.as_str() {
            "sweep" => write_pins::<sweep::Sweep>(),
            "check25" => write_pins::<check25::Check25>(),
            "fuzz" => write_pins::<fuzz::Fuzz>(),
            other => {
                eprintln!("perfbench: unknown workload `{other}`");
                return ExitCode::from(2);
            }
        }
        return ExitCode::SUCCESS;
    }
    println!("{}", provenance(&a));
    let o = match a.workload.as_str() {
        "sweep" => run::<sweep::Sweep>(&a, process_start),
        "check25" => run::<check25::Check25>(&a, process_start),
        "fuzz" => run::<fuzz::Fuzz>(&a, process_start),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (sweep, check25, fuzz, all)");
            return ExitCode::from(2);
        }
    };
    report(&a, &o);
    ExitCode::SUCCESS
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Runs one job of `inputs`: every op must match its pin, and with
    /// the first op's pin corrupted exactly that op must count as failed.
    pub(crate) fn corrupt_pin_fails<W: Workload>(inputs: &W::Inputs) {
        let job = W::job(inputs);
        let mut pins = parse_pins(W::PINS);
        let mut clean = Tally::new(Some(pins.clone()));
        job.ops.iter().for_each(|o| clean.check(o));
        assert_eq!(clean.failed, 0, "{:?}", clean.problems);

        let key = &job.ops[0].key;
        pins.get_mut(key)
            .expect("first op is pinned")
            .push_str(" corrupted");
        let mut corrupt = Tally::new(Some(pins));
        job.ops.iter().for_each(|o| corrupt.check(o));
        assert_eq!(corrupt.failed, 1, "{:?}", corrupt.problems);
        assert!(ratio(corrupt.failed as f64, corrupt.attempted as f64) > 0.0);
    }

    #[test]
    fn changed_exact_counts_fail_the_determinism_check() {
        let op = |exact: &str| Op {
            ms: 1.0,
            key: "k".to_string(),
            pinned: Ok("v".to_string()),
            exact: exact.to_string(),
        };
        let mut t = Tally::new(None);
        t.check(&op("events=1"));
        t.check(&op("events=1"));
        assert_eq!(t.failed, 0);
        t.check(&op("events=2"));
        assert_eq!((t.attempted, t.failed), (3, 1));
    }

    #[test]
    fn metrics_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let handlers = HANDLER_KINDS.map(|k| (format!("sim.handler_ms.{k}"), "ms"));
        let declared: Vec<(String, &str)> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, u)| (n.to_string(), *u))
            .chain(handlers)
            .collect();
        for (name, unit) in &declared {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, declared.len(), "BENCHMARK.json lists other metrics");
        for w in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{w}\", \"why\"")));
        }
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&v), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&v), Some(90.0));
    }
}
