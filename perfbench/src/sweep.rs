//! `sweep` — a paper-scale MPICH-Vcl fault-injection sweep.
//!
//! The Fig. 5 grid (BT class B, 49 ranks on 53 machines, 30 s waves,
//! historical dispatcher: a fault-free point and one point per fault
//! interval) plus Fig. 6's faulty points at 25 and 64 ranks, with
//! [`COPIES`] seeded copies per point. One job runs every spec once on
//! two workers; one operation is one `run_one`.

use failmpi_core::compile;
use failmpi_experiments::figures::{fig5, fig6, FIG5_SRC};
use failmpi_experiments::harness::programs_for;
use failmpi_experiments::robustness::outcome_class;
use failmpi_experiments::sweep::seeded;
use failmpi_experiments::{
    classify_entries, lint_injection, run_one, run_one_keeping_cluster, run_one_profiled,
    run_one_traced, validate_entries, BackendKind, ExperimentSpec, InjectionSpec, RunRecord,
    Workload as AppWorkload,
};
use failmpi_mpichv::{Cluster, DispatcherMode, VclConfig};
use failmpi_sim::{RunOutcome, SimDuration, SimTime, TieBreak};
use failmpi_workloads::BtClass;

use crate::common::{guarded, ms_since, now, pool, ratio, timed, Layers, Op};
use crate::{Job, Workload};

/// Seeded copies of every grid point in one job.
pub const COPIES: usize = 6;

/// The Fig. 6 scales whose faulty point joins the grid: they bracket the
/// 49-rank working set from both sides.
const FIG6_SCALES: [u32; 2] = [25, 64];

/// The sweep workload.
pub struct Sweep;

/// One labelled run of the job.
pub struct Run {
    label: String,
    spec: ExperimentSpec,
}

fn spec(
    n_ranks: u32,
    n_hosts: usize,
    class: &BtClass,
    wave_s: u64,
    timeout_s: u64,
) -> ExperimentSpec {
    ExperimentSpec {
        cluster: VclConfig {
            n_ranks,
            n_compute_hosts: n_hosts,
            checkpoint_period: SimDuration::from_secs(wave_s),
            dispatcher: DispatcherMode::Historical,
            ..VclConfig::default()
        },
        workload: AppWorkload::Bt(class.clone()),
        injection: None,
        timeout: SimTime::from_secs(timeout_s),
        // The figures' silence threshold: a tenth of the timeout.
        freeze_window: SimDuration::from_secs(timeout_s / 10),
        seed: 0,
        tie_break: TieBreak::Fifo,
        backend: BackendKind::Vcl,
    }
}

fn every(interval_s: u64, n_hosts: usize) -> InjectionSpec {
    InjectionSpec::new(FIG5_SRC, "ADV1", "ADVnodes")
        .with_param("X", interval_s as i64)
        .with_param("N", n_hosts as i64 - 1)
}

/// The job's runs for workload seed `seed`: point `p`'s copies get seeds
/// `seed * 1_000_000 + 1000 * p + k`.
pub fn runs(seed: u64) -> Vec<Run> {
    let f5 = fig5::Config::paper();
    let f6 = fig6::Config::paper();
    let mut points: Vec<(String, ExperimentSpec)> = Vec::new();
    let base = spec(
        f5.n_ranks,
        f5.n_hosts,
        &f5.class,
        f5.wave_secs,
        f5.timeout_s,
    );
    points.push((format!("r{}-nofault", f5.n_ranks), base.clone()));
    for &x in &f5.intervals_s {
        let mut s = base.clone();
        s.injection = Some(every(x, f5.n_hosts));
        points.push((format!("r{}-every{x}s", f5.n_ranks), s));
    }
    for n in FIG6_SCALES {
        assert!(f6.scales.contains(&n), "Fig. 6 sweeps {n} ranks");
        let hosts = n as usize + f6.spares;
        let mut s = spec(n, hosts, &f6.class, f6.wave_secs, f6.timeout_s);
        s.injection = Some(every(f6.interval_s, hosts));
        points.push((format!("r{n}-every{}s", f6.interval_s), s));
    }
    let mut out = Vec::new();
    for (p, (label, mut s)) in points.into_iter().enumerate() {
        s.seed = seed.wrapping_mul(1_000_000).wrapping_add(1000 * p as u64);
        for (k, copy) in seeded(&s, COPIES).into_iter().enumerate() {
            out.push(Run {
                label: format!("{label}#{k}"),
                spec: copy,
            });
        }
    }
    out
}

fn exact_of(r: &RunRecord) -> String {
    format!(
        "{} {} {:016x}",
        outcome_class(&r.outcome),
        r.events,
        r.fingerprint
    )
}

/// The trace invariants of a finished run.
fn validate(cluster: &Cluster) -> Result<(), String> {
    let complete = cluster.is_complete().then(|| cluster.config().n_ranks);
    validate_entries(cluster.trace().entries(), complete)
}

/// The engine outcome a classified run implies, for re-running the
/// classifier from outside on its trace.
fn engine_outcome(record: &RunRecord, spec: &ExperimentSpec, complete: bool) -> RunOutcome {
    if complete {
        RunOutcome::Finished
    } else if record.end < spec.timeout {
        RunOutcome::Quiescent
    } else {
        RunOutcome::DeadlineReached
    }
}

/// One untraced operation: `run_one`'s work (it is
/// `run_one_keeping_cluster` without the cluster), then the trace check
/// outside the timed call.
fn op(run: &Run) -> Op {
    let start = now();
    let res = guarded(|| run_one_keeping_cluster(&run.spec));
    let ms = ms_since(start);
    finish_op(run, ms, res)
}

fn finish_op(run: &Run, ms: f64, res: Result<(RunRecord, Cluster), String>) -> Op {
    match res {
        Ok((record, cluster)) => {
            let exact = exact_of(&record);
            Op {
                ms,
                key: run.label.clone(),
                pinned: validate(&cluster).map(|()| exact.clone()),
                exact,
            }
        }
        Err(e) => Op {
            ms,
            key: run.label.clone(),
            pinned: Err(e),
            exact: String::new(),
        },
    }
}

/// Per-run layer readings of a traced operation.
#[derive(Default)]
struct Reading {
    programs_ms: f64,
    compile_ms: Option<f64>,
    lint_ms: Option<f64>,
    classify_us: f64,
    validate_us: f64,
    handlers: Vec<(&'static str, f64)>,
    allocs: u64,
    alloc_bytes: u64,
    prof_events: u64,
    record: Option<RunRecord>,
}

/// One traced operation: the untraced call, then each layer's public
/// function called again from here on the same spec.
fn traced_op(run: &Run) -> (Op, Reading) {
    let spec = &run.spec;
    let start = now();
    let res = guarded(|| run_one_keeping_cluster(spec));
    let ms = ms_since(start);
    let mut rd = Reading::default();
    if let Ok((record, cluster)) = &res {
        let complete = cluster.is_complete();
        let eo = engine_outcome(record, spec, complete);
        let classify_ms = timed(|| {
            classify_entries(
                cluster.trace().entries(),
                complete,
                eo,
                record.end,
                spec.timeout,
                spec.freeze_window,
            )
        })
        .1;
        rd.classify_us = classify_ms * 1e3;
        rd.validate_us = timed(|| validate(cluster)).1 * 1e3;
        rd.record = Some(record.clone());
    }
    rd.programs_ms = timed(|| programs_for(spec)).1;
    if let Some(inj) = &spec.injection {
        rd.compile_ms = Some(timed(|| compile(&inj.scenario_src)).1);
        rd.lint_ms = Some(timed(|| lint_injection(inj)).1);
    }
    if let Ok((_, profile)) = guarded(|| run_one_profiled(spec)) {
        rd.handlers = profile
            .bins()
            .map(|(kind, bin)| (kind, bin.nanos as f64 / 1e6))
            .collect();
    }
    failmpi_obs::prof::start_run(spec.backend.name());
    let deep = guarded(|| run_one(spec));
    if let Some(p) = failmpi_obs::prof::finish_run() {
        if deep.is_ok() {
            rd.allocs = p.total_allocs();
            rd.alloc_bytes = p.total_alloc_bytes();
            rd.prof_events = p.events;
        }
    }
    (finish_op(run, ms, res), rd)
}

impl Workload for Sweep {
    type Inputs = Vec<Run>;
    const NAME: &'static str = "sweep";
    const WORKERS: usize = 2;
    const PINS: &'static str = include_str!("../pins/sweep.tsv");

    fn pins_apply(seed: u64) -> bool {
        seed == crate::DEFAULT_SEED
    }

    fn setup(seed: u64) -> Vec<Run> {
        let runs = runs(seed);
        // Everything a run builds before its first event, once per run
        // of the job: the scenario compiles and passes its lint gate, and
        // every BT program set generates (square rank counts only).
        for run in &runs {
            if let Some(inj) = &run.spec.injection {
                compile(&inj.scenario_src).expect("sweep scenario compiles");
                lint_injection(inj).expect("sweep scenario passes its lint gate");
            }
            assert_eq!(
                programs_for(&run.spec).len(),
                run.spec.cluster.n_ranks as usize
            );
        }
        runs
    }

    fn job(runs: &Vec<Run>) -> Job {
        Job {
            ops: pool(runs.len(), Self::WORKERS, |i| op(&runs[i])),
            summary: None,
        }
    }

    fn traced_job(runs: &Vec<Run>, layers: &mut Layers) -> Job {
        let traced = pool(runs.len(), Self::WORKERS, |i| traced_op(&runs[i]));
        let mut ops = Vec::new();
        for (op, rd) in traced {
            if let Some(r) = &rd.record {
                layers.add("experiments.run_ms", op.ms);
                layers.add("sim.events", r.events as f64);
                layers.max(
                    "sim.queue_depth_hwm",
                    r.metrics.counter("sim.queue_depth_hwm") as f64,
                );
                layers.add("net.messages", r.metrics.counter("net.msgs_sent") as f64);
                layers.add("net.bytes", r.metrics.counter("net.bytes_sent") as f64);
                layers.add("mpichv.waves_committed", r.waves_committed as f64);
                layers.add("mpichv.recoveries", r.recoveries as f64);
                layers.add("experiments.classify_us", rd.classify_us);
                layers.add("experiments.validate_us", rd.validate_us);
                // The parts of the untraced run timed from here: the
                // handlers (from the profiled run, whose own clock reads
                // stay out of the residual) and the harness's set-up and
                // classification. `run_one` compiles and lints its
                // scenario on every run.
                let handler_ms: f64 = rd.handlers.iter().map(|(_, ms)| ms).sum();
                let attributed = handler_ms
                    + rd.programs_ms
                    + rd.compile_ms.unwrap_or(0.0)
                    + rd.lint_ms.unwrap_or(0.0)
                    + rd.classify_us / 1e3;
                layers.add("sim.engine_ms", op.ms - attributed);
                layers.add("op_ms", op.ms);
                layers.add("attributed_ms", attributed);
            }
            layers.add("workloads.programs_ms", rd.programs_ms);
            if let Some(c) = rd.compile_ms {
                layers.add("core.compile_ms", c);
            }
            if let Some(l) = rd.lint_ms {
                layers.add("analyze.lint_ms", l);
            }
            for (kind, ms) in &rd.handlers {
                layers.add(&format!("sim.handler_ms.{kind}"), *ms);
            }
            layers.add("sim.handler_runs", 1.0);
            layers.add("sim.allocs", rd.allocs as f64);
            layers.add("sim.alloc_bytes", rd.alloc_bytes as f64);
            layers.add("sim.prof_events", rd.prof_events as f64);
            ops.push(op);
        }
        // The cost of causal tracing (`--trace-out`), on the first faulty
        // 49-rank run of the grid.
        if let Some(run) = runs.iter().find(|r| r.spec.injection.is_some()) {
            let plain = timed(|| run_one(&run.spec)).1;
            if let Ok((_, traced)) = guarded(|| timed(|| run_one_traced(&run.spec))) {
                layers.add("sim.trace_overhead", ratio(traced, plain));
            }
        }
        Job { ops, summary: None }
    }

    fn layer_metrics(l: &Layers, out: &mut dyn FnMut(&str, f64)) {
        let passes = l.sum("passes").max(1.0);
        let runs = l.sum("sim.handler_runs").max(1.0);
        for name in [
            "experiments.run_ms",
            "workloads.programs_ms",
            "core.compile_ms",
            "analyze.lint_ms",
            "experiments.classify_us",
            "experiments.validate_us",
            "sim.engine_ms",
            "sim.trace_overhead",
        ] {
            out(name, l.mean(name));
        }
        // Handler time per run: kinds a run never handles count as 0 ms
        // in that run.
        for name in l.names_with_prefix("sim.handler_ms.") {
            out(name, l.sum(name) / runs);
        }
        for name in [
            "sim.events",
            "net.messages",
            "net.bytes",
            "mpichv.waves_committed",
            "mpichv.recoveries",
        ] {
            out(name, l.sum(name) / passes);
        }
        out("sim.queue_depth_hwm", l.maximum("sim.queue_depth_hwm"));
        out(
            "sim.events_per_s",
            ratio(l.sum("sim.events"), l.sum("experiments.run_ms") / 1e3),
        );
        out(
            "sim.allocs_per_event",
            ratio(l.sum("sim.allocs"), l.sum("sim.prof_events")),
        );
        out(
            "sim.alloc_bytes_per_event",
            ratio(l.sum("sim.alloc_bytes"), l.sum("sim.prof_events")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupting_a_pin_fails_the_run() {
        let mut runs = Sweep::setup(crate::DEFAULT_SEED);
        runs.truncate(1);
        crate::tests::corrupt_pin_fails::<Sweep>(&runs);
    }
}
