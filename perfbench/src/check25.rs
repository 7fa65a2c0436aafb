//! `check25` — the paper-scale static check.
//!
//! `failck --model-check` at 25 ranks on 26 machines, reduced, on two
//! threads, over the Fig. 5 (survives), Fig. 8 (freezes) and Fig. 10
//! (freezes) scenarios with bench-report's parameters. One job checks the
//! three scenarios in turn; one operation is one `model_check_source`.
//! The checker is deterministic, so the workload seed only labels the run.

use failmpi_analyze::{model_check_scenario, model_check_source, ModelCheckConfig, ModelSummary};
use failmpi_core::compile;
use failmpi_experiments::figures::{FIG10_SRC, FIG5_SRC, FIG8_SRC};

use crate::common::{guarded, ms_since, now, ratio, timed, Layers, Op};
use crate::{Job, Workload};

/// Ranks of the checked grid.
pub const RANKS: usize = 25;
/// Explorer threads.
pub const THREADS: usize = 2;

/// The check25 workload.
pub struct Check25;

/// One scenario of the job.
pub struct Check {
    name: &'static str,
    src: &'static str,
    cfg: ModelCheckConfig,
}

/// The three checks of the job.
pub fn checks() -> Vec<Check> {
    let fig10: &[(&str, i64)] = &[("T", 2), ("N", 5)];
    [
        ("fig5", FIG5_SRC, &[("X", 4), ("N", 5)][..]),
        ("fig8", FIG8_SRC, fig10),
        ("fig10", FIG10_SRC, fig10),
    ]
    .into_iter()
    .map(|(name, src, params)| Check {
        name,
        src,
        cfg: ModelCheckConfig {
            params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            n_ranks: RANKS,
            n_hosts: RANKS + 1,
            reduce: true,
            threads: THREADS,
            ..ModelCheckConfig::default()
        },
    })
    .collect()
}

/// The pinned result: verdict and witness cost (faults, steps).
fn pinned_of(s: &ModelSummary) -> String {
    match &s.witness {
        Some(w) => format!("{} faults={} steps={}", s.verdict, w.faults, w.steps.len()),
        None => format!("{} no-witness", s.verdict),
    }
}

fn exact_of(s: &ModelSummary) -> String {
    format!(
        "{} explored={} interned={} orbit_hits={} por_pruned={} frontier={} digest={:016x}",
        pinned_of(s),
        s.explored,
        s.interned,
        s.orbit_hits,
        s.por_pruned,
        s.frontier,
        s.state_digest
    )
}

fn op(c: &Check) -> (Op, Option<ModelSummary>) {
    let start = now();
    let res = guarded(|| model_check_source(c.src, &c.cfg).summary);
    let ms = ms_since(start);
    let op = Op {
        ms,
        key: c.name.to_string(),
        pinned: res.as_ref().map(pinned_of).map_err(Clone::clone),
        exact: res.as_ref().map(exact_of).unwrap_or_default(),
    };
    (op, res.ok())
}

impl Workload for Check25 {
    type Inputs = Vec<Check>;
    const NAME: &'static str = "check25";
    const WORKERS: usize = THREADS;
    const PINS: &'static str = include_str!("../pins/check25.tsv");

    fn pins_apply(_seed: u64) -> bool {
        true
    }

    fn setup(_seed: u64) -> Vec<Check> {
        let checks = checks();
        for c in &checks {
            compile(c.src).expect("checked scenario compiles");
        }
        checks
    }

    fn job(checks: &Vec<Check>) -> Job {
        Job {
            ops: checks.iter().map(|c| op(c).0).collect(),
            summary: None,
        }
    }

    fn traced_job(checks: &Vec<Check>, layers: &mut Layers) -> Job {
        let mut ops = Vec::new();
        for c in checks {
            let (op, summary) = op(c);
            // The same check split in two from here: compile, then explore
            // the compiled scenario.
            let (compiled, compile_ms) = timed(|| compile(c.src));
            if let (Some(s), Ok(sc)) = (summary, compiled) {
                let check_ms = timed(|| model_check_scenario(&sc, &c.cfg)).1;
                layers.add("core.compile_ms", compile_ms);
                layers.add("analyze.model.check_ms", check_ms);
                layers.add("op_ms", op.ms);
                layers.add("attributed_ms", compile_ms + check_ms);
                layers.add("analyze.model.explored", s.explored as f64);
                layers.add("analyze.model.interned", s.interned as f64);
                layers.add("analyze.model.orbit_hits", s.orbit_hits as f64);
                layers.add("analyze.model.por_pruned", s.por_pruned as f64);
                layers.add("analyze.model.frontier", s.frontier as f64);
                layers.max("analyze.model.max_interned", s.interned as f64);
            }
            ops.push(op);
        }
        Job { ops, summary: None }
    }

    fn layer_metrics(l: &Layers, out: &mut dyn FnMut(&str, f64)) {
        model_layer_metrics(l, out);
        out("core.compile_ms", l.mean("core.compile_ms"));
        // The first job of the process raises the peak RSS from its
        // set-up level; each check frees its store before the next, so
        // that growth is the largest store's footprint.
        out(
            "analyze.model.bytes_per_state",
            ratio(
                l.sum("proc.first_job_rss_growth"),
                l.maximum("analyze.model.max_interned"),
            ),
        );
    }
}

/// The model checker's counts per pass of the job, its mean time per
/// check and its exploration rate.
pub fn model_layer_metrics(l: &Layers, out: &mut dyn FnMut(&str, f64)) {
    let passes = l.sum("passes").max(1.0);
    for name in [
        "analyze.model.explored",
        "analyze.model.interned",
        "analyze.model.orbit_hits",
        "analyze.model.por_pruned",
        "analyze.model.frontier",
    ] {
        out(name, l.sum(name) / passes);
    }
    out("analyze.model.check_ms", l.mean("analyze.model.check_ms"));
    out(
        "analyze.model.states_per_s",
        ratio(
            l.sum("analyze.model.explored"),
            l.sum("analyze.model.check_ms") / 1e3,
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupting_a_pin_fails_the_run() {
        // Fig. 8 is the smallest of the three state spaces.
        let mut checks = Check25::setup(crate::DEFAULT_SEED);
        checks.retain(|c| c.name == "fig8");
        crate::tests::corrupt_pin_fails::<Check25>(&checks);
    }
}
