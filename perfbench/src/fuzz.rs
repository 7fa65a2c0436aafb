//! `fuzz` — one `failmpi_fuzz` campaign of [`BUDGET`] candidates with the
//! default `FuzzConfig`, at generator seed [`CAMPAIGN_SEED`].
//!
//! The campaign seed is fixed and the workload seed only labels the run.
//! A campaign's cost depends on its seed far more than on the program:
//! the few candidates whose model checks exhaust the 20 000-state budget
//! cost seconds each against a median near 10 ms, so over seeds 1 to 10
//! one `failmpi-fuzz --budget 150` campaign took 8 to 21 s. Seed 7 is the
//! campaign whose three error findings the README lists.
//!
//! `run_fuzz` returns no per-candidate times, so the job runs its loop
//! here, step for step (`tests::loop_matches_run_fuzz` holds the two to
//! the same summary). One operation is one candidate slot: `next_valid`,
//! `evaluate`, and the findings stage with its minimization.

use std::collections::BTreeSet;

use failmpi_analyze::{
    model_check_source, Diagnostic, ModelCheckConfig, Report, Severity, StaticVerdict,
};
use failmpi_backend::BackendKind;
use failmpi_experiments::{run_one, run_one_traced, smoke_spec_for, tracesink, LintMode};
use failmpi_fuzz::oracle::DynRun;
use failmpi_fuzz::{
    evaluate, findings_for, key_of, minimize, Candidate, Coverage, Evaluation, FuzzConfig,
    FuzzSummary, Generator,
};
use failmpi_mpichv::DispatcherMode;

use crate::common::{guarded, ms_since, now, ratio, timed, Layers, Op};
use crate::{Job, Workload};

/// Candidate slots per campaign.
pub const BUDGET: usize = 150;

/// The campaign's generator seed.
pub const CAMPAIGN_SEED: u64 = 7;

/// Raw generation attempts per slot: `run_fuzz`'s own limit.
const MAX_ATTEMPTS: usize = 16;

/// The fuzz workload.
pub struct Fuzz;

/// A campaign's fixed inputs.
pub struct Campaign {
    /// Generator seed.
    pub seed: u64,
    /// Candidate slots.
    pub budget: usize,
    /// The oracle configuration.
    pub config: FuzzConfig,
}

/// One evaluated slot, with the split of its time.
struct Slot {
    op: Op,
    gen_ms: f64,
    eval_ms: f64,
    findings_ms: f64,
    cand: Option<Candidate>,
    ev: Option<Evaluation>,
}

fn classes(runs: &[DynRun]) -> String {
    let v: Vec<String> = runs
        .iter()
        .map(|r| format!("{}:{}", r.seed, r.class))
        .collect();
    if v.is_empty() {
        "-".to_string()
    } else {
        v.join(",")
    }
}

/// The pinned result: every static verdict and every probe's outcome
/// class, Vcl historical and fixed first, then the other backends.
fn pinned_of(ev: &Evaluation) -> String {
    let mut parts = vec![
        ev.static_h.verdict.to_string(),
        ev.static_f.verdict.to_string(),
        classes(&ev.dynamic_h),
        classes(&ev.dynamic_f),
    ];
    for be in &ev.backends {
        parts.push(format!(
            "{}={}/{}",
            be.backend.name(),
            be.summary.verdict,
            classes(&be.dynamic)
        ));
    }
    parts.join(" ")
}

fn exact_of(ev: &Evaluation, codes: &[&str]) -> String {
    let fps: Vec<String> = ev
        .dynamic_h
        .iter()
        .chain(&ev.dynamic_f)
        .chain(ev.backends.iter().flat_map(|b| &b.dynamic))
        .map(|r| format!("{:x}", r.fingerprint))
        .collect();
    let digests: Vec<String> = [&ev.static_h, &ev.static_f]
        .into_iter()
        .chain(ev.backends.iter().map(|b| &b.summary))
        .map(|s| format!("{}/{:x}", s.explored, s.state_digest))
        .collect();
    format!(
        "{} fps={} states={} findings={}",
        pinned_of(ev),
        fps.join(","),
        digests.join(","),
        codes.join(",")
    )
}

/// Campaign state carried across slots, as in `run_fuzz`.
struct State {
    generator: Generator,
    coverage: Coverage,
    known: BTreeSet<u64>,
    candidates: usize,
    errors: usize,
    warnings: usize,
    fig10: bool,
}

/// One slot of `run_fuzz`'s loop, timed step by step.
fn slot(i: usize, st: &mut State, cfg: &FuzzConfig) -> Slot {
    let start = now();
    let (cand, gen_ms) = timed(|| st.generator.next_valid(MAX_ATTEMPTS));
    let Some(cand) = cand else {
        let op = Op {
            ms: ms_since(start),
            key: format!("slot{i:03}"),
            pinned: Ok("no-candidate".to_string()),
            exact: "no-candidate".to_string(),
        };
        return Slot {
            op,
            gen_ms,
            eval_ms: 0.0,
            findings_ms: 0.0,
            cand: None,
            ev: None,
        };
    };
    st.candidates += 1;
    let (ev, eval_ms) = timed(|| evaluate(&cand, cfg));
    st.fig10 |= ev.fig10_family;
    st.coverage.observe(&key_of(&ev));
    let (report, findings_ms) = timed(|| findings_report(&cand, &ev, cfg, &st.known));
    st.errors += report.error_count();
    st.warnings += report.warning_count();
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code).collect();
    let op = Op {
        ms: ms_since(start),
        key: cand.name.clone(),
        pinned: Ok(pinned_of(&ev)),
        exact: exact_of(&ev, &codes),
    };
    Slot {
        op,
        gen_ms,
        eval_ms,
        findings_ms,
        cand: Some(cand),
        ev: Some(ev),
    }
}

/// `run_fuzz`'s findings stage: the FZ findings, minimized when any is an
/// error, plus the causal narration of a frozen probe.
fn findings_report(
    cand: &Candidate,
    ev: &Evaluation,
    cfg: &FuzzConfig,
    known: &BTreeSet<u64>,
) -> Report {
    let mut findings = findings_for(ev, known);
    if findings.is_empty() {
        return Report::new(format!("fuzz:{}", cand.name), findings);
    }
    if findings.iter().any(|d| d.severity == Severity::Error) {
        let signature = |src: &str| {
            let probe = Candidate {
                source: src.to_string(),
                ..cand.clone()
            };
            let mut codes: Vec<&str> = findings_for(&evaluate(&probe, cfg), known)
                .iter()
                .map(|d| d.code)
                .collect();
            codes.sort_unstable();
            codes
        };
        let want = signature(&cand.source);
        let minimized = minimize(&cand.source, |src| signature(src) == want);
        if minimized != cand.source {
            findings.push(Diagnostic::new(
                Severity::Warning,
                "FZ005",
                0,
                format!(
                    "minimized reproducer ({} -> {} bytes)",
                    cand.source.len(),
                    minimized.len()
                ),
                minimized,
            ));
        }
    }
    if let Some(narration) = &ev.narration {
        findings.push(Diagnostic::new(
            Severity::Warning,
            "FZ006",
            0,
            "causal narration of the frozen probe".to_string(),
            narration.clone(),
        ));
    }
    Report::new(format!("fuzz:{}", cand.name), findings)
}

/// Runs one campaign, calling `each` on every slot as it completes.
fn campaign(c: &Campaign, mut each: impl FnMut(Slot)) -> FuzzSummary {
    let mut st = State {
        generator: Generator::new(c.seed),
        coverage: Coverage::new(),
        known: BTreeSet::new(),
        candidates: 0,
        errors: 0,
        warnings: 0,
        fig10: false,
    };
    for i in 0..c.budget {
        let s = match guarded(|| slot(i, &mut st, &c.config)) {
            Ok(s) => s,
            Err(e) => {
                // The generator state after a panic is unknown: the rest
                // of the campaign is not the pinned one, so it stops here.
                let op = Op {
                    ms: 0.0,
                    key: format!("slot{i:03}"),
                    pinned: Err(e),
                    exact: String::new(),
                };
                each(Slot {
                    op,
                    gen_ms: 0.0,
                    eval_ms: 0.0,
                    findings_ms: 0.0,
                    cand: None,
                    ev: None,
                });
                break;
            }
        };
        each(s);
    }
    FuzzSummary {
        seed: c.seed,
        budget: c.budget,
        candidates: st.candidates,
        accepted: st.coverage.len(),
        errors: st.errors,
        warnings: st.warnings,
        fig10_family_rediscovered: st.fig10,
    }
}

fn summary_line(s: &FuzzSummary) -> String {
    format!(
        "candidates={} accepted={} errors={} warnings={} fig10={}",
        s.candidates, s.accepted, s.errors, s.warnings, s.fig10_family_rediscovered
    )
}

/// The oracle calls `evaluate` made for one candidate, issued again from
/// here and timed by layer.
fn reissue(cand: &Candidate, ev: &Evaluation, cfg: &FuzzConfig, layers: &mut Layers) -> f64 {
    let mut spent = 0.0;
    // Static: the four model-check configurations `evaluate` uses.
    let statics = [
        (BackendKind::Vcl, DispatcherMode::Historical),
        (BackendKind::Vcl, DispatcherMode::Fixed),
        (BackendKind::Ulfm, DispatcherMode::Historical),
        (BackendKind::Replica, DispatcherMode::Historical),
    ];
    let mut static_ms = 0.0;
    for (backend, mode) in statics {
        let mc = ModelCheckConfig {
            backend,
            params: cand.params.clone(),
            mode,
            budget: cfg.model_budget,
            ..ModelCheckConfig::default()
        };
        let (r, ms) = timed(|| model_check_source(&cand.source, &mc));
        static_ms += ms;
        layers.add("analyze.model.check_ms", ms);
        if r.summary.verdict != StaticVerdict::NotApplicable {
            layers.add("analyze.model.explored", r.summary.explored as f64);
            layers.add("analyze.model.interned", r.summary.interned as f64);
            layers.add("analyze.model.orbit_hits", r.summary.orbit_hits as f64);
            layers.add("analyze.model.por_pruned", r.summary.por_pruned as f64);
            layers.add("analyze.model.frontier", r.summary.frontier as f64);
        }
    }
    layers.add("fuzz.static_ms", static_ms);
    spent += static_ms;

    // Dynamic: every probe `evaluate` ran, escalation seeds included.
    let params: Vec<(&str, i64)> = cand.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let spec_of = |seed, mode, backend| {
        let mut spec = smoke_spec_for(&cand.source, &cand.machine_class, &params, seed, mode)
            .with_backend(backend);
        if let Some(inj) = spec.injection.as_mut() {
            inj.lint = LintMode::Off;
        }
        spec
    };
    let probes = ev
        .dynamic_h
        .iter()
        .map(|r| (r.seed, DispatcherMode::Historical, BackendKind::Vcl))
        .chain(
            ev.dynamic_f
                .iter()
                .map(|r| (r.seed, DispatcherMode::Fixed, BackendKind::Vcl)),
        )
        .chain(ev.backends.iter().flat_map(|b| {
            b.dynamic
                .iter()
                .map(move |r| (r.seed, DispatcherMode::Historical, b.backend))
        }));
    let mut dynamic_ms = 0.0;
    for (seed, mode, backend) in probes {
        let (record, ms) = timed(|| run_one(&spec_of(seed, mode, backend)));
        dynamic_ms += ms;
        layers.add(&format!("backend.{}.run_ms", backend.name()), ms);
        layers.add("sim.events", record.events as f64);
        layers.add("sim.run_ms", ms);
        layers.max(
            "sim.queue_depth_hwm",
            record.metrics.counter("sim.queue_depth_hwm") as f64,
        );
    }
    layers.add("fuzz.dynamic_ms", dynamic_ms);
    spent += dynamic_ms;

    // The causal trace and its narration, on the first frozen historical
    // probe.
    if let Some(run) = ev.dynamic_h.iter().find(|r| r.class == "buggy") {
        let spec = spec_of(run.seed, DispatcherMode::Historical, BackendKind::Vcl);
        let ((), ms) = timed(|| {
            let traced = run_one_traced(&spec);
            let trace = tracesink::trace_file_of(&cand.name, run.seed, &traced);
            failmpi_trace::explain::explain(&trace);
            failmpi_trace::explain::render(&trace);
        });
        layers.add("trace.explain_ms", ms);
        spent += ms;
    }
    spent
}

impl Workload for Fuzz {
    type Inputs = Campaign;
    const NAME: &'static str = "fuzz";
    const WORKERS: usize = 1;
    const PINS: &'static str = include_str!("../pins/fuzz.tsv");

    fn pins_apply(_seed: u64) -> bool {
        true
    }

    fn setup(_seed: u64) -> Campaign {
        // The generator parses every builtin it mutates; build one to
        // fail here, before any timing, if one no longer parses.
        Generator::new(CAMPAIGN_SEED);
        Campaign {
            seed: CAMPAIGN_SEED,
            budget: BUDGET,
            config: FuzzConfig::default(),
        }
    }

    fn job(c: &Campaign) -> Job {
        let mut ops = Vec::new();
        let summary = campaign(c, |s| ops.push(s.op));
        Job {
            ops,
            summary: Some(summary_line(&summary)),
        }
    }

    fn traced_job(c: &Campaign, layers: &mut Layers) -> Job {
        let mut ops = Vec::new();
        let summary = campaign(c, |s| {
            layers.add("fuzz.gen_ms", s.gen_ms);
            layers.add("fuzz.eval_ms", s.eval_ms);
            layers.add("fuzz.findings_ms", s.findings_ms);
            let mut attributed = s.gen_ms + s.findings_ms;
            if let (Some(cand), Some(ev)) = (&s.cand, &s.ev) {
                attributed += reissue(cand, ev, &c.config, layers);
            }
            layers.add("op_ms", s.op.ms);
            layers.add("attributed_ms", attributed);
            ops.push(s.op);
        });
        layers.add("fuzz.candidates", summary.candidates as f64);
        layers.add("fuzz.accepted", summary.accepted as f64);
        layers.add("fuzz.error_findings", summary.errors as f64);
        Job {
            ops,
            summary: Some(summary_line(&summary)),
        }
    }

    fn layer_metrics(l: &Layers, out: &mut dyn FnMut(&str, f64)) {
        let passes = l.sum("passes").max(1.0);
        for name in [
            "fuzz.gen_ms",
            "fuzz.eval_ms",
            "fuzz.findings_ms",
            "fuzz.static_ms",
            "fuzz.dynamic_ms",
            "backend.vcl.run_ms",
            "backend.ulfm.run_ms",
            "backend.replica.run_ms",
            "trace.explain_ms",
        ] {
            out(name, l.mean(name));
        }
        out(
            "fuzz.accepted_frac",
            ratio(l.sum("fuzz.accepted"), l.sum("fuzz.candidates")),
        );
        out("fuzz.error_findings", l.sum("fuzz.error_findings") / passes);
        out("sim.events", l.sum("sim.events") / passes);
        out("sim.queue_depth_hwm", l.maximum("sim.queue_depth_hwm"));
        out(
            "sim.events_per_s",
            ratio(l.sum("sim.events"), l.sum("sim.run_ms") / 1e3),
        );
        crate::check25::model_layer_metrics(l, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_matches_run_fuzz() {
        let c = Campaign {
            seed: CAMPAIGN_SEED,
            budget: 12,
            config: FuzzConfig::default(),
        };
        let ours = campaign(&c, |_| {});
        let theirs = failmpi_fuzz::run_fuzz(&failmpi_fuzz::FuzzOptions {
            seed: c.seed,
            budget: c.budget,
            ..failmpi_fuzz::FuzzOptions::default()
        })
        .summary;
        assert_eq!(summary_line(&ours), summary_line(&theirs));
    }

    #[test]
    fn corrupting_a_pin_fails_the_run() {
        let mut c = Fuzz::setup(crate::DEFAULT_SEED);
        c.budget = 3;
        crate::tests::corrupt_pin_fails::<Fuzz>(&c);
    }
}
