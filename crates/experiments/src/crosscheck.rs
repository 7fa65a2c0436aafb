//! Static-vs-dynamic crosscheck: for every runnable builtin figure
//! scenario, compare the model checker's pre-run verdict
//! ([`failmpi_analyze::StaticVerdict`]) against what the dynamic
//! simulator's classifier actually observes over a seed sweep.
//!
//! The agreement contract is asymmetric, because the two sides answer
//! different questions — the model checker decides *reachability* of a
//! freeze over all abstract schedules, the classifier observes *one
//! concrete schedule per seed*:
//!
//! * static **freezes** — at least one sweep seed must be classified
//!   [`crate::classify::Outcome::Buggy`] (the witness schedule is
//!   concretely realizable);
//! * static **survives** — no sweep seed may be classified `Buggy` (a
//!   dynamic freeze the model misses would be a soundness hole);
//! * static **unknown** (budget exhausted) — vacuously consistent.
//!
//! [`crate::classify::Outcome::NonTerminating`] agrees with a surviving
//! verdict: livelock (the paper's too-high fault frequency) is not a
//! freeze, statically (FC004, a warning) or dynamically (green vs red
//! bars in the figures).
//!
//! Both dispatcher variants are first-class: the historical mode carries
//! the paper's stale-entry bug, the fixed mode is the repaired reference
//! where any freeze — static or dynamic — is a genuinely unknown protocol
//! bug. The scenario fuzzer (`failmpi-fuzz`) leans on exactly this
//! two-mode contract as its oracle, so both modes are exercised end-to-end
//! here.

use failmpi_analyze::{model_check_source, ModelCheckConfig, StaticVerdict};
use failmpi_backend::BackendKind;
use failmpi_mpichv::DispatcherMode;
use failmpi_workloads::BtClass;

use crate::figures::{self, DELAY_SRC, FIG10_SRC, FIG5_SRC, FIG7_SRC, FIG8_SRC};
use crate::harness::{run_one, ExperimentSpec, InjectionSpec};
use crate::robustness::outcome_class;

/// One scenario's static verdict next to its dynamic seed sweep.
#[derive(Clone, Debug)]
pub struct CrosscheckRow {
    /// Scenario label (paper figure).
    pub name: &'static str,
    /// Dispatcher variant both sides ran against.
    pub mode: DispatcherMode,
    /// The model checker's pre-run verdict.
    pub static_verdict: StaticVerdict,
    /// Product states the exploration expanded.
    pub explored: usize,
    /// `(seed, outcome class)` per dynamic run.
    pub dynamic: Vec<(u64, &'static str)>,
    /// Whether the two sides satisfy the agreement contract.
    pub agrees: bool,
}

/// One runnable builtin: `(name, source, machine class, smoke-scale
/// parameter overrides)`.
type BuiltinScenario = (&'static str, &'static str, &'static str, &'static [(&'static str, i64)]);

/// The runnable builtin scenarios. Fig. 4 is a class library with no
/// deployment and is deliberately absent.
const SCENARIOS: &[BuiltinScenario] = &[
    ("fig5_frequency", FIG5_SRC, "ADVnodes", &[("X", 4), ("N", 5)]),
    (
        "fig7_simultaneous",
        FIG7_SRC,
        "ADVnodes",
        &[("X", 2), ("T", 4), ("N", 5)],
    ),
    ("fig8_synchronized", FIG8_SRC, "ADVnodes", &[("T", 2), ("N", 5)]),
    ("fig10_state_sync", FIG10_SRC, "ADVG1", &[("T", 2), ("N", 5)]),
    ("delay_injection", DELAY_SRC, "ADVnodes", &[("D", 1), ("N", 5)]),
];

/// The runnable builtins as `(name, source, machine class, smoke params)`
/// rows — the mutation seed pool of the scenario fuzzer.
pub fn runnable_builtins() -> &'static [BuiltinScenario] {
    SCENARIOS
}

/// The smoke-scale spec the crosscheck (and the scenario fuzzer) runs a
/// scenario under: 4 ranks on 6 machines, class-S BT, miniaturized
/// recovery constants, 90 s virtual timeout.
pub fn smoke_spec_for(
    src: &str,
    machine: &str,
    params: &[(&str, i64)],
    seed: u64,
    mode: DispatcherMode,
) -> ExperimentSpec {
    let mut cluster = figures::cluster_config(4, 6, 2, mode);
    figures::miniaturize(&mut cluster);
    let mut inj = InjectionSpec::new(src, "ADV1", machine);
    for (k, v) in params {
        inj = inj.with_param(k, *v);
    }
    figures::spec(cluster, BtClass::S, Some(inj), 90, seed)
}

/// Whether a static verdict and a dynamic sweep satisfy the asymmetric
/// agreement contract (see the module docs). Shared with the fuzzer's
/// oracle so both sides flag disagreements identically.
pub fn verdicts_agree(static_verdict: StaticVerdict, any_dynamic_buggy: bool) -> bool {
    match static_verdict {
        StaticVerdict::Freezes => any_dynamic_buggy,
        StaticVerdict::Survives => !any_dynamic_buggy,
        StaticVerdict::Unknown | StaticVerdict::NotApplicable => true,
    }
}

/// Crosschecks one scenario source over `seeds` dynamic runs under the
/// given dispatcher mode. `name` only labels the row.
pub fn crosscheck_one(
    name: &'static str,
    src: &str,
    machine: &str,
    params: &[(&str, i64)],
    seeds: &[u64],
    mode: DispatcherMode,
) -> CrosscheckRow {
    let cfg = ModelCheckConfig {
        params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        mode,
        ..ModelCheckConfig::default()
    };
    let st = model_check_source(src, &cfg);
    let dynamic: Vec<(u64, &'static str)> = seeds
        .iter()
        .map(|&seed| {
            let record = run_one(&smoke_spec_for(src, machine, params, seed, mode));
            (seed, outcome_class(&record.outcome))
        })
        .collect();
    let any_buggy = dynamic.iter().any(|(_, c)| *c == "buggy");
    CrosscheckRow {
        name,
        mode,
        static_verdict: st.summary.verdict,
        explored: st.summary.explored,
        dynamic,
        agrees: verdicts_agree(st.summary.verdict, any_buggy),
    }
}

/// Crosschecks every runnable builtin scenario over `seeds` dynamic runs
/// under the historical (paper-bug) dispatcher.
pub fn crosscheck_builtins(seeds: &[u64]) -> Vec<CrosscheckRow> {
    crosscheck_builtins_mode(seeds, DispatcherMode::Historical)
}

/// Crosschecks every runnable builtin under one dispatcher variant. The
/// fixed mode closes the fuzzer's main oracle blind spot: a freeze there
/// (static or dynamic) is a surviving-protocol bug, not the known Fig. 10
/// defect.
pub fn crosscheck_builtins_mode(seeds: &[u64], mode: DispatcherMode) -> Vec<CrosscheckRow> {
    SCENARIOS
        .iter()
        .map(|(name, src, machine, params)| {
            crosscheck_one(name, src, machine, params, seeds, mode)
        })
        .collect()
}

/// One cell of the paper-scale figure matrix: a builtin figure scenario
/// model-checked at grid scale under one dispatcher variant, with the
/// reduced exploration.
#[derive(Clone, Debug)]
pub struct MatrixRow {
    /// Scenario label (paper figure).
    pub name: &'static str,
    /// Dispatcher variant.
    pub mode: DispatcherMode,
    /// MPI ranks in the abstract deployment (hosts = ranks + 1).
    pub n_ranks: usize,
    /// The checker's verdict at this scale.
    pub verdict: StaticVerdict,
    /// Canonical states expanded.
    pub explored: usize,
    /// Canonical states interned (explored + frontier, deduplicated).
    pub interned: usize,
    /// Successors merged into an already-interned orbit representative.
    pub orbit_hits: usize,
    /// Commuting deliveries pruned by the ample-set filter.
    pub por_pruned: usize,
    /// Minimal witness cost when the verdict is `Freezes`.
    pub witness_cost: Option<(usize, usize)>,
}

/// Model-checks every runnable builtin at `n_ranks` grid scale under one
/// backend (hosts = ranks + 1, the one-spare shape), with the reduced
/// exploration — the paper's figure-by-figure verdict matrix. Vcl rows
/// cover both dispatcher variants; the other backends check the
/// historical one only, since the dispatcher variant is a Vcl concept.
/// `budget` bounds each exploration; the 25-rank matrix completes well
/// inside the `failck` default.
pub fn figure_matrix(backend: BackendKind, n_ranks: usize, budget: usize) -> Vec<MatrixRow> {
    let modes: &[DispatcherMode] = match backend {
        BackendKind::Vcl => &[DispatcherMode::Historical, DispatcherMode::Fixed],
        _ => &[DispatcherMode::Historical],
    };
    let mut out = Vec::new();
    for (name, src, _machine, params) in SCENARIOS {
        for &mode in modes {
            let cfg = ModelCheckConfig {
                backend,
                params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                mode,
                n_ranks,
                n_hosts: n_ranks + 1,
                budget,
                reduce: true,
                ..ModelCheckConfig::default()
            };
            let r = model_check_source(src, &cfg);
            out.push(MatrixRow {
                name,
                mode,
                n_ranks,
                verdict: r.summary.verdict,
                explored: r.summary.explored,
                interned: r.summary.interned,
                orbit_hits: r.summary.orbit_hits,
                por_pruned: r.summary.por_pruned,
                witness_cost: r.summary.witness.as_ref().map(|w| (w.faults, w.steps.len())),
            });
        }
    }
    out
}

/// One cell of the cross-backend differential matrix: a builtin figure
/// scenario checked statically *and* swept dynamically under one protocol
/// backend, both sides at the same smoke deployment scale (4 ranks on 6
/// machines), historical dispatcher.
#[derive(Clone, Debug)]
pub struct BackendMatrixRow {
    /// Scenario label (paper figure).
    pub name: &'static str,
    /// Protocol backend both sides ran against.
    pub backend: BackendKind,
    /// The model checker's pre-run verdict for this backend's abstract
    /// model at the smoke scale.
    pub static_verdict: StaticVerdict,
    /// Product states the exploration expanded.
    pub explored: usize,
    /// `(seed, outcome class)` per dynamic run under this backend's
    /// runtime.
    pub dynamic: Vec<(u64, &'static str)>,
    /// Whether the two sides satisfy the same asymmetric agreement
    /// contract the Vcl crosscheck uses ([`verdicts_agree`]).
    pub agrees: bool,
}

/// Crosschecks one builtin under one protocol backend: static verdict at
/// the smoke deployment scale next to the dynamic seed sweep through that
/// backend's runtime.
pub fn backend_crosscheck_one(
    name: &'static str,
    src: &str,
    machine: &str,
    params: &[(&str, i64)],
    seeds: &[u64],
    backend: BackendKind,
) -> BackendMatrixRow {
    let cfg = ModelCheckConfig {
        backend,
        n_ranks: 4,
        n_hosts: 6,
        params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        mode: DispatcherMode::Historical,
        // The 4-rank product needs the orbit quotient to stay definitive
        // inside the default budget (the 2-rank Vcl crosscheck does not).
        reduce: true,
        ..ModelCheckConfig::default()
    };
    let st = model_check_source(src, &cfg);
    let dynamic: Vec<(u64, &'static str)> = seeds
        .iter()
        .map(|&seed| {
            let spec = smoke_spec_for(src, machine, params, seed, DispatcherMode::Historical)
                .with_backend(backend);
            let record = run_one(&spec);
            (seed, outcome_class(&record.outcome))
        })
        .collect();
    let any_buggy = dynamic.iter().any(|(_, c)| *c == "buggy");
    BackendMatrixRow {
        name,
        backend,
        static_verdict: st.summary.verdict,
        explored: st.summary.explored,
        dynamic,
        agrees: verdicts_agree(st.summary.verdict, any_buggy),
    }
}

/// The full cross-backend differential matrix: every runnable builtin ×
/// every protocol backend × the given seeds. The interesting rows are the
/// ones where backends *disagree* for protocol reasons — the Fig. 10
/// dispatcher bug is Vcl-specific (ULFM shrinks past it), random kills
/// freeze ULFM only by eating the whole job, and replication converts
/// any fault on an unprotected primary into an immediate loss.
pub fn backend_matrix(seeds: &[u64]) -> Vec<BackendMatrixRow> {
    let mut out = Vec::new();
    for (name, src, machine, params) in SCENARIOS {
        for backend in BackendKind::all() {
            out.push(backend_crosscheck_one(name, src, machine, params, seeds, backend));
        }
    }
    out
}

/// Renders the cross-backend matrix as an aligned table (the CI artifact).
pub fn render_backend_matrix(rows: &[BackendMatrixRow]) -> String {
    let mut out =
        String::from("scenario              backend  static    explored  dynamic\n");
    for r in rows {
        let dyns: Vec<String> = r.dynamic.iter().map(|(s, c)| format!("{s}:{c}")).collect();
        out.push_str(&format!(
            "{:<21} {:<8} {:<9} {:<9} {}{}\n",
            r.name,
            r.backend.name(),
            r.static_verdict.to_string(),
            r.explored,
            dyns.join(" "),
            if r.agrees { "" } else { "  [DISAGREES]" }
        ));
    }
    out
}

/// Renders the figure matrix as an aligned table (the CI artifact).
pub fn render_matrix(rows: &[MatrixRow]) -> String {
    let mut out = String::from(
        "scenario              mode        ranks  verdict   explored  orbit-hits  por-pruned  witness\n",
    );
    for r in rows {
        let witness = match r.witness_cost {
            Some((faults, steps)) => format!("{faults} fault(s) / {steps} step(s)"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<21} {:<11} {:<6} {:<9} {:<9} {:<11} {:<11} {}\n",
            r.name,
            match r.mode {
                DispatcherMode::Historical => "historical",
                DispatcherMode::Fixed => "fixed",
            },
            r.n_ranks,
            r.verdict.to_string(),
            r.explored,
            r.orbit_hits,
            r.por_pruned,
            witness
        ));
    }
    out
}

/// Renders the crosscheck as an aligned table (the CI artifact).
pub fn render(rows: &[CrosscheckRow]) -> String {
    let mut out = String::from("scenario              mode        static    dynamic\n");
    for r in rows {
        let dyns: Vec<String> = r
            .dynamic
            .iter()
            .map(|(s, c)| format!("{s}:{c}"))
            .collect();
        out.push_str(&format!(
            "{:<21} {:<11} {:<9} {}{}\n",
            r.name,
            match r.mode {
                DispatcherMode::Historical => "historical",
                DispatcherMode::Fixed => "fixed",
            },
            r.static_verdict.to_string(),
            dyns.join(" "),
            if r.agrees { "" } else { "  [DISAGREES]" }
        ));
    }
    out
}
