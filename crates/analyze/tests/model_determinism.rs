//! Determinism of the product exploration: same verdict, same witness,
//! byte-identical JSON — across repeated runs and across shuffled
//! successor orderings (the `scramble` hook perturbs candidate order
//! before the canonical sort; any seed must be indistinguishable from
//! none).

use failmpi_analyze::builtin::BUILTIN_SCENARIOS;
use failmpi_analyze::{model_check_source, ModelCheckConfig, ModelSummary, Report};
use proptest::prelude::*;
use proptest::test_runner::Config;

const SCENARIOS: &[&str] = &[
    include_str!("../../core/scenarios/fig10_state_sync.fail"),
    include_str!("../fixtures/fc003_recovery_refault.fail"),
    include_str!("../fixtures/fc004_relaunch_livelock.fail"),
];

/// Full machine-readable rendering of a model-check run, the thing that
/// must be byte-stable.
fn render(src: &str, cfg: &ModelCheckConfig) -> String {
    let r = model_check_source(src, cfg);
    Report::new("det", r.diagnostics)
        .with_model(r.summary)
        .to_json()
}

#[test]
fn repeated_runs_are_byte_identical() {
    for src in SCENARIOS {
        let cfg = ModelCheckConfig::default();
        assert_eq!(render(src, &cfg), render(src, &cfg));
    }
}

#[test]
fn thread_count_never_changes_the_rendering() {
    // The parallel frontier merges per-layer results in insertion order,
    // so any `--threads` value must render byte-identically — in both
    // the default and the reduced exploration.
    for src in SCENARIOS {
        for reduce in [false, true] {
            let cfg_of = |threads| ModelCheckConfig {
                n_ranks: 4,
                n_hosts: 5,
                reduce,
                threads,
                ..ModelCheckConfig::default()
            };
            let one = render(src, &cfg_of(1));
            for threads in [2, 4, 7] {
                assert_eq!(
                    one,
                    render(src, &cfg_of(threads)),
                    "threads={threads} reduce={reduce} changed the JSON"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(Config { cases: 12 })]

    /// Shuffling the successor candidate order with any seed changes
    /// nothing observable: the canonical sort makes exploration
    /// insertion-order independent.
    #[test]
    fn exploration_is_insertion_order_independent(
        seed in any::<u64>(),
        which in 0usize..3,
    ) {
        let src = SCENARIOS[which];
        let baseline = render(src, &ModelCheckConfig::default());
        let scrambled_cfg = ModelCheckConfig {
            scramble: Some(seed),
            ..ModelCheckConfig::default()
        };
        prop_assert_eq!(baseline, render(src, &scrambled_cfg));
    }
}

/// `(verdict, explored, interned, orbit_hits, por_pruned, frontier,
/// state_digest)`: every count the exploration reports, plus the
/// order-sensitive digest of the interned states.
type Pin = (&'static str, usize, usize, usize, usize, usize, u64);

fn pin_of(s: &ModelSummary) -> (String, usize, usize, usize, usize, usize, u64) {
    (
        s.verdict.to_string(),
        s.explored,
        s.interned,
        s.orbit_hits,
        s.por_pruned,
        s.frontier,
        s.state_digest,
    )
}

fn assert_pinned(what: &str, got: &ModelSummary, want: &Pin) {
    let (v, explored, interned, orbit_hits, por_pruned, frontier, digest) = *want;
    assert_eq!(
        pin_of(got),
        (v.to_string(), explored, interned, orbit_hits, por_pruned, frontier, digest),
        "{what}: the exploration changed; a state representation change \
         must keep every explored state and orbit representative"
    );
}

fn assert_reduced_pinned(name: &str, src: &str, params: &[(&str, i64)], want: &Pin) {
    let cfg = ModelCheckConfig {
        n_ranks: 6,
        n_hosts: 7,
        reduce: true,
        threads: 2,
        params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        ..ModelCheckConfig::default()
    };
    assert_pinned(name, &model_check_source(src, &cfg).summary, want);
}

#[test]
fn reduced_exploration_is_pinned() {
    // The paper's three 25-rank checks (bench-report's parameters) at a
    // debug-fast 6 ranks. Any change to which orbit representative gets
    // interned moves the counts or the digest.
    let fig10 = [("T", 2), ("N", 5)];
    assert_reduced_pinned(
        "fig5",
        include_str!("../../core/scenarios/fig5_frequency.fail"),
        &[("X", 4), ("N", 5)],
        &("survives", 2007, 2007, 2625, 3720, 0, 0xd590_ae7a_f3b0_8bce),
    );
    assert_reduced_pinned(
        "fig8",
        include_str!("../../core/scenarios/fig8_synchronized.fail"),
        &fig10,
        &("freezes", 234, 263, 292, 270, 29, 0x7934_d0be_93e2_1d95),
    );
    assert_reduced_pinned(
        "fig10",
        include_str!("../../core/scenarios/fig10_state_sync.fail"),
        &fig10,
        &("freezes", 1044, 1253, 1327, 1740, 209, 0x814b_6043_2c41_b468),
    );
}

#[test]
fn unreduced_builtin_digests_are_pinned() {
    // The default exploration's digest is the fuzzer's static coverage
    // key, so it must not move under a representation change either.
    let want: [(&str, Pin); 6] = [
        ("fig4_generic_nodes.fail", ("not-applicable", 0, 0, 0, 0, 0, 0)),
        ("fig5_frequency.fail", ("survives", 2670, 2670, 0, 0, 0, 0x368f_fecf_a05d_312f)),
        ("fig7_simultaneous.fail", ("survives", 2976, 2976, 0, 0, 0, 0xcaad_8c1d_f049_9729)),
        ("fig8_synchronized.fail", ("freezes", 242, 295, 0, 0, 53, 0x694f_d6c9_0ee7_8797)),
        ("fig10_state_sync.fail", ("freezes", 239, 286, 0, 0, 47, 0xc2cb_4b43_b4a6_26cd)),
        ("delay_injection.fail", ("survives", 118, 118, 0, 0, 0, 0x89be_8cbe_aaab_8bc7)),
    ];
    assert_eq!(BUILTIN_SCENARIOS.len(), want.len(), "pin every builtin scenario");
    for ((name, src), (pinned_name, pin)) in BUILTIN_SCENARIOS.iter().zip(&want) {
        assert_eq!(name, pinned_name);
        let summary = model_check_source(src, &ModelCheckConfig::default()).summary;
        assert_pinned(name, &summary, pin);
    }
}
