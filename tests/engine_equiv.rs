//! Equivalence of the exhaustive checker and the saturation engine.
//!
//! Properties, over the embedded litmus corpus, seeded random
//! histories, and every `litmus/separations/` suite:
//!
//! * on every model that advertises saturate support, wherever both
//!   engines *decide* (Allowed/Disallowed), they agree;
//! * every `Allowed` the saturation engine produces carries a witness
//!   that the independent verifier accepts;
//! * the saturation engine is never `Unsupported` on a model that
//!   `saturating_models()` lists;
//! * at 100+ operations the saturation engine decides histories on
//!   which the exhaustive engine blows its node budget;
//! * `EngineKind::Auto` routes by support + size, visible in
//!   `CheckStats::engine_used`.

use smc_bench::bighist::{sc_run, sc_run_aliased, stale_run};
use smc_core::checker::{check_with_stats, CheckConfig, Engine, EngineKind, Verdict};
use smc_core::models;
use smc_core::verify::verify_witness;
use smc_history::{History, HistoryBuilder};
use smc_prng::SmallRng;
use smc_programs::corpus::litmus_suite;

const PROCS: [&str; 3] = ["p", "q", "r"];
const LOCS: [&str; 2] = ["x", "y"];

fn random_history(rng: &mut SmallRng) -> History {
    let mut b = HistoryBuilder::new();
    for proc in PROCS.iter().take(rng.gen_range(1..4usize)) {
        b.add_proc(proc);
        for _ in 0..rng.gen_range(0..4usize) {
            let is_write = rng.gen_bool(0.5);
            let loc = LOCS[rng.gen_range(0..LOCS.len())];
            let v = rng.gen_range(0..3i64);
            if is_write {
                b.write(proc, loc, v.clamp(1, 2));
            } else {
                b.read(proc, loc, v);
            }
        }
    }
    b.build()
}

fn exhaustive_cfg() -> CheckConfig {
    CheckConfig {
        engine: EngineKind::Exhaustive,
        ..CheckConfig::default()
    }
}

fn saturate_cfg() -> CheckConfig {
    CheckConfig {
        engine: EngineKind::Saturate,
        // Forcing the engine must work at any size; the cutover only
        // matters for Auto.
        ..CheckConfig::default()
    }
}

/// Run both engines on (h, spec) and assert the equivalence contract.
fn assert_engines_agree(h: &History, spec: &smc_core::ModelSpec, tag: &str) {
    let (ex, _) = check_with_stats(h, spec, &exhaustive_cfg());
    let (sat, stats) = check_with_stats(h, spec, &saturate_cfg());
    assert_eq!(
        stats.engine_used,
        Engine::Saturate,
        "{tag} {}: forced saturate did not run",
        spec.name
    );
    if let Verdict::Unsupported(msg) = &sat {
        panic!(
            "{tag} {}: saturate refused a supported model: {msg}\n{h}",
            spec.name
        );
    }
    if let (Some(a), Some(b)) = (ex.decided(), sat.decided()) {
        assert_eq!(
            a, b,
            "{tag} {}: exhaustive {ex:?} vs saturate {sat:?}\n{h}",
            spec.name
        );
    }
    if let Verdict::Allowed(w) = &sat {
        verify_witness(h, spec, w)
            .unwrap_or_else(|e| panic!("{tag} {}: bad saturate witness: {e}\n{h}", spec.name));
    }
}

/// Corpus litmus tests: both engines agree on every saturate-supporting
/// model, and saturate witnesses verify.
#[test]
fn corpus_engines_agree() {
    for t in litmus_suite() {
        for spec in models::saturating_models() {
            assert_engines_agree(&t.history, &spec, &t.name);
        }
    }
}

/// 200 seeded random histories: both engines agree on every
/// saturate-supporting model.
#[test]
fn random_histories_engines_agree() {
    for seed in 3000..3200u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(seed));
        for spec in models::saturating_models() {
            assert_engines_agree(&h, &spec, &format!("seed {seed}"));
        }
    }
}

/// Every suite under `litmus/separations/`: both engines agree on every
/// saturate-supporting model, for every history in every suite.
#[test]
fn separation_suites_engines_agree() {
    let dir = format!("{}/../../litmus/separations", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {dir}: {e}"))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "litmus"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .litmus suites found in {dir}");
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let suite = smc_history::litmus::parse_suite(&text)
            .unwrap_or_else(|e| panic!("{}: parse error: {e}", path.display()));
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        for t in &suite {
            for spec in models::saturating_models() {
                assert_engines_agree(&t.history, &spec, &format!("{file}/{}", t.name));
            }
        }
    }
}

/// A 256-op SC-simulated trace with unique write values: the saturation
/// engine decides Allowed (with a verifying witness) under every
/// supported model — reads-from is forced, so this is pure propagation.
#[test]
fn big_trace_saturate_admits_sc_runs() {
    let h = sc_run(42, 4, 4, 256);
    assert_eq!(h.num_ops(), 256);
    for spec in models::saturating_models() {
        let (sat, stats) = check_with_stats(&h, &spec, &saturate_cfg());
        assert_eq!(stats.engine_used, Engine::Saturate);
        match &sat {
            Verdict::Allowed(w) => verify_witness(&h, &spec, w)
                .unwrap_or_else(|e| panic!("{}: bad big-trace witness: {e}", spec.name)),
            other => panic!(
                "{}: SC-simulated trace must be admitted, got {other:?}",
                spec.name
            ),
        }
        assert!(
            stats.saturation_steps > 0,
            "{}: saturation stats not reported",
            spec.name
        );
    }
}

/// The headline property: on a 256-op trace, models with a global store
/// order force the exhaustive engine through a factorial store-order
/// enumeration — it blows a 200k-node budget without deciding — while
/// the saturation engine derives the store order by propagation and
/// decides immediately.
#[test]
fn big_trace_saturate_decides_where_exhaustive_exhausts() {
    // Exhausting a smaller cap is the same assertion but cheaper; keep
    // debug tier-1 runs quick while release exercises the full budget.
    const CAP: u64 = if cfg!(debug_assertions) {
        40_000
    } else {
        200_000
    };
    let capped = CheckConfig {
        engine: EngineKind::Exhaustive,
        node_budget: CAP,
        ..CheckConfig::default()
    };

    // Admission side: a clean SC run checked under TSO.
    let h = sc_run(42, 4, 4, 256);
    let (ex, _) = check_with_stats(&h, &models::tso(), &capped);
    assert_eq!(
        ex,
        Verdict::Exhausted,
        "TSO store-order enumeration should overwhelm the exhaustive budget"
    );
    let (sat, stats) = check_with_stats(&h, &models::tso(), &saturate_cfg());
    assert_eq!(stats.engine_used, Engine::Saturate);
    match &sat {
        Verdict::Allowed(w) => verify_witness(&h, &models::tso(), w)
            .unwrap_or_else(|e| panic!("bad big-trace TSO witness: {e}")),
        other => panic!("SC run must be TSO-admissible, got {other:?}"),
    }

    // Refutation side: a stale-read inversion at the end of a 256-op
    // trace. Refuting it under TSO means exhausting the store orders;
    // the saturation engine reaches the contradiction by propagation
    // and rejects it under every supported model.
    let hs = stale_run(43, 4, 4, 256);
    let (ex, _) = check_with_stats(&hs, &models::tso(), &capped);
    assert_eq!(
        ex,
        Verdict::Exhausted,
        "refuting under TSO should overwhelm the exhaustive budget"
    );
    for spec in models::saturating_models() {
        let (sat, stats) = check_with_stats(&hs, &spec, &saturate_cfg());
        assert_eq!(stats.engine_used, Engine::Saturate);
        assert_eq!(
            sat,
            Verdict::Disallowed,
            "{}: stale-read trace must be rejected",
            spec.name
        );
    }
}

/// Value aliasing makes reads-from ambiguous; both engines still decide
/// mid-size aliased traces, and wherever both decide they must agree
/// (with verifying saturate witnesses).
#[test]
fn aliased_traces_engines_agree() {
    for ops in [48usize, 64, 96, 128] {
        let h = sc_run_aliased(45, 4, 4, ops, 3);
        assert_engines_agree(&h, &models::sc(), &format!("aliased {ops}"));
    }
}

/// `EngineKind::Auto` keeps small histories on the exhaustive engine,
/// sends big supported histories to saturation, and falls back to
/// exhaustive for models without saturate support.
#[test]
fn auto_routing_small_stays_exhaustive() {
    let auto = CheckConfig::default();
    assert_eq!(auto.engine, EngineKind::Auto);
    let small = random_history(&mut SmallRng::seed_from_u64(1));
    let (_, stats) = check_with_stats(&small, &models::sc(), &auto);
    assert_eq!(stats.engine_used, Engine::Exhaustive);
}

/// The auto cutover is model-aware: models with shared write structure
/// (a global store order or per-location coherence) saturate well even
/// on small traces, while structure-free models (SC, PRAM) pay
/// saturation overhead without the pruning payoff below ~32 ops and
/// stay exhaustive there. Routing is a pure function of the history,
/// the model and the config, so it is checked without running a search.
#[test]
fn auto_routing_cutover_is_model_aware() {
    let auto = CheckConfig::default();
    let mid = sc_run(46, 3, 3, 24);
    assert_eq!(mid.num_ops(), 24);
    // 24 ops, structured model (TSO: global write order): saturate.
    assert_eq!(auto.resolve_engine(&mid, &models::tso()), Engine::Saturate);
    // 24 ops, structure-free models: exhaustive below the higher cutoff.
    for spec in [models::sc(), models::pram()] {
        assert_eq!(
            auto.resolve_engine(&mid, &spec),
            Engine::Exhaustive,
            "{}: structure-free model must stay exhaustive at 24 ops",
            spec.name
        );
    }
    // Past the structure-free cutoff even SC routes to saturation.
    let big = sc_run(46, 3, 3, 40);
    assert_eq!(auto.resolve_engine(&big, &models::sc()), Engine::Saturate);
}

#[test]
fn auto_routing_big_supported_saturates() {
    let big = sc_run(44, 3, 3, 128);
    let (v, stats) = check_with_stats(&big, &models::sc(), &CheckConfig::default());
    assert_eq!(stats.engine_used, Engine::Saturate);
    assert!(v.is_allowed());
}

#[test]
fn auto_routing_big_unsupported_stays_exhaustive() {
    // PC has no saturate support: Auto must stay exhaustive even when
    // the history is large.
    let big = sc_run(44, 3, 3, 128);
    assert_eq!(
        CheckConfig::default().resolve_engine(&big, &models::pc()),
        Engine::Exhaustive
    );
}
