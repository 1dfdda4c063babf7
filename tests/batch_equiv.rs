//! Equivalence of the sequential checker and the parallel batch engine.
//!
//! Properties, over random histories and the embedded litmus corpus:
//!
//! * wherever both the sequential check and a parallel check *decide*
//!   (Allowed/Disallowed), they agree;
//! * every `Allowed` the parallel engine produces carries a witness that
//!   the independent verifier accepts;
//! * `check_batch` results are positionally identical to checking each
//!   pair sequentially, for any worker count.

use smc_core::batch::{check_batch, check_matrix, check_parallel};
use smc_core::checker::{check_with_config, CheckConfig, Verdict};
use smc_core::models;
use smc_core::verify::verify_witness;
use smc_core::ModelSpec;
use smc_history::litmus::parse_history;
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

/// Sequential `check` and `check_parallel` agree on every decided verdict,
/// and parallel witnesses verify independently.
#[test]
fn parallel_check_agrees_with_sequential() {
    let cfg = CheckConfig::default();
    for case in 0..64u64 {
        let h = random_history(&mut SmallRng::seed_from_u64(case));
        for spec in models::all_models() {
            let seq = check_with_config(&h, &spec, &cfg);
            for jobs in [2usize, 4] {
                let (par, _stats) = check_parallel(&h, &spec, &cfg, jobs);
                if let (Some(a), Some(b)) = (seq.decided(), par.decided()) {
                    assert_eq!(
                        a, b,
                        "case {case} {} jobs={jobs}: sequential {seq:?} vs parallel {par:?}\n{h}",
                        spec.name
                    );
                }
                if let Verdict::Allowed(w) = &par {
                    verify_witness(&h, &spec, w).unwrap_or_else(|e| {
                        panic!(
                            "case {case} {} jobs={jobs}: bad parallel witness: {e}\n{h}",
                            spec.name
                        )
                    });
                }
            }
        }
    }
}

/// `check_batch` is positionally identical to the sequential per-pair
/// checker, for several worker counts.
#[test]
fn batch_matches_sequential_positionally() {
    let cfg = CheckConfig::default();
    let histories: Vec<History> = (100..116u64)
        .map(|seed| random_history(&mut SmallRng::seed_from_u64(seed)))
        .collect();
    let model_list = models::all_models();
    let pairs: Vec<(&History, &ModelSpec)> = histories
        .iter()
        .flat_map(|h| model_list.iter().map(move |m| (h, m)))
        .collect();
    let sequential: Vec<Verdict> = pairs
        .iter()
        .map(|(h, m)| check_with_config(h, m, &cfg))
        .collect();
    for jobs in [1usize, 3, 8] {
        let batch = check_batch(&pairs, &cfg, jobs);
        assert_eq!(batch.len(), pairs.len());
        for (i, r) in batch.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(
                r.verdict, sequential[i],
                "pair {i} jobs={jobs}: batch verdict diverged"
            );
            if let Verdict::Allowed(w) = &r.verdict {
                let (h, m) = pairs[i];
                verify_witness(h, m, w)
                    .unwrap_or_else(|e| panic!("pair {i}: bad batch witness: {e}"));
            }
        }
    }
}

/// A memoized batch decides exactly like the plain sequential checker,
/// its witnesses (including rehydrated cache hits) verify independently,
/// and repeating the work actually hits the cache.
#[test]
fn memoized_batch_matches_sequential_and_hits() {
    let plain = CheckConfig::default();
    let memo_cfg = CheckConfig::default().with_memo();
    let histories: Vec<History> = litmus_suite().iter().map(|t| t.history.clone()).collect();
    let model_list = models::all_models();
    let pairs: Vec<(&History, &ModelSpec)> = histories
        .iter()
        .flat_map(|h| model_list.iter().map(move |m| (h, m)))
        .collect();
    // Each pair appears twice: the second occurrence must be served from
    // the memo table without changing any verdict.
    let doubled: Vec<(&History, &ModelSpec)> = pairs.iter().chain(pairs.iter()).copied().collect();
    let sequential: Vec<Verdict> = doubled
        .iter()
        .map(|(h, m)| check_with_config(h, m, &plain))
        .collect();
    for jobs in [1usize, 4] {
        let batch = check_batch(&doubled, &memo_cfg, jobs);
        for (i, r) in batch.iter().enumerate() {
            assert_eq!(
                r.verdict.decided(),
                sequential[i].decided(),
                "pair {i} jobs={jobs}: memoized batch diverged"
            );
            if let Verdict::Allowed(w) = &r.verdict {
                let (h, m) = doubled[i];
                verify_witness(h, m, w)
                    .unwrap_or_else(|e| panic!("pair {i}: bad memoized witness: {e}"));
            }
        }
    }
    let stats = memo_cfg.memo.as_ref().expect("with_memo set").stats();
    assert!(
        stats.hits > 0,
        "doubled batch never hit the memo: {stats:?}"
    );
}

/// The embedded litmus corpus classifies identically under sequential and
/// parallel batch checking, and satisfies its recorded expectations both
/// ways.
#[test]
fn corpus_verdicts_identical_across_job_counts() {
    let cfg = CheckConfig::default();
    let suite = litmus_suite();
    let histories: Vec<History> = suite.iter().map(|t| t.history.clone()).collect();
    let model_list = models::all_models();
    let seq = check_matrix(&histories, &model_list, &cfg, 1);
    let par = check_matrix(&histories, &model_list, &cfg, 4);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.verdict, b.verdict, "pair {} diverged", a.index);
    }
    for (ti, t) in suite.iter().enumerate() {
        for (mi, m) in model_list.iter().enumerate() {
            if let Some(expected) = t.expectation(&m.name) {
                let got = par[ti * model_list.len() + mi].verdict.decided();
                assert_eq!(
                    got,
                    Some(expected),
                    "corpus test {} model {}",
                    t.name,
                    m.name
                );
            }
        }
    }
}

/// Verdicts are independent of the adaptive cutover decision: with the
/// probe forced off (`parallel_cutover: 0`, every parallel check fans
/// out immediately) and forced always-on (`u64::MAX`, every parallel
/// check is answered by the sequential probe), `check_parallel` decides
/// exactly like the sequential checker at every worker count, and its
/// witnesses verify independently. Together the two forced settings
/// straddle the default cutover from both sides, so the adaptive path
/// can never change an answer — only where it is computed.
#[test]
fn cutover_extremes_agree_with_sequential() {
    let mut cases: Vec<History> = litmus_suite().iter().map(|t| t.history.clone()).collect();
    cases.extend((2000..2200u64).map(|seed| random_history(&mut SmallRng::seed_from_u64(seed))));
    let model_list = [
        models::sc(),
        models::tso(),
        models::pram(),
        models::causal(),
    ];
    for cutover in [0u64, u64::MAX] {
        let cfg = CheckConfig {
            parallel_cutover: cutover,
            ..CheckConfig::default()
        };
        for (ci, h) in cases.iter().enumerate() {
            for spec in &model_list {
                let seq = check_with_config(h, spec, &cfg);
                for jobs in [1usize, 2, 4, 8] {
                    let (par, stats) = check_parallel(h, spec, &cfg, jobs);
                    assert_eq!(
                        par.decided(),
                        seq.decided(),
                        "case {ci} {} cutover={cutover} jobs={jobs}: {seq:?} vs {par:?}\n{h}",
                        spec.name
                    );
                    // The forced settings pin the cutover decision: with
                    // the probe disabled only jobs=1 runs sequentially;
                    // with an unbounded probe no check ever fans out.
                    if cutover == 0 {
                        assert_eq!(stats.ran_sequential, jobs == 1);
                        assert_eq!(stats.probe_nodes, 0);
                    } else {
                        assert!(stats.ran_sequential);
                    }
                    if let Verdict::Allowed(w) = &par {
                        verify_witness(h, spec, w).unwrap_or_else(|e| {
                            panic!(
                                "case {ci} {} cutover={cutover} jobs={jobs}: bad witness: {e}\n{h}",
                                spec.name
                            )
                        });
                    }
                }
            }
        }
    }
}

/// The work-stealing parallel engine matches the sequential checker —
/// same decided verdicts, and witnesses that verify independently —
/// across every worker count, on the litmus corpus plus 200 random
/// histories. This is the bit-identical-verdicts gate for the parallel
/// engine.
#[test]
fn parallel_agrees_across_job_counts() {
    let mut cases: Vec<History> = litmus_suite().iter().map(|t| t.history.clone()).collect();
    cases.extend((1000..1200u64).map(|seed| random_history(&mut SmallRng::seed_from_u64(seed))));
    // The models that exercise all three parallel drivers: the single
    // shared view (SC), the store-order fan-out (TSO), and the
    // independent per-processor views (PRAM, causal).
    let model_list = [
        models::sc(),
        models::tso(),
        models::pram(),
        models::causal(),
    ];
    let cfg = CheckConfig::default();
    for (ci, h) in cases.iter().enumerate() {
        for spec in &model_list {
            let seq = check_with_config(h, spec, &cfg);
            for jobs in [1usize, 2, 4, 8] {
                let (par, _) = check_parallel(h, spec, &cfg, jobs);
                assert_eq!(
                    par.decided(),
                    seq.decided(),
                    "case {ci} {} jobs={jobs}: {seq:?} vs {par:?}\n{h}",
                    spec.name
                );
                if let Verdict::Allowed(w) = &par {
                    verify_witness(h, spec, w).unwrap_or_else(|e| {
                        panic!("case {ci} {} jobs={jobs}: bad witness: {e}\n{h}", spec.name)
                    });
                }
            }
        }
    }
}

/// TSO histories with more (store order × processor) units than the
/// work-stealing fan-out preprocesses take the coarse one-task-per-store-
/// order path, and it decides exactly like the sequential checker. Each
/// history has 3 + 3 + 2 writes on three processors: 8!/(3!·3!·2!) = 560
/// store orders, so 1680 units, above the 1024-unit stealing cap and well
/// under `store_order_cap`. The padding writes to `z` multiply the store
/// orders without touching the verdict: store buffering stays allowed,
/// message passing stays forbidden.
#[test]
fn tso_over_steal_cap_takes_coarse_store_order_path() {
    let cfg = CheckConfig {
        parallel_cutover: 0,
        ..CheckConfig::default()
    };
    let tso = models::tso();
    let over_cap = [
        "p: w(x)1 w(z)1 w(z)2 r(y)0\nq: w(y)1 w(z)3 w(z)4 r(x)0\nr: w(z)5 w(z)6",
        "p: w(x)1 w(y)1 w(z)1\nq: r(y)1 r(x)0 w(z)2 w(z)3 w(z)4\nr: w(z)5 w(z)6",
    ];
    let mut decided = Vec::new();
    for text in over_cap {
        let h = parse_history(text).expect("fixture parses");
        let seq = check_with_config(&h, &tso, &cfg);
        decided.push(seq.decided().expect("sequential check decides"));
        for jobs in [2usize, 4] {
            let (par, stats) = check_parallel(&h, &tso, &cfg, jobs);
            assert_eq!(par.decided(), seq.decided(), "jobs={jobs}\n{h}");
            assert!(
                !stats.work_stealing_ran,
                "jobs={jobs}: over-cap history ran the stealing fan-out\n{h}"
            );
            if let Verdict::Allowed(w) = &par {
                verify_witness(&h, &tso, w)
                    .unwrap_or_else(|e| panic!("jobs={jobs}: bad witness: {e}\n{h}"));
            }
        }
    }
    assert_eq!(decided, [true, false], "fixtures lost their verdicts");
    // Control: a history under the cap does run the stealing fan-out, so
    // the flag above really tells the two paths apart.
    let small = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").expect("fixture parses");
    let (_, stats) = check_parallel(&small, &tso, &cfg, 2);
    assert!(stats.work_stealing_ran);
}
