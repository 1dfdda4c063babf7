//! Parallel batch checking: fan (history × model) pairs — or the inner
//! enumerations of a single check — across a thread pool.
//!
//! Three entry points, all built on [`crate::budget::SharedBudget`] and
//! `std::thread::scope` (no external runtime):
//!
//! * [`check_batch`] — check many independent (history, model) pairs;
//!   workers pull pairs from a shared index, results come back in input
//!   order regardless of completion order.
//! * [`check_matrix`] — convenience wrapper: every history against every
//!   model, history-major.
//! * [`check_parallel`] — parallelize a *single* check: reads-from
//!   assignments fan out across workers drawing on one shared node pool,
//!   and for models with no shared orders the per-processor view searches
//!   run concurrently. The first worker to reach a verdict cancels the
//!   rest.
//!
//! Determinism: `check_batch`/`check_matrix` results are positionally
//! identical to running [`crate::checker::check_with_stats`] on each pair
//! (each pair gets its own budget of `cfg.node_budget` nodes, exactly as
//! in the sequential case). `check_parallel` returns the lowest-index
//! decided outcome; because its workers share one node pool it may
//! *decide* an instance where the sequential order of exploration
//! exhausts first, but it never contradicts a sequential `Allowed` or
//! `Disallowed`, and every `Allowed` carries a witness that
//! [`crate::verify::verify_witness`] accepts.

use crate::budget::{Budget, SharedBudget};
use crate::canon::canonicalize;
use crate::checker::{
    check_with_budget, check_with_rf, check_with_stats, check_with_store_order, proc_constraints,
    view_op_sets, CheckConfig, CheckStats, Stage, Step, Verdict, Witness,
};
use crate::constraints::{assemble_global, BaseOrders, Candidates};
use crate::memo::MemoCache;
use crate::rf::{enumerate_reads_from, ReadsFrom};
use crate::spec::ModelSpec;
use crate::steal::{run_units, steal_search, SharedFailedSet, StealDriver, Unit};
use crate::view::{LegalityMode, SearchOutcome, ViewProblem};
use smc_history::{History, OpId};
use smc_relation::BitSet;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Above this many (store order × processor) units, the work-stealing
/// TSO fan-out would preprocess too many scheduling contexts up front;
/// the coarse per-store-order fan-out takes over.
const STEAL_UNIT_CAP: usize = 1024;

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Outcome of one (history, model) pair in a batch.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Position of the pair in the input slice.
    pub index: usize,
    /// The checker's answer for this pair.
    pub verdict: Verdict,
    /// Work accounting for this pair.
    pub stats: CheckStats,
}

/// Check every (history, model) pair on up to `jobs` worker threads.
///
/// `results[i]` always corresponds to `pairs[i]`; each pair is checked
/// under its own `cfg.node_budget`, so verdicts are identical to calling
/// [`crate::checker::check_with_config`] on each pair in turn.
pub fn check_batch(
    pairs: &[(&History, &ModelSpec)],
    cfg: &CheckConfig,
    jobs: usize,
) -> Vec<BatchResult> {
    let jobs = jobs.max(1).min(pairs.len().max(1));
    if jobs <= 1 || pairs.len() <= 1 {
        return pairs
            .iter()
            .enumerate()
            .map(|(index, (h, m))| {
                let (verdict, stats) = check_with_stats(h, m, cfg);
                BatchResult {
                    index,
                    verdict,
                    stats,
                }
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<BatchResult>>> =
        Mutex::new((0..pairs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= pairs.len() {
                    break;
                }
                let (h, m) = pairs[index];
                let (verdict, stats) = check_with_stats(h, m, cfg);
                let done = BatchResult {
                    index,
                    verdict,
                    stats,
                };
                match slots.lock() {
                    Ok(mut slots) => slots[index] = Some(done),
                    // A sibling panicked while holding the lock; the
                    // scope is about to propagate that panic anyway.
                    Err(_) => break,
                }
            });
        }
    });
    let slots = match slots.into_inner() {
        Ok(slots) => slots,
        Err(poisoned) => poisoned.into_inner(),
    };
    slots
        .into_iter()
        .enumerate()
        .map(|(index, r)| {
            r.unwrap_or_else(|| BatchResult {
                index,
                verdict: Verdict::Exhausted,
                stats: CheckStats::default(),
            })
        })
        .collect()
}

/// Check every history against every model, history-major: the result for
/// `(histories[i], models[j])` is at index `i * models.len() + j`.
pub fn check_matrix(
    histories: &[History],
    models: &[ModelSpec],
    cfg: &CheckConfig,
    jobs: usize,
) -> Vec<BatchResult> {
    let pairs: Vec<(&History, &ModelSpec)> = histories
        .iter()
        .flat_map(|h| models.iter().map(move |m| (h, m)))
        .collect();
    check_batch(&pairs, cfg, jobs)
}

/// `true` if the model requires no agreement between views beyond the
/// reads-from assignment — the case in which per-processor view searches
/// are fully independent and can run on separate threads.
fn views_decouple(spec: &ModelSpec) -> bool {
    !spec.identical_views && !spec.global_write_order && !spec.coherence && spec.labeled.is_none()
}

/// Run a single check on up to `jobs` threads sharing one pool of
/// `cfg.node_budget` search nodes.
///
/// Parallelism is chosen by the model's shape: reads-from assignments fan
/// out across workers (causal, PC, RC — any model that enumerates
/// explanations); for models with no shared orders (PRAM-like) the
/// per-processor view searches run concurrently; identical-views models
/// (SC) split the single global view search into work-stealing subtrees;
/// and global-write-order models (TSO) fan the store orders out (up to
/// `cfg.store_order_cap`, beyond which they stream sequentially).
/// Coherence and labeled-order enumerations fall back to
/// [`check_with_stats`]. All sub-searches inherit the caller's
/// `CheckConfig` (budget, caps) rather than re-deriving defaults.
pub fn check_parallel(
    h: &History,
    spec: &ModelSpec,
    cfg: &CheckConfig,
    jobs: usize,
) -> (Verdict, CheckStats) {
    // Worker-count sanity: like `check_batch`'s `jobs.min(pairs.len())`
    // clamp above, every fan-out below caps its thread count by the work
    // actually available (reads-from assignments, processors, store
    // orders, view operations), so an oversubscribed `--jobs` never
    // spawns workers that only pay pool/cancel setup.
    let jobs = jobs.max(1);
    if jobs == 1 {
        // The sequential checker consults the memo itself.
        let (verdict, mut stats) = check_with_stats(h, spec, cfg);
        stats.ran_sequential = !stats.memo_hit;
        return (verdict, stats);
    }
    // Memoized path: consult and update the cache here, and run the
    // parallel engine below with the memo detached so the inner
    // sub-checks don't re-canonicalize.
    if let Some(memo) = &cfg.memo {
        let start = Instant::now();
        let canon = canonicalize(h);
        if let Some(hit) = memo.lookup(canon.key, spec.param_key()) {
            let stats = CheckStats {
                memo_hit: true,
                wall: start.elapsed(),
                ..CheckStats::default()
            };
            return (MemoCache::rehydrate(&canon, hit), stats);
        }
        let inner = CheckConfig {
            memo: None,
            ..cfg.clone()
        };
        let (verdict, stats) = check_parallel_inner(h, spec, &inner, jobs);
        memo.record(&canon, spec.param_key(), &verdict);
        return (verdict, stats);
    }
    check_parallel_inner(h, spec, cfg, jobs)
}

fn check_parallel_inner(
    h: &History,
    spec: &ModelSpec,
    cfg: &CheckConfig,
    jobs: usize,
) -> (Verdict, CheckStats) {
    if let Err(e) = spec.validate() {
        return (Verdict::Unsupported(e), CheckStats::default());
    }
    let start = Instant::now();
    // The saturation engine never enumerates, so there is no fan-out to
    // parallelize; run it directly under the full node budget. This is
    // how big-history checks reach the engine through `check_parallel`
    // (and through the monitor's batch fallback) without every caller
    // re-implementing the routing.
    if cfg.resolve_engine(h, spec) == crate::checker::Engine::Saturate {
        let (verdict, mut stats) = check_with_stats(h, spec, cfg);
        stats.ran_sequential = !stats.memo_hit;
        return finish(verdict, stats, start);
    }
    // Adaptive sequential cutover: most instances (every litmus-sized
    // one) decide in far fewer nodes than the fixed cost of spawning
    // workers and zeroing a shared failed-state set is worth, so run a
    // budget-bounded sequential probe first and fan out only if it
    // exhausts. The probe explores exactly like `--jobs 1`, so a probe
    // decision (verdict and witness) is bit-identical to the sequential
    // checker's; on fall-through the wasted work is bounded by
    // `cfg.parallel_cutover` nodes.
    if cfg.parallel_cutover > 0 {
        let probe_budget = cfg.parallel_cutover.min(cfg.node_budget);
        let probe = Budget::local(probe_budget);
        let (verdict, mut stats) = check_with_budget(h, spec, cfg, &probe);
        stats.probe_nodes = probe.spent();
        if !matches!(verdict, Verdict::Exhausted) || probe_budget >= cfg.node_budget {
            // Decided — or the probe already had the full node budget,
            // in which case a parallel re-run could only re-cover the
            // same exhausted space.
            stats.ran_sequential = true;
            return finish(verdict, stats, start);
        }
        let probe_nodes = probe.spent();
        let (verdict, mut stats) = fan_out(h, spec, cfg, jobs, start);
        stats.probe_nodes = probe_nodes;
        stats.nodes_spent += probe_nodes;
        stats.wall = start.elapsed();
        return (verdict, stats);
    }
    fan_out(h, spec, cfg, jobs, start)
}

/// The parallel dispatch proper: pick a fan-out strategy from the
/// model's shape and run it. Reached only when the cutover probe is
/// disabled or has exhausted its node budget.
fn fan_out(
    h: &History,
    spec: &ModelSpec,
    cfg: &CheckConfig,
    jobs: usize,
    start: Instant,
) -> (Verdict, CheckStats) {
    let base = BaseOrders::new(h);

    let (verdict, mut stats) = if spec.needs_reads_from() {
        let (rfs, truncated) = enumerate_reads_from(h, cfg.max_rf);
        if rfs.is_empty() {
            (Verdict::Disallowed, CheckStats::default())
        } else if rfs.len() == 1 && views_decouple(spec) {
            parallel_views(h, spec, &base, Some(&rfs[0]), cfg, jobs)
        } else {
            let (v, mut st) = parallel_rf(h, spec, &base, &rfs, cfg, jobs);
            if truncated {
                st.rf_truncated = true;
                if v.is_disallowed() {
                    st.exhausted_stage = Some(Stage::ReadsFrom);
                    return finish(Verdict::Exhausted, st, start);
                }
            }
            (v, st)
        }
    } else if views_decouple(spec) {
        parallel_views(h, spec, &base, None, cfg, jobs)
    } else if spec.identical_views {
        // SC-like: split the single global view search into
        // work-stealing frontier tasks over one shared pool.
        parallel_identical_views(h, spec, &base, cfg, jobs)
    } else if spec.global_write_order {
        // TSO-like: collect the store orders up front and fan them out.
        match parallel_store_orders(h, spec, &base, cfg, jobs) {
            Some(r) => r,
            // Too many store orders to collect: stream them sequentially.
            None => return check_with_stats(h, spec, cfg),
        }
    } else {
        // Coherence and labeled-order enumerations are inherently
        // sequential in this engine; use the plain checker.
        return check_with_stats(h, spec, cfg);
    };
    stats.wall = start.elapsed();
    (verdict, stats)
}

fn finish(v: Verdict, mut stats: CheckStats, start: Instant) -> (Verdict, CheckStats) {
    stats.wall = start.elapsed();
    (v, stats)
}

/// Fan the reads-from assignments across workers sharing one node pool;
/// the first decided outcome cancels the remaining workers.
fn parallel_rf(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    rfs: &[ReadsFrom],
    cfg: &CheckConfig,
    jobs: usize,
) -> (Verdict, CheckStats) {
    let pool = SharedBudget::new(cfg.node_budget);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Step>>> = Mutex::new((0..rfs.len()).map(|_| None).collect());
    let tried = AtomicUsize::new(0);
    let nodes = Mutex::new(0u64);

    let jobs = jobs.min(rfs.len());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                let budget = pool.attach();
                loop {
                    if pool.is_cancelled() {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= rfs.len() {
                        break;
                    }
                    tried.fetch_add(1, Ordering::Relaxed);
                    let step = check_with_rf(h, spec, base, Some(&rfs[index]), &budget);
                    // A decided outcome (witness found, or the model is
                    // out of scope) makes the remaining assignments moot.
                    if matches!(step, Step::Allowed(_) | Step::Unsupported(_)) {
                        pool.cancel();
                    }
                    if let Ok(mut slots) = slots.lock() {
                        slots[index] = Some(step);
                    } else {
                        break;
                    }
                }
                budget.release();
                if let Ok(mut nodes) = nodes.lock() {
                    *nodes += budget.spent();
                }
            });
        }
    });

    let slots = match slots.into_inner() {
        Ok(s) => s,
        Err(p) => p.into_inner(),
    };
    let mut stats = CheckStats {
        nodes_spent: match nodes.into_inner() {
            Ok(n) => n,
            Err(p) => p.into_inner(),
        },
        rf_assignments_tried: tried.load(Ordering::Relaxed),
        ..CheckStats::default()
    };

    // Lowest-index decided outcome wins; cancelled or genuinely exhausted
    // workers leave `Exhausted`/`None` slots that only matter if nothing
    // was decided anywhere.
    let mut exhausted: Option<Stage> = None;
    let mut skipped = false;
    for slot in slots {
        match slot {
            Some(Step::Allowed(w)) => return (Verdict::Allowed(w), stats),
            Some(Step::Unsupported(e)) => return (Verdict::Unsupported(e), stats),
            Some(Step::Disallowed) => {}
            Some(Step::Exhausted(stage)) => exhausted = exhausted.or(Some(stage)),
            None => skipped = true,
        }
    }
    match exhausted {
        Some(stage) => {
            stats.exhausted_stage = Some(stage);
            (Verdict::Exhausted, stats)
        }
        // `skipped` without a decided slot can only mean cancellation
        // raced a decided outcome that then failed to record; treat as
        // exhaustion rather than claiming `Disallowed` for unchecked rfs.
        None if skipped => {
            stats.exhausted_stage = Some(Stage::ReadsFrom);
            (Verdict::Exhausted, stats)
        }
        None => (Verdict::Disallowed, stats),
    }
}

/// Driver for independent per-processor view units: the history is
/// admitted iff *every* unit finds a view, so the run is decided early
/// either when the last missing view lands or when any unit is refuted.
struct AllViewsDriver {
    views: Mutex<Vec<Option<Vec<OpId>>>>,
    missing: AtomicUsize,
    refuted: AtomicBool,
}

impl StealDriver for AllViewsDriver {
    fn found(&self, unit: usize, order: Vec<OpId>) -> bool {
        let mut views = lock(&self.views);
        if views[unit].is_none() {
            views[unit] = Some(order);
            return self.missing.fetch_sub(1, Ordering::SeqCst) == 1;
        }
        false
    }

    fn refuted(&self, _unit: usize) -> bool {
        self.refuted.store(true, Ordering::SeqCst);
        true
    }

    fn skip(&self, _unit: usize) -> bool {
        false
    }
}

/// Search each processor's view concurrently (models with no shared
/// orders, so the views are independent once the reads-from assignment —
/// if any — is fixed). All processors' searches feed one work-stealing
/// task pool; any processor with no legal view refutes the whole history
/// and cancels the sibling searches.
fn parallel_views(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    rf: Option<&ReadsFrom>,
    cfg: &CheckConfig,
    jobs: usize,
) -> (Verdict, CheckStats) {
    let legality = match rf {
        Some(rf) => LegalityMode::ByReadsFrom(rf),
        None => LegalityMode::ByValue,
    };
    let cand = Candidates::default();
    let g = match assemble_global(h, spec, base, rf, &cand, None) {
        Ok(g) => g,
        Err(e) => return (Verdict::Unsupported(e), CheckStats::default()),
    };
    let mut stats = CheckStats::default();
    if rf.is_some() {
        stats.rf_assignments_tried = 1;
    }
    if !g.is_acyclic() {
        return (Verdict::Disallowed, stats);
    }

    let op_sets = view_op_sets(h, spec.delta);
    let procs = h.num_procs();
    let constraints: Vec<_> = (0..procs)
        .map(|p| proc_constraints(h, spec, base, &g, p))
        .collect();
    let units: Vec<Unit<'_>> = (0..procs)
        .map(|p| Unit::from_parts(h, &op_sets[p], &constraints[p], legality, p as u64 + 1))
        .collect();
    let driver = AllViewsDriver {
        views: Mutex::new((0..procs).map(|_| None).collect()),
        missing: AtomicUsize::new(procs),
        refuted: AtomicBool::new(false),
    };
    let pool = SharedBudget::new(cfg.node_budget);
    let failed = SharedFailedSet::with_capacity(cfg.failed_set_capacity);
    let end = run_units(&units, &driver, jobs, &pool, &failed);
    stats.nodes_spent = end.nodes;
    stats.work_stealing_ran = true;
    stats.failed_set = failed.stats();
    if driver.refuted.load(Ordering::SeqCst) {
        return (Verdict::Disallowed, stats);
    }
    let views = std::mem::take(&mut *lock(&driver.views));
    if end.exhausted || views.iter().any(Option::is_none) {
        stats.exhausted_stage = Some(Stage::ViewSearch);
        return (Verdict::Exhausted, stats);
    }
    (
        Verdict::Allowed(Box::new(Witness {
            views: views.into_iter().flatten().collect(),
            store_order: None,
            coherence: None,
            labeled_order: None,
            reads_from: rf.map(|r| r.as_slice().to_vec()),
        })),
        stats,
    )
}

/// Parallelize an identical-views (SC-like) check: the single global
/// legal-extension search runs on the frontier scheduler in
/// [`crate::steal`], with workers stealing subtrees from each other and
/// sharing dead-state fingerprints through one [`SharedFailedSet`]. The
/// first complete legal order cancels the rest, and a search that runs
/// out of subtrees refutes the history exactly as the sequential DFS
/// would.
fn parallel_identical_views(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    cfg: &CheckConfig,
    jobs: usize,
) -> (Verdict, CheckStats) {
    let cand = Candidates::default();
    let g = match assemble_global(h, spec, base, None, &cand, None) {
        Ok(g) => g,
        Err(e) => return (Verdict::Unsupported(e), CheckStats::default()),
    };
    let mut stats = CheckStats::default();
    if !g.is_acyclic() {
        return (Verdict::Disallowed, stats);
    }
    let problem = ViewProblem {
        history: h,
        ops: BitSet::full(h.num_ops()),
        constraints: &g,
        legality: LegalityMode::ByValue,
    };
    let pool = SharedBudget::new(cfg.node_budget);
    let failed = SharedFailedSet::with_capacity(cfg.failed_set_capacity);
    let (out, nodes) = steal_search(&problem, jobs, &pool, &failed);
    stats.nodes_spent = nodes;
    stats.work_stealing_ran = true;
    stats.failed_set = failed.stats();
    match out {
        SearchOutcome::Found(order) => (
            Verdict::Allowed(Box::new(Witness {
                views: vec![order; h.num_procs()],
                store_order: None,
                coherence: None,
                labeled_order: None,
                reads_from: None,
            })),
            stats,
        ),
        SearchOutcome::NotFound => (Verdict::Disallowed, stats),
        SearchOutcome::Exhausted => {
            stats.exhausted_stage = Some(Stage::ViewSearch);
            (Verdict::Exhausted, stats)
        }
    }
}

/// Per-store-order state inside a [`StoreDriver`]: which processor views
/// have landed, and whether some processor already refuted this order.
struct StoreSlot {
    refuted: AtomicBool,
    missing: AtomicUsize,
    views: Mutex<Vec<Option<Vec<OpId>>>>,
}

/// Driver for global-write-order (TSO-like) checks: an OR over store
/// orders of an AND over processors. Unit `i` is processor `i % procs`
/// under store order slot `i / procs`. A slot whose every processor finds
/// a view decides the run (`Allowed`); a refuted unit kills only its own
/// slot — sibling units of that slot become skippable, and the workers
/// that were grinding on them steal subtrees from slots still alive.
struct StoreDriver {
    procs: usize,
    slots: Vec<StoreSlot>,
    /// Slot index of the first store order to complete, `usize::MAX` if
    /// none has.
    winner: AtomicUsize,
}

impl StealDriver for StoreDriver {
    fn found(&self, unit: usize, order: Vec<OpId>) -> bool {
        let slot = &self.slots[unit / self.procs];
        if slot.refuted.load(Ordering::SeqCst) {
            return false;
        }
        let mut views = lock(&slot.views);
        if views[unit % self.procs].is_none() {
            views[unit % self.procs] = Some(order);
            if slot.missing.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _ = self.winner.compare_exchange(
                    usize::MAX,
                    unit / self.procs,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                return true;
            }
        }
        false
    }

    fn refuted(&self, unit: usize) -> bool {
        self.slots[unit / self.procs]
            .refuted
            .store(true, Ordering::SeqCst);
        false
    }

    fn skip(&self, unit: usize) -> bool {
        self.slots[unit / self.procs].refuted.load(Ordering::SeqCst)
    }
}

/// Run the collected store orders on the work-stealing scheduler: one
/// unit per (store order, processor), all feeding one task pool and one
/// failed-state set, so a worker that finishes its store order steals
/// extension subtrees from the others instead of idling.
#[allow(clippy::too_many_arguments)]
fn steal_store_orders(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    cfg: &CheckConfig,
    jobs: usize,
    pool: &Arc<SharedBudget>,
    stores: &[Vec<OpId>],
    seed_spent: u64,
    collect_exhausted: bool,
) -> (Verdict, CheckStats) {
    let procs = h.num_procs();
    let op_sets = view_op_sets(h, spec.delta);
    let mut stats = CheckStats {
        nodes_spent: seed_spent,
        ..CheckStats::default()
    };

    // Preprocess each store order into per-processor units. A store order
    // whose assembled global relation is cyclic is refuted without any
    // search, exactly as the sequential per-order check rejects it early.
    let mut units: Vec<Unit<'_>> = Vec::new();
    let mut kept: Vec<usize> = Vec::new();
    let mut slots: Vec<StoreSlot> = Vec::new();
    for (si, store) in stores.iter().enumerate() {
        let cand = Candidates {
            store_order: Some(store),
            ..Candidates::default()
        };
        let g = match assemble_global(h, spec, base, None, &cand, None) {
            Ok(g) => g,
            Err(e) => return (Verdict::Unsupported(e), stats),
        };
        if !g.is_acyclic() {
            continue;
        }
        kept.push(si);
        slots.push(StoreSlot {
            refuted: AtomicBool::new(false),
            missing: AtomicUsize::new(procs),
            views: Mutex::new((0..procs).map(|_| None).collect()),
        });
        for (p, ops) in op_sets.iter().enumerate() {
            let constraints = proc_constraints(h, spec, base, &g, p);
            let salt = units.len() as u64 + 1;
            units.push(Unit::from_parts(
                h,
                ops,
                &constraints,
                LegalityMode::ByValue,
                salt,
            ));
        }
    }

    // No processors: any store order that survived assembly admits the
    // history vacuously (no views to find).
    if procs == 0 {
        return match kept.first() {
            Some(&si) => (
                Verdict::Allowed(Box::new(Witness {
                    views: Vec::new(),
                    store_order: Some(stores[si].clone()),
                    coherence: None,
                    labeled_order: None,
                    reads_from: None,
                })),
                stats,
            ),
            None if collect_exhausted => {
                stats.exhausted_stage = Some(Stage::StoreOrders);
                (Verdict::Exhausted, stats)
            }
            None => (Verdict::Disallowed, stats),
        };
    }

    let driver = StoreDriver {
        procs,
        slots,
        winner: AtomicUsize::new(usize::MAX),
    };
    let failed = SharedFailedSet::with_capacity(cfg.failed_set_capacity);
    let end = run_units(&units, &driver, jobs, pool, &failed);
    stats.nodes_spent = seed_spent + end.nodes;
    stats.work_stealing_ran = true;
    stats.failed_set = failed.stats();

    let winner = driver.winner.load(Ordering::SeqCst);
    if winner != usize::MAX {
        let views = std::mem::take(&mut *lock(&driver.slots[winner].views));
        let views: Vec<Vec<OpId>> = views.into_iter().flatten().collect();
        // `winner` is only set once every processor's view landed.
        debug_assert_eq!(views.len(), procs);
        if views.len() == procs {
            return (
                Verdict::Allowed(Box::new(Witness {
                    views,
                    store_order: Some(stores[kept[winner]].clone()),
                    coherence: None,
                    labeled_order: None,
                    reads_from: None,
                })),
                stats,
            );
        }
    }
    if end.exhausted || collect_exhausted {
        stats.exhausted_stage = Some(if end.exhausted {
            Stage::ViewSearch
        } else {
            Stage::StoreOrders
        });
        return (Verdict::Exhausted, stats);
    }
    (Verdict::Disallowed, stats)
}

/// Parallelize a global-write-order (TSO-like) check: collect the store
/// orders up front (bounded by `cfg.store_order_cap`), then fan them out.
/// Every (store order, processor) pair becomes a work-stealing unit
/// ([`steal_store_orders`]) unless that grid would exceed
/// [`STEAL_UNIT_CAP`]; then each store order is one coarse task, the only
/// parallel path for such inputs. Returns `None` when the enumeration
/// exceeds the cap, in which case the caller streams the orders
/// sequentially.
fn parallel_store_orders(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    cfg: &CheckConfig,
    jobs: usize,
) -> Option<(Verdict, CheckStats)> {
    let writes = BitSet::from_iter(
        h.num_ops(),
        h.ops()
            .iter()
            .filter(|o| o.is_write())
            .map(|o| o.id.index()),
    );
    let pool = SharedBudget::new(cfg.node_budget);
    let seed = pool.attach();
    let mut stores: Vec<Vec<OpId>> = Vec::new();
    let mut over_cap = false;
    let mut collect_exhausted = false;
    let _ = smc_relation::linext::for_each_linear_extension(&base.ppo, &writes, |ext| {
        if stores.len() >= cfg.store_order_cap {
            over_cap = true;
            return ControlFlow::Break(());
        }
        // Mirror the sequential loop's cost: one budget unit per order.
        if !seed.try_spend() {
            collect_exhausted = true;
            return ControlFlow::Break(());
        }
        stores.push(ext.iter().map(|&i| OpId(i as u32)).collect());
        ControlFlow::Continue(())
    });
    seed.release();
    let seed_spent = seed.spent();
    if over_cap {
        return None;
    }

    if stores.len().saturating_mul(h.num_procs().max(1)) <= STEAL_UNIT_CAP {
        return Some(steal_store_orders(
            h,
            spec,
            base,
            cfg,
            jobs,
            &pool,
            &stores,
            seed_spent,
            collect_exhausted,
        ));
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Step>>> = Mutex::new((0..stores.len()).map(|_| None).collect());
    let nodes = Mutex::new(seed_spent);
    let workers = jobs.min(stores.len().max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let budget = pool.attach();
                loop {
                    if pool.is_cancelled() {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= stores.len() {
                        break;
                    }
                    let step = check_with_store_order(
                        h,
                        spec,
                        base,
                        None,
                        LegalityMode::ByValue,
                        &stores[i],
                        &budget,
                    );
                    if matches!(step, Step::Allowed(_) | Step::Unsupported(_)) {
                        pool.cancel();
                    }
                    if let Ok(mut slots) = slots.lock() {
                        slots[i] = Some(step);
                    } else {
                        break;
                    }
                }
                budget.release();
                if let Ok(mut nodes) = nodes.lock() {
                    *nodes += budget.spent();
                }
            });
        }
    });

    let slots = match slots.into_inner() {
        Ok(s) => s,
        Err(p) => p.into_inner(),
    };
    let mut stats = CheckStats {
        nodes_spent: match nodes.into_inner() {
            Ok(n) => n,
            Err(p) => p.into_inner(),
        },
        ..CheckStats::default()
    };
    let mut exhausted: Option<Stage> = None;
    let mut skipped = false;
    for slot in slots {
        match slot {
            Some(Step::Allowed(w)) => return Some((Verdict::Allowed(w), stats)),
            Some(Step::Unsupported(e)) => return Some((Verdict::Unsupported(e), stats)),
            Some(Step::Disallowed) => {}
            Some(Step::Exhausted(stage)) => exhausted = exhausted.or(Some(stage)),
            None => skipped = true,
        }
    }
    if collect_exhausted {
        exhausted = exhausted.or(Some(Stage::StoreOrders));
    }
    if skipped {
        exhausted = exhausted.or(Some(Stage::ViewSearch));
    }
    Some(match exhausted {
        Some(stage) => {
            stats.exhausted_stage = Some(stage);
            (Verdict::Exhausted, stats)
        }
        None => (Verdict::Disallowed, stats),
    })
}

/// Run a whole batch against one shared node pool (used by callers that
/// want a global ceiling across many checks rather than a per-check
/// budget; verdicts may then differ from per-check budgeting by
/// exhausting earlier).
pub fn check_batch_shared(
    pairs: &[(&History, &ModelSpec)],
    cfg: &CheckConfig,
    jobs: usize,
    pool_nodes: u64,
) -> Vec<BatchResult> {
    let jobs = jobs.max(1).min(pairs.len().max(1));
    let pool = SharedBudget::new(pool_nodes);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<BatchResult>>> =
        Mutex::new((0..pairs.len()).map(|_| None).collect());
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                let budget = pool.attach();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= pairs.len() {
                        break;
                    }
                    let (h, m) = pairs[index];
                    let (verdict, stats) = check_with_budget(h, m, cfg, &budget);
                    let done = BatchResult {
                        index,
                        verdict,
                        stats,
                    };
                    match slots.lock() {
                        Ok(mut slots) => slots[index] = Some(done),
                        Err(_) => break,
                    }
                }
                budget.release();
            });
        }
    });
    let slots = match slots.into_inner() {
        Ok(s) => s,
        Err(p) => p.into_inner(),
    };
    slots
        .into_iter()
        .enumerate()
        .map(|(index, r)| {
            r.unwrap_or_else(|| BatchResult {
                index,
                verdict: Verdict::Exhausted,
                stats: CheckStats::default(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_with_config;
    use crate::models;
    use crate::verify::verify_witness;
    use smc_history::litmus::parse_history;

    fn figures() -> Vec<History> {
        [
            "p: w(x)1 r(y)0\nq: w(y)1 r(x)0",
            "p: w(x)1\nq: r(x)1 w(y)1\nr: r(y)1 r(x)0",
            "p: w(x)1 r(x)1 r(x)2\nq: w(x)2 r(x)2 r(x)1",
            "p: w(x)1 w(y)1\nq: r(y)1 w(z)1 r(x)2\nr: w(x)2 r(x)1 r(z)1 r(y)1",
            "p: w(x)5\nq: w(x)5\nr: r(x)5 r(x)5",
        ]
        .iter()
        .map(|t| parse_history(t).expect("litmus fixture parses"))
        .collect()
    }

    #[test]
    fn batch_matches_sequential_on_figures() {
        let histories = figures();
        let models = models::all_models();
        let cfg = CheckConfig::default();
        let results = check_matrix(&histories, &models, &cfg, 4);
        assert_eq!(results.len(), histories.len() * models.len());
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.index, i);
            let h = &histories[i / models.len()];
            let m = &models[i % models.len()];
            let seq = check_with_config(h, m, &cfg);
            assert_eq!(
                r.verdict.decided(),
                seq.decided(),
                "{} on history {}",
                m.name,
                i / models.len()
            );
            if let Verdict::Allowed(w) = &r.verdict {
                verify_witness(h, m, w).expect("batch witness verifies");
            }
        }
    }

    #[test]
    fn batch_on_empty_input() {
        let cfg = CheckConfig::default();
        assert!(check_batch(&[], &cfg, 4).is_empty());
    }

    #[test]
    fn parallel_single_check_agrees() {
        let cfg = CheckConfig::default();
        for h in figures() {
            for m in models::all_models() {
                let seq = check_with_config(&h, &m, &cfg);
                let (par, stats) = check_parallel(&h, &m, &cfg, 4);
                if let (Some(a), Some(b)) = (seq.decided(), par.decided()) {
                    assert_eq!(a, b, "{} disagrees", m.name);
                }
                if let Verdict::Allowed(w) = &par {
                    verify_witness(&h, &m, w).expect("parallel witness verifies");
                    assert!(stats.nodes_spent > 0 || h.num_ops() == 0);
                }
            }
        }
    }

    #[test]
    fn parallel_views_refute_pram_violation() {
        // PRAM forbids reordering one processor's writes in another's view.
        let h = parse_history("p: w(x)1 w(y)1\nq: r(y)1 r(x)0").unwrap();
        let cfg = CheckConfig::default();
        let (v, _) = check_parallel(&h, &models::pram(), &cfg, 4);
        assert!(v.is_disallowed());
        assert!(check_with_config(&h, &models::pram(), &cfg).is_disallowed());
    }

    #[test]
    fn split_dfs_agrees_with_sequential_on_sc_and_tso() {
        let cfg = CheckConfig::default();
        for h in figures() {
            for m in [models::sc(), models::tso()] {
                let seq = check_with_config(&h, &m, &cfg);
                for jobs in [2, 4] {
                    let (par, _) = check_parallel(&h, &m, &cfg, jobs);
                    assert_eq!(
                        par.decided(),
                        seq.decided(),
                        "{} at jobs={jobs} disagrees",
                        m.name
                    );
                    if let Verdict::Allowed(w) = &par {
                        verify_witness(&h, &m, w).expect("split witness verifies");
                    }
                }
            }
        }
    }

    #[test]
    fn memoized_parallel_hits_across_renamings() {
        // The same history under a processor/location/value renaming must
        // hit the cache and still return a verifying witness.
        let a = parse_history("p: w(x)1\nq: r(x)1 w(y)1\nr: r(y)1 r(x)0").unwrap();
        let b = parse_history("u: w(c)7\nv: r(c)7 w(d)3\nw: r(d)3 r(c)0").unwrap();
        let cfg = CheckConfig::default().with_memo();
        let memo = cfg.memo.clone().unwrap();
        for m in [models::causal(), models::sc(), models::tso()] {
            let (va, _) = check_parallel(&a, &m, &cfg, 4);
            let (vb, sb) = check_parallel(&b, &m, &cfg, 4);
            assert_eq!(va.decided(), vb.decided(), "{} memo disagrees", m.name);
            assert!(sb.memo_hit, "{} second check missed the memo", m.name);
            if let Verdict::Allowed(w) = &vb {
                verify_witness(&b, &m, w).expect("rehydrated witness verifies");
            }
        }
        assert!(memo.stats().hits >= 3);
    }

    #[test]
    fn shared_pool_batch_exhausts_instead_of_lying() {
        let histories = figures();
        let models = [models::sc()];
        let cfg = CheckConfig::default();
        let pairs: Vec<(&History, &ModelSpec)> = histories
            .iter()
            .flat_map(|h| models.iter().map(move |m| (h, m)))
            .collect();
        // A pool far too small to decide anything: every result must be
        // Exhausted, never a fabricated decision.
        let results = check_batch_shared(&pairs, &cfg, 2, 1);
        assert!(results
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Exhausted)));
    }
}
