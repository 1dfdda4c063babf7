//! The decision procedure: is a history admitted by a model?
//!
//! Following Section 2, a history `H` is admitted by a model iff a legal
//! view `S_{p+δp}` exists for every processor, subject to the model's
//! parameters. The checker realizes the existential quantifiers as nested
//! enumerations:
//!
//! 1. **reads-from assignments** (only for models whose derived orders
//!    mention them),
//! 2. **store orders** (TSO's global write agreement),
//! 3. **coherence orders** (per-location write agreement),
//! 4. **labeled orders** (RC_sc's common SC order of labeled operations),
//! 5. a per-processor **legal-extension search** ([`crate::view`]) once
//!    all shared ingredients are fixed — at that point the views decouple
//!    and can be searched independently.
//!
//! Every `Allowed` verdict carries a [`Witness`] that
//! [`crate::verify::verify_witness`] can validate independently of the
//! search. Every enumeration charges a [`crate::budget::Budget`], so the
//! whole check runs under one node limit that can also be drawn from a
//! shared pool by the parallel drivers in [`crate::batch`].

use crate::budget::Budget;
use crate::canon::canonicalize;
use crate::coherence::{enumerate_coherence, CoherenceOrders};
use crate::constraints::{
    assemble_global, owner_edges, BaseOrders, Candidates, LabeledCtx, RcError,
};
use crate::memo::MemoCache;
use crate::rf::{enumerate_reads_from, ReadsFrom};
use crate::spec::{LabeledModel, ModelSpec, OperationSet};
use crate::view::{
    find_legal_extension, for_each_legal_extension, LegalityMode, SearchEnd, SearchOutcome,
    ViewProblem,
};
use smc_history::{History, OpId, ProcId};
use smc_relation::BitSet;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource limits for a check.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Maximum reads-from assignments to enumerate.
    pub max_rf: usize,
    /// Search-node budget shared across the whole check (view searches,
    /// candidate enumeration).
    pub node_budget: u64,
    /// An optional memo table consulted before (and updated after) each
    /// check: decided verdicts are shared across every history in the
    /// same renaming-symmetry class ([`crate::canon`]). `None` (the
    /// default) keeps the checker's output bit-identical to the
    /// unmemoized search — cached `Allowed` verdicts carry a *translated*
    /// witness, which verifies but need not be the same witness the
    /// search would find.
    pub memo: Option<Arc<MemoCache>>,
    /// Maximum store orders [`crate::batch::check_parallel`] collects
    /// up-front when fanning a TSO-style check across workers; above the
    /// cap it falls back to the sequential streaming enumeration.
    pub store_order_cap: usize,
    /// Capacity (fingerprint slots) of the shared failed-state set one
    /// work-stealing check allocates; see
    /// [`crate::steal::SharedFailedSet`].
    pub failed_set_capacity: usize,
    /// Adaptive-cutover threshold for [`crate::batch::check_parallel`]:
    /// before spawning any workers, a bounded sequential probe runs under
    /// a budget of this many search nodes. If the probe decides, the
    /// check is over — litmus-sized instances never pay thread-spawn or
    /// shared-pool setup, so `--jobs 4` is never slower than `--jobs 1`
    /// beyond noise. Only when the probe exhausts its budget does the
    /// check fan out, and the wasted work is bounded by this threshold
    /// (the Cilk rule: never parallelize below a measured work
    /// threshold). `0` disables the probe and always fans out.
    pub parallel_cutover: u64,
    /// Which checking backend decides: the exhaustive enumerating
    /// search, the order-constraint saturation engine
    /// ([`crate::saturate`]), or an automatic choice by model support
    /// and history size.
    pub engine: EngineKind,
    /// The `engine: Auto` size threshold: histories with more than this
    /// many operations route to the saturation engine when the model
    /// supports it, mirroring [`CheckConfig::parallel_cutover`]'s
    /// never-pessimize rule — litmus-sized checks keep the exhaustive
    /// path (and its bit-identical verdicts/witnesses), big histories
    /// get the engine that can actually decide them.
    pub engine_cutover: usize,
    /// The `engine: Auto` size threshold for models with *no* shared
    /// write structure (no global write order, no coherence — SC, PRAM,
    /// causal). Their exhaustive searches have no factorial store-order
    /// enumeration to fall into, so the crossover point sits higher
    /// than [`CheckConfig::engine_cutover`]: benchmarks show the
    /// saturation engine ~2.7× slower on 16-op structure-free traces.
    pub engine_cutover_unstructured: usize,
    /// Conflict-driven learning in the saturation engine: derive a
    /// reason cut from every conflict, backjump over unblamed decisions,
    /// and memoize exhausted decision sets in a nogood store so
    /// aliasing-symmetric subtrees are pruned. Disabling falls back to
    /// chronological backtracking (kept as a soundness ablation knob,
    /// property-tested in `tests/saturate_learning.rs`).
    pub saturate_learning: bool,
    /// Luby restart unit for the saturation engine: restart after
    /// `unit × luby(i)` conflicts, keeping learned nogoods and activity
    /// scores. `0` disables restarts.
    pub saturate_restart_unit: u64,
}

/// Which checking backend [`check_with_config`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Always the exhaustive enumerating checker.
    Exhaustive,
    /// Always the order-constraint saturation engine
    /// ([`crate::saturate`]); models it does not support return
    /// [`Verdict::Unsupported`].
    Saturate,
    /// Saturate when [`crate::saturate::supports`] the model and the
    /// history has more than [`CheckConfig::engine_cutover`] operations;
    /// exhaustive otherwise.
    #[default]
    Auto,
}

/// The backend that actually ran a check (reported in
/// [`CheckStats::engine_used`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The exhaustive enumerating checker.
    #[default]
    Exhaustive,
    /// The order-constraint saturation engine.
    Saturate,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Exhaustive => "exhaustive",
            Engine::Saturate => "saturate",
        })
    }
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_rf: 4096,
            node_budget: 20_000_000,
            memo: None,
            store_order_cap: 16_384,
            failed_set_capacity: crate::steal::DEFAULT_FAILED_CAPACITY,
            // ~1.2ms of sequential probing at measured search rates — a
            // few times the thread-spawn + failed-set setup cost it can
            // save, while the corpus's litmus-sized checks (tens to a few
            // thousand nodes) always decide inside the probe.
            parallel_cutover: 4096,
            engine: EngineKind::Auto,
            // Corpus litmus tests top out around a dozen operations;
            // above that the exhaustive enumerations start losing to the
            // polynomial-per-decision saturation engine.
            engine_cutover: 16,
            // Without a store order or coherence to enumerate, the
            // exhaustive engine stays competitive to roughly twice that
            // size (BENCH_bighist.json: SC_ops_16 exhaustive beats
            // saturate 2.7×).
            engine_cutover_unstructured: 32,
            saturate_learning: true,
            // Conservative Luby unit: long enough that litmus-sized
            // searches finish inside the first window, short enough to
            // escape heavy-tailed subtrees on 1000-op aliased traces.
            saturate_restart_unit: 256,
        }
    }
}

impl CheckConfig {
    /// This configuration with a fresh memo table of the default
    /// capacity attached.
    pub fn with_memo(self) -> Self {
        CheckConfig {
            memo: Some(Arc::new(MemoCache::default())),
            ..self
        }
    }

    /// The backend this configuration selects for `(h, spec)`.
    pub fn resolve_engine(&self, h: &History, spec: &ModelSpec) -> Engine {
        match self.engine {
            EngineKind::Exhaustive => Engine::Exhaustive,
            EngineKind::Saturate => Engine::Saturate,
            EngineKind::Auto => {
                // Model-aware cutover: models whose exhaustive search
                // enumerates a shared write structure (store orders,
                // coherence orders) blow up earliest; structure-free
                // models keep the exhaustive engine longer.
                let cutover = if spec.global_write_order || spec.coherence {
                    self.engine_cutover
                } else {
                    self.engine_cutover_unstructured
                };
                if crate::saturate::supports(spec) && h.num_ops() > cutover {
                    Engine::Saturate
                } else {
                    Engine::Exhaustive
                }
            }
        }
    }
}

/// The enumeration layer in which a check ran out of budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The reads-from enumeration was truncated at `max_rf` assignments.
    ReadsFrom,
    /// Enumerating TSO's global store orders.
    StoreOrders,
    /// Enumerating per-location coherence orders.
    CoherenceOrders,
    /// Enumerating common orders of the labeled operations.
    LabeledOrders,
    /// Searching a per-processor legal view.
    ViewSearch,
    /// Propagating order constraints in the saturation engine
    /// ([`crate::saturate`]).
    Saturation,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stage::ReadsFrom => "reads-from enumeration",
            Stage::StoreOrders => "store-order enumeration",
            Stage::CoherenceOrders => "coherence-order enumeration",
            Stage::LabeledOrders => "labeled-order enumeration",
            Stage::ViewSearch => "view search",
            Stage::Saturation => "constraint saturation",
        })
    }
}

/// How much work a check did, reported alongside its [`Verdict`].
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Search nodes charged to the budget.
    pub nodes_spent: u64,
    /// Reads-from assignments the check started on.
    pub rf_assignments_tried: usize,
    /// `true` if the reads-from enumeration hit `max_rf` before listing
    /// every assignment.
    pub rf_truncated: bool,
    /// Wall-clock time of the check.
    pub wall: Duration,
    /// Where the budget ran out, for `Exhausted` verdicts.
    pub exhausted_stage: Option<Stage>,
    /// `true` if the verdict came from the memo table rather than a
    /// search.
    pub memo_hit: bool,
    /// `true` if the work-stealing scheduler actually ran for this
    /// check (as opposed to the sequential path or the coarse
    /// per-store-order fan-out).
    /// Gates reporting of [`CheckStats::failed_set`]: all-zero counters
    /// from a real stealing run are still meaningful, while counters
    /// from a path that never touched the set are not.
    pub work_stealing_ran: bool,
    /// Counters of the shared failed-state set, when the check ran under
    /// the work-stealing scheduler (all zero otherwise).
    pub failed_set: crate::steal::FailedSetStats,
    /// `true` if [`crate::batch::check_parallel`] answered without
    /// spawning workers: the `jobs == 1` path, or the adaptive cutover's
    /// sequential probe deciding within
    /// [`CheckConfig::parallel_cutover`] nodes. Mirrors the
    /// [`CheckStats::work_stealing_ran`] gating: `false` from a plain
    /// sequential entry point ([`check_with_stats`]) or a memo hit means
    /// "no cutover decision was taken", not "workers ran".
    pub ran_sequential: bool,
    /// Search nodes the cutover probe spent before deciding (counted in
    /// [`CheckStats::nodes_spent`] too), or before giving up and fanning
    /// out. Zero when no probe ran.
    pub probe_nodes: u64,
    /// The backend that produced the verdict. Stays at the default
    /// ([`Engine::Exhaustive`]) on a memo hit, where no engine ran —
    /// [`CheckStats::memo_hit`] disambiguates.
    pub engine_used: Engine,
    /// Closure edges the saturation engine inserted (each also charged
    /// one budget node). Zero under the exhaustive engine.
    pub saturation_steps: u64,
    /// Decisions (reads-from picks, recency-triple orientations, write
    /// pair orderings) the saturation engine's backtracking solver made.
    pub saturation_branches: u64,
    /// Watched-constraint wakeups: reads-from candidates killed plus
    /// recency triples re-examined, each triggered by one inserted edge
    /// (never by a rescan).
    pub saturation_wakeups: u64,
    /// Conflicts the saturation engine's solver hit (including learned
    /// nogood hits).
    pub saturation_conflicts: u64,
    /// Nogoods (exhausted decision prefixes and conflict reason cuts)
    /// learned into the saturation engine's store.
    pub saturation_learned: u64,
    /// Luby restarts the saturation engine performed.
    pub saturation_restarts: u64,
}

/// A certificate that a history is admitted: the per-processor views plus
/// every enumerated shared ingredient that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// One legal view per processor, as sequences of operation ids.
    pub views: Vec<Vec<OpId>>,
    /// TSO's common store order, if the model required one.
    pub store_order: Option<Vec<OpId>>,
    /// Per-location coherence orders, if the model required them.
    pub coherence: Option<Vec<Vec<OpId>>>,
    /// RC_sc's common legal order of labeled operations.
    pub labeled_order: Option<Vec<OpId>>,
    /// The reads-from assignment the check was relative to.
    pub reads_from: Option<Vec<Option<OpId>>>,
}

/// The checker's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The history is admitted; a witness is attached.
    Allowed(Box<Witness>),
    /// The history is not admitted by the model.
    Disallowed,
    /// The resource budget ran out before the question was decided.
    Exhausted,
    /// The (history, model) combination is outside the checker's scope —
    /// currently only RC checks of histories that access a location with
    /// both labeled and ordinary operations.
    Unsupported(String),
}

impl Verdict {
    /// `true` for [`Verdict::Allowed`].
    pub fn is_allowed(&self) -> bool {
        matches!(self, Verdict::Allowed(_))
    }

    /// `true` for [`Verdict::Disallowed`].
    pub fn is_disallowed(&self) -> bool {
        matches!(self, Verdict::Disallowed)
    }

    /// `Some(true)` / `Some(false)` for decided verdicts, `None`
    /// otherwise.
    pub fn decided(&self) -> Option<bool> {
        match self {
            Verdict::Allowed(_) => Some(true),
            Verdict::Disallowed => Some(false),
            _ => None,
        }
    }
}

/// Check `h` against `spec` with default limits.
pub fn check(h: &History, spec: &ModelSpec) -> Verdict {
    check_with_config(h, spec, &CheckConfig::default())
}

/// Check `h` against `spec` under explicit resource limits.
pub fn check_with_config(h: &History, spec: &ModelSpec, cfg: &CheckConfig) -> Verdict {
    check_with_stats(h, spec, cfg).0
}

/// Check `h` against `spec`, also reporting how much work the check did.
pub fn check_with_stats(h: &History, spec: &ModelSpec, cfg: &CheckConfig) -> (Verdict, CheckStats) {
    let budget = Budget::local(cfg.node_budget);
    check_with_budget(h, spec, cfg, &budget)
}

/// [`check_with_stats`] against a caller-supplied budget — the entry point
/// the batch engine uses to run several checks against one shared pool.
pub(crate) fn check_with_budget(
    h: &History,
    spec: &ModelSpec,
    cfg: &CheckConfig,
    budget: &Budget,
) -> (Verdict, CheckStats) {
    let start = Instant::now();
    // Memoized path: consult the cache under the canonical history key;
    // a hit costs one canonicalization and a witness translation, no
    // search nodes.
    let canon = cfg.memo.as_ref().map(|memo| (memo, canonicalize(h)));
    if let Some((memo, canon)) = &canon {
        if let Some(hit) = memo.lookup(canon.key, spec.param_key()) {
            let stats = CheckStats {
                memo_hit: true,
                wall: start.elapsed(),
                ..CheckStats::default()
            };
            return (MemoCache::rehydrate(canon, hit), stats);
        }
    }
    let spent_before = budget.spent();
    let mut stats = CheckStats::default();
    let verdict = match cfg.resolve_engine(h, spec) {
        Engine::Saturate => {
            stats.engine_used = Engine::Saturate;
            crate::saturate::check_saturate(h, spec, cfg, budget, &mut stats)
        }
        Engine::Exhaustive => run_check(h, spec, cfg, budget, &mut stats),
    };
    stats.nodes_spent = budget.spent() - spent_before;
    stats.wall = start.elapsed();
    if !matches!(verdict, Verdict::Exhausted) {
        stats.exhausted_stage = None;
    }
    if let Some((memo, canon)) = &canon {
        memo.record(canon, spec.param_key(), &verdict);
    }
    (verdict, stats)
}

fn run_check(
    h: &History,
    spec: &ModelSpec,
    cfg: &CheckConfig,
    budget: &Budget,
    stats: &mut CheckStats,
) -> Verdict {
    if let Err(e) = spec.validate() {
        return Verdict::Unsupported(e);
    }
    let base = BaseOrders::new(h);
    let mut exhausted: Option<Stage> = None;

    if spec.needs_reads_from() {
        let (rfs, truncated) = enumerate_reads_from(h, cfg.max_rf);
        stats.rf_truncated = truncated;
        if rfs.is_empty() {
            // No read is explainable at all: no legal views can exist.
            return Verdict::Disallowed;
        }
        for rf in &rfs {
            stats.rf_assignments_tried += 1;
            match check_with_rf(h, spec, &base, Some(rf), budget) {
                Step::Allowed(w) => return Verdict::Allowed(w),
                Step::Disallowed => {}
                Step::Exhausted(stage) => {
                    exhausted = Some(stage);
                    break;
                }
                Step::Unsupported(e) => return Verdict::Unsupported(e),
            }
        }
        if truncated && exhausted.is_none() {
            exhausted = Some(Stage::ReadsFrom);
        }
    } else {
        match check_with_rf(h, spec, &base, None, budget) {
            Step::Allowed(w) => return Verdict::Allowed(w),
            Step::Disallowed => {}
            Step::Exhausted(stage) => exhausted = Some(stage),
            Step::Unsupported(e) => return Verdict::Unsupported(e),
        }
    }
    match exhausted {
        Some(stage) => {
            stats.exhausted_stage = Some(stage);
            Verdict::Exhausted
        }
        None => Verdict::Disallowed,
    }
}

pub(crate) enum Step {
    Allowed(Box<Witness>),
    Disallowed,
    Exhausted(Stage),
    Unsupported(String),
}

/// The operation sets `V_p = H_p ∪ δ_p` for each processor.
pub fn view_op_sets(h: &History, delta: OperationSet) -> Vec<BitSet> {
    (0..h.num_procs())
        .map(|p| {
            BitSet::from_iter(
                h.num_ops(),
                h.ops()
                    .iter()
                    .filter(|o| {
                        o.proc.index() == p
                            || match delta {
                                OperationSet::AllOps => true,
                                OperationSet::WritesOnly => o.is_write(),
                            }
                    })
                    .map(|o| o.id.index()),
            )
        })
        .collect()
}

pub(crate) fn check_with_rf(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    rf: Option<&ReadsFrom>,
    budget: &Budget,
) -> Step {
    let legality = match rf {
        Some(rf) => LegalityMode::ByReadsFrom(rf),
        None => LegalityMode::ByValue,
    };

    // Release consistency: build the labeled context once per assignment
    // (the agreement-only submodel needs neither reads-from nor the
    // sync-location discipline).
    let labeled_ctx = if matches!(
        spec.labeled,
        Some(LabeledModel::SequentiallyConsistent) | Some(LabeledModel::ProcessorConsistent)
    ) {
        let Some(rf) = rf else {
            return Step::Unsupported(format!(
                "{}: labeled submodel requires a reads-from assignment",
                spec.name
            ));
        };
        match LabeledCtx::build(h, rf) {
            Ok(ctx) => Some(ctx),
            Err(RcError::MixedLocation(loc)) => {
                return Step::Unsupported(format!(
                    "{}: location `{loc}` is accessed by both labeled and ordinary \
                     operations; the RC checker requires the properly-labeled \
                     discipline (sync locations touched only by labeled operations)",
                    spec.name
                ))
            }
            // This reads-from assignment cannot be an RC witness.
            Err(RcError::AcquireFromOrdinary) => return Step::Disallowed,
        }
    } else {
        None
    };

    // SC's identical-views shortcut: one shared legal sequence of all ops.
    if spec.identical_views {
        let cand = Candidates::default();
        let g = match assemble_global(h, spec, base, rf, &cand, None) {
            Ok(g) => g,
            Err(e) => return Step::Unsupported(e),
        };
        let problem = ViewProblem {
            history: h,
            ops: BitSet::full(h.num_ops()),
            constraints: &g,
            legality,
        };
        return match find_legal_extension(&problem, budget) {
            SearchOutcome::Found(order) => Step::Allowed(Box::new(Witness {
                views: vec![order; h.num_procs()],
                store_order: None,
                coherence: None,
                labeled_order: None,
                reads_from: rf.map(|r| r.as_slice().to_vec()),
            })),
            SearchOutcome::NotFound => Step::Disallowed,
            SearchOutcome::Exhausted => Step::Exhausted(Stage::ViewSearch),
        };
    }

    // Layer 2: store orders (TSO).
    if spec.global_write_order {
        let writes = BitSet::from_iter(
            h.num_ops(),
            h.ops()
                .iter()
                .filter(|o| o.is_write())
                .map(|o| o.id.index()),
        );
        let mut result = Step::Disallowed;
        let flow = smc_relation::linext::for_each_linear_extension(&base.ppo, &writes, |ext| {
            if !budget.try_spend() {
                result = Step::Exhausted(Stage::StoreOrders);
                return ControlFlow::Break(());
            }
            let store: Vec<OpId> = ext.iter().map(|&i| OpId(i as u32)).collect();
            match check_with_store_order(h, spec, base, rf, legality, &store, budget) {
                Step::Disallowed => ControlFlow::Continue(()),
                done => {
                    result = done;
                    ControlFlow::Break(())
                }
            }
        });
        let _ = flow;
        return result;
    }

    // Layer 3: coherence orders (PC, RC, coherent variants).
    if spec.coherence {
        // Any common per-location write order must extend ppo restricted
        // to same-location writes (every view contains all writes and
        // respects at least the owner's ppo there).
        let mut result = Step::Disallowed;
        let flow = enumerate_coherence(h, &base.ppo, budget, |coh| {
            if !budget.try_spend() {
                result = Step::Exhausted(Stage::CoherenceOrders);
                return ControlFlow::Break(());
            }
            match with_coherence(
                h,
                spec,
                base,
                rf,
                legality,
                coh,
                labeled_ctx.as_ref(),
                budget,
            ) {
                Step::Disallowed => ControlFlow::Continue(()),
                done => {
                    result = done;
                    ControlFlow::Break(())
                }
            }
        });
        if flow.is_none() {
            // The budget died while *generating* coherence orders; the
            // unvisited combinations mean `Disallowed` would be a lie.
            return Step::Exhausted(Stage::CoherenceOrders);
        }
        return result;
    }

    // Labeled agreement without coherence (hybrid consistency).
    if spec.labeled == Some(LabeledModel::AgreementOnly) {
        return with_labeled_agreement(h, spec, base, rf, legality, None, budget);
    }

    // No shared orders at all (PRAM, causal): straight to the views.
    let cand = Candidates::default();
    with_candidates(h, spec, base, rf, legality, &cand, None, budget)
}

/// Enumerate the common (agreement-only) orders of the labeled
/// operations: linear extensions of program order restricted to labeled
/// operations, optionally also respecting a fixed coherence order.
fn with_labeled_agreement(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    rf: Option<&ReadsFrom>,
    legality: LegalityMode<'_>,
    coh: Option<&CoherenceOrders>,
    budget: &Budget,
) -> Step {
    let labeled = BitSet::from_iter(h.num_ops(), h.labeled_ops().map(|o| o.id.index()));
    let mut cons = base.po.clone();
    if let Some(coh) = coh {
        cons.union_with(&coh.as_relation(h.num_ops()));
    }
    let mut result = Step::Disallowed;
    let flow = smc_relation::linext::for_each_linear_extension(&cons, &labeled, |ext| {
        if !budget.try_spend() {
            result = Step::Exhausted(Stage::LabeledOrders);
            return ControlFlow::Break(());
        }
        let t: Vec<OpId> = ext.iter().map(|&i| OpId(i as u32)).collect();
        let cand = Candidates {
            coherence: coh,
            labeled_order: Some(&t),
            ..Default::default()
        };
        match with_candidates(h, spec, base, rf, legality, &cand, None, budget) {
            Step::Disallowed => ControlFlow::Continue(()),
            done => {
                result = match done {
                    Step::Allowed(mut w) => {
                        w.labeled_order = Some(t);
                        Step::Allowed(w)
                    }
                    other => other,
                };
                ControlFlow::Break(())
            }
        }
    });
    let _ = flow;
    match (result, coh) {
        (r, None) => r,
        (r, Some(coh)) => attach_coherence(r, coh),
    }
}

/// Check the per-view searches under one fixed TSO store order. Shared by
/// the sequential store-order enumeration above and the parallel
/// store-order fan-out in [`crate::batch`].
pub(crate) fn check_with_store_order(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    rf: Option<&ReadsFrom>,
    legality: LegalityMode<'_>,
    store: &[OpId],
    budget: &Budget,
) -> Step {
    let cand = Candidates {
        store_order: Some(store),
        ..Default::default()
    };
    attach_store(
        with_candidates(h, spec, base, rf, legality, &cand, None, budget),
        store,
    )
}

fn attach_store(step: Step, store: &[OpId]) -> Step {
    match step {
        Step::Allowed(mut w) => {
            w.store_order = Some(store.to_vec());
            Step::Allowed(w)
        }
        other => other,
    }
}

/// With a coherence order fixed, handle the optional labeled layer and
/// descend to the per-view searches.
#[allow(clippy::too_many_arguments)]
fn with_coherence(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    rf: Option<&ReadsFrom>,
    legality: LegalityMode<'_>,
    coh: &CoherenceOrders,
    labeled_ctx: Option<&LabeledCtx>,
    budget: &Budget,
) -> Step {
    match spec.labeled {
        Some(LabeledModel::AgreementOnly) => {
            with_labeled_agreement(h, spec, base, rf, legality, Some(coh), budget)
        }
        Some(LabeledModel::SequentiallyConsistent) => {
            let Some(ctx) = labeled_ctx else {
                return Step::Unsupported(format!(
                    "{}: labeled context missing for an RC_sc check",
                    spec.name
                ));
            };
            // Enumerate the legal SC orders T of the labeled subhistory:
            // legal linear extensions of po_sub ∪ the projected coherence.
            let sub = &ctx.sub;
            let mut cons = crate::orders::program_order(sub);
            cons.union_with(&ctx.project_coherence(coh).as_relation(sub.num_ops()));
            let problem = ViewProblem {
                history: sub,
                ops: BitSet::full(sub.num_ops()),
                constraints: &cons,
                legality: LegalityMode::ByReadsFrom(&ctx.rf_sub),
            };
            let mut result = Step::Disallowed;
            let end = for_each_legal_extension(&problem, budget, |t_sub| {
                let t: Vec<OpId> = t_sub.iter().map(|l| ctx.back[l.index()]).collect();
                let cand = Candidates {
                    coherence: Some(coh),
                    labeled_order: Some(&t),
                    ..Default::default()
                };
                match with_candidates(h, spec, base, rf, legality, &cand, Some(ctx), budget) {
                    Step::Disallowed => ControlFlow::Continue(()),
                    done => ControlFlow::Break((done, t)),
                }
            });
            match end {
                SearchEnd::Completed => {}
                SearchEnd::Exhausted => result = Step::Exhausted(Stage::LabeledOrders),
                SearchEnd::Broke((done, t)) => {
                    result = match done {
                        Step::Allowed(mut w) => {
                            w.labeled_order = Some(t);
                            Step::Allowed(w)
                        }
                        other => other,
                    };
                }
            }
            attach_coherence(result, coh)
        }
        _ => {
            let cand = Candidates {
                coherence: Some(coh),
                ..Default::default()
            };
            attach_coherence(
                with_candidates(h, spec, base, rf, legality, &cand, labeled_ctx, budget),
                coh,
            )
        }
    }
}

fn attach_coherence(step: Step, coh: &CoherenceOrders) -> Step {
    match step {
        Step::Allowed(mut w) => {
            w.coherence = Some(coh.all().to_vec());
            Step::Allowed(w)
        }
        other => other,
    }
}

/// Build the constraint relation for processor `p`'s view under the
/// current candidates: the global relation plus any owner-order edges.
pub(crate) fn proc_constraints(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    g: &smc_relation::Relation,
    p: usize,
) -> smc_relation::Relation {
    if matches!(spec.owner_order, crate::spec::OwnerOrder::None) {
        g.clone()
    } else {
        let mut gp = g.clone();
        gp.union_with(&owner_edges(h, spec, base, p));
        gp
    }
}

/// All shared ingredients fixed: assemble the global constraint relation
/// and search each processor's view independently.
#[allow(clippy::too_many_arguments)]
fn with_candidates(
    h: &History,
    spec: &ModelSpec,
    base: &BaseOrders,
    rf: Option<&ReadsFrom>,
    legality: LegalityMode<'_>,
    cand: &Candidates<'_>,
    labeled_ctx: Option<&LabeledCtx>,
    budget: &Budget,
) -> Step {
    let g = match assemble_global(h, spec, base, rf, cand, labeled_ctx) {
        Ok(g) => g,
        Err(e) => return Step::Unsupported(e),
    };
    // A cyclic constraint set can never be extended; reject early.
    if !g.is_acyclic() {
        return Step::Disallowed;
    }
    let op_sets = view_op_sets(h, spec.delta);
    let mut views = Vec::with_capacity(h.num_procs());
    #[allow(clippy::needless_range_loop)] // p is also the processor id
    for p in 0..h.num_procs() {
        let constraints = proc_constraints(h, spec, base, &g, p);
        let problem = ViewProblem {
            history: h,
            ops: op_sets[p].clone(),
            constraints: &constraints,
            legality,
        };
        match find_legal_extension(&problem, budget) {
            SearchOutcome::Found(v) => views.push(v),
            SearchOutcome::NotFound => return Step::Disallowed,
            SearchOutcome::Exhausted => return Step::Exhausted(Stage::ViewSearch),
        }
    }
    Step::Allowed(Box::new(Witness {
        views,
        store_order: cand.store_order.map(<[OpId]>::to_vec),
        coherence: None,
        labeled_order: None,
        reads_from: rf.map(|r| r.as_slice().to_vec()),
    }))
}

/// Render a witness view in the paper's notation
/// (`S_{p+w}: r_p(y)0 w_p(x)1 w_q(y)1`).
pub fn format_view(h: &History, p: ProcId, view: &[OpId]) -> String {
    let ops: Vec<String> = view.iter().map(|&o| h.format_op_subscripted(o)).collect();
    format!("S_{{{}+w}}: {}", h.proc_name(p), ops.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use smc_history::litmus::parse_history;
    use smc_history::HistoryBuilder;

    #[test]
    fn empty_history_allowed_by_every_model() {
        let h = HistoryBuilder::new().build();
        for m in models::all_models() {
            assert!(check(&h, &m).is_allowed(), "{} rejects empty", m.name);
        }
    }

    #[test]
    fn single_op_history_allowed_by_every_model() {
        let h = parse_history("p: w(x)1").unwrap();
        for m in models::all_models() {
            assert!(check(&h, &m).is_allowed(), "{} rejects single op", m.name);
        }
        let r = parse_history("p: r(x)0").unwrap();
        for m in models::all_models() {
            assert!(
                check(&r, &m).is_allowed(),
                "{} rejects initial read",
                m.name
            );
        }
    }

    #[test]
    fn unexplainable_read_disallowed_everywhere() {
        let h = parse_history("p: r(x)7").unwrap();
        for m in models::all_models() {
            assert!(
                check(&h, &m).is_disallowed(),
                "{} admits a read of a never-written value",
                m.name
            );
        }
    }

    #[test]
    fn tiny_budget_reports_exhausted() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let cfg = CheckConfig {
            max_rf: 1,
            node_budget: 1,
            ..CheckConfig::default()
        };
        assert_eq!(
            check_with_config(&h, &models::sc(), &cfg),
            Verdict::Exhausted
        );
    }

    #[test]
    fn stats_report_exhaustion_stage_and_spend() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let cfg = CheckConfig {
            max_rf: 1,
            node_budget: 1,
            ..CheckConfig::default()
        };
        let (v, stats) = check_with_stats(&h, &models::sc(), &cfg);
        assert_eq!(v, Verdict::Exhausted);
        assert_eq!(stats.exhausted_stage, Some(Stage::ViewSearch));
        assert_eq!(stats.nodes_spent, 1);
    }

    #[test]
    fn stats_on_decided_verdicts() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let cfg = CheckConfig::default();
        let (v, stats) = check_with_stats(&h, &models::sc(), &cfg);
        assert!(v.is_disallowed());
        assert_eq!(stats.exhausted_stage, None);
        assert!(stats.nodes_spent > 0);
        assert!(!stats.rf_truncated);

        let (v, stats) = check_with_stats(&h, &models::causal(), &cfg);
        assert!(v.is_allowed());
        assert!(stats.rf_assignments_tried >= 1);
    }

    #[test]
    fn invalid_spec_reports_unsupported() {
        let mut bad = models::rc_sc();
        bad.coherence = false;
        let h = parse_history("p: w(x)1").unwrap();
        assert!(matches!(check(&h, &bad), Verdict::Unsupported(_)));
    }

    #[test]
    fn view_op_sets_membership() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1").unwrap();
        let writes_only = view_op_sets(&h, OperationSet::WritesOnly);
        // p's view: both own ops + q's write.
        assert_eq!(writes_only[0].count(), 3);
        // q's view: own write + p's write (not p's read).
        assert_eq!(writes_only[1].count(), 2);
        let all = view_op_sets(&h, OperationSet::AllOps);
        assert_eq!(all[0].count(), 3);
        assert_eq!(all[1].count(), 3);
    }

    #[test]
    fn format_view_uses_paper_notation() {
        let h = parse_history("p: w(x)1\nq: r(x)1").unwrap();
        let s = format_view(&h, ProcId(1), &[OpId(0), OpId(1)]);
        assert_eq!(s, "S_{q+w}: w_p(x)1 r_q(x)1");
    }

    #[test]
    fn verdict_helpers() {
        assert_eq!(Verdict::Disallowed.decided(), Some(false));
        assert_eq!(Verdict::Exhausted.decided(), None);
        assert!(!Verdict::Unsupported("x".into()).is_allowed());
    }

    #[test]
    fn duplicate_values_exercise_rf_enumeration() {
        // Two writes of the same value: only one attribution makes the
        // causal check succeed, and the checker must find it.
        let h = parse_history("p: w(x)5\nq: w(x)5\nr: r(x)5 r(x)5").unwrap();
        assert!(check(&h, &models::causal()).is_allowed());
        assert!(check(&h, &models::sc()).is_allowed());
    }
}
