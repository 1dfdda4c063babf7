//! Search for legal sequential views.
//!
//! Section 2 of the paper requires, for each processor `p`, a *legal*
//! sequential history `S_{p+δp}`: a total order over `p`'s operations and
//! the model-selected remote operations in which every read returns the
//! value of the most recent preceding write to its location (initial value
//! `0` if none). The model's ordering and mutual-consistency parameters
//! contribute a partial order that the view must extend.
//!
//! This module answers the per-view question: *given the operation set and
//! the required partial order, does a legal linear extension exist?* — by
//! depth-first search over schedulable operations with
//!
//! * dead-state pruning (a read whose explanation has been overwritten can
//!   never be scheduled), and
//! * memoization of failed states, keyed by the scheduled-set bit mask and
//!   the per-location last writes (the only state the future depends on).
//!
//! The scheduling state itself — context preprocessing, successor
//! generation, state packing and hashing — lives in [`crate::kernel`] and
//! is shared with the work-stealing engine and the frontier closure; this
//! module owns only the DFS driving it.
//!
//! Deciding this question is NP-complete in general (it subsumes checking
//! sequential consistency), but litmus-scale instances are instant.

use crate::budget::Budget;
use crate::kernel::{pack_state, state_hash, Ctx, StateSpace, NO_WRITE};
use crate::rf::ReadsFrom;
use smc_history::{History, OpId, Value};
use smc_relation::{BitSet, Relation};
use std::ops::ControlFlow;

/// How read legality is judged during the search.
#[derive(Clone, Copy)]
pub enum LegalityMode<'a> {
    /// A read of value `v` may be scheduled whenever the most recent write
    /// to its location (if any) stored `v`, or `v = 0` with no write yet.
    /// Used by models whose derived orders do not mention reads-from
    /// (SC, TSO, PRAM, coherent memory).
    ByValue,
    /// A read must be explained by exactly its assigned source write
    /// (or the initial value). Used by models whose ordering constraints
    /// are derived from a reads-from assignment (causal, PC, RC).
    ByReadsFrom(&'a ReadsFrom),
}

/// One per-view satisfiability problem.
pub struct ViewProblem<'a> {
    /// The full history the operations come from.
    pub history: &'a History,
    /// Global ids of the operations that form the view (`H_p ∪ δ_p`).
    pub ops: BitSet,
    /// Required partial order over global ids; only edges between two
    /// members of `ops` constrain the view.
    pub constraints: &'a Relation,
    /// Read-legality mode.
    pub legality: LegalityMode<'a>,
}

/// Outcome of a bounded search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A legal extension exists; the witness view is attached.
    Found(Vec<OpId>),
    /// No legal extension exists.
    NotFound,
    /// The node budget ran out before the search completed.
    Exhausted,
}

/// Result of a visitor-driven enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchEnd<B> {
    /// Every legal extension was visited without the visitor breaking.
    Completed,
    /// The visitor broke with this value.
    Broke(B),
    /// The node budget ran out.
    Exhausted,
}

/// Tuning knobs for the view search, exposed for the ablation
/// benchmarks (`bench_ablation`): disabling either optimization keeps the
/// search correct but changes its cost profile.
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Memoize failed `(scheduled set, last writes)` states.
    pub memoize: bool,
    /// Prune states in which some unscheduled read can never again be
    /// scheduled.
    pub dead_prune: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            memoize: true,
            dead_prune: true,
        }
    }
}

/// Exact (collision-free) memo of failed states for the sequential DFS:
/// a packed [`StateSpace`] arena bucketed by [`state_hash`], so the hot
/// path probes by hash first (computed straight off the live state, no
/// packing) and packs the `(scheduled set, last writes)` key into the
/// scratch row only on the rare bucket hit — or when a refuted state is
/// inserted. Unlike a plain `HashSet<(BitSet, Vec<u32>)>`, a lookup
/// never clones or allocates.
struct LocalFailed {
    space: StateSpace,
    scratch: Vec<u64>,
}

impl LocalFailed {
    fn new(ctx: &Ctx<'_>) -> Self {
        LocalFailed {
            space: StateSpace::new(ctx.packed_stride()),
            scratch: Vec::new(),
        }
    }

    fn contains(&mut self, hash: u64, placed: &BitSet, last_write: &[u32]) -> bool {
        if !self.space.has_bucket(hash) {
            return false;
        }
        pack_state(&mut self.scratch, placed, last_write);
        self.space.find(hash, &self.scratch).is_some()
    }

    fn insert(&mut self, hash: u64, placed: &BitSet, last_write: &[u32]) {
        pack_state(&mut self.scratch, placed, last_write);
        if self.space.find(hash, &self.scratch).is_none() {
            self.space.insert_new(hash, &self.scratch);
        }
    }
}

/// Search for one legal extension of the problem, charging one unit of
/// `budget` per search node (the same budget can be shared across
/// sub-searches, nested enumerations, and — via
/// [`crate::budget::SharedBudget`] — worker threads).
pub fn find_legal_extension(p: &ViewProblem<'_>, budget: &Budget) -> SearchOutcome {
    find_legal_extension_with(p, budget, SearchOptions::default())
}

/// [`find_legal_extension`] with explicit [`SearchOptions`].
pub fn find_legal_extension_with(
    p: &ViewProblem<'_>,
    budget: &Budget,
    opts: SearchOptions,
) -> SearchOutcome {
    let ctx = Ctx::new(p);
    let m = ctx.elems.len();
    let mut placed = BitSet::new(m);
    let mut last_write = vec![NO_WRITE; ctx.num_locs];
    let mut order: Vec<usize> = Vec::with_capacity(m);
    let mut memo = LocalFailed::new(&ctx);
    // `memoize == false` really bypasses the failed set: no hash is
    // computed, no key is built, and the (unallocated, empty) table is
    // never touched.
    let failed = if opts.memoize { Some(&mut memo) } else { None };
    search_rec(
        &ctx,
        &mut placed,
        &mut last_write,
        &mut order,
        failed,
        budget,
        opts,
    )
}

/// The core DFS over schedulable operations, shared by the whole-problem
/// search and the resume-from-prefix search used by the static-prefix
/// splits in [`crate::batch`]. `failed` is `Some` iff failed-state
/// memoization is on; the hash-first probe means a lookup costs one hash
/// of the live state and (on the rare bucket hit) reference comparisons —
/// the key is cloned only when a refuted state is inserted.
#[allow(clippy::too_many_arguments)]
fn search_rec(
    ctx: &Ctx<'_>,
    placed: &mut BitSet,
    last_write: &mut Vec<u32>,
    order: &mut Vec<usize>,
    mut failed: Option<&mut LocalFailed>,
    budget: &Budget,
    opts: SearchOptions,
) -> SearchOutcome {
    if order.len() == ctx.elems.len() {
        return SearchOutcome::Found(order.iter().map(|&l| OpId(ctx.elems[l] as u32)).collect());
    }
    if !budget.try_spend() {
        return SearchOutcome::Exhausted;
    }
    if opts.dead_prune && ctx.dead(placed, last_write) {
        return SearchOutcome::NotFound;
    }
    let mut key_hash = 0;
    if let Some(f) = failed.as_mut() {
        key_hash = state_hash(0, placed, last_write);
        if f.contains(key_hash, placed, last_write) {
            return SearchOutcome::NotFound;
        }
    }
    let mut cursor = 0;
    while let Some(i) = ctx.next_ready(placed, last_write, cursor) {
        cursor = i + 1;
        let saved = ctx.apply(i, placed, last_write);
        order.push(i);
        let sub = search_rec(
            ctx,
            placed,
            last_write,
            order,
            failed.as_deref_mut(),
            budget,
            opts,
        );
        order.pop();
        ctx.undo(i, saved, placed, last_write);
        match sub {
            SearchOutcome::NotFound => {}
            done => return done,
        }
    }
    if let Some(f) = failed {
        f.insert(key_hash, placed, last_write);
    }
    SearchOutcome::NotFound
}

/// Visit every legal extension of the problem (no failure memoization, so
/// the visitor sees each distinct extension exactly once).
pub fn for_each_legal_extension<B>(
    p: &ViewProblem<'_>,
    budget: &Budget,
    mut visit: impl FnMut(&[OpId]) -> ControlFlow<B>,
) -> SearchEnd<B> {
    let ctx = Ctx::new(p);
    let m = ctx.elems.len();
    let mut placed = BitSet::new(m);
    let mut last_write = vec![NO_WRITE; ctx.num_locs];
    let mut order: Vec<OpId> = Vec::with_capacity(m);

    fn rec<B>(
        ctx: &Ctx<'_>,
        placed: &mut BitSet,
        last_write: &mut Vec<u32>,
        order: &mut Vec<OpId>,
        budget: &Budget,
        visit: &mut impl FnMut(&[OpId]) -> ControlFlow<B>,
    ) -> SearchEnd<B> {
        if order.len() == ctx.elems.len() {
            return match visit(order) {
                ControlFlow::Continue(()) => SearchEnd::Completed,
                ControlFlow::Break(b) => SearchEnd::Broke(b),
            };
        }
        if !budget.try_spend() {
            return SearchEnd::Exhausted;
        }
        if ctx.dead(placed, last_write) {
            return SearchEnd::Completed;
        }
        let mut cursor = 0;
        while let Some(i) = ctx.next_ready(placed, last_write, cursor) {
            cursor = i + 1;
            let saved = ctx.apply(i, placed, last_write);
            order.push(OpId(ctx.elems[i] as u32));
            let end = rec(ctx, placed, last_write, order, budget, visit);
            order.pop();
            ctx.undo(i, saved, placed, last_write);
            match end {
                SearchEnd::Completed => {}
                other => return other,
            }
        }
        SearchEnd::Completed
    }

    rec(
        &ctx,
        &mut placed,
        &mut last_write,
        &mut order,
        budget,
        &mut visit,
    )
}

/// Check that `order` is a legal sequence for the history: every read
/// returns the most recent preceding write's value (initial `0` if none).
/// Used to validate witnesses independently of the search.
pub fn is_legal_sequence(h: &History, order: &[OpId]) -> bool {
    let mut last: Vec<Option<Value>> = vec![None; h.num_locs()];
    for &id in order {
        let o = h.op(id);
        if o.is_write() {
            last[o.loc.index()] = Some(o.value);
        } else {
            let expect = last[o.loc.index()].unwrap_or(Value::INITIAL);
            if o.value != expect {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orders::program_order;
    use crate::rf::unique_reads_from;
    use smc_history::litmus::parse_history;

    fn all_ops(h: &History) -> BitSet {
        BitSet::full(h.num_ops())
    }

    fn find(h: &History, constraints: &Relation, legality: LegalityMode<'_>) -> SearchOutcome {
        let p = ViewProblem {
            history: h,
            ops: all_ops(h),
            constraints,
            legality,
        };
        let budget = Budget::local(1_000_000);
        find_legal_extension(&p, &budget)
    }

    #[test]
    fn message_passing_has_legal_po_extension() {
        let h = parse_history("p: w(d)1 w(f)1\nq: r(f)1 r(d)1").unwrap();
        let po = program_order(&h);
        match find(&h, &po, LegalityMode::ByValue) {
            SearchOutcome::Found(order) => {
                assert!(is_legal_sequence(&h, &order));
                assert!(po.respects(&order.iter().map(|o| o.index()).collect::<Vec<_>>()));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn fig1_has_no_global_po_extension() {
        // The SC-violating store-buffering history: no single legal
        // sequence respects both program orders.
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let po = program_order(&h);
        assert_eq!(
            find(&h, &po, LegalityMode::ByValue),
            SearchOutcome::NotFound
        );
    }

    #[test]
    fn reads_from_mode_pins_the_source() {
        let h = parse_history("p: w(x)1 w(x)2\nq: r(x)1").unwrap();
        let rf = unique_reads_from(&h).unwrap();
        let po = program_order(&h);
        let p = ViewProblem {
            history: &h,
            ops: all_ops(&h),
            constraints: &po,
            legality: LegalityMode::ByReadsFrom(&rf),
        };
        let budget = Budget::local(1_000_000);
        match find_legal_extension(&p, &budget) {
            SearchOutcome::Found(order) => {
                // r(x)1 must land strictly between the two writes.
                let pos = |id: u32| order.iter().position(|o| o.0 == id).unwrap();
                assert!(pos(0) < pos(2) && pos(2) < pos(1));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn subset_views_ignore_outside_ops() {
        // Only q's ops + p's writes, as in S_{q+w}.
        let h = parse_history("p: w(x)1 r(z)0\nq: r(x)1").unwrap();
        let po = program_order(&h);
        let ops = BitSet::from_iter(h.num_ops(), [0usize, 2]);
        let p = ViewProblem {
            history: &h,
            ops,
            constraints: &po,
            legality: LegalityMode::ByValue,
        };
        let budget = Budget::local(1_000);
        match find_legal_extension(&p, &budget) {
            SearchOutcome::Found(order) => assert_eq!(order.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_reported() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let po = program_order(&h);
        let p = ViewProblem {
            history: &h,
            ops: all_ops(&h),
            constraints: &po,
            legality: LegalityMode::ByValue,
        };
        let budget = Budget::local(1);
        assert_eq!(find_legal_extension(&p, &budget), SearchOutcome::Exhausted);
    }

    #[test]
    fn enumeration_visits_each_extension_once() {
        // Two independent writes to different locations: 2 interleavings.
        let h = parse_history("p: w(x)1\nq: w(y)1").unwrap();
        let cons = Relation::new(h.num_ops());
        let p = ViewProblem {
            history: &h,
            ops: all_ops(&h),
            constraints: &cons,
            legality: LegalityMode::ByValue,
        };
        let budget = Budget::local(1_000);
        let mut seen = Vec::new();
        let end = for_each_legal_extension(&p, &budget, |ext| {
            seen.push(ext.to_vec());
            ControlFlow::<()>::Continue(())
        });
        assert!(matches!(end, SearchEnd::Completed));
        assert_eq!(seen.len(), 2);
        assert_ne!(seen[0], seen[1]);
    }

    #[test]
    fn enumeration_prunes_illegal_prefixes() {
        // r(x)0 cannot follow w(x)1, so only one legal order exists.
        let h = parse_history("p: w(x)1\nq: r(x)0").unwrap();
        let cons = Relation::new(h.num_ops());
        let p = ViewProblem {
            history: &h,
            ops: all_ops(&h),
            constraints: &cons,
            legality: LegalityMode::ByValue,
        };
        let budget = Budget::local(1_000);
        let mut count = 0;
        for_each_legal_extension(&p, &budget, |_| {
            count += 1;
            ControlFlow::<()>::Continue(())
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn enumeration_break_propagates() {
        let h = parse_history("p: w(x)1\nq: w(y)1").unwrap();
        let cons = Relation::new(h.num_ops());
        let p = ViewProblem {
            history: &h,
            ops: all_ops(&h),
            constraints: &cons,
            legality: LegalityMode::ByValue,
        };
        let budget = Budget::local(1_000);
        let end = for_each_legal_extension(&p, &budget, |_| ControlFlow::Break(42));
        assert!(matches!(end, SearchEnd::Broke(42)));
    }

    #[test]
    fn is_legal_sequence_checks_values() {
        let h = parse_history("p: w(x)1 r(x)1 r(x)0").unwrap();
        let good = vec![OpId(2), OpId(0), OpId(1)];
        assert!(is_legal_sequence(&h, &good));
        let bad = vec![OpId(0), OpId(1), OpId(2)];
        assert!(!is_legal_sequence(&h, &bad));
    }
}
