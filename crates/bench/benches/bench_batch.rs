//! Sequential vs parallel corpus checking — the headline numbers for the
//! `smc-core` batch engine.
//!
//! Two scenarios:
//!
//! * the embedded litmus corpus crossed with every model, checked by a
//!   plain sequential loop and by [`check_batch`] at increasing worker
//!   counts (speedup is expected only on multi-core hosts — on one core
//!   the parallel rows measure the engine's overhead);
//! * a single hard exhaustive check split across workers by
//!   [`check_parallel`].

use smc_bench::quickbench::{black_box, Harness};
use smc_core::batch::{check_batch, check_parallel};
use smc_core::checker::{check_with_config, CheckConfig};
use smc_core::{models, ModelSpec};
use smc_history::{History, HistoryBuilder};
use smc_programs::corpus::litmus_suite;

fn corpus_pairs<'a>(
    histories: &'a [History],
    model_list: &'a [ModelSpec],
) -> Vec<(&'a History, &'a ModelSpec)> {
    histories
        .iter()
        .flat_map(|h| model_list.iter().map(move |m| (h, m)))
        .collect()
}

fn bench_corpus(harness: &mut Harness) {
    let histories: Vec<History> = litmus_suite().into_iter().map(|t| t.history).collect();
    let model_list = models::all_models();
    let cfg = CheckConfig::default();
    let pairs = corpus_pairs(&histories, &model_list);
    let mut g = harness.group(&format!("batch/corpus_{}_pairs", pairs.len()));
    g.bench("sequential_loop", || {
        let n = pairs
            .iter()
            .filter(|(h, m)| check_with_config(h, m, &cfg).is_allowed())
            .count();
        black_box(n);
    });
    let hw = std::thread::available_parallelism().map_or(1, usize::from);
    let mut job_counts = vec![1usize, 2, 4];
    if !job_counts.contains(&hw) {
        job_counts.push(hw);
    }
    for jobs in job_counts {
        g.bench(&format!("check_batch_j{jobs}"), || {
            let results = check_batch(&pairs, &cfg, jobs);
            let n = results.iter().filter(|r| r.verdict.is_allowed()).count();
            black_box(n);
        });
    }
}

/// A PRAM refutation that needs exhaustive per-processor view searches:
/// `p` writes `x` as 1..=k, every other processor claims to read them in
/// reverse order (violating FIFO delivery of `p`'s writes).
fn reversed_reads(k: i64, readers: usize) -> History {
    let mut b = HistoryBuilder::new();
    for v in 1..=k {
        b.write("p", "x", v);
    }
    for r in 0..readers {
        let name = format!("q{r}");
        for v in (1..=k).rev() {
            b.read(&name, "x", v);
        }
    }
    b.build()
}

fn bench_single_check(harness: &mut Harness) {
    let h = reversed_reads(8, 4);
    let spec = models::pram();
    let cfg = CheckConfig::default();
    let mut g = harness.group("batch/single_check_pram_reversed");
    g.bench("sequential", || {
        black_box(check_with_config(&h, &spec, &cfg));
    });
    for jobs in [2usize, 4] {
        g.bench(&format!("check_parallel_j{jobs}"), || {
            let (v, stats) = check_parallel(&h, &spec, &cfg, jobs);
            black_box((v, stats.nodes_spent));
        });
    }
}

/// An isomorphic copy of `h`: processors rotated by `r`, locations and
/// processors renamed with an `r`-tagged prefix, and every non-initial
/// value shifted by `3r` (a bijection on the non-zero values that fixes
/// the initial value 0). Verdicts are invariant under all of these, so
/// the canonical key — and hence the memo slot — is shared with `h`.
fn isomorphic_copy(h: &History, r: usize) -> History {
    let mut b = HistoryBuilder::new();
    let np = h.num_procs();
    for i in 0..np {
        let p = smc_history::ProcId(((i + r) % np) as u32);
        let name = format!("c{r}_{}", h.proc_name(p));
        b.add_proc(&name);
        for o in h.proc_ops(p) {
            let loc = format!("c{r}_{}", h.loc_name(o.loc));
            let v = if o.value.is_initial() {
                0
            } else {
                o.value.0 + 3 * r as i64
            };
            b.push(&name, o.kind, &loc, v, o.label);
        }
    }
    b.build()
}

/// The corpus crossed with every model, duplicated 8× under relabelings:
/// without the memo every copy pays the full search; with a (fresh,
/// per-iteration) memo the 7 later copies rehydrate from the first.
fn bench_memoized_sweep(harness: &mut Harness) {
    let base: Vec<History> = litmus_suite().into_iter().map(|t| t.history).collect();
    let histories: Vec<History> = (0..8usize)
        .flat_map(|r| base.iter().map(move |h| isomorphic_copy(h, r)))
        .collect();
    let model_list = models::all_models();
    let pairs = corpus_pairs(&histories, &model_list);
    let mut g = harness.group(&format!("batch/memoized_sweep_{}_pairs", pairs.len()));
    let plain = CheckConfig::default();
    g.bench("memo_off", || {
        let results = check_batch(&pairs, &plain, 1);
        let n = results.iter().filter(|r| r.verdict.is_allowed()).count();
        black_box(n);
    });
    g.bench("memo_on", || {
        let cfg = CheckConfig::default().with_memo();
        let results = check_batch(&pairs, &cfg, 1);
        let n = results.iter().filter(|r| r.verdict.is_allowed()).count();
        black_box(n);
    });
}

/// One SC refutation whose single-rf extension search dominates, which
/// `check_parallel` can split across workers. The history is tiny (a
/// handful of search nodes), so under the default config the adaptive
/// cutover probe decides it sequentially and the `check_parallel_j*` rows
/// should sit within noise of `sequential`.
fn bench_split_dfs(harness: &mut Harness) {
    let h = reversed_reads(10, 3);
    let spec = models::sc();
    let cfg = CheckConfig::default();
    let mut g = harness.group("batch/split_dfs_sc_reversed");
    g.bench("sequential", || {
        black_box(check_with_config(&h, &spec, &cfg));
    });
    for jobs in [2usize, 4] {
        g.bench(&format!("check_parallel_j{jobs}"), || {
            let (v, stats) = check_parallel(&h, &spec, &cfg, jobs);
            black_box((v, stats.nodes_spent));
        });
    }
}

/// Store-buffering with `pad` private writes per processor ahead of the
/// critical section: SC-refuted, but only at the final reads, so the
/// `(pad+1)²`-state interleaving diamond of the padding writes must be
/// covered. Failed-state memoization collapses its exponentially many
/// paths to quadratic work — provided the memo is *shared*.
fn padded_sb(pad: i64) -> History {
    let mut b = HistoryBuilder::new();
    for v in 1..=pad {
        b.write("p", "a", v);
    }
    b.write("p", "x", 1);
    b.read("p", "y", 0);
    for v in 1..=pad {
        b.write("q", "b", v);
    }
    b.write("q", "y", 1);
    b.read("q", "x", 0);
    b.build()
}

/// The deep-funnel refutation: a split search pays off only if the
/// workers share refutations, and the work-stealing engine's workers
/// prune through one concurrent failed-state set. The stealing row
/// carries the scheduler's task and fingerprint overhead, which is why
/// `sequential` is the floor.
fn bench_split_dfs_deep_funnel(harness: &mut Harness) {
    let h = padded_sb(48);
    let spec = models::sc();
    // Cutover disabled: this history's ~4.8k nodes would exhaust the
    // default probe and the parallel row would pay probe + fan-out,
    // muddying the split-search cost this row exists to measure.
    let stealing = CheckConfig {
        parallel_cutover: 0,
        ..CheckConfig::default()
    };
    let mut g = harness.group("batch/split_dfs_deep_funnel");
    g.bench("sequential", || {
        black_box(check_with_config(&h, &spec, &stealing));
    });
    g.bench("stealing_j4", || {
        let (v, stats) = check_parallel(&h, &spec, &stealing, 4);
        black_box((v, stats.nodes_spent));
    });
}

fn main() {
    let mut h = Harness::from_env();
    bench_corpus(&mut h);
    bench_single_check(&mut h);
    bench_memoized_sweep(&mut h);
    bench_split_dfs(&mut h);
    bench_split_dfs_deep_funnel(&mut h);
}
