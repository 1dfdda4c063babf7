//! Traced runs: the workload's generated inputs replayed in-process,
//! with a span around every call into a layer's public functions.
//!
//! Nothing here feeds an end-to-end metric. A serve traced run does run
//! one untraced end-to-end repetition first, because the serve overhead
//! (closed-loop ns/event minus parse and feed), the `STATS` counters and
//! the generator lag are read from a real server.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use smc_core::checker::{check_with_stats, CheckConfig, Engine, Verdict};
use smc_core::histgen::for_each_representative_range;
use smc_core::separate::{ladder, Direction, DirectionStatus, Separator};
use smc_core::{canonicalize, models};
use smc_history::litmus::parse_suite;
use smc_history::trace::{parse_trace_line, split_session_line, Trace};
use smc_monitor::{BatchEvent, Monitor, StepReport};
use smc_serve::verdict_payload;

use crate::gen::{self, Family};
use crate::oneshot::{self, DirectionRow, RowStatus, EXHAUSTIVE_MODELS, SATURATE_MODELS};
use crate::serve_load::{self, Traffic};
use crate::stats::{layer_self_ns, ratio, show_ratio, Summary, Tracer};
use crate::Tally;

/// Per-layer metric values by name, plus report lines.
#[derive(Default)]
pub struct Layers {
    /// Values by metric name; names left unset read 0 (the layer did
    /// no work on this workload).
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines: ratios with their bases, tails with their
    /// percentile and count.
    pub lines: Vec<String>,
    /// Outputs checked by the traced run.
    pub tally: Tally,
}

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    fn set_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        self.set(name, ratio(num, den));
        self.lines.push(show_ratio(name, num, den));
    }

    /// Record a timing distribution under `<base>_p50`, `<base>_tail`,
    /// `<base>_tail_pct` and `<base>_n`-style names given explicitly.
    fn set_summary(&mut self, names: [&'static str; 4], label: &str, unit: &str, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let s = Summary::of(values);
        self.set(names[0], s.p50);
        self.set(names[1], s.tail);
        self.set(names[2], s.tail_pct.unwrap_or(50.0));
        self.set(names[3], s.n as f64);
        self.lines.push(format!("{label}: {}", s.render(unit)));
    }

    /// `trace.coverage`: timed layer self time over the traced wall.
    fn coverage(&mut self, tracer: &Tracer, is_layer: impl Fn(&str) -> bool) {
        let root = tracer
            .spans()
            .iter()
            .find(|s| s.name == "run")
            .map_or(0, |s| s.dur_ns());
        let layers = layer_self_ns(tracer.spans(), is_layer);
        self.set("trace.wall_s", root as f64 / 1e9);
        self.set_ratio("trace.coverage", layers as f64, root as f64);
    }
}

/// Replay session `i` the way a server drains it, with batch boundaries
/// at the session's `QUERY` points and at its `CLOSE`; returns the final
/// payload.
fn replay_session(
    cfg: &smc_serve::ServeConfig,
    tracer: &mut Tracer,
    i: usize,
    lines: &[String],
    heads: usize,
    query_every: usize,
    acc: &mut ServeAcc,
) -> Result<String, String> {
    let group = i as u64;
    let mut mon = Monitor::new(cfg.models.clone(), cfg.monitor.clone());
    let mut scratch = Trace::new();
    let (mut procs, mut locs, mut fed) = (0usize, 0usize, 0usize);
    // Line index just past each batch: after every queried event, and
    // at the end of the stream (the `CLOSE` drain, possibly empty).
    let mut ends: Vec<usize> = (heads..lines.len())
        .filter(|&l| serve_load::queries_after(i, query_every, l + 1 - heads))
        .map(|l| l + 1)
        .collect();
    ends.push(lines.len());
    let (mut start, mut payload) = (0, String::new());
    for end in ends {
        let batch = &lines[start..end];
        start = end;
        let (parsed, parse_ns) = tracer.span("history.parse", group, |_| -> Result<(), String> {
            for line in batch {
                let (_, rest) = split_session_line(line)
                    .ok_or_else(|| format!("not a session line: `{line}`"))?;
                parse_trace_line(&mut scratch, rest, 0, 0).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        parsed?;
        acc.parse_ns += parse_ns;
        acc.lines += batch.len() as u64;
        let (report, feed_ns) = tracer.span("monitor.feed", group, |_| {
            for p in &scratch.proc_names()[procs..] {
                mon.declare_proc(p);
            }
            procs = scratch.num_procs();
            for l in &scratch.loc_names()[locs..] {
                mon.declare_loc(l);
            }
            locs = scratch.num_locs();
            let events: Vec<BatchEvent<'_>> = scratch.events()[fed..]
                .iter()
                .map(|e| {
                    (
                        scratch.proc_name(e.proc),
                        e.kind,
                        scratch.loc_name(e.loc),
                        e.value.0,
                        e.label,
                    )
                })
                .collect();
            fed = scratch.len();
            mon.feed_batch(&events)
        });
        acc.feed_ns += feed_ns;
        acc.feed_us.push(feed_ns as f64 / 1e3);
        acc.states_peak = acc.states_peak.max(report.frontier_states);
        acc.totals.absorb(report);
        let (p, payload_ns) = tracer.span("serve.payload", group, |_| verdict_payload(&mon));
        acc.payload_ns.push(payload_ns as f64);
        payload = p;
    }
    Ok(payload)
}

#[derive(Default)]
struct ServeAcc {
    parse_ns: u64,
    lines: u64,
    feed_ns: u64,
    feed_us: Vec<f64>,
    payload_ns: Vec<f64>,
    totals: StepReport,
    states_peak: u64,
}

/// Traced run of a serve workload.
pub fn serve(smc: &Path, tr: &Traffic, query_every: usize) -> Result<(Layers, Tracer), String> {
    let mut out = Layers::default();
    let rep = serve_load::rep(smc, tr, true)?;
    out.tally.absorb(&rep.tally);

    // One template for every session, as in the server: the clones
    // share its memo cache.
    let cfg = smc_serve::ServeConfig::default();
    let mut tracer = Tracer::new();
    let mut acc = ServeAcc::default();
    let (results, _) = tracer.span("run", 0, |tracer| {
        tr.closed
            .iter()
            .enumerate()
            .map(|(i, (_, lines))| {
                tracer
                    .span("session", i as u64, |tracer| {
                        replay_session(&cfg, tracer, i, lines, tr.heads[i], query_every, &mut acc)
                    })
                    .0
            })
            .collect::<Vec<_>>()
    });
    for (i, r) in results.into_iter().enumerate() {
        let r = r?;
        out.tally.check(r == tr.expected[i], || {
            format!(
                "replayed session {i}: `{r}` vs offline `{}`",
                tr.expected[i]
            )
        });
    }

    let events = tr.closed_events() as f64;
    let t = acc.totals;
    out.set(
        "history.parse_ns_per_line",
        ratio(acc.parse_ns as f64, acc.lines as f64),
    );
    out.set(
        "monitor.feed_ns_per_event",
        ratio(acc.feed_ns as f64, events),
    );
    out.set_summary(
        [
            "monitor.feed_us_p50",
            "monitor.feed_us_tail",
            "monitor.feed_tail_pct",
            "monitor.feed_calls",
        ],
        "monitor.feed_batch per call",
        "us",
        &acc.feed_us,
    );
    out.set("monitor.rechecks", t.rechecks as f64);
    out.set("monitor.recheck_nodes", t.recheck_nodes as f64);
    out.set("monitor.propagated", t.propagated as f64);
    out.set_ratio(
        "monitor.propagated_share",
        t.propagated as f64,
        (t.propagated + t.rechecks) as f64,
    );
    out.set("frontier.created", t.created as f64);
    out.set("frontier.expanded", t.expanded as f64);
    out.set("frontier.reuse_hits", t.reuse_hits as f64);
    out.set_ratio(
        "frontier.reuse_ratio",
        t.reuse_hits as f64,
        (t.reuse_hits + t.created) as f64,
    );
    out.set("frontier.states_peak", acc.states_peak as f64);

    let closed_ns = rep.closed_wall.as_nanos() as f64 / rep.closed_events.max(1) as f64;
    let parse_per_event = ratio(acc.parse_ns as f64, events);
    let feed_per_event = ratio(acc.feed_ns as f64, events);
    out.set("serve.closed_ns_per_event", closed_ns);
    out.set(
        "serve.overhead_ns_per_event",
        closed_ns - parse_per_event - feed_per_event,
    );
    out.lines.push(format!(
        "serve.overhead_ns_per_event = closed loop {closed_ns:.0} - parse {parse_per_event:.0} - feed {feed_per_event:.0} ns/event"
    ));
    out.set("serve.payload_ns", Summary::of(&acc.payload_ns).p50);
    let st = rep.stats;
    out.set("serve.memo_hits", st.memo_hits as f64);
    out.set("serve.memo_misses", st.memo_misses as f64);
    out.set_ratio(
        "serve.memo_hit_ratio",
        st.memo_hits as f64,
        (st.memo_hits + st.memo_misses) as f64,
    );
    out.set("serve.busy", st.busy as f64);
    out.set("serve.gen_lag_p99_ms", rep.lag_p99_ms().unwrap_or(0.0));
    out.coverage(&tracer, |n| n.contains('.'));
    Ok((out, tracer))
}

/// A direction as a row of the expected table.
fn direction_row(sep: &Separator, d: &Direction) -> DirectionRow {
    let status = match &d.status {
        DirectionStatus::Impossible => RowStatus::Impossible,
        DirectionStatus::Open => RowStatus::Open,
        DirectionStatus::Found(w) => RowStatus::Found {
            universe: w.universe.label(),
            index: w.index,
            minimized: w.minimized,
            history: w.history.to_string().lines().map(str::to_owned).collect(),
        },
    };
    DirectionRow {
        admits: sep.models()[d.admits].name.clone(),
        refutes: sep.models()[d.refutes].name.clone(),
        status,
    }
}

/// Traced run of `separate_lattice`: the same ladder and settings as
/// `smc separate --all --max-universe medium --jobs 2`, then separate
/// passes timing enumeration alone and canonicalization.
pub fn separate() -> Result<(Layers, Tracer), String> {
    let mut out = Layers::default();
    let universes = ladder("medium")?;
    let cfg = CheckConfig::default().with_memo();
    let memo = cfg.memo.clone().expect("with_memo attaches a cache");
    let mut sep = Separator::new(models::lattice_models(), cfg, 2);
    let mut tracer = Tracer::new();
    let (mut scan_ns, mut enum_ns, mut canon_ns, mut canon_n) = (0u64, 0u64, 0u64, 0u64);
    let (_, _) = tracer.span("run", 0, |tracer| {
        let mut scanned = Vec::new();
        for (k, u) in universes.iter().enumerate() {
            if sep.open_directions() == 0 {
                break;
            }
            scan_ns += tracer
                .span("separate.scan", k as u64, |_| sep.run_universe(u))
                .1;
            scanned.push((k as u64, u));
        }
        let minimize_ns = tracer
            .span("separate.minimize", 0, |_| sep.minimize_found())
            .1;
        for &(k, u) in &scanned {
            let size = u.universe_size().min(u64::MAX as u128) as u64;
            enum_ns += tracer
                .span("histgen.enum", k, |_| {
                    for_each_representative_range(u, 0, size, |_, h| {
                        black_box(h);
                    })
                })
                .1;
            tracer.span("canon.canonicalize", k, |_| {
                for_each_representative_range(u, 0, size, |_, h| {
                    let t = Instant::now();
                    black_box(canonicalize(h));
                    canon_ns += t.elapsed().as_nanos() as u64;
                    canon_n += 1;
                });
            });
        }
        minimize_ns
    });

    // The in-process directions must be the ones `smc separate` is
    // held to.
    let want = oneshot::expected_directions()?;
    let got: Vec<DirectionRow> = sep
        .directions()
        .iter()
        .map(|d| direction_row(&sep, d))
        .collect();
    for (i, w) in want.iter().enumerate() {
        out.tally.check(got.get(i) == Some(w), || {
            format!("direction {i}: {:?} vs expected {w:?}", got.get(i))
        });
    }
    out.tally.check(got.len() == want.len(), || {
        format!("{} directions, expected {}", got.len(), want.len())
    });

    let st = sep.stats;
    out.tally.verdicts += st.checked;
    out.tally.undecided += st.undecided;
    let spans_of = |name: &str| -> u64 {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum()
    };
    out.set("separate.scan_ms", scan_ns as f64 / 1e6);
    out.set(
        "separate.minimize_ms",
        spans_of("separate.minimize") as f64 / 1e6,
    );
    out.set("histgen.enum_ms", enum_ns as f64 / 1e6);
    out.set(
        "canon.ns_per_history",
        ratio(canon_ns as f64, canon_n as f64),
    );
    out.set("canon.histories", canon_n as f64);
    out.set("separate.enumerated", st.enumerated as f64);
    out.set("separate.classes", st.classes as f64);
    out.set("separate.class_hits", st.class_hits as f64);
    out.set_ratio(
        "separate.class_hit_ratio",
        st.class_hits as f64,
        (st.class_hits + st.classes) as f64,
    );
    out.set("separate.checked", st.checked as f64);
    out.set("separate.propagated", st.propagated as f64);
    out.set_ratio(
        "separate.propagated_share",
        st.propagated as f64,
        (st.propagated + st.checked) as f64,
    );
    let m = memo.stats();
    out.set("memo.hits", m.hits as f64);
    out.set("memo.misses", m.misses as f64);
    out.set_ratio("memo.hit_ratio", m.hits as f64, (m.hits + m.misses) as f64);
    out.coverage(&tracer, |n| n.contains('.'));
    Ok((out, tracer))
}

/// One (history, model) pair of the check suites.
struct Pair<'a> {
    family: Family,
    name: &'a str,
    history: &'a smc_history::History,
    model: smc_core::ModelSpec,
}

/// Traced run of `check_bighist`: the same suites checked in-process
/// with `check_with_stats` under the CLI's defaults (`--engine auto`),
/// untraced, traced, then untraced again; the traced time minus the mean
/// untraced time is the tracing overhead.
pub fn check(seed: u64) -> Result<(Layers, Tracer), String> {
    let mut out = Layers::default();
    let (sat_text, exh_text) = gen::check_suites(seed);
    let parse = || -> Result<_, String> {
        let p =
            |t: &str| parse_suite(t).map_err(|e| format!("generated suite does not parse: {e}"));
        Ok((p(&sat_text)?, p(&exh_text)?))
    };
    let (sat, exh) = parse()?;
    let model = |n: &str| models::by_name(n).ok_or_else(|| format!("unknown model {n}"));
    let mut pairs = Vec::new();
    for (names, suite) in [(&SATURATE_MODELS[..], &sat), (&EXHAUSTIVE_MODELS[..], &exh)] {
        for n in names {
            let m = model(n)?;
            for t in suite.iter() {
                let family = Family::of_test(&t.name)
                    .ok_or_else(|| format!("test {} has no family", t.name))?;
                pairs.push(Pair {
                    family,
                    name: &t.name,
                    history: &t.history,
                    model: m.clone(),
                });
            }
        }
    }

    // Untraced passes before and after the traced one; their mean is
    // the untraced time, so warm-up favours neither side.
    let cfg = CheckConfig::default();
    let untraced_pass = || {
        let t0 = Instant::now();
        for p in &pairs {
            black_box(check_with_stats(p.history, &p.model, &cfg));
        }
        t0.elapsed().as_secs_f64()
    };
    let before = untraced_pass();

    let mut tracer = Tracer::new();
    let mut results = Vec::with_capacity(pairs.len());
    let (parse_ns, traced_ns) = tracer.span("run", 0, |tracer| {
        let (_, parse_ns) = tracer.span("history.parse_suite", 0, |_| black_box(parse()));
        for (g, p) in pairs.iter().enumerate() {
            let (r, ns) = tracer.span("checker.check", g as u64, |_| {
                check_with_stats(p.history, &p.model, &cfg)
            });
            results.push((r, ns));
        }
        parse_ns
    });

    let mut ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut nodes_ms: BTreeMap<&str, (u64, f64)> = BTreeMap::new();
    let (
        mut steps,
        mut branches,
        mut conflicts,
        mut learned,
        mut restarts,
        mut nodes,
        mut exhausted,
    ) = (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for (p, ((v, st), ns)) in pairs.iter().zip(&results) {
        let want = p.family.expected_allowed();
        out.tally.verdicts += 1;
        match v {
            Verdict::Exhausted => {
                exhausted += 1;
                out.tally.undecided += 1;
                out.tally.attempted += 1;
            }
            _ => out.tally.check(v.decided() == Some(want), || {
                format!("{} under {}: {:?}", p.name, p.model.name, v.decided())
            }),
        }
        let t_ms = *ns as f64 / 1e6;
        ms.entry(p.family.word()).or_default().push(t_ms);
        let engine = match st.engine_used {
            Engine::Saturate => "saturate",
            Engine::Exhaustive => "exhaustive",
        };
        let e = nodes_ms.entry(engine).or_default();
        e.0 += st.nodes_spent;
        e.1 += t_ms;
        steps += st.saturation_steps;
        branches += st.saturation_branches;
        conflicts += st.saturation_conflicts;
        learned += st.saturation_learned;
        restarts += st.saturation_restarts;
        nodes += st.nodes_spent;
    }
    for f in Family::ALL {
        let names = match f {
            Family::Fresh => [
                "check.fresh.ms_p50",
                "check.fresh.ms_tail",
                "check.fresh.tail_pct",
                "check.fresh.n",
            ],
            Family::Alias => [
                "check.alias.ms_p50",
                "check.alias.ms_tail",
                "check.alias.tail_pct",
                "check.alias.n",
            ],
            Family::Stale => [
                "check.stale.ms_p50",
                "check.stale.ms_tail",
                "check.stale.tail_pct",
                "check.stale.n",
            ],
            Family::Exhaustive => [
                "check.exhaustive.ms_p50",
                "check.exhaustive.ms_tail",
                "check.exhaustive.tail_pct",
                "check.exhaustive.n",
            ],
        };
        let label = format!("check_with_stats, {} family", f.word());
        out.set_summary(
            names,
            &label,
            "ms",
            ms.get(f.word()).map_or(&[][..], Vec::as_slice),
        );
    }
    out.set("history.parse_suite_ms", parse_ns as f64 / 1e6);
    out.set("saturate.closure_steps", steps as f64);
    out.set("saturate.branches", branches as f64);
    out.set("saturate.conflicts", conflicts as f64);
    out.set("saturate.learned", learned as f64);
    out.set("saturate.restarts", restarts as f64);
    out.set("check.nodes", nodes as f64);
    out.set("check.exhausted", exhausted as f64);
    for (engine, name) in [
        ("saturate", "check.saturate.nodes_per_ms"),
        ("exhaustive", "check.exhaustive.nodes_per_ms"),
    ] {
        let (n, t) = nodes_ms.get(engine).copied().unwrap_or_default();
        out.set_ratio(name, n as f64, t);
    }
    let untraced = (before + untraced_pass()) / 2.0;
    let traced = (traced_ns - parse_ns) as f64 / 1e9;
    out.set_ratio("trace.overhead_share", traced - untraced, untraced);
    out.lines.push(format!(
        "tracing overhead: traced {traced:.3} s - untraced {untraced:.3} s (mean of a pass before and one after)"
    ));
    out.coverage(&tracer, |n| n.contains('.'));
    Ok((out, tracer))
}
