//! The smc benchmark: three workloads run end to end through the `smc`
//! release binary, plus a traced in-process replay for per-layer costs.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_ingest|separate_lattice|check_bighist> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the driver builds `smc` there first
//! (`cargo build --release --bin smc`, honoring `CARGO_TARGET_DIR`) and
//! keeps scratch files and span files in `.bench_out/`. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the lines before it are the run record and a
//! human-readable report that prints every ratio with its base. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. See `perfbench/README.md`.

mod calib;
mod child;
mod gen;
mod oneshot;
mod serve_load;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use stats::{median, show_ratio, Summary};

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
/// Times are at the reference host speed (see [`calib`]).
const END_TO_END: [(&str, &str); 3] =
    [("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 67] = [
    ("history.parse_ns_per_line", "ns"),
    ("history.parse_suite_ms", "ms"),
    ("monitor.feed_ns_per_event", "ns"),
    ("monitor.feed_us_p50", "us"),
    ("monitor.feed_us_tail", "us"),
    ("monitor.feed_tail_pct", "%"),
    ("monitor.feed_calls", "count"),
    ("monitor.rechecks", "count"),
    ("monitor.recheck_nodes", "count"),
    ("monitor.propagated", "count"),
    ("monitor.propagated_share", "ratio"),
    ("frontier.created", "count"),
    ("frontier.expanded", "count"),
    ("frontier.reuse_hits", "count"),
    ("frontier.reuse_ratio", "ratio"),
    ("frontier.states_peak", "count"),
    ("serve.closed_ns_per_event", "ns"),
    ("serve.overhead_ns_per_event", "ns"),
    ("serve.payload_ns", "ns"),
    ("serve.memo_hits", "count"),
    ("serve.memo_misses", "count"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.busy", "count"),
    ("serve.gen_lag_p99_ms", "ms"),
    ("separate.scan_ms", "ms"),
    ("separate.minimize_ms", "ms"),
    ("histgen.enum_ms", "ms"),
    ("canon.ns_per_history", "ns"),
    ("canon.histories", "count"),
    ("separate.enumerated", "count"),
    ("separate.classes", "count"),
    ("separate.class_hits", "count"),
    ("separate.class_hit_ratio", "ratio"),
    ("separate.checked", "count"),
    ("separate.propagated", "count"),
    ("separate.propagated_share", "ratio"),
    ("memo.hits", "count"),
    ("memo.misses", "count"),
    ("memo.hit_ratio", "ratio"),
    ("check.fresh.ms_p50", "ms"),
    ("check.fresh.ms_tail", "ms"),
    ("check.fresh.tail_pct", "%"),
    ("check.fresh.n", "count"),
    ("check.alias.ms_p50", "ms"),
    ("check.alias.ms_tail", "ms"),
    ("check.alias.tail_pct", "%"),
    ("check.alias.n", "count"),
    ("check.stale.ms_p50", "ms"),
    ("check.stale.ms_tail", "ms"),
    ("check.stale.tail_pct", "%"),
    ("check.stale.n", "count"),
    ("check.exhaustive.ms_p50", "ms"),
    ("check.exhaustive.ms_tail", "ms"),
    ("check.exhaustive.tail_pct", "%"),
    ("check.exhaustive.n", "count"),
    ("saturate.closure_steps", "count"),
    ("saturate.branches", "count"),
    ("saturate.conflicts", "count"),
    ("saturate.learned", "count"),
    ("saturate.restarts", "count"),
    ("check.nodes", "count"),
    ("check.exhausted", "count"),
    ("check.saturate.nodes_per_ms", "1/ms"),
    ("check.exhaustive.nodes_per_ms", "1/ms"),
    ("trace.coverage", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Setup launches before each repetition, each followed by
/// [`REFS_PER_SETUP`] reference launches ([`calib::launch`]), so both
/// are spread over the run and a burst of host noise cannot set their
/// medians.
const SETUP_PER_REP: usize = 3;

/// Reference launches after each setup launch. They take about 1.5 ms
/// each; more of them steady the median the run is scaled by.
const REFS_PER_SETUP: usize = 5;

/// Fewest setup launches per run; `setup_s` is their median.
const SETUP_RUNS: usize = 15;

/// Scratch and span files, relative to the repository root.
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeIngest,
    SeparateLattice,
    CheckBighist,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::ServeIngest,
        Workload::SeparateLattice,
        Workload::CheckBighist,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ServeIngest => "serve_ingest",
            Workload::SeparateLattice => "separate_lattice",
            Workload::CheckBighist => "check_bighist",
        }
    }

    fn shape(self) -> Option<serve_load::Shape> {
        match self {
            Workload::ServeIngest => Some(serve_load::INGEST),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        let v = value(flag)?;
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
    };
    let w = value("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|k| k.name() == w)
        .ok_or_else(|| format!("unknown workload `{w}`"))?;
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace: `{t}` is not 0 or 1")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

/// Operations attempted and failed, with the first few failure notes.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted: requests, verdicts or directions.
    pub attempted: u64,
    /// Operations refused, errored or answered wrongly.
    pub failed: u64,
    /// Verdicts returned.
    pub verdicts: u64,
    /// Undecided verdicts (`unknown`, `undecided (budget)`) among them.
    pub undecided: u64,
    /// The first few failure descriptions.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count `n` failed operations.
    pub fn fail(&mut self, n: u64, note: String) {
        self.failed += n;
        if self.notes.len() < 10 {
            self.notes.push(note);
        }
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, note());
        }
    }

    /// Add another tally's counts.
    pub fn absorb(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.verdicts += o.verdicts;
        self.undecided += o.undecided;
        for n in &o.notes {
            if self.notes.len() < 10 {
                self.notes.push(n.clone());
            }
        }
    }
}

/// The result of one run, printed as the final JSON line.
#[derive(Default)]
struct Outcome {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
    lines: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.tally.failed == 0 && !self.metrics.is_empty()
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// Set the end-to-end metrics: `wall` from `reps` valid
    /// repetitions, the median setup time and the median peak RSS. The
    /// times are scaled to the reference host speed by the run's
    /// reference launches `refs`; the raw ones are printed beside them.
    fn end_to_end(&mut self, wall: f64, reps: usize, setups: &[f64], rss: &[f64], refs: &[f64]) {
        let scale = calib::to_reference(refs);
        let setup = median(setups);
        let values = [wall * scale, setup * scale, median(rss)];
        self.lines.push(format!(
            "host speed: reference launch median {:.3} ms (n={}) against {:.3} ms: times x {scale:.4}",
            median(refs) * 1e3,
            refs.len(),
            calib::REFERENCE_S * 1e3
        ));
        self.lines.push(format!(
            "wall_ref_s = {:.4} s (raw {wall:.4} s, {reps} valid repetitions); setup_s = {:.4} s (raw {setup:.4} s, median of {} launches); peak_rss_mb = {:.1} MB (median of {})",
            values[0],
            values[1],
            setups.len(),
            values[2],
            rss.len()
        ));
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            self.metrics.push((name, v, unit));
        }
    }
}

/// Machine and source identity, so results from different machines or
/// commits are never compared silently.
fn record(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let capture = |cmd: &str, argv: &[&str]| -> String {
        Command::new(cmd)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"rustc\": \"{}\", \"commit\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        capture("rustc", &["--version"]),
        capture("git", &["rev-parse", "HEAD"]),
    )
}

/// What [`repeat`] measured.
struct Repeated<R> {
    reps: Vec<R>,
    setups: Vec<f64>,
    /// Reference launches, [`REFS_PER_SETUP`] after each setup launch.
    refs: Vec<f64>,
    /// Why the repetition after the last one could not complete.
    err: Option<String>,
}

/// Repeat `rep` until `seconds` have passed (at least once), with
/// [`SETUP_PER_REP`] `setup` launches, each followed by
/// [`REFS_PER_SETUP`] reference launches, before each repetition, and
/// more after the last if fewer than [`SETUP_RUNS`] were made. Stops at the
/// first repetition that could not complete.
fn repeat<R>(
    seconds: u64,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut rep: impl FnMut() -> Result<R, String>,
) -> Result<Repeated<R>, String> {
    let t0 = Instant::now();
    let budget = Duration::from_secs(seconds);
    let (mut reps, mut setups, mut refs, mut err) = (Vec::new(), Vec::new(), Vec::new(), None);
    while reps.is_empty() || t0.elapsed() < budget {
        for _ in 0..SETUP_PER_REP {
            setups.push(setup()?);
            for _ in 0..REFS_PER_SETUP {
                refs.push(calib::launch()?);
            }
        }
        match rep() {
            Ok(r) => reps.push(r),
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    while setups.len() < SETUP_RUNS {
        setups.push(setup()?);
        for _ in 0..REFS_PER_SETUP {
            refs.push(calib::launch()?);
        }
    }
    Ok(Repeated {
        reps,
        setups,
        refs,
        err,
    })
}

fn per_rep_line(walls: &[f64]) -> String {
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    format!("wall per repetition: [{}] s", each.join(", "))
}

fn serve_end_to_end(smc: &Path, args: &Args, shape: serve_load::Shape) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let tr = serve_load::Traffic::new(smc, shape, args.seed)?;
    o.tally.check(tr.self_test(smc, args.seed)?, || {
        "serve traffic is not reproducible from its seed, or not seed-specific".into()
    });
    // Repeat the open loop until one keeps its schedule; the closed
    // loop before it is timed either way.
    let mut need_open = true;
    let Repeated {
        reps,
        setups,
        refs,
        err,
    } = repeat(
        args.seconds,
        || serve_load::setup_sample(smc),
        || {
            let r = serve_load::rep(smc, &tr, need_open)?;
            need_open &= !r.open_on_schedule();
            Ok(r)
        },
    )?;
    if let Some(e) = err {
        o.tally.check(false, || format!("repetition failed: {e}"));
    }
    let (mut walls, mut rss, mut latency, mut lags) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for r in &reps {
        o.tally.absorb(&r.tally);
        if r.tally.failed == 0 {
            walls.push(r.closed_wall.as_secs_f64());
            rss.push(r.peak_rss_mb);
        }
        match (&r.open, r.lag_p99_ms()) {
            (Some(open), _) if r.open_on_schedule() => {
                latency.extend_from_slice(&open.latency_ms);
                lags.extend_from_slice(&open.lag_ms);
            }
            (Some(_), Some(lag)) => o.lines.push(format!(
                "open loop discarded: generator lag p99 {lag:.2} ms > {} ms",
                serve_load::MAX_GEN_LAG_P99_MS
            )),
            _ => {}
        }
    }
    if need_open {
        o.tally.fail(
            1,
            "no open loop kept its schedule: verdict latency unmeasured".into(),
        );
    }
    if walls.is_empty() {
        return Ok(o);
    }
    let events = tr.closed_events() as f64;
    let name = args.workload.name();
    let wall = median(&walls);
    o.lines.push(per_rep_line(&walls));
    o.lines.push(format!(
        "{name}: events_per_s = {events} events / {wall:.4} s = {:.1} events/s (closed loop, 2 connections, query every {})",
        events / wall,
        shape.query_every
    ));
    if !latency.is_empty() {
        let lat = Summary::of(&latency);
        latency.sort_by(f64::total_cmp);
        o.lines.push(format!(
            "{name}: verdict_p50_ms = {:.3} ms, verdict_p99_ms = {:.3} ms (n={}, open loop at {} events/s); tail: {}",
            lat.p50,
            stats::percentile(&latency, 99.0),
            lat.n,
            shape.open_rate,
            lat.render(" ms")
        ));
        o.lines.push(format!(
            "{name}: generator lag {}",
            Summary::of(&lags).render(" ms")
        ));
    }
    o.end_to_end(wall, walls.len(), &setups, &rss, &refs);
    Ok(o)
}

/// Process names of a one-shot repetition, in [`oneshot::Rep::walls`]
/// order.
fn process_names(separate: bool) -> Vec<&'static str> {
    if separate {
        vec!["separate"]
    } else {
        oneshot::SATURATE_MODELS
            .iter()
            .chain(&oneshot::EXHAUSTIVE_MODELS)
            .copied()
            .collect()
    }
}

fn oneshot_end_to_end(smc: &Path, args: &Args, work: &Path) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let separate = args.workload == Workload::SeparateLattice;
    let setup = oneshot::Setup::new(work, separate)?;
    let suites = if separate {
        None
    } else {
        Some(oneshot::write_suites(work, args.seed)?)
    };
    let base_rss = setup.sample(smc)?.1;
    let Repeated {
        reps,
        setups,
        refs,
        err,
    } = repeat(
        args.seconds,
        || Ok(setup.sample(smc)?.0),
        || match &suites {
            None => oneshot::separate_rep(smc),
            Some(s) => oneshot::check_rep(smc, s, base_rss),
        },
    )?;
    if let Some(e) = err {
        o.tally.check(false, || format!("repetition failed: {e}"));
    }
    let mut valid = Vec::new();
    for r in &reps {
        o.tally.absorb(&r.tally);
        if r.tally.failed == 0 {
            valid.push(r);
        }
    }
    if valid.is_empty() {
        return Ok(o);
    }
    // Each process's median over the repetitions, summed: a burst of
    // host noise then moves one process's sample, not the whole
    // repetition's.
    let names = process_names(separate);
    let mut wall = 0.0;
    for (j, name) in names.iter().enumerate() {
        let each: Vec<f64> = valid.iter().map(|r| r.walls[j].as_secs_f64()).collect();
        let m = median(&each);
        wall += m;
        if !separate {
            o.lines
                .push(format!("{name}: median {m:.4} s of {}", each.len()));
        }
    }
    let sums: Vec<f64> = valid
        .iter()
        .map(|r| r.walls.iter().map(Duration::as_secs_f64).sum())
        .collect();
    o.lines.push(per_rep_line(&sums));
    if !separate {
        o.lines.push(format!(
            "peak_rss_mb: sum over the {} processes of each one's peak above the trivial run's {base_rss:.1} MB",
            names.len()
        ));
    }
    let rss: Vec<f64> = valid.iter().map(|r| r.peak_rss_mb).collect();
    o.end_to_end(wall, valid.len(), &setups, &rss, &refs);
    Ok(o)
}

fn traced(smc: &Path, args: &Args, work: &Path, header: &str) -> Result<Outcome, String> {
    let (layers, tracer) = match args.workload {
        Workload::ServeIngest => {
            let shape = args.workload.shape().expect("serve workload");
            let tr = serve_load::Traffic::new(smc, shape, args.seed)?;
            traced::serve(smc, &tr, shape.query_every)?
        }
        Workload::SeparateLattice => traced::separate()?,
        Workload::CheckBighist => traced::check(args.seed)?,
    };
    let spans = work.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write(&spans, header)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    let mut o = Outcome {
        tally: layers.tally,
        lines: layers.lines,
        ..Outcome::default()
    };
    o.lines.push(format!(
        "spans: {} ({} spans)",
        spans.display(),
        tracer.spans().len()
    ));
    let mut values = layers.values;
    for (name, unit) in PER_LAYER {
        o.metrics
            .push((name, values.remove(name).unwrap_or(0.0), unit));
    }
    debug_assert!(
        values.is_empty(),
        "metrics missing from PER_LAYER: {values:?}"
    );
    Ok(o)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(calib::CALIBRATE_ARG) {
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: smc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = || -> Result<(String, Outcome), String> {
        let work = PathBuf::from(OUT_DIR);
        std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
        let smc = child::build_smc()?;
        let rec = record(&args);
        let o = if args.trace {
            traced(&smc, &args, &work, &rec)?
        } else if let Some(shape) = args.workload.shape() {
            serve_end_to_end(&smc, &args, shape)?
        } else {
            oneshot_end_to_end(&smc, &args, &work)?
        };
        Ok((rec, o))
    };
    match run() {
        Ok((rec, o)) => {
            println!("record {rec}");
            println!("driver peak RSS {:.1} MB", child::own_peak_rss_mb());
            for l in &o.lines {
                println!("{l}");
            }
            let t = &o.tally;
            println!(
                "{}",
                show_ratio("failed_share", t.failed as f64, t.attempted as f64)
            );
            println!(
                "{}",
                show_ratio("undecided_share", t.undecided as f64, t.verdicts as f64)
            );
            for n in &t.notes {
                eprintln!("failure: {n}");
            }
            println!("{}", o.json());
            if o.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly the workloads and metrics this
    /// driver emits, with the same units, and state the open-loop rates.
    #[test]
    fn benchmark_json_matches_the_driver() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let field = |key: &str| -> Vec<String> {
            text.split(&format!("\"{key}\": \""))
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
                .collect()
        };
        let want_names: Vec<&str> = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.0))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert_eq!(field("name"), want_names);
        let want_units: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.1)
            .collect();
        assert_eq!(field("unit"), want_units);
        let whys = field("why").join(" ");
        let rate = serve_load::INGEST.open_rate;
        assert!(
            whys.contains(&format!("{rate} events/s")),
            "rate {rate} not stated"
        );
    }

    #[test]
    fn args_parse_and_reject() {
        let a = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&a(
            "--workload check_bighist --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::CheckBighist, 3, 10, true)
        );
        assert!(parse_args(&a("--workload nope --seed 3 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&a(
            "--workload check_bighist --seed 3 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&a(
            "--workload check_bighist --seed x --seconds 10 --trace 0"
        ))
        .is_err());
    }

    #[test]
    fn outcome_json_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.tally.attempted = 4;
        o.end_to_end(2.0, 2, &[0.5], &[10.0], &[calib::REFERENCE_S * 2.0]);
        let j = o.json();
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {")
        );
        // Reference launches took twice the reference: times are halved.
        assert!(j.contains("\"wall_ref_s\": {\"value\": 1.0, \"unit\": \"s\"}"));
        assert!(j.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        o.tally.failed = 1;
        assert!(o.json().starts_with("{\"correct\": false"));
    }
}
