//! Subcommand implementations for the `smc` binary.

use crate::json::JsonObject;
use smc_core::batch::{check_batch, BatchResult};
use smc_core::checker::{format_view, CheckConfig, CheckStats, Engine, EngineKind, Verdict};
use smc_core::memo::MemoStats;
use smc_core::models;
use smc_core::spec::ModelSpec;
use smc_history::litmus::{parse_history, parse_suite, LitmusTest};
use smc_history::{History, Label, ProcId};
use smc_programs::bakery::bakery;
use smc_programs::interp::ProgramWorkload;
use smc_sim::explore::{explore, ExploreConfig};
use smc_sim::mem::MemorySystem;
use smc_sim::sched::run_random;
use smc_sim::workload::{Access, OpScript};
use smc_sim::{
    CausalMem, CoherentMem, HybridMem, PcMem, PramMem, RcMem, ScMem, SyncMode, TsoMem, WoMem,
};
use std::process::ExitCode;

/// Top-level usage text.
pub const USAGE: &str = "\
usage:
  smc check <file> [--model NAME] [--jobs N] [--stats]
            [--memo-file PATH] [--cutover N]
            [--engine exhaustive|saturate|auto]
                                    check a litmus history or suite;
                                    --memo-file persists decided verdicts
                                    across runs (corrupt or mismatched
                                    files are ignored with a warning)
  smc corpus [--jobs N] [--stats] [--json PATH] [--exhaustive]
            [--engine-equiv] [--memo-file PATH] [--cutover N]
            [--engine exhaustive|saturate|auto]
                                    check the embedded litmus corpus
                                    against its recorded expectations;
                                    --json writes machine-readable per-case
                                    stats + memo counters; --exhaustive
                                    sweeps the full small-history universe
                                    instead (Figure 5 models, with memoized
                                    + lattice-propagated verdicts);
                                    --engine-equiv runs both engines on
                                    every saturate-supporting model and
                                    exits nonzero on any divergence
  smc matrix <file> [--jobs N] [--stats] [--cutover N]
            [--memo-file PATH] [--engine exhaustive|saturate|auto]
                                    classification matrix for a suite
  smc explore <file> --memory NAME [--check] [--model NAME] [--jobs N]
                                    enumerate every history a machine
                                    produces for the file's program shape;
                                    --check classifies each history
  smc bakery [--memory NAME] [--n N] [--runs R] [--show-program]
                                    run the Bakery algorithm (default rcpc)
  smc separate <model-a> <model-b> [--jobs N] [--max-universe SPEC]
            [--json PATH] [--memo-file PATH] [--emit-dir DIR]
            [--no-minimize] [--cutover N]
            [--engine exhaustive|saturate|auto]
                                    search universes of increasing size for
                                    minimized witness histories one model
                                    admits and the other refutes;
                                    --max-universe is small|medium|large or
                                    an explicit PxOxLxV cap like 3x2x2x2
                                    (default medium); --emit-dir writes
                                    each witness as a litmus test file
  smc separate --all [...]          sweep every unlabeled model pair and
                                    report the full witness table
  smc monitor [<file>|-] [--model NAME] [--jobs N] [--stats]
            [--json PATH] [--max-states N] [--batch N] [--cutover N]
            [--memo-file PATH] [--engine exhaustive|saturate|auto]
            [--window N] [--checkpoint-file PATH] [--restore-from PATH]
                                    stream a trace (stdin when `-` or no
                                    file) through the incremental admission
                                    monitor; malformed lines warn with
                                    their byte offset and are skipped
                                    (counted in --stats/--json); --batch N
                                    feeds N events per monitor step;
                                    `join p`/`retire p` lines move
                                    processors in and out of the active
                                    set (retired processors fold into a
                                    summarized prefix); `@sid`-prefixed
                                    lines replay a multi-session stream,
                                    one monitor per session (warnings
                                    then name the session); --window N
                                    seals the decided prefix every N
                                    events to bound frontier memory;
                                    --checkpoint-file saves the monitor
                                    state at end of input and
                                    --restore-from resumes warm from
                                    such a file (same models required;
                                    cap and window are inherited unless
                                    overridden); exits nonzero if
                                    any model's final verdict is
                                    violated
  smc monitor --corpus [--jobs N] [--json PATH]
                                    replay every embedded litmus history
                                    through the monitor event-by-event and
                                    diff the final verdicts against the
                                    batch checker (the monitor golden gate)
  smc serve [--listen ADDR] [--workers N] [--max-sessions N]
            [--max-conns N] [--queue N] [--model NAME] [--jobs N]
            [--max-states N] [--window N] [--evict-dir DIR]
                                    run the multi-session streaming
                                    admission server: line-oriented TCP
                                    (OPEN/EV/QUERY/CLOSE, `@sid <event>`
                                    shorthand), one incremental monitor
                                    per session, bounded per-session
                                    queues (BUSY backpressure), verdicts
                                    on QUERY; SNAPSHOT/RESUME checkpoint
                                    a session to a file and resume it
                                    warm; --evict-dir spills the least
                                    recently active idle session to disk
                                    instead of refusing OPEN when
                                    --max-sessions is reached (evicted
                                    sessions resume transparently on
                                    next use); --window N bounds each
                                    session's frontier memory; stops on
                                    SHUTDOWN
  smc serve --bench [--sessions N] [--events N] [--conns C]
            [--query-every K] [--memory NAME] [--seed S] [--json PATH]
                                    start an ephemeral server, drive it
                                    with the in-tree load generator over
                                    loopback, diff every final verdict
                                    against the offline monitor, and
                                    report sustained events/sec + QUERY
                                    latency percentiles
  smc loadgen --addr HOST:PORT [--sessions N] [--events N] [--conns C]
            [--query-every K] [--memory NAME] [--seed S] [--verify]
            [--max-states N] [--shutdown] [--json PATH]
                                    drive a running `smc serve` with
                                    generated multi-session traffic;
                                    --verify diffs final verdicts
                                    against the offline monitor,
                                    --shutdown stops the server after
  smc trace gen [--memory NAME] [--procs N] [--ops N | --events N]
            [--locs L] [--values V | --alias-values K] [--seed S]
            [--sessions N] [--churn K] [--out PATH]
                                    run a random program on an operational
                                    machine and emit its arrival-order
                                    event stream in the trace format;
                                    --ops sizes per processor, --events
                                    fixes the total event count (the
                                    stream is cut to exactly N events);
                                    --alias-values folds fresh write
                                    values into a K-letter alphabet so
                                    reads-from stays heavily ambiguous;
                                    --sessions N interleaves N
                                    independent streams with @sid
                                    prefixes (the `smc serve` format);
                                    --churn K runs K+1 processor
                                    generations joined and retired over
                                    one stream (`join`/`retire` lines,
                                    for the monitor's churn folding)
  smc trace from <file> [--test NAME] [--out PATH]
                                    linearize a litmus history into the
                                    trace format (processor-major order)
  smc models                        list available models and machines

--jobs N runs checks on N worker threads (default 1; results are
reported in the same order as sequential checking). With more workers
than (history, model) pairs, the workers move inside each check: the
work-stealing scheduler splits the extension search itself.

Commands that take a file or other positional arguments (check,
matrix, explore, separate, monitor, trace) reject any --flag they do
not list above.

--cutover N bounds the sequential probe a parallel check (--jobs > 1)
runs before spawning workers: if the probe decides within N search
nodes the check never pays thread or shared-pool setup (default 4096;
0 always fans out immediately).

--engine picks the checking backend: `exhaustive` enumerates schedules,
`saturate` decides by order-constraint propagation (no enumeration; it
handles unlabeled models without release-consistency or fence structure
and scales to 100-1000-op histories), `auto` (the default) saturates
when the model is supported and the history is big enough to repay it
(more than 16 operations for models with a global store order or
coherence, more than 32 for structure-free models like SC and PRAM),
else stays exhaustive.

memories for --memory: sc tso tso-fwd pram causal pc coherent rcsc rcpc wo hybrid";

/// Dispatch on the first argument.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("corpus") => cmd_corpus(&args[1..]),
        Some("matrix") => cmd_matrix(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("bakery") => cmd_bakery(&args[1..]),
        Some("separate") => cmd_separate(&args[1..]),
        Some("monitor") => cmd_monitor(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("models") => cmd_models(),
        Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err("missing subcommand".into()),
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

/// Parse a file as a suite if it contains `test` blocks, else as a bare
/// history wrapped in an anonymous test.
fn load(path: &str) -> Result<Vec<LitmusTest>, String> {
    let text = read_file(path)?;
    let looks_like_suite = text
        .lines()
        .map(str::trim_start)
        .any(|l| l.starts_with("test"));
    if looks_like_suite {
        parse_suite(&text).map_err(|e| e.to_string())
    } else {
        let history = parse_history(&text).map_err(|e| e.to_string())?;
        Ok(vec![LitmusTest {
            name: path.to_owned(),
            description: String::new(),
            history,
            expectations: Vec::new(),
        }])
    }
}

fn resolve_models(selector: Option<&str>) -> Result<Vec<ModelSpec>, String> {
    match selector {
        None | Some("all") => Ok(models::all_models()),
        Some(name) => models::by_name(name)
            .map(|m| vec![m])
            .ok_or_else(|| format!("unknown model `{name}` (try `smc models`)")),
    }
}

/// Parse `--jobs N` (default 1 = sequential).
fn jobs_flag(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--jobs") {
        None if args.iter().any(|a| a == "--jobs") => Err("--jobs requires a value".to_string()),
        None => Ok(1),
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--jobs: `{v}` is not a positive integer")),
    }
}

fn render_stats(stats: &CheckStats) -> String {
    let mut s = format!(
        "{} nodes, {} rf assignment(s), {:.1?}",
        stats.nodes_spent, stats.rf_assignments_tried, stats.wall
    );
    if stats.rf_truncated {
        s.push_str(", rf truncated");
    }
    // Cutover decision: `ran_sequential` means the check answered without
    // spawning workers (jobs 1, or the bounded probe decided). A non-zero
    // probe count without it means the probe exhausted and workers were
    // spawned anyway. Plain sequential runs take no cutover decision, so
    // print nothing for them.
    if stats.ran_sequential {
        if stats.probe_nodes > 0 {
            s.push_str(&format!(
                ", ran sequential (cutover probe: {} nodes)",
                stats.probe_nodes
            ));
        } else {
            s.push_str(", ran sequential");
        }
    } else if stats.probe_nodes > 0 {
        s.push_str(&format!(
            ", cutover probe exhausted ({} nodes), fanned out",
            stats.probe_nodes
        ));
    }
    // Failed-set counters only mean something when the work-stealing
    // scheduler actually ran; the sequential and coarse per-store-order
    // paths never touch the set, and printing their zeros would imply it
    // did.
    if stats.work_stealing_ran {
        let fs = stats.failed_set;
        s.push_str(&format!(
            ", failed-set {} hits/{} misses/{} inserts/{} evictions",
            fs.hits, fs.misses, fs.inserts, fs.evictions
        ));
    }
    // The engine line only matters when the saturation backend ran; the
    // exhaustive engine is the default and its saturation counters are
    // structurally zero.
    if stats.engine_used == Engine::Saturate {
        s.push_str(&format!(
            ", engine saturate ({} closure steps, {} branches, {} wakeups, \
             {} conflicts, {} learned, {} restarts)",
            stats.saturation_steps,
            stats.saturation_branches,
            stats.saturation_wakeups,
            stats.saturation_conflicts,
            stats.saturation_learned,
            stats.saturation_restarts
        ));
    }
    if let Some(stage) = stats.exhausted_stage {
        s.push_str(&format!(", exhausted in {stage}"));
    }
    s
}

/// Check every (test × model) pair of a suite on `jobs` threads; results
/// come back indexed test-major, matching the sequential print order.
/// With more workers than pairs, batch-level fan-out would leave threads
/// idle, so the workers move *inside* each check instead (the
/// work-stealing scheduler splits the extension search itself).
fn check_suite(
    suite: &[LitmusTest],
    model_list: &[ModelSpec],
    cfg: &CheckConfig,
    jobs: usize,
) -> Vec<BatchResult> {
    let pairs: Vec<(&History, &ModelSpec)> = suite
        .iter()
        .flat_map(|t| model_list.iter().map(move |m| (&t.history, m)))
        .collect();
    if jobs > 1 && pairs.len() < jobs {
        return pairs
            .iter()
            .enumerate()
            .map(|(index, (h, m))| {
                let (verdict, stats) = smc_core::batch::check_parallel(h, m, cfg, jobs);
                BatchResult {
                    index,
                    verdict,
                    stats,
                }
            })
            .collect();
    }
    check_batch(&pairs, cfg, jobs)
}

/// Parse `--cutover N` (default: `CheckConfig`'s probe budget). 0 means
/// parallel checks fan out immediately, skipping the sequential probe.
fn cutover_flag(args: &[String], default: u64) -> Result<u64, String> {
    match flag_value(args, "--cutover") {
        None if args.iter().any(|a| a == "--cutover") => {
            Err("--cutover requires a value".to_string())
        }
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|_| format!("--cutover: `{v}` is not a non-negative integer")),
    }
}

/// Parse `--engine exhaustive|saturate|auto` (default auto).
fn engine_flag(args: &[String]) -> Result<EngineKind, String> {
    match flag_value(args, "--engine") {
        None if args.iter().any(|a| a == "--engine") => Err("--engine requires a value".into()),
        None | Some("auto") => Ok(EngineKind::Auto),
        Some("exhaustive") => Ok(EngineKind::Exhaustive),
        Some("saturate") => Ok(EngineKind::Saturate),
        Some(other) => Err(format!(
            "--engine: `{other}` is not `exhaustive`, `saturate` or `auto`"
        )),
    }
}

/// The checking flags every checking subcommand (`check`, `corpus`,
/// `matrix`, `separate`, `monitor`) accepts. Parsed in one place so the
/// commands cannot drift apart in spelling, defaults or error messages.
struct CheckFlags {
    jobs: usize,
    cutover: u64,
    engine: EngineKind,
    memo_file: Option<String>,
}

impl CheckFlags {
    fn parse(args: &[String]) -> Result<Self, String> {
        Ok(CheckFlags {
            jobs: jobs_flag(args)?,
            cutover: cutover_flag(args, CheckConfig::default().parallel_cutover)?,
            engine: engine_flag(args)?,
            memo_file: flag_value(args, "--memo-file").map(str::to_owned),
        })
    }

    /// Copy the parsed flags into a config (memo attachment stays the
    /// caller's decision — see [`CheckFlags::with_memo_if_requested`]).
    fn configure(&self, cfg: &mut CheckConfig) {
        cfg.parallel_cutover = self.cutover;
        cfg.engine = self.engine;
    }

    /// Attach a memo cache when `--memo-file` was given (commands that
    /// always memoize call `.with_memo()` themselves).
    fn with_memo_if_requested(&self, cfg: CheckConfig) -> CheckConfig {
        if self.memo_file.is_some() {
            cfg.with_memo()
        } else {
            cfg
        }
    }

    fn memo_file(&self) -> Option<&str> {
        self.memo_file.as_deref()
    }
}

/// Load `--memo-file` into `cfg`'s cache if the flag is present. A
/// missing file is a cold start; a corrupt or mismatched file is ignored
/// with a warning — persistence must never fail a check.
fn memo_file_load(cfg: &CheckConfig, path: Option<&str>) {
    let (Some(path), Some(memo)) = (path, &cfg.memo) else {
        return;
    };
    if !std::path::Path::new(path).exists() {
        return;
    }
    match memo.load(std::path::Path::new(path)) {
        Ok(n) => eprintln!("memo: loaded {n} cached verdict(s) from {path}"),
        Err(e) => eprintln!("warning: ignoring memo file: {e}"),
    }
}

/// Save `cfg`'s cache back to `--memo-file`, if the flag is present.
fn memo_file_save(cfg: &CheckConfig, path: Option<&str>) {
    let (Some(path), Some(memo)) = (path, &cfg.memo) else {
        return;
    };
    match memo.save(std::path::Path::new(path)) {
        Ok(n) => eprintln!("memo: saved {n} cached verdict(s) to {path}"),
        Err(e) => eprintln!("warning: could not save memo file `{path}`: {e}"),
    }
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let pos = positionals(
        "check",
        args,
        &["--model", "--jobs", "--cutover", "--engine", "--memo-file"],
        &["--stats"],
    )?;
    let path = pos.first().ok_or("check: missing <file>")?;
    let model_list = resolve_models(flag_value(args, "--model"))?;
    let flags = CheckFlags::parse(args)?;
    let jobs = flags.jobs;
    let show_stats = args.iter().any(|a| a == "--stats");
    let mut cfg = flags.with_memo_if_requested(CheckConfig::default());
    flags.configure(&mut cfg);
    memo_file_load(&cfg, flags.memo_file());
    let suite = load(path)?;
    let results = check_suite(&suite, &model_list, &cfg, jobs);
    memo_file_save(&cfg, flags.memo_file());
    let mut failures = 0;
    for (ti, t) in suite.iter().enumerate() {
        println!("== {} ==", t.name);
        for line in t.history.to_string().lines() {
            println!("    {line}");
        }
        for (mi, m) in model_list.iter().enumerate() {
            let r = &results[ti * model_list.len() + mi];
            let v = &r.verdict;
            let cell = match v {
                Verdict::Allowed(_) => "allowed".to_owned(),
                Verdict::Disallowed => "forbidden".to_owned(),
                Verdict::Exhausted => "undecided (budget)".to_owned(),
                Verdict::Unsupported(e) => format!("unsupported: {e}"),
            };
            let expect = t.expectation(&m.name);
            let marker = match (expect, v.decided()) {
                (Some(e), Some(g)) if e == g => "  [expected]",
                (Some(_), _) => {
                    failures += 1;
                    "  [MISMATCH]"
                }
                _ => "",
            };
            println!("  {:<16} {cell}{marker}", m.name);
            if show_stats {
                println!("                   ({})", render_stats(&r.stats));
            }
            if model_list.len() == 1 {
                match v {
                    Verdict::Allowed(w) => {
                        for (p, view) in w.views.iter().enumerate() {
                            println!("    {}", format_view(&t.history, ProcId(p as u32), view));
                        }
                    }
                    Verdict::Disallowed => {
                        if let Some(cert) = smc_core::explain::explain_disallowed(&t.history, m) {
                            println!("    {}", cert.render(&t.history));
                        }
                    }
                    _ => {}
                }
            }
        }
        println!();
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} expectation(s) failed");
        ExitCode::FAILURE
    })
}

fn memo_json(memo: &MemoStats) -> String {
    JsonObject::new()
        .num("hits", memo.hits)
        .num("misses", memo.misses)
        .num("inserts", memo.inserts)
        .num("evictions", memo.evictions)
        .finish()
}

fn verdict_word(v: &Verdict) -> &'static str {
    match v {
        Verdict::Allowed(_) => "allowed",
        Verdict::Disallowed => "forbidden",
        Verdict::Exhausted => "exhausted",
        Verdict::Unsupported(_) => "unsupported",
    }
}

fn cmd_corpus(args: &[String]) -> Result<ExitCode, String> {
    let flags = CheckFlags::parse(args)?;
    let jobs = flags.jobs;
    let show_stats = args.iter().any(|a| a == "--stats");
    let json_path = flag_value(args, "--json");
    if args.iter().any(|a| a == "--engine-equiv") {
        return corpus_engine_equiv(&flags, json_path);
    }
    if args.iter().any(|a| a == "--exhaustive") {
        return corpus_exhaustive(jobs, show_stats, json_path, flags.cutover);
    }
    // Decided verdicts are renaming-invariant, so the memo is safe here:
    // expectations compare only allowed/forbidden, never the witness.
    let mut cfg = CheckConfig::default().with_memo();
    flags.configure(&mut cfg);
    let memo = cfg.memo.clone().expect("with_memo attaches a cache");
    memo_file_load(&cfg, flags.memo_file());
    let suite = smc_programs::corpus::litmus_suite();
    let model_list = models::all_models();
    let results = check_suite(&suite, &model_list, &cfg, jobs);
    memo_file_save(&cfg, flags.memo_file());
    let mut failures = 0;
    let mut checked = 0;
    let mut nodes = 0u64;
    let mut json_lines: Vec<String> = Vec::new();
    for (ti, t) in suite.iter().enumerate() {
        for (mi, m) in model_list.iter().enumerate() {
            let r = &results[ti * model_list.len() + mi];
            nodes += r.stats.nodes_spent;
            if json_path.is_some() {
                json_lines.push(
                    JsonObject::new()
                        .str("test", &t.name)
                        .str("model", &m.name)
                        .str("verdict", verdict_word(&r.verdict))
                        .num("nodes", r.stats.nodes_spent)
                        .num("rf_tried", r.stats.rf_assignments_tried as u64)
                        .num("wall_us", r.stats.wall.as_micros() as u64)
                        .bool("memo_hit", r.stats.memo_hit)
                        .bool("ran_sequential", r.stats.ran_sequential)
                        .num("probe_nodes", r.stats.probe_nodes)
                        .str("engine", &r.stats.engine_used.to_string())
                        .num("saturation_steps", r.stats.saturation_steps)
                        .num("saturation_branches", r.stats.saturation_branches)
                        .num("saturation_wakeups", r.stats.saturation_wakeups)
                        .num("saturation_conflicts", r.stats.saturation_conflicts)
                        .num("saturation_learned", r.stats.saturation_learned)
                        .num("saturation_restarts", r.stats.saturation_restarts)
                        .finish(),
                );
            }
            let Some(expected) = t.expectation(&m.name) else {
                continue;
            };
            checked += 1;
            match r.verdict.decided() {
                Some(got) if got == expected => {}
                Some(_) => {
                    failures += 1;
                    println!(
                        "MISMATCH {}: {} expected {}, got {}",
                        t.name,
                        m.name,
                        if expected { "allowed" } else { "forbidden" },
                        if expected { "forbidden" } else { "allowed" },
                    );
                }
                None => {
                    failures += 1;
                    println!(
                        "UNDECIDED {}: {} ({})",
                        t.name,
                        m.name,
                        render_stats(&r.stats)
                    );
                }
            }
        }
    }
    let memo_stats = memo.stats();
    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("tests", suite.len() as u64)
                .num("models", model_list.len() as u64)
                .num("checked", checked as u64)
                .num("failures", failures as u64)
                .num("total_nodes", nodes)
                .raw("memo", &memo_json(&memo_stats))
                .finish(),
        );
        let mut text = json_lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    println!(
        "corpus: {} tests × {} models, {} expectation(s) checked, {} failure(s){}",
        suite.len(),
        model_list.len(),
        checked,
        failures,
        if jobs > 1 {
            format!(" [{jobs} jobs]")
        } else {
            String::new()
        }
    );
    if show_stats {
        println!("total search nodes: {nodes}");
        println!(
            "memo: {} hits, {} misses, {} inserts, {} evictions",
            memo_stats.hits, memo_stats.misses, memo_stats.inserts, memo_stats.evictions
        );
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `smc corpus --engine-equiv`: the engine drift gate. Every embedded
/// litmus history is checked by both the exhaustive checker and the
/// saturation engine on every model that advertises saturate support;
/// wherever both decide they must agree, saturate must never report
/// `Unsupported` there, and every saturate `Allowed` witness must pass
/// the independent verifier. Exits nonzero on any divergence.
fn corpus_engine_equiv(flags: &CheckFlags, json_path: Option<&str>) -> Result<ExitCode, String> {
    use smc_core::verify::verify_witness;

    let ex_cfg = CheckConfig {
        engine: EngineKind::Exhaustive,
        parallel_cutover: flags.cutover,
        ..CheckConfig::default()
    };
    let sat_cfg = CheckConfig {
        engine: EngineKind::Saturate,
        ..ex_cfg.clone()
    };
    let suite = smc_programs::corpus::litmus_suite();
    let model_list = models::saturating_models();
    let ex = check_suite(&suite, &model_list, &ex_cfg, flags.jobs);
    let sat = check_suite(&suite, &model_list, &sat_cfg, flags.jobs);

    let mut pairs = 0usize;
    let mut divergences = 0usize;
    let mut json_lines: Vec<String> = Vec::new();
    for (ti, t) in suite.iter().enumerate() {
        for (mi, m) in model_list.iter().enumerate() {
            let e = &ex[ti * model_list.len() + mi];
            let s = &sat[ti * model_list.len() + mi];
            pairs += 1;
            let mut problem: Option<String> = None;
            if let Verdict::Unsupported(msg) = &s.verdict {
                problem = Some(format!("saturate refused a supported model: {msg}"));
            } else if let (Some(a), Some(b)) = (e.verdict.decided(), s.verdict.decided()) {
                if a != b {
                    problem = Some(format!(
                        "exhaustive says {}, saturate says {}",
                        verdict_word(&e.verdict),
                        verdict_word(&s.verdict)
                    ));
                }
            }
            if problem.is_none() {
                if let Verdict::Allowed(w) = &s.verdict {
                    if let Err(err) = verify_witness(&t.history, m, w) {
                        problem = Some(format!("saturate witness rejected: {err}"));
                    }
                }
            }
            if let Some(msg) = &problem {
                divergences += 1;
                println!("DIVERGENCE {}: {}: {msg}", t.name, m.name);
            }
            if json_path.is_some() {
                json_lines.push(
                    JsonObject::new()
                        .str("test", &t.name)
                        .str("model", &m.name)
                        .str("exhaustive", verdict_word(&e.verdict))
                        .str("saturate", verdict_word(&s.verdict))
                        .num("saturation_steps", s.stats.saturation_steps)
                        .num("saturation_branches", s.stats.saturation_branches)
                        .num("saturation_wakeups", s.stats.saturation_wakeups)
                        .num("saturation_conflicts", s.stats.saturation_conflicts)
                        .num("saturation_learned", s.stats.saturation_learned)
                        .num("saturation_restarts", s.stats.saturation_restarts)
                        .bool("diverged", problem.is_some())
                        .finish(),
                );
            }
        }
    }
    println!(
        "engine-equiv: {} tests × {} saturating models = {} pairs, {} divergence(s){}",
        suite.len(),
        model_list.len(),
        pairs,
        divergences,
        if flags.jobs > 1 {
            format!(" [{} jobs]", flags.jobs)
        } else {
            String::new()
        }
    );
    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("pairs", pairs as u64)
                .num("divergences", divergences as u64)
                .finish(),
        );
        let mut text = json_lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(if divergences == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `smc corpus --exhaustive`: classify the full universe of small
/// histories (2 processors × 2 ops × 2 locations × 1 value) against the
/// Figure 5 models, with the memo table and lattice propagation on. One
/// JSON line per history carries the verdict row, so a checked-in golden
/// file can detect verdict drift between revisions.
fn corpus_exhaustive(
    jobs: usize,
    show_stats: bool,
    json_path: Option<&str>,
    cutover: u64,
) -> Result<ExitCode, String> {
    let params = smc_core::histgen::GenParams {
        procs: 2,
        ops_per_proc: 2,
        locs: 2,
        values: 1,
    };
    let corpus = smc_core::histgen::all_histories(&params);
    let model_list = models::figure5_models();
    let mut cfg = CheckConfig::default().with_memo();
    cfg.parallel_cutover = cutover;
    let memo = cfg.memo.clone().expect("with_memo attaches a cache");
    let (classifications, prop) =
        smc_core::lattice::classify_all_propagating(&corpus, &model_list, &cfg, jobs);

    let mut undecided = 0usize;
    let mut json_lines: Vec<String> = Vec::new();
    for (hi, c) in classifications.iter().enumerate() {
        if c.allowed.iter().any(Option::is_none) {
            undecided += 1;
        }
        if json_path.is_some() {
            let row: Vec<String> = model_list
                .iter()
                .zip(&c.allowed)
                .map(|(m, a)| {
                    format!(
                        "{}:{}",
                        m.name,
                        match a {
                            Some(true) => "y",
                            Some(false) => "n",
                            None => "?",
                        }
                    )
                })
                .collect();
            json_lines.push(
                JsonObject::new()
                    .num("index", hi as u64)
                    .str("history", &corpus[hi].to_string().replace('\n', "; "))
                    .str("verdicts", &row.join(" "))
                    .finish(),
            );
        }
    }
    let memo_stats = memo.stats();
    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("histories", corpus.len() as u64)
                .num("models", model_list.len() as u64)
                .num("undecided", undecided as u64)
                .num("checked", prop.checked)
                .num("propagated", prop.propagated)
                .raw("memo", &memo_json(&memo_stats))
                .finish(),
        );
        let mut text = json_lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    println!(
        "exhaustive: {} histories × {} models, {} checked, {} propagated, {} undecided{}",
        corpus.len(),
        model_list.len(),
        prop.checked,
        prop.propagated,
        undecided,
        if jobs > 1 {
            format!(" [{jobs} jobs]")
        } else {
            String::new()
        }
    );
    if show_stats {
        println!(
            "memo: {} hits, {} misses, {} inserts, {} evictions",
            memo_stats.hits, memo_stats.misses, memo_stats.inserts, memo_stats.evictions
        );
    }
    Ok(if undecided == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_matrix(args: &[String]) -> Result<ExitCode, String> {
    let pos = positionals(
        "matrix",
        args,
        &["--jobs", "--cutover", "--engine", "--memo-file"],
        &["--stats"],
    )?;
    let path = pos.first().ok_or("matrix: missing <file>")?;
    let flags = CheckFlags::parse(args)?;
    let jobs = flags.jobs;
    let show_stats = args.iter().any(|a| a == "--stats");
    let suite = load(path)?;
    let model_list = models::all_models();
    let mut cfg = if show_stats || flags.memo_file.is_some() {
        CheckConfig::default().with_memo()
    } else {
        CheckConfig::default()
    };
    flags.configure(&mut cfg);
    memo_file_load(&cfg, flags.memo_file());
    let results = check_suite(&suite, &model_list, &cfg, jobs);
    memo_file_save(&cfg, flags.memo_file());
    let name_w = suite.iter().map(|t| t.name.len()).max().unwrap_or(7).max(7);
    print!("{:<name_w$}", "history");
    for m in &model_list {
        print!(" {:>14}", m.name);
    }
    if show_stats {
        print!(" {:>12}", "nodes");
    }
    println!();
    let mut nodes = 0u64;
    for (ti, t) in suite.iter().enumerate() {
        print!("{:<name_w$}", t.name);
        let mut row_nodes = 0u64;
        for mi in 0..model_list.len() {
            let r = &results[ti * model_list.len() + mi];
            row_nodes += r.stats.nodes_spent;
            let cell = match &r.verdict {
                Verdict::Allowed(_) => "yes",
                Verdict::Disallowed => "no",
                Verdict::Exhausted => "?",
                Verdict::Unsupported(_) => "n/a",
            };
            print!(" {cell:>14}");
        }
        if show_stats {
            print!(" {row_nodes:>12}");
        }
        nodes += row_nodes;
        println!();
    }
    if show_stats {
        println!("total search nodes: {nodes}");
        if let Some(memo) = &cfg.memo {
            let s = memo.stats();
            println!(
                "memo: {} hits, {} misses, {} inserts, {} evictions",
                s.hits, s.misses, s.inserts, s.evictions
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Turn a history into the program shape that generated it: per-processor
/// access lists (write values kept, read values ignored).
fn to_script(h: &History) -> OpScript {
    let threads = (0..h.num_procs())
        .map(|p| {
            h.proc_ops(ProcId(p as u32))
                .iter()
                .map(|o| Access {
                    kind: o.kind,
                    loc: o.loc,
                    value: o.value,
                    label: o.label,
                })
                .collect()
        })
        .collect();
    OpScript::new(threads, h.num_locs())
}

fn cmd_explore(args: &[String]) -> Result<ExitCode, String> {
    let pos = positionals(
        "explore",
        args,
        &["--memory", "--model", "--jobs"],
        &["--check"],
    )?;
    let path = pos.first().ok_or("explore: missing <file>")?;
    let memory = flag_value(args, "--memory").ok_or("explore: missing --memory NAME")?;
    let do_check = args.iter().any(|a| a == "--check");
    let jobs = jobs_flag(args)?;
    let tests = load(path)?;
    let t = tests.first().ok_or("explore: file contains no history")?;
    let script = to_script(&t.history);
    let (n, l) = (t.history.num_procs(), t.history.num_locs());
    let cfg = ExploreConfig::default();

    fn go<M: MemorySystem>(
        mem: M,
        script: &OpScript,
        cfg: &ExploreConfig,
    ) -> (String, smc_sim::explore::ExploreOutcome) {
        let name = mem.name();
        (name, explore(&mem, script, cfg))
    }

    let (mem_name, out) = match memory {
        "sc" => go(ScMem::new(n, l), &script, &cfg),
        "tso" => go(TsoMem::new(n, l), &script, &cfg),
        "tso-fwd" => go(TsoMem::with_forwarding(n, l), &script, &cfg),
        "pram" => go(PramMem::new(n, l), &script, &cfg),
        "causal" => go(CausalMem::new(n, l), &script, &cfg),
        "pc" => go(PcMem::new(n, l), &script, &cfg),
        "coherent" => go(CoherentMem::new(n, l), &script, &cfg),
        "rcsc" => go(RcMem::new(SyncMode::Sc, n, l), &script, &cfg),
        "rcpc" => go(RcMem::new(SyncMode::Pc, n, l), &script, &cfg),
        "wo" => go(WoMem::new(n, l), &script, &cfg),
        "hybrid" => go(HybridMem::new(n, l), &script, &cfg),
        other => return Err(format!("unknown memory `{other}`")),
    };
    println!(
        "{}: {} distinct histories over {} states{}{}",
        mem_name,
        out.histories.len(),
        out.states_explored,
        if out.truncated { " (TRUNCATED)" } else { "" },
        if out.bounded { " (bounded)" } else { "" },
    );
    if !do_check {
        for h in &out.histories {
            for line in h.to_string().lines() {
                println!("    {line}");
            }
            println!();
        }
        return Ok(ExitCode::SUCCESS);
    }

    // --check: classify every explored history against the models, using
    // the batch engine (explored histories come out in a deterministic
    // order, and batch results preserve input order).
    let model_list = resolve_models(flag_value(args, "--model"))?;
    let check_cfg = CheckConfig::default();
    let results = smc_core::batch::check_matrix(&out.histories, &model_list, &check_cfg, jobs);
    print!("{:<8}", "");
    for m in &model_list {
        print!(" {:>14}", m.name);
    }
    println!();
    for (hi, h) in out.histories.iter().enumerate() {
        print!("#{hi:<7}");
        for mi in 0..model_list.len() {
            let cell = match &results[hi * model_list.len() + mi].verdict {
                Verdict::Allowed(_) => "yes",
                Verdict::Disallowed => "no",
                Verdict::Exhausted => "?",
                Verdict::Unsupported(_) => "n/a",
            };
            print!(" {cell:>14}");
        }
        println!();
        for line in h.to_string().lines() {
            println!("    {line}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bakery(args: &[String]) -> Result<ExitCode, String> {
    let n: usize = flag_value(args, "--n")
        .unwrap_or("2")
        .parse()
        .map_err(|_| "--n: not a number")?;
    let runs: u64 = flag_value(args, "--runs")
        .unwrap_or("1000")
        .parse()
        .map_err(|_| "--runs: not a number")?;
    let memory = flag_value(args, "--memory").unwrap_or("rcpc");
    let program = bakery(n, Label::Labeled);
    let locs = program.num_locs();
    if args.iter().any(|a| a == "--show-program") {
        println!("{program}");
    }

    fn trial<M: MemorySystem>(
        make: impl Fn() -> M,
        program: &smc_programs::Program,
        runs: u64,
    ) -> (u64, Option<(u64, String, History)>) {
        let mut violations = 0;
        let mut first = None;
        for seed in 0..runs {
            let w = ProgramWorkload::new(program.clone(), 200);
            let r = run_random(make(), w, seed, 200_000);
            if let Some(v) = r.violation {
                violations += 1;
                if first.is_none() {
                    first = Some((seed, v, r.history));
                }
            }
        }
        (violations, first)
    }

    let (violations, first) = match memory {
        "sc" => trial(|| ScMem::new(n, locs), &program, runs),
        "tso" => trial(|| TsoMem::new(n, locs), &program, runs),
        "rcsc" => trial(|| RcMem::new(SyncMode::Sc, n, locs), &program, runs),
        "rcpc" => trial(|| RcMem::new(SyncMode::Pc, n, locs), &program, runs),
        "wo" => trial(|| WoMem::new(n, locs), &program, runs),
        "hybrid" => trial(|| HybridMem::new(n, locs), &program, runs),
        other => return Err(format!("bakery: unsupported memory `{other}`")),
    };
    println!("Bakery n={n} on {memory}: {violations}/{runs} runs violated mutual exclusion");
    if let Some((seed, msg, history)) = first {
        println!("first violation (seed {seed}): {msg}");
        for line in history.to_string().lines() {
            println!("    {line}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `smc separate`: search for model-separation witness histories.
fn cmd_separate(args: &[String]) -> Result<ExitCode, String> {
    use smc_core::separate::{DirectionStatus, Separator};

    let pos = positionals(
        "separate",
        args,
        &[
            "--jobs",
            "--max-universe",
            "--json",
            "--memo-file",
            "--emit-dir",
            "--cutover",
            "--engine",
        ],
        &["--all", "--no-minimize"],
    )?;
    let all = args.iter().any(|a| a == "--all");
    let model_list: Vec<ModelSpec> = if all {
        if !pos.is_empty() {
            return Err("separate: --all takes no model arguments".into());
        }
        models::lattice_models()
    } else {
        let [a, b] = pos[..] else {
            return Err("separate: expected <model-a> <model-b>, or --all".into());
        };
        let ma =
            models::by_name(a).ok_or_else(|| format!("unknown model `{a}` (try `smc models`)"))?;
        let mb =
            models::by_name(b).ok_or_else(|| format!("unknown model `{b}` (try `smc models`)"))?;
        if ma.name == mb.name {
            return Err(format!(
                "`{a}` and `{b}` are both {} — nothing to separate",
                ma.name
            ));
        }
        vec![ma, mb]
    };
    let flags = CheckFlags::parse(args)?;
    let jobs = flags.jobs;
    let spec = flag_value(args, "--max-universe").unwrap_or("medium");
    let universes = smc_core::separate::ladder(spec).map_err(|e| format!("--max-universe: {e}"))?;
    let json_path = flag_value(args, "--json");
    let minimize = !args.iter().any(|a| a == "--no-minimize");
    let emit_dir = flag_value(args, "--emit-dir");
    let mut cfg = CheckConfig::default().with_memo();
    flags.configure(&mut cfg);
    memo_file_load(&cfg, flags.memo_file());

    let t0 = std::time::Instant::now();
    let mut sep = Separator::new(model_list.clone(), cfg.clone(), jobs);
    let impossible = sep.directions().len() - sep.open_directions();
    println!(
        "separating {} model(s): {} direction(s) to decide, {} impossible by known inclusions",
        model_list.len(),
        sep.open_directions(),
        impossible
    );
    for u in &universes {
        if sep.open_directions() == 0 {
            break;
        }
        println!(
            "universe {:>7}: {} histories (~{} symmetry classes), {} direction(s) open",
            u.label(),
            u.universe_size(),
            u.reduced_universe_estimate(),
            sep.open_directions()
        );
        let resolved = sep.run_universe(u);
        if resolved > 0 {
            println!("    -> {resolved} direction(s) witnessed");
        }
    }
    if minimize {
        sep.minimize_found();
    }
    memo_file_save(&cfg, flags.memo_file());
    let wall = t0.elapsed();
    let last_label = universes.last().map_or_else(String::new, |u| u.label());

    println!();
    let mut found = 0usize;
    let mut json_lines: Vec<String> = Vec::new();
    for d in sep.directions() {
        let a = &model_list[d.admits].name;
        let r = &model_list[d.refutes].name;
        let mut line = JsonObject::new().str("admits", a).str("refutes", r);
        match &d.status {
            DirectionStatus::Impossible => {
                println!(
                    "{a} ⊆ {r} is a known inclusion — no {a}-admits/{r}-refutes witness can exist"
                );
                line = line.str("status", "impossible");
            }
            DirectionStatus::Open => {
                println!(
                    "{a} admits / {r} refutes: no witness up to {last_label} (consistent with {a} ⊆ {r})"
                );
                line = line.str("status", "open");
            }
            DirectionStatus::Found(w) => {
                found += 1;
                println!(
                    "{a} admits / {r} refutes: witness in {} (index {}{}):",
                    w.universe.label(),
                    w.index,
                    if w.minimized { ", minimized" } else { "" }
                );
                for l in w.history.to_string().lines() {
                    println!("    {l}");
                }
                line = line
                    .str("status", "found")
                    .str("universe", &w.universe.label())
                    .num("index", w.index)
                    .num("ops", w.history.num_ops() as u64)
                    .str("witness", &w.history.to_string());
            }
        }
        json_lines.push(line.finish());
    }
    if model_list.len() == 2 {
        let status = |admits: usize, refutes: usize| {
            &sep.directions()
                .iter()
                .find(|d| d.admits == admits && d.refutes == refutes)
                .expect("pair directions exist")
                .status
        };
        let ab = matches!(status(0, 1), DirectionStatus::Found(_));
        let ba = matches!(status(1, 0), DirectionStatus::Found(_));
        let (a, b) = (&model_list[0].name, &model_list[1].name);
        println!();
        match (ab, ba) {
            (true, true) => println!("=> {a} and {b} are incomparable: each admits a history the other refutes"),
            (false, true) => println!("=> {a} is strictly stronger than {b} on the searched universes ({a} ⊆ {b}, and {b} admits a history {a} refutes)"),
            (true, false) => println!("=> {b} is strictly stronger than {a} on the searched universes ({b} ⊆ {a}, and {a} admits a history {b} refutes)"),
            (false, false) => println!("=> {a} and {b} are indistinguishable up to {last_label}"),
        }
    }

    let st = sep.stats;
    println!(
        "\nscanned {} histories ({} skipped by form, {} unexplainable) -> {} classes ({} repeat encounters), {} checks + {} propagated, {} undecided in {:.1?}{}",
        st.enumerated,
        st.skipped_form,
        st.skipped_unexplainable,
        st.classes,
        st.class_hits,
        st.checked,
        st.propagated,
        st.undecided,
        wall,
        if jobs > 1 { format!(" [{jobs} jobs]") } else { String::new() }
    );

    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("models", model_list.len() as u64)
                .num("directions", sep.directions().len() as u64)
                .num("found", found as u64)
                .num("enumerated", st.enumerated)
                .num("skipped_form", st.skipped_form)
                .num("skipped_unexplainable", st.skipped_unexplainable)
                .num("classes", st.classes)
                .num("class_hits", st.class_hits)
                .num("checked", st.checked)
                .num("propagated", st.propagated)
                .num("undecided", st.undecided)
                .num("wall_ms", wall.as_millis() as u64)
                .finish(),
        );
        let mut text = json_lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }

    if let Some(dir) = emit_dir {
        emit_separation_files(dir, &model_list, &sep)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// Write each separated pair's witnesses to `<dir>/<a>_vs_<b>.litmus` as
/// litmus tests with `expect` lines for both models.
fn emit_separation_files(
    dir: &str,
    model_list: &[ModelSpec],
    sep: &smc_core::separate::Separator,
) -> Result<(), String> {
    use smc_core::separate::DirectionStatus;
    use smc_history::litmus::emit_litmus_test;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    for a in 0..model_list.len() {
        for b in a + 1..model_list.len() {
            let mut text = String::new();
            for d in sep.directions() {
                let pair = (d.admits == a && d.refutes == b) || (d.admits == b && d.refutes == a);
                let DirectionStatus::Found(w) = &d.status else {
                    continue;
                };
                if !pair {
                    continue;
                }
                let adm = &model_list[d.admits].name;
                let rfu = &model_list[d.refutes].name;
                let t = LitmusTest {
                    name: format!("{}_not_{}", adm.to_lowercase(), rfu.to_lowercase()),
                    description: format!(
                        "{adm} admits, {rfu} refutes (found by smc separate in {})",
                        w.universe.label()
                    ),
                    history: w.history.clone(),
                    expectations: vec![(adm.clone(), true), (rfu.clone(), false)],
                };
                text.push_str(&emit_litmus_test(&t));
                text.push('\n');
            }
            if text.is_empty() {
                continue;
            }
            let path = format!(
                "{dir}/{}_vs_{}.litmus",
                model_list[a].name.to_lowercase(),
                model_list[b].name.to_lowercase()
            );
            let header = "# Machine-found separation witnesses; regenerate with\n\
                          #     smc separate --all --emit-dir litmus/separations\n\n";
            std::fs::write(&path, format!("{header}{text}"))
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
            println!("wrote {path}");
        }
    }
    Ok(())
}

/// Split a subcommand's `args` into positionals. Each of `value_flags`
/// consumes the word after it, each of `switches` stands alone, and any
/// other `--flag` is an error naming it: a misspelled flag must not be
/// silently ignored.
fn positionals<'a>(
    cmd: &str,
    args: &'a [String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut pos: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i].as_str();
        if value_flags.contains(&a) {
            i += 2;
            continue;
        }
        if !a.starts_with("--") {
            pos.push(a);
        } else if !switches.contains(&a) {
            return Err(format!("{cmd}: unknown flag `{a}`"));
        }
        i += 1;
    }
    Ok(pos)
}

/// Parse an optional numeric flag with a default.
fn num_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_value(args, name) {
        None if args.iter().any(|a| a == name) => Err(format!("{name} requires a value")),
        None => Ok(default),
        Some(v) => v
            .parse::<T>()
            .map_err(|_| format!("{name}: `{v}` is not a valid number")),
    }
}

/// Per-stream monitoring state for `smc monitor`: one incremental
/// monitor plus the cursors tracking how much of its parsed input has
/// been applied. A plain replay uses one stream; a `@sid`-prefixed
/// multi-session trace (the `smc serve` wire format) gets one per
/// session id.
struct MonitorStream {
    /// Session id for `@sid` streams; `None` for the unprefixed stream.
    label: Option<String>,
    mon: smc_monitor::Monitor,
    scratch: smc_history::trace::Trace,
    fed: usize,
    declared_procs: usize,
    declared_locs: usize,
    applied_lifecycle: usize,
    prev: Vec<smc_monitor::TriVerdict>,
    warnings: usize,
}

impl MonitorStream {
    fn new(label: Option<String>, mon: smc_monitor::Monitor) -> MonitorStream {
        MonitorStream {
            label,
            prev: mon.verdicts().to_vec(),
            mon,
            scratch: smc_history::trace::Trace::new(),
            fed: 0,
            declared_procs: 0,
            declared_locs: 0,
            applied_lifecycle: 0,
            warnings: 0,
        }
    }

    /// Printed-line prefix identifying the session in a multi-session
    /// replay (empty for the default stream).
    fn tag(&self) -> String {
        match &self.label {
            Some(sid) => format!("[session {sid}] "),
            None => String::new(),
        }
    }

    /// Feed everything parsed but not yet applied: new names are
    /// declared, `join`/`retire` transitions apply at their recorded
    /// stream positions, and events go down in `batch`-sized chunks.
    fn pump(
        &mut self,
        models: &[ModelSpec],
        batch: usize,
        show_stats: bool,
        want_json: bool,
        json_lines: &mut Vec<String>,
    ) {
        use smc_history::trace::Lifecycle;
        for p in self.declared_procs..self.scratch.num_procs() {
            self.mon.declare_proc(&self.scratch.proc_names()[p]);
        }
        self.declared_procs = self.scratch.num_procs();
        for l in self.declared_locs..self.scratch.num_locs() {
            self.mon.declare_loc(&self.scratch.loc_names()[l]);
        }
        self.declared_locs = self.scratch.num_locs();
        loop {
            let next_lc = self
                .scratch
                .lifecycle()
                .get(self.applied_lifecycle)
                .copied();
            // Events run up to the next lifecycle transition (or the
            // end of the parsed stream), then the transition applies.
            let limit = next_lc.map_or(self.scratch.len(), |(pos, _)| pos as usize);
            if self.fed < limit {
                let take = (limit - self.fed).min(batch);
                let events: Vec<smc_monitor::BatchEvent<'_>> = self.scratch.events()
                    [self.fed..self.fed + take]
                    .iter()
                    .map(|ev| {
                        (
                            self.scratch.proc_name(ev.proc),
                            ev.kind,
                            self.scratch.loc_name(ev.loc),
                            ev.value.0,
                            ev.label,
                        )
                    })
                    .collect();
                let rep = self.mon.feed_batch(&events);
                let what = if take == 1 {
                    self.scratch.format_event(&self.scratch.events()[self.fed])
                } else {
                    format!("+{take} events")
                };
                self.fed += take;
                let tag = self.tag();
                if show_stats {
                    println!(
                        "{tag}#{} {}: frontier {}, created {}, expanded {}, reuse {}, rechecks {}, recheck-nodes {}, propagated {}",
                        rep.events,
                        what,
                        rep.frontier_states,
                        rep.created,
                        rep.expanded,
                        rep.reuse_hits,
                        rep.rechecks,
                        rep.recheck_nodes,
                        rep.propagated
                    );
                }
                for (i, now) in self.mon.verdicts().iter().enumerate() {
                    if *now != self.prev[i] {
                        println!(
                            "{tag}event {}: {} {} -> {}",
                            rep.events,
                            models[i].name,
                            self.prev[i].word(),
                            now.word()
                        );
                        self.prev[i] = *now;
                    }
                }
                if want_json {
                    let mut line = JsonObject::new();
                    if let Some(sid) = &self.label {
                        line = line.str("session", sid);
                    }
                    json_lines.push(
                        line.num("event", rep.events as u64)
                            .str("op", &what)
                            .num("frontier_states", rep.frontier_states)
                            .num("created", rep.created)
                            .num("expanded", rep.expanded)
                            .num("reuse_hits", rep.reuse_hits)
                            .num("rechecks", rep.rechecks)
                            .num("recheck_nodes", rep.recheck_nodes)
                            .num("propagated", rep.propagated)
                            .finish(),
                    );
                }
                continue;
            }
            let Some((_, l)) = next_lc else { break };
            let name = self.scratch.proc_name(l.proc()).to_owned();
            match l {
                Lifecycle::Join(_) => self.mon.join(&name),
                Lifecycle::Retire(_) => self.mon.retire(&name),
            }
            self.applied_lifecycle += 1;
        }
    }
}

/// `smc monitor`: stream a trace through the incremental admission
/// monitor, reporting per-prefix verdicts as events arrive.
fn cmd_monitor(args: &[String]) -> Result<ExitCode, String> {
    use smc_history::trace::{is_session_id, parse_trace_line, split_session_line};
    use smc_monitor::{Monitor, MonitorConfig, TriVerdict};
    use std::io::BufRead;

    let pos = positionals(
        "monitor",
        args,
        &[
            "--model",
            "--jobs",
            "--json",
            "--max-states",
            "--cutover",
            "--engine",
            "--memo-file",
            "--batch",
            "--window",
            "--checkpoint-file",
            "--restore-from",
        ],
        &["--stats", "--corpus"],
    )?;
    let flags = CheckFlags::parse(args)?;
    let jobs = flags.jobs;
    let show_stats = args.iter().any(|a| a == "--stats");
    let json_path = flag_value(args, "--json");
    // Feed granularity: --batch N amortizes interning, table growth and
    // restart-model settling over N events per feed_batch call. Verdict
    // transitions and per-step stats then report at batch granularity;
    // final verdicts are identical to per-event feeding.
    let batch: usize = num_flag(args, "--batch", 1)?;
    if batch == 0 {
        return Err("monitor: --batch must be at least 1".into());
    }
    if args.iter().any(|a| a == "--corpus") {
        if !pos.is_empty() {
            return Err("monitor: --corpus takes no file argument".into());
        }
        return monitor_corpus(jobs, json_path);
    }

    let model_list: Vec<ModelSpec> = match flag_value(args, "--model") {
        // Lattice order keeps stronger models first, so one frontier
        // verdict propagates to as many weaker models as possible.
        None | Some("all") => models::lattice_models(),
        Some(name) => vec![models::by_name(name)
            .ok_or_else(|| format!("unknown model `{name}` (try `smc models`)"))?],
    };
    let mut cfg = MonitorConfig {
        jobs,
        ..MonitorConfig::default()
    };
    cfg.max_frontier_states = num_flag(args, "--max-states", cfg.max_frontier_states)?;
    // --window N seals the decided prefix every N events, bounding
    // frontier memory (0 = unwindowed, the default).
    let window: usize = num_flag(args, "--window", 0)?;
    cfg.window = (window > 0).then_some(window);
    cfg.check = flags.with_memo_if_requested(cfg.check);
    flags.configure(&mut cfg.check);
    memo_file_load(&cfg.check, flags.memo_file());
    // The memo cache is shared by Arc, so this clone saves the verdicts
    // the monitor's rechecks insert while it owns `cfg`.
    let memo_cfg = cfg.check.clone();
    let checkpoint_file = flag_value(args, "--checkpoint-file");
    let restore_from = flag_value(args, "--restore-from");
    // A restore must resume under the exact configuration the
    // checkpoint was cut with; `Monitor::restore` rejects mismatched
    // models, frontier caps and window sizes with a byte-offset error.
    // Limits not picked explicitly on this command line inherit the
    // checkpoint's, so `--restore-from` alone resumes any session.
    let base_mon = match restore_from {
        Some(p) => {
            let bytes = std::fs::read(p).map_err(|e| format!("cannot read `{p}`: {e}"))?;
            let (cap, win) = smc_monitor::ckpt::peek_limits(&bytes)
                .map_err(|e| format!("monitor: cannot restore `{p}`: {e}"))?;
            if !args.iter().any(|a| a == "--max-states") {
                cfg.max_frontier_states = cap;
            }
            if !args.iter().any(|a| a == "--window") {
                cfg.window = (win > 0).then_some(win);
            }
            let mon = Monitor::restore_bytes(&bytes, model_list.clone(), cfg.clone())
                .map_err(|e| format!("monitor: cannot restore `{p}`: {e}"))?;
            eprintln!("restored {} event(s) from {p}", mon.num_events());
            mon
        }
        None => Monitor::new(model_list.clone(), cfg.clone()),
    };

    let path = pos.first().copied().unwrap_or("-");
    let reader: Box<dyn BufRead> = if path == "-" {
        Box::new(std::io::BufReader::new(std::io::stdin()))
    } else {
        let f = std::fs::File::open(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        Box::new(std::io::BufReader::new(f))
    };

    // Events are parsed into a scratch trace line by line and fed to
    // the owning stream's monitor as they arrive; a malformed line
    // warns (with its byte offset into the stream, and its session id
    // in a `@sid` multi-session replay) and is skipped, keeping any
    // events parsed before the offending token.
    let want_json = json_path.is_some();
    let mut streams: Vec<MonitorStream> = vec![MonitorStream::new(None, base_mon)];
    let (mut line_no, mut offset) = (0usize, 0usize);
    let mut json_lines: Vec<String> = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(|e| format!("read error on `{path}`: {e}"))?;
        line_no += 1;
        // Route `@sid` lines to their session's monitor; everything
        // else belongs to the default (unprefixed) stream.
        let (idx, content, content_off) = match split_session_line(&line) {
            Some((sid, rest)) if is_session_id(sid) => {
                if checkpoint_file.is_some() || restore_from.is_some() {
                    return Err(
                        "monitor: --checkpoint-file/--restore-from work on single-session \
                         streams (no `@sid` prefixes)"
                            .into(),
                    );
                }
                let idx = match streams.iter().position(|s| s.label.as_deref() == Some(sid)) {
                    Some(i) => i,
                    None => {
                        streams.push(MonitorStream::new(
                            Some(sid.to_owned()),
                            Monitor::new(model_list.clone(), cfg.clone()),
                        ));
                        streams.len() - 1
                    }
                };
                // `rest` slices `line`, so pointer distance is the
                // prefix width the reported byte offset must skip.
                let skip = rest.as_ptr() as usize - line.as_ptr() as usize;
                (idx, rest, offset + skip)
            }
            _ => (0, line.as_str(), offset),
        };
        let s = &mut streams[idx];
        if let Err(e) = parse_trace_line(&mut s.scratch, content, line_no, content_off) {
            s.warnings += 1;
            eprintln!("warning: {}skipping malformed trace input: {e}", s.tag());
            if want_json {
                let mut jl = JsonObject::new();
                if let Some(sid) = &s.label {
                    jl = jl.str("session", sid);
                }
                json_lines.push(
                    jl.num("skipped_line", line_no as u64)
                        .str("error", &e.to_string())
                        .finish(),
                );
            }
        }
        offset += line.len() + 1;
        s.pump(&model_list, batch, show_stats, want_json, &mut json_lines);
    }

    if let Some(p) = checkpoint_file {
        let s = &streams[0];
        smc_core::binfmt::write_file(std::path::Path::new(p), &s.mon.checkpoint_bytes())
            .map_err(|e| format!("cannot write `{p}`: {e}"))?;
        eprintln!("checkpointed {} event(s) to {p}", s.mon.num_events());
    }

    // In a multi-session replay an untouched default stream is just an
    // artifact of pre-creating it; don't report an empty block for it.
    let multi = streams.len() > 1;
    let report: Vec<&MonitorStream> = streams
        .iter()
        .filter(|s| !multi || s.label.is_some() || s.mon.num_events() > 0 || s.warnings > 0)
        .collect();
    let mut violated = 0usize;
    for s in &report {
        println!();
        if let Some(sid) = &s.label {
            println!("== session {sid} ==");
        }
        for (i, m) in model_list.iter().enumerate() {
            let v = s.mon.verdicts()[i];
            let note = match (v, s.mon.first_violation(i)) {
                (TriVerdict::Violated, Some(n)) => {
                    violated += 1;
                    format!("  (first violated at event {n})")
                }
                (_, Some(n)) => format!("  (transient violation at event {n}, healed)"),
                _ => String::new(),
            };
            println!("  {:<16} {}{note}", m.name, v.word());
            if want_json {
                let mut line = JsonObject::new();
                if let Some(sid) = &s.label {
                    line = line.str("session", sid);
                }
                let mut line = line.str("model", &m.name).str("verdict", v.word());
                if let Some(n) = s.mon.first_violation(i) {
                    line = line.num("first_violation", n as u64);
                }
                json_lines.push(line.finish());
            }
        }
        if let Some(w) = s.mon.windows() {
            println!(
                "  windows: {} sealed ({} frontier states retired)",
                w.windows_sealed, w.states_sealed
            );
            if show_stats {
                for (wi, rec) in w.records().iter().enumerate() {
                    let row: Vec<String> = model_list
                        .iter()
                        .zip(&rec.verdicts)
                        .map(|(m, v)| format!("{} {}", m.name, v.word()))
                        .collect();
                    println!(
                        "    window {} @ event {}: {}",
                        wi + 1,
                        rec.end,
                        row.join(", ")
                    );
                }
            }
            if want_json {
                for (wi, rec) in w.records().iter().enumerate() {
                    let mut line = JsonObject::new();
                    if let Some(sid) = &s.label {
                        line = line.str("session", sid);
                    }
                    let row: Vec<String> = model_list
                        .iter()
                        .zip(&rec.verdicts)
                        .map(|(m, v)| format!("{}:{}", m.name, v.word()))
                        .collect();
                    json_lines.push(
                        line.num("window", (wi + 1) as u64)
                            .num("end", rec.end as u64)
                            .str("verdicts", &row.join(" "))
                            .finish(),
                    );
                }
            }
        }
        // Minimized counterexamples only for models that end violated;
        // a healed transient is already noted above.
        for (i, _) in model_list.iter().enumerate() {
            if s.mon.verdicts()[i] != TriVerdict::Violated {
                continue;
            }
            if let Some(rep) = s.mon.violation_report(i) {
                println!(
                    "\n{}{} violated by the {}-event prefix; minimal counterexample:",
                    s.tag(),
                    rep.model,
                    rep.prefix_len
                );
                for l in rep.litmus.lines() {
                    println!("    {l}");
                }
            }
        }
    }

    let mut fed = 0usize;
    let mut warnings = 0usize;
    let mut totals = smc_monitor::MonitorTotals::default();
    for s in &report {
        fed += s.fed;
        warnings += s.warnings;
        let t = s.mon.totals();
        totals.created += t.created;
        totals.expanded += t.expanded;
        totals.reuse_hits += t.reuse_hits;
        totals.rebuild_work += t.rebuild_work;
        totals.rechecks += t.rechecks;
        totals.recheck_nodes += t.recheck_nodes;
        totals.propagated += t.propagated;
        totals.joins += t.joins;
        totals.retires += t.retires;
        totals.folds += t.folds;
        totals.windows_sealed += t.windows_sealed;
        totals.states_sealed += t.states_sealed;
    }
    println!(
        "\n{fed} event(s), {warnings} malformed line(s) skipped; frontier: {} created, {} expanded, {} reuse ({} rebuild); rechecks {} ({} nodes), propagated {}",
        totals.created,
        totals.expanded,
        totals.reuse_hits,
        totals.rebuild_work,
        totals.rechecks,
        totals.recheck_nodes,
        totals.propagated
    );
    if totals.joins + totals.retires + totals.folds > 0 {
        println!(
            "lifecycle: {} join(s), {} retire(s), {} fold(s)",
            totals.joins, totals.retires, totals.folds
        );
    }
    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("events", fed as u64)
                .num("warnings", warnings as u64)
                .num("skipped_lines", warnings as u64)
                .num("models", model_list.len() as u64)
                .num("sessions", report.len() as u64)
                .num("violated", violated as u64)
                .num("created", totals.created)
                .num("expanded", totals.expanded)
                .num("reuse_hits", totals.reuse_hits)
                .num("rebuild_work", totals.rebuild_work)
                .num("rechecks", totals.rechecks)
                .num("recheck_nodes", totals.recheck_nodes)
                .num("propagated", totals.propagated)
                .num("joins", totals.joins)
                .num("retires", totals.retires)
                .num("folds", totals.folds)
                .num("windows_sealed", totals.windows_sealed)
                .num("states_sealed", totals.states_sealed)
                .finish(),
        );
        let mut text = json_lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    memo_file_save(&memo_cfg, flags.memo_file());
    Ok(if violated == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `smc monitor --corpus`: the monitor golden gate. Every embedded
/// litmus history is linearized to a trace, replayed event-by-event, and
/// the final per-model verdicts are diffed against the batch checker.
fn monitor_corpus(jobs: usize, json_path: Option<&str>) -> Result<ExitCode, String> {
    use smc_history::trace::Trace;
    use smc_monitor::{Monitor, MonitorConfig, TriVerdict};

    let suite = smc_programs::corpus::litmus_suite();
    let model_list = models::all_models();
    let cfg = CheckConfig::default().with_memo();
    let mut mismatches = 0usize;
    let mut rechecks = 0u64;
    let mut propagated = 0u64;
    let mut json_lines: Vec<String> = Vec::new();
    for t in &suite {
        let trace = Trace::from_history(&t.history);
        let mut mon = Monitor::new(
            model_list.clone(),
            MonitorConfig {
                jobs,
                ..MonitorConfig::default()
            },
        );
        mon.feed_trace(&trace);
        let totals = mon.totals();
        rechecks += totals.rechecks;
        propagated += totals.propagated;
        for (mi, m) in model_list.iter().enumerate() {
            let (batch, _) = smc_core::batch::check_parallel(&t.history, m, &cfg, jobs);
            let v = mon.verdicts()[mi];
            let mon_decided = match v {
                TriVerdict::Admitted => Some(true),
                TriVerdict::Violated => Some(false),
                TriVerdict::Unknown => None,
            };
            if mon_decided != batch.decided() {
                mismatches += 1;
                println!(
                    "MISMATCH {}: {} batch={}, monitor={}",
                    t.name,
                    m.name,
                    verdict_word(&batch),
                    v.word()
                );
            }
            if json_path.is_some() {
                json_lines.push(
                    JsonObject::new()
                        .str("test", &t.name)
                        .str("model", &m.name)
                        .str("verdict", v.word())
                        .finish(),
                );
            }
        }
    }
    println!(
        "monitor corpus: {} tests × {} models replayed, {} mismatch(es) vs batch; rechecks {}, propagated {}{}",
        suite.len(),
        model_list.len(),
        mismatches,
        rechecks,
        propagated,
        if jobs > 1 {
            format!(" [{jobs} jobs]")
        } else {
            String::new()
        }
    );
    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("tests", suite.len() as u64)
                .num("models", model_list.len() as u64)
                .num("mismatches", mismatches as u64)
                .num("rechecks", rechecks)
                .num("propagated", propagated)
                .finish(),
        );
        let mut text = json_lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    }
    Ok(if mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Resolve the models a server (or its offline verification twin)
/// monitors per session, in lattice order so frontier verdicts
/// propagate maximally.
fn serve_models(selector: Option<&str>) -> Result<Vec<ModelSpec>, String> {
    match selector {
        None | Some("all") => Ok(models::lattice_models()),
        Some(name) => models::by_name(name)
            .map(|m| vec![m])
            .ok_or_else(|| format!("unknown model `{name}` (try `smc models`)")),
    }
}

fn serve_config(args: &[String]) -> Result<smc_serve::ServeConfig, String> {
    let mut cfg = smc_serve::ServeConfig::default();
    if let Some(a) = flag_value(args, "--listen") {
        cfg.addr = a.to_owned();
    }
    cfg.workers = num_flag(args, "--workers", cfg.workers)?;
    cfg.max_sessions = num_flag(args, "--max-sessions", cfg.max_sessions)?;
    cfg.max_conns = num_flag(args, "--max-conns", cfg.max_conns)?;
    cfg.queue_cap = num_flag(args, "--queue", cfg.queue_cap)?;
    if cfg.queue_cap == 0 {
        return Err("serve: --queue must be at least 1".into());
    }
    cfg.models = serve_models(flag_value(args, "--model"))?;
    cfg.monitor.jobs = jobs_flag(args)?;
    cfg.monitor.max_frontier_states =
        num_flag(args, "--max-states", cfg.monitor.max_frontier_states)?;
    let window: usize = num_flag(args, "--window", 0)?;
    cfg.monitor.window = (window > 0).then_some(window);
    if let Some(d) = flag_value(args, "--evict-dir") {
        cfg.evict_dir = Some(std::path::PathBuf::from(d));
    }
    Ok(cfg)
}

/// `smc serve`: run the multi-session streaming admission server until
/// a client sends `SHUTDOWN`. With `--bench`, instead start an
/// ephemeral in-process server, drive it with the in-tree load
/// generator over loopback, verify every session's final verdict
/// against the offline monitor, and report sustained events/sec plus
/// query-latency percentiles (machine-readable via `--json`).
fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let cfg = serve_config(args)?;
    if args.iter().any(|a| a == "--bench") {
        return serve_bench(args, cfg);
    }
    let server = smc_serve::Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    println!("listening on {}", server.addr());
    // Scripts wait for this line before connecting; a redirected stdout
    // is block-buffered, so push it out now.
    std::io::Write::flush(&mut std::io::stdout()).ok();
    server.wait();
    println!("server stopped");
    Ok(ExitCode::SUCCESS)
}

fn loadgen_flags(args: &[String]) -> Result<(smc_serve::loadgen::LoadgenConfig, usize), String> {
    let sessions: usize = num_flag(args, "--sessions", 1024)?;
    if sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    let cfg = smc_serve::loadgen::LoadgenConfig {
        addr: String::new(),
        conns: num_flag(args, "--conns", 8)?,
        query_every: num_flag(args, "--query-every", 32)?,
        shutdown: args.iter().any(|a| a == "--shutdown"),
    };
    if cfg.conns == 0 {
        return Err("--conns must be at least 1".into());
    }
    Ok((cfg, sessions))
}

fn loadgen_report_lines(
    report: &smc_serve::loadgen::LoadgenReport,
    verified: Option<usize>,
    memo: Option<MemoStats>,
) -> (String, String) {
    let human = format!(
        "{} session(s), {} event(s) in {:.2}s: {:.0} events/sec; {} quer{} p50 {}us p99 {}us; {} busy{}",
        report.sessions,
        report.events,
        report.elapsed_ns as f64 / 1e9,
        report.events_per_sec,
        report.queries,
        if report.queries == 1 { "y" } else { "ies" },
        report.query_p50_us,
        report.query_p99_us,
        report.busy,
        match verified {
            Some(0) => "; all verdicts match offline monitor".to_owned(),
            Some(n) => format!("; {n} VERDICT MISMATCH(ES)"),
            None => String::new(),
        }
    );
    let mut json = JsonObject::new()
        .str("bench", "serve")
        .num("sessions", report.sessions as u64)
        .num("events", report.events)
        .num("elapsed_ns", report.elapsed_ns)
        .num("events_per_sec", report.events_per_sec as u64)
        .num("queries", report.queries)
        .num("query_p50_us", report.query_p50_us)
        .num("query_p99_us", report.query_p99_us)
        .num("busy", report.busy);
    if let Some(n) = verified {
        json = json.bool("verified", n == 0).num("mismatches", n as u64);
    }
    // Cross-session memo traffic (the server's sessions share one
    // cache, so hits here are verdicts one session proved for another).
    if let Some(m) = memo {
        json = json.num("memo_hits", m.hits).num("memo_misses", m.misses);
    }
    (human, json.finish())
}

fn serve_bench(args: &[String], mut cfg: smc_serve::ServeConfig) -> Result<ExitCode, String> {
    let (mut lg, sessions) = loadgen_flags(args)?;
    let spec = GenSpec::parse(args)?.with_total_events(num_flag(args, "--events", 64)?);
    let work = gen_session_work(&spec, sessions)?;
    cfg.addr = "127.0.0.1:0".into();
    cfg.max_sessions = cfg.max_sessions.max(sessions);
    let model_list = cfg.models.clone();
    let mon_cfg = cfg.monitor.clone();
    // The memo cache is shared by Arc; hold a handle so the report can
    // include the cross-session hit counters after the server stops.
    let memo = cfg.monitor.check.memo.clone();
    let server = smc_serve::Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    lg.addr = server.addr().to_string();
    lg.shutdown = false;
    let report = smc_serve::loadgen::run(&lg, &work)?;
    // Snapshot before `verify`: the offline twin shares the cache Arc,
    // and its replay traffic must not count as server memo activity.
    let memo_stats = memo.as_ref().map(|m| m.stats());
    println!("{}", server.stats_line());
    let mismatches = smc_serve::loadgen::verify(&work, &report, &model_list, &mon_cfg);
    server.shutdown();
    for m in mismatches.iter().take(5) {
        eprintln!("mismatch: {m}");
    }
    let (human, json) = loadgen_report_lines(&report, Some(mismatches.len()), memo_stats);
    println!("{human}");
    if let Some(path) = flag_value(args, "--json") {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(if mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `smc loadgen`: drive a *running* server (see `smc serve`) with
/// generated multi-session traffic and report throughput, latency
/// percentiles and (with `--verify`) a diff of every session's final
/// verdict against the offline monitor.
fn cmd_loadgen(args: &[String]) -> Result<ExitCode, String> {
    let addr = flag_value(args, "--addr").ok_or("loadgen: missing --addr HOST:PORT")?;
    let (mut lg, sessions) = loadgen_flags(args)?;
    lg.addr = addr.to_owned();
    let spec = GenSpec::parse(args)?.with_total_events(num_flag(args, "--events", 64)?);
    let work = gen_session_work(&spec, sessions)?;
    let report = smc_serve::loadgen::run(&lg, &work)?;
    let verified = if args.iter().any(|a| a == "--verify") {
        // The offline twin assumes the server monitors the same models
        // (its default set, or the matching --model) under the same
        // per-session frontier budget (the serve default, or the
        // matching --max-states).
        let model_list = serve_models(flag_value(args, "--model"))?;
        let mut mon_cfg = smc_serve::ServeConfig::default().monitor;
        mon_cfg.max_frontier_states = num_flag(args, "--max-states", mon_cfg.max_frontier_states)?;
        let mismatches = smc_serve::loadgen::verify(&work, &report, &model_list, &mon_cfg);
        for m in mismatches.iter().take(5) {
            eprintln!("mismatch: {m}");
        }
        Some(mismatches.len())
    } else {
        None
    };
    let (human, json) = loadgen_report_lines(&report, verified, None);
    println!("{human}");
    if let Some(path) = flag_value(args, "--json") {
        std::fs::write(path, format!("{json}\n"))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(if verified.unwrap_or(0) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `smc trace`: generate traces (`gen`) or linearize litmus files
/// (`from`).
fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let pos = positionals(
        "trace",
        args,
        &[
            "--memory",
            "--procs",
            "--ops",
            "--locs",
            "--values",
            "--alias-values",
            "--seed",
            "--out",
            "--test",
            "--events",
            "--sessions",
            "--churn",
        ],
        &[],
    )?;
    match pos.first().copied() {
        Some("gen") => trace_gen(args),
        Some("from") => trace_from(args, pos.get(1).copied()),
        _ => Err("trace: expected `gen` or `from <file>`".into()),
    }
}

fn write_out(path: Option<&str>, text: &str) -> Result<ExitCode, String> {
    match path {
        Some(p) => {
            std::fs::write(p, text).map_err(|e| format!("cannot write `{p}`: {e}"))?;
            eprintln!("wrote {p}");
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `smc trace from <file>`: linearize a litmus history in
/// processor-major program order.
fn trace_from(args: &[String], path: Option<&str>) -> Result<ExitCode, String> {
    use smc_history::trace::{emit_trace, Trace};
    let path = path.ok_or("trace from: missing <file>")?;
    let suite = load(path)?;
    let t = match flag_value(args, "--test") {
        Some(name) => suite
            .iter()
            .find(|t| t.name == name)
            .ok_or_else(|| format!("trace from: no test named `{name}` in `{path}`"))?,
        None => {
            let first = suite
                .first()
                .ok_or("trace from: file contains no history")?;
            if suite.len() > 1 {
                eprintln!(
                    "note: `{path}` has {} tests; emitting `{}` (select with --test NAME)",
                    suite.len(),
                    first.name
                );
            }
            first
        }
    };
    let mut text = format!("# {}\n", t.name);
    text.push_str(&emit_trace(&Trace::from_history(&t.history)));
    write_out(flag_value(args, "--out"), &text)
}

/// Random-trace generation parameters, shared by `smc trace gen`, the
/// load generator and `smc serve --bench` so every consumer of "random
/// machine traffic" draws from one seeded well.
#[derive(Debug, Clone)]
struct GenSpec {
    memory: String,
    procs: usize,
    events: Option<usize>,
    ops: usize,
    locs: usize,
    values: i64,
    alias_values: Option<i64>,
    seed: u64,
}

impl GenSpec {
    fn parse(args: &[String]) -> Result<GenSpec, String> {
        let procs: usize = num_flag(args, "--procs", 3)?;
        let events: Option<usize> = match flag_value(args, "--events") {
            None if args.iter().any(|a| a == "--events") => {
                return Err("--events requires a value".into())
            }
            None => None,
            Some(v) => Some(
                v.parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--events: `{v}` is not a positive integer"))?,
            ),
        };
        let ops: usize = match events {
            // Cover the requested total even when it does not divide
            // evenly; the surplus is trimmed from the emitted stream.
            Some(n) => n.div_ceil(procs.max(1)),
            None => num_flag(args, "--ops", 4)?,
        };
        let locs: usize = num_flag(args, "--locs", 2)?;
        let values: i64 = num_flag(args, "--values", 2)?;
        // Aliasing-heavy mode: write values come from a fresh counter
        // folded into a K-letter alphabet, so the emitted trace has the
        // *structure* of a fresh-value execution but every read ends up
        // with many same-value reads-from candidates — the adversarial
        // regime for checkers. Mutually exclusive with --values (it
        // replaces the value pool, it does not sample from one).
        let alias_values: Option<i64> = match flag_value(args, "--alias-values") {
            None if args.iter().any(|a| a == "--alias-values") => {
                return Err("--alias-values requires a value".into())
            }
            None => None,
            Some(v) => Some(
                v.parse::<i64>()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| format!("--alias-values: `{v}` is not a positive integer"))?,
            ),
        };
        if alias_values.is_some() && flag_value(args, "--values").is_some() {
            return Err("trace gen: --alias-values and --values are mutually exclusive".into());
        }
        let seed: u64 = num_flag(args, "--seed", 0)?;
        if procs == 0 || locs == 0 || values < 1 {
            return Err("trace gen: --procs/--locs/--values must be at least 1".into());
        }
        Ok(GenSpec {
            memory: flag_value(args, "--memory").unwrap_or("tso").to_owned(),
            procs,
            events,
            ops,
            locs,
            values,
            alias_values,
            seed,
        })
    }

    /// Resize to exactly `n` total events (re-deriving the per-processor
    /// op count the program is sized with).
    fn with_total_events(mut self, n: usize) -> GenSpec {
        self.events = Some(n);
        self.ops = n.div_ceil(self.procs.max(1));
        self
    }

    /// The provenance comment line `smc trace gen` writes above a
    /// generated stream.
    fn comment(&self) -> String {
        let sizing = match self.events {
            Some(n) => format!("--events {n}"),
            None => format!("--ops {}", self.ops),
        };
        let valuing = match self.alias_values {
            Some(k) => format!("--alias-values {k}"),
            None => format!("--values {}", self.values),
        };
        format!(
            "# smc trace gen --memory {} --procs {} {sizing} --locs {} {valuing} --seed {}\n",
            self.memory, self.procs, self.locs, self.seed
        )
    }

    /// Run the random program on the operational machine under a seeded
    /// random scheduler; returns the (possibly cut) arrival-order trace
    /// and whether the run drained before the step limit.
    fn generate(&self) -> Result<(smc_history::trace::Trace, bool), String> {
        use smc_history::trace::Trace;
        use smc_prng::SmallRng;

        let (procs, ops, locs, seed) = (self.procs, self.ops, self.locs, self.seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fresh = 0i64;
        let mut threads: Vec<Vec<Access>> = Vec::with_capacity(procs);
        for _ in 0..procs {
            let mut thread = Vec::with_capacity(ops);
            for _ in 0..ops {
                let loc = rng.gen_range(0..locs) as u32;
                if rng.gen_range(0..2usize) == 0 {
                    let v = match self.alias_values {
                        Some(k) => {
                            fresh += 1;
                            (fresh - 1) % k + 1
                        }
                        None => rng.gen_range(0..self.values as usize) as i64 + 1,
                    };
                    thread.push(Access::write(loc, v));
                } else {
                    thread.push(Access::read(loc));
                }
            }
            threads.push(thread);
        }
        let script = OpScript::new(threads, locs);

        fn go<M: MemorySystem>(mem: M, script: &OpScript, seed: u64) -> smc_sim::sched::RunOutcome {
            run_random(mem, script.clone(), seed, 200_000)
        }
        let out = match self.memory.as_str() {
            "sc" => go(ScMem::new(procs, locs), &script, seed),
            "tso" => go(TsoMem::new(procs, locs), &script, seed),
            "tso-fwd" => go(TsoMem::with_forwarding(procs, locs), &script, seed),
            "pram" => go(PramMem::new(procs, locs), &script, seed),
            "causal" => go(CausalMem::new(procs, locs), &script, seed),
            "pc" => go(PcMem::new(procs, locs), &script, seed),
            "coherent" => go(CoherentMem::new(procs, locs), &script, seed),
            "rcsc" => go(RcMem::new(SyncMode::Sc, procs, locs), &script, seed),
            "rcpc" => go(RcMem::new(SyncMode::Pc, procs, locs), &script, seed),
            "wo" => go(WoMem::new(procs, locs), &script, seed),
            "hybrid" => go(HybridMem::new(procs, locs), &script, seed),
            other => return Err(format!("unknown memory `{other}`")),
        };
        let trace = match self.events {
            Some(n) if out.trace.len() > n => {
                // One linear pass over the first n events; re-emitting or
                // re-running per prefix length would be quadratic in n.
                let mut cut = Trace::new();
                for p in out.trace.proc_names() {
                    cut.add_proc(p);
                }
                for l in out.trace.loc_names() {
                    cut.add_loc(l);
                }
                for ev in &out.trace.events()[..n] {
                    cut.push(*ev);
                }
                cut
            }
            Some(n) if out.trace.len() < n => {
                return Err(format!(
                    "trace gen: machine produced only {} of {n} requested events (step limit)",
                    out.trace.len()
                ));
            }
            _ => out.trace,
        };
        Ok((trace, out.completed))
    }
}

/// `--churn K`: K+1 processor generations over one stream. Each
/// generation is an independent machine run (seed `S+g`) whose
/// processors are renamed `g<g>p<i>`, introduced by `join` lines and —
/// except the last generation — removed by `retire` lines before the
/// next generation starts. Locations are shared across generations, so
/// a retired generation's final writes stay visible: the regime the
/// monitor's churn folding (summarize-and-forget) is built for. No
/// `procs` header is emitted on purpose — processors must enter via
/// `join` for the monitor's frontier width to stay O(active).
///
/// Each machine runs from zero-initialized memory, but generation `g+1`
/// inherits generation `g`'s final memory in the emitted stream. Written
/// values are always >= 1, so a read of 0 is exactly a read of the
/// machine's initial memory — those are rewritten to the inherited
/// contents (last write per location in stream order, which is what the
/// monitor's fold commits). Without the rewrite the stream contradicts
/// the generating model the moment a new generation reads a location an
/// old one wrote.
fn gen_churn_text(spec: &GenSpec, churn: usize) -> Result<String, String> {
    let mut out = String::new();
    let mut mem: std::collections::HashMap<String, i64> = std::collections::HashMap::new();
    for g in 0..=churn {
        let mut s = spec.clone();
        s.seed = spec.seed.wrapping_add(g as u64);
        let (t, _) = s.generate()?;
        if g == 0 {
            out.push_str(&format!("locs {}\n", t.loc_names().join(" ")));
        }
        for p in t.proc_names() {
            out.push_str(&format!("join g{g}{p}\n"));
        }
        // Initial-memory reads are rewritten against the snapshot at the
        // generation boundary: a stale read of initial memory later in
        // the generation must still see the *inherited* value, not a
        // write from its own generation.
        let inherit = mem.clone();
        for ev in t.events() {
            let mut e = *ev;
            let loc = t.loc_name(e.loc);
            if e.kind.is_write() {
                mem.insert(loc.to_string(), e.value.0);
            } else if e.value.0 == 0 {
                if let Some(&v) = inherit.get(loc) {
                    e.value.0 = v;
                }
            }
            // `format_event` leads with the processor name, so the
            // generation prefix renames it in place.
            out.push_str(&format!("g{g}{}\n", t.format_event(&e)));
        }
        if g < churn {
            for p in t.proc_names() {
                out.push_str(&format!("retire g{g}{p}\n"));
            }
        }
    }
    Ok(out)
}

/// `sessions` independent random traces, one per session id `s0..`,
/// derived from `spec` with per-session seeds `seed + i`. Shared by
/// `smc trace gen --sessions`, `smc loadgen` and `smc serve --bench`.
fn gen_session_work(
    spec: &GenSpec,
    sessions: usize,
) -> Result<Vec<(String, smc_history::trace::Trace)>, String> {
    (0..sessions)
        .map(|i| {
            let mut s = spec.clone();
            s.seed = spec.seed.wrapping_add(i as u64);
            let (t, _) = s.generate()?;
            Ok((format!("s{i}"), t))
        })
        .collect()
}

/// `smc trace gen`: run a random program shape on an operational machine
/// under a seeded random scheduler and emit the arrival-order stream.
/// `--events N` fixes the *total* event count instead of `--ops`
/// (per-processor): the program is sized to cover N and the emitted
/// stream is cut to exactly N events, so generating a 1000-op trace
/// costs one run and one emission. `--sessions N` instead emits N
/// independent streams (per-session seeds `S..S+N-1`) interleaved
/// line-by-line under a seeded shuffle, each line `@sid`-prefixed — the
/// multi-session wire format `smc serve` ingests and
/// `parse_multi_trace` demultiplexes.
fn trace_gen(args: &[String]) -> Result<ExitCode, String> {
    use smc_history::trace::{emit_trace, session_line};
    use smc_prng::SmallRng;

    let spec = GenSpec::parse(args)?;
    let sessions: usize = num_flag(args, "--sessions", 0)?;
    let churn: usize = num_flag(args, "--churn", 0)?;
    if churn > 0 && sessions > 0 {
        return Err("trace gen: --churn and --sessions are mutually exclusive".into());
    }
    if churn > 0 {
        let mut text = spec.comment().replacen(
            "# smc trace gen",
            &format!("# smc trace gen --churn {churn}"),
            1,
        );
        text.push_str(&gen_churn_text(&spec, churn)?);
        return write_out(flag_value(args, "--out"), &text);
    }
    if sessions == 0 {
        let (trace, completed) = spec.generate()?;
        let mut text = spec.comment();
        if !completed {
            text.push_str("# note: run hit the step limit before draining\n");
        }
        text.push_str(&emit_trace(&trace));
        return write_out(flag_value(args, "--out"), &text);
    }

    let work = gen_session_work(&spec, sessions)?;
    let mut text = format!("# smc trace gen --sessions {sessions}\n");
    text.push_str(
        &spec
            .comment()
            .replacen("# smc trace gen", "# per-session base:", 1),
    );
    let lines: Vec<Vec<String>> = work
        .iter()
        .map(|(sid, t)| {
            emit_trace(t)
                .lines()
                .map(|l| session_line(sid, l))
                .collect()
        })
        .collect();
    // Seeded interleave: each step hands the next line of a randomly
    // chosen still-live session, so the emitted stream exercises
    // demultiplexing the way genuinely concurrent clients would.
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x5e55_1011);
    let mut cursor = vec![0usize; lines.len()];
    let mut live: Vec<usize> = (0..lines.len()).collect();
    while !live.is_empty() {
        let k = rng.gen_range(0..live.len());
        let s = live[k];
        text.push_str(&lines[s][cursor[s]]);
        text.push('\n');
        cursor[s] += 1;
        if cursor[s] == lines[s].len() {
            live.swap_remove(k);
        }
    }
    write_out(flag_value(args, "--out"), &text)
}

fn cmd_models() -> Result<ExitCode, String> {
    println!("Declarative models (for `smc check --model ...`):");
    for m in models::all_models() {
        println!(
            "  {:<16} δ={:?}, mutual: [{}{}{}{}], order: {:?}{}{}{}",
            m.name,
            m.delta,
            if m.identical_views {
                "identical-views "
            } else {
                ""
            },
            if m.global_write_order {
                "store-order "
            } else {
                ""
            },
            if m.coherence { "coherence " } else { "" },
            m.labeled
                .map(|l| format!("labeled:{l:?} "))
                .unwrap_or_default(),
            m.global_order,
            if m.rc_bracketing {
                " +rc-bracketing"
            } else {
                ""
            },
            if m.fence_bracketing { " +fences" } else { "" },
            match m.owner_order {
                smc_core::spec::OwnerOrder::None => "",
                _ => " +owner-order",
            },
        );
    }
    println!("\nOperational machines (for `smc explore --memory ...`):");
    println!("  sc tso tso-fwd pram causal pc coherent rcsc rcpc wo hybrid");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["x.litmus", "--model", "TSO", "--runs", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--model"), Some("TSO"));
        assert_eq!(flag_value(&args, "--runs"), Some("5"));
        assert_eq!(flag_value(&args, "--nope"), None);
        assert_eq!(
            positionals("t", &args, &["--model", "--runs"], &[]).unwrap(),
            vec!["x.litmus"]
        );
    }

    #[test]
    fn engine_flag_parsing() {
        let to_args = |s: &[&str]| -> Vec<String> { s.iter().map(|x| x.to_string()).collect() };
        assert_eq!(engine_flag(&to_args(&[])).unwrap(), EngineKind::Auto);
        assert_eq!(
            engine_flag(&to_args(&["--engine", "saturate"])).unwrap(),
            EngineKind::Saturate
        );
        assert_eq!(
            engine_flag(&to_args(&["--engine", "exhaustive"])).unwrap(),
            EngineKind::Exhaustive
        );
        assert_eq!(
            engine_flag(&to_args(&["--engine", "auto"])).unwrap(),
            EngineKind::Auto
        );
        assert!(engine_flag(&to_args(&["--engine"])).is_err());
        assert!(engine_flag(&to_args(&["--engine", "warp"])).is_err());
    }

    #[test]
    fn check_flags_parse_and_configure() {
        let args: Vec<String> = [
            "--jobs",
            "3",
            "--cutover",
            "7",
            "--engine",
            "saturate",
            "--memo-file",
            "m.bin",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let flags = CheckFlags::parse(&args).unwrap();
        assert_eq!(flags.jobs, 3);
        assert_eq!(flags.memo_file(), Some("m.bin"));
        let mut cfg = CheckConfig::default();
        flags.configure(&mut cfg);
        assert_eq!(cfg.parallel_cutover, 7);
        assert_eq!(cfg.engine, EngineKind::Saturate);
        // Defaults when no flags are given.
        let flags = CheckFlags::parse(&[]).unwrap();
        assert_eq!(flags.jobs, 1);
        assert_eq!(flags.engine, EngineKind::Auto);
        assert!(flags.memo_file().is_none());
    }

    #[test]
    fn resolve_model_selectors() {
        assert!(resolve_models(None).unwrap().len() > 5);
        assert_eq!(resolve_models(Some("tso")).unwrap()[0].name, "TSO");
        assert!(resolve_models(Some("bogus")).is_err());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn models_subcommand_succeeds() {
        assert!(cmd_models().is_ok());
    }

    #[test]
    fn script_conversion_preserves_shape() {
        let h = parse_history("p: w(x)1 rl(y)0\nq: wl(y)2").unwrap();
        let s = to_script(&h);
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.num_locs(), 2);
    }
}
