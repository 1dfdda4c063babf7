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

/// One command-line flag, declared as `--name [META]: one-line help`;
/// a flag without a `META` is a switch.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Flag(&'static str);

impl Flag {
    /// `--name [META]` and the help.
    fn split(self) -> (&'static str, &'static str) {
        self.0
            .split_once(": ")
            .expect("flag is `--name [META]: help`")
    }

    fn name(self) -> &'static str {
        self.split().0.split(' ').next().unwrap_or_default()
    }

    fn takes_value(self) -> bool {
        self.split().0.contains(' ')
    }
}

const JOBS: Flag = Flag("--jobs N: worker threads (default 1)");
const CUTOVER: Flag = Flag("--cutover N: sequential probe budget before fan-out (default 4096)");
const ENGINE: Flag = Flag("--engine exhaustive|saturate|auto: checking backend (default auto)");
const MEMO_FILE: Flag = Flag("--memo-file PATH: keep decided verdicts across runs");
/// The checking flags, read by [`check_config`].
const CHECKING: &[Flag] = &[JOBS, CUTOVER, ENGINE, MEMO_FILE];
const MODEL: Flag = Flag("--model NAME: only this model (default all; see `smc models`)");
const STATS: Flag = Flag("--stats: print search statistics");
const JSON: Flag = Flag("--json PATH: write machine-readable JSON lines to PATH");
const MEMORY: Flag = Flag("--memory NAME: operational machine (listed by `smc models`)");
const CHECK: Flag = Flag("--check: classify every explored history against the models");
const BAKERY_N: Flag = Flag("--n N: processes (default 2)");
const RUNS: Flag = Flag("--runs R: seeded random runs (default 1000)");
const SHOW_PROGRAM: Flag = Flag("--show-program: print the program first");
const ALL: Flag = Flag("--all: sweep every unlabeled model pair");
const MAX_UNIVERSE: Flag = Flag("--max-universe SPEC: small|medium|large or a PxOxLxV cap");
const EMIT_DIR: Flag = Flag("--emit-dir DIR: write each separated pair as a litmus file");
const NO_MINIMIZE: Flag = Flag("--no-minimize: report witnesses as found, unshrunk");
const MAX_STATES: Flag = Flag("--max-states N: frontier states per engine before rechecks");
const WINDOW: Flag = Flag("--window N: seal the decided prefix every N events (0: off)");
const BATCH: Flag = Flag("--batch N: events fed per monitor step (default 1)");
const CHECKPOINT_FILE: Flag = Flag("--checkpoint-file PATH: save the monitor at end of input");
const RESTORE_FROM: Flag = Flag("--restore-from PATH: resume from a checkpoint file");
const LISTEN: Flag = Flag("--listen ADDR: address to bind (default 127.0.0.1:0)");
const WORKERS: Flag = Flag("--workers N: drain worker threads");
const MAX_SESSIONS: Flag = Flag("--max-sessions N: live session cap (default 4096)");
const MAX_CONNS: Flag = Flag("--max-conns N: connection cap (default 256)");
const QUEUE: Flag = Flag("--queue N: per-session inbox bound in events (default 1024)");
const EVICT_DIR: Flag = Flag("--evict-dir DIR: spill idle sessions here when full");
/// Server tuning and each session's monitor, read by [`serve_config`].
const SERVER: &[Flag] = &[WORKERS, MAX_SESSIONS, MAX_CONNS, QUEUE, EVICT_DIR];
const SESSION: &[Flag] = &[MODEL, JOBS, MAX_STATES, WINDOW];
const SESSIONS: Flag = Flag("--sessions N: independent @sid streams (load default 1024)");
const CONNS: Flag = Flag("--conns C: client connections (default 8)");
const QUERY_EVERY: Flag = Flag("--query-every K: QUERY each session every K events (default 32)");
/// Load-generator shape, read by [`loadgen_config`].
const LOADGEN: &[Flag] = &[SESSIONS, CONNS, QUERY_EVERY];
const ADDR: Flag = Flag("--addr HOST:PORT: the running server");
const VERIFY: Flag = Flag("--verify: diff final verdicts against the offline monitor");
const SHUTDOWN: Flag = Flag("--shutdown: stop the server afterwards");
const PROCS: Flag = Flag("--procs N: processors (default 3)");
const EVENTS: Flag = Flag("--events N: events per stream, cut exactly (load default 64)");
const LOCS: Flag = Flag("--locs L: locations (default 2)");
const VALUES: Flag = Flag("--values V: write values drawn from 1..=V (default 2)");
const ALIAS_VALUES: Flag = Flag("--alias-values K: fold fresh write values into K letters");
const SEED: Flag = Flag("--seed S: random seed (default 0)");
/// Random-trace generation, read by [`GenSpec::from_args`].
const GEN: &[Flag] = &[MEMORY, PROCS, EVENTS, LOCS, VALUES, ALIAS_VALUES, SEED];
const OPS: Flag = Flag("--ops N: operations per processor (default 4)");
const CHURN: Flag = Flag("--churn K: K+1 processor generations joined and retired");
const OUT: Flag = Flag("--out PATH: write to PATH instead of stdout");
const TEST: Flag = Flag("--test NAME: the suite's test to emit (default the first)");

/// One command, or one mode of a command that reads its own flags.
struct Cmd {
    /// The synopsis head: command words, then a `--mode` switch that
    /// selects this entry wherever it appears, then positionals.
    usage: &'static str,
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<ExitCode, String>,
    about: &'static str,
}

/// Every command. A command's modes follow its plain entry.
const COMMANDS: &[Cmd] = &[
    Cmd {
        usage: "check <file>",
        flags: &[&[MODEL, STATS], CHECKING],
        run: cmd_check,
        about: "check a litmus history or suite; with one model, also print\n\
                its witness views or a cycle certificate",
    },
    Cmd {
        usage: "corpus",
        flags: &[&[STATS, JSON], CHECKING],
        run: cmd_corpus,
        about: "check the embedded litmus corpus against its expectations",
    },
    Cmd {
        usage: "corpus --exhaustive",
        flags: &[&[JOBS, CUTOVER, STATS, JSON]],
        run: corpus_exhaustive,
        about: "classify every 2x2x2x1 history against the Figure 5 models\n\
                (memoized, lattice-propagated verdicts)",
    },
    Cmd {
        usage: "corpus --engine-equiv",
        flags: &[&[JOBS, CUTOVER, JSON]],
        run: corpus_engine_equiv,
        about: "run both engines on every saturate-supporting model and\n\
                exit nonzero on any divergence",
    },
    Cmd {
        usage: "matrix <file>",
        flags: &[&[STATS], CHECKING],
        run: cmd_matrix,
        about: "classification matrix for a suite",
    },
    Cmd {
        usage: "explore <file>",
        flags: &[&[MEMORY, CHECK, MODEL, JOBS]],
        run: cmd_explore,
        about: "enumerate every history machine --memory (required) produces\n\
                for the file's program shape",
    },
    Cmd {
        usage: "bakery",
        flags: &[&[MEMORY, BAKERY_N, RUNS, SHOW_PROGRAM]],
        run: cmd_bakery,
        about: "run the Bakery algorithm on sc, tso, rcsc, rcpc (default), wo\n\
                or hybrid",
    },
    Cmd {
        usage: "separate <model-a> <model-b>",
        flags: &[&[ALL, MAX_UNIVERSE, JSON, EMIT_DIR, NO_MINIMIZE], CHECKING],
        run: cmd_separate,
        about: "search universes of increasing size (up to --max-universe,\n\
                default medium) for minimized witness histories one model\n\
                admits and the other refutes",
    },
    Cmd {
        usage: "monitor [<file>|-]",
        flags: &[
            &[MODEL, STATS, JSON, MAX_STATES, BATCH, WINDOW],
            &[CHECKPOINT_FILE, RESTORE_FROM],
            CHECKING,
        ],
        run: cmd_monitor,
        about: "stream a trace (stdin when `-` or no file) through the\n\
                incremental admission monitor; malformed lines warn with\n\
                their byte offset and are skipped; `join p`/`retire p` lines\n\
                move processors in and out; `@sid` lines replay one monitor\n\
                per session; a restore inherits the checkpoint's cap and\n\
                window unless given; exits nonzero if any model ends violated",
    },
    Cmd {
        usage: "monitor --corpus",
        flags: &[&[JOBS, JSON]],
        run: monitor_corpus,
        about: "replay every embedded litmus history through the monitor and\n\
                diff the final verdicts against the batch checker",
    },
    Cmd {
        usage: "serve",
        flags: &[&[LISTEN], SERVER, SESSION],
        run: cmd_serve,
        about: "run the multi-session admission server: line-oriented TCP\n\
                (OPEN/EV/QUERY/CLOSE, `@sid <event>` shorthand, BUSY\n\
                backpressure, SNAPSHOT/RESUME); stops on SHUTDOWN",
    },
    Cmd {
        usage: "serve --bench",
        flags: &[SERVER, SESSION, LOADGEN, GEN, &[JSON]],
        run: serve_bench,
        about: "drive an ephemeral server with the load generator over\n\
                loopback, verify every verdict against the offline monitor,\n\
                and report events/sec and QUERY latency percentiles",
    },
    Cmd {
        usage: "loadgen",
        flags: &[
            &[ADDR],
            LOADGEN,
            GEN,
            &[MODEL, MAX_STATES, VERIFY, SHUTDOWN, JSON],
        ],
        run: cmd_loadgen,
        about: "drive a running `smc serve` (--addr, required) with generated\n\
                multi-session traffic",
    },
    Cmd {
        usage: "trace gen",
        flags: &[GEN, &[OPS, SESSIONS, CHURN, OUT]],
        run: trace_gen,
        about: "run a random program on an operational machine (default tso)\n\
                and emit its arrival-order event stream",
    },
    Cmd {
        usage: "trace from <file>",
        flags: &[&[TEST, OUT]],
        run: trace_from,
        about: "linearize a litmus history into the trace format",
    },
    Cmd {
        usage: "models",
        flags: &[],
        run: cmd_models,
        about: "list available models and machines",
    },
];

/// The notes `smc help` prints after the commands.
const NOTES: &str = "\
Every command rejects a --flag it does not list, a flag given twice,
a value flag without its value, and more positional arguments than its
usage names.

--jobs N runs checks on N worker threads (default 1; results are
reported in the same order as sequential checking). With more workers
than (history, model) pairs, the workers move inside each check: the
work-stealing scheduler splits the extension search itself.

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
";

impl Cmd {
    /// The command words and mode switch, without positionals.
    fn name(&self) -> &'static str {
        let end =
            (self.usage.find(" <").or_else(|| self.usage.find(" ["))).unwrap_or(self.usage.len());
        &self.usage[..end]
    }

    fn word(&self) -> &'static str {
        self.usage.split(' ').next().unwrap_or_default()
    }

    fn flags(&self) -> impl Iterator<Item = Flag> {
        self.flags.iter().flat_map(|group| group.iter().copied())
    }

    fn flag(&self, name: &str) -> Option<Flag> {
        self.flags().find(|f| f.name() == name)
    }

    /// `smc <usage> [--flag META]...` wrapped at 76 columns, then the
    /// about text and, with `flag_help`, one line per flag.
    fn help(&self, flag_help: bool) -> String {
        let mut out = format!("  smc {}", self.usage);
        for f in self.flags() {
            let item = format!(" [{}]", f.split().0);
            if out.len() - out.rfind('\n').map_or(0, |i| i + 1) + item.len() > 76 {
                out.push_str("\n       ");
            }
            out.push_str(&item);
        }
        for line in self.about.lines() {
            out.push_str(&format!("\n      {}", line.trim_start()));
        }
        for (head, help) in self.flags().filter(|_| flag_help).map(Flag::split) {
            out.push_str(&format!("\n        {head:<22}  {help}"));
        }
        out.push('\n');
        out
    }
}

/// The full `smc help` text.
pub fn usage() -> String {
    let commands: String = COMMANDS.iter().map(|c| c.help(false)).collect();
    format!(
        "usage: smc <command> ...  (`smc <command> --help` lists its flags)\n\n\
         {commands}\n{NOTES}\nmemories for --memory: {}\n",
        MACHINES.join(" ")
    )
}

/// The help for the command `args` names, with one line per flag (all
/// of its modes), or the full usage if it names none.
pub fn usage_for(args: &[String]) -> String {
    let word = args.first().map_or("", String::as_str);
    let entries: String = (COMMANDS.iter().filter(|c| c.word() == word))
        .map(|c| c.help(true))
        .collect();
    if entries.is_empty() {
        usage()
    } else {
        format!("usage:\n{entries}")
    }
}

/// Dispatch on the first argument.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let help = match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") => usage(),
        Some(word)
            if COMMANDS.iter().any(|c| c.word() == word) && args.contains(&"--help".into()) =>
        {
            usage_for(args)
        }
        _ => {
            let (cmd, rest) = select(args)?;
            return (cmd.run)(&parse(cmd, rest)?);
        }
    };
    print!("{help}");
    Ok(ExitCode::SUCCESS)
}

/// The entry `args` selects, and the arguments after its command words.
fn select(args: &[String]) -> Result<(&'static Cmd, &[String]), String> {
    let word = args.first().ok_or("missing subcommand")?;
    let mut plain = None;
    for cmd in COMMANDS.iter().filter(|c| c.word() == word) {
        match cmd.name().split(' ').nth(1) {
            None => plain = plain.or(Some((cmd, &args[1..]))),
            Some(mode) if mode.starts_with("--") => {
                if args[1..].iter().any(|a| a == mode) {
                    return Ok((cmd, &args[1..]));
                }
            }
            Some(sub) if args.get(1).is_some_and(|a| a == sub) => return Ok((cmd, &args[2..])),
            Some(_) => {}
        }
    }
    plain.ok_or_else(|| {
        let subs: Vec<String> = COMMANDS
            .iter()
            .filter(|c| c.word() == word)
            .map(|c| format!("`{}`", c.usage[word.len()..].trim_start()))
            .collect();
        if subs.is_empty() {
            format!("unknown subcommand `{word}`")
        } else {
            format!("{word}: expected {}", subs.join(" or "))
        }
    })
}

/// A command line split against its command's flag table.
struct Args<'a> {
    cmd: &'static Cmd,
    pos: Vec<&'a str>,
    /// Each flag given, with its value (`None` for a switch).
    given: Vec<(&'static str, Option<&'a str>)>,
}

/// Split `args` into positionals and the flags of `cmd`'s table. An
/// undeclared flag, a value flag without a value (at the end, or before
/// another `--flag`) and a repeated flag are errors naming the flag; so
/// is a positional beyond those the usage names.
fn parse<'a>(cmd: &'static Cmd, args: &'a [String]) -> Result<Args<'a>, String> {
    let name = cmd.name();
    let mut out = Args {
        cmd,
        pos: Vec::new(),
        given: Vec::new(),
    };
    let mut words = args.iter().map(String::as_str).peekable();
    while let Some(a) = words.next() {
        if !a.starts_with("--") {
            out.pos.push(a);
            continue;
        }
        if name.split(' ').any(|w| w == a) {
            continue;
        }
        let flag = cmd
            .flag(a)
            .ok_or_else(|| format!("{name}: unknown flag `{a}`"))?;
        if out.given.iter().any(|(n, _)| *n == flag.name()) {
            return Err(format!("{name}: {a} given twice"));
        }
        let value = words.next_if(|_| flag.takes_value());
        if flag.takes_value() && value.is_none_or(|v| v.starts_with("--")) {
            return Err(format!("{name}: {a} requires a value"));
        }
        out.given.push((flag.name(), value));
    }
    // The usage names one `<placeholder>` per positional it takes.
    if let Some(p) = out.pos.get(cmd.usage.matches('<').count()) {
        return Err(format!("{name}: unexpected argument `{p}`"));
    }
    Ok(out)
}

impl<'a> Args<'a> {
    /// Whether `name` was given and its value. Asking for a flag the
    /// command does not declare is a bug, so it panics.
    fn get(&self, name: &str) -> Option<Option<&'a str>> {
        assert!(
            self.cmd.flag(name).is_some(),
            "`{}` reads {name}, which its flag table does not declare",
            self.cmd.name()
        );
        self.given.iter().find(|(n, _)| *n == name).map(|g| g.1)
    }

    fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    fn str(&self, name: &str) -> Option<&'a str> {
        self.get(name).flatten()
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.str(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name}: `{v}` is not a valid number")),
        }
    }

    /// `--name N` with N at least 1, if given.
    fn positive<T>(&self, name: &str) -> Result<Option<T>, String>
    where
        T: std::str::FromStr + PartialOrd + From<u8>,
    {
        self.str(name)
            .map(|v| {
                v.parse()
                    .ok()
                    .filter(|n| *n >= T::from(1))
                    .ok_or_else(|| format!("{name}: `{v}` is not a positive integer"))
            })
            .transpose()
    }
}

/// `--jobs N` (default 1 = sequential).
fn jobs(a: &Args) -> Result<usize, String> {
    Ok(a.positive("--jobs")?.unwrap_or(1))
}

/// `cfg` with the [`CHECKING`] flags applied. `--memo-file` attaches a
/// memo cache if `cfg` has none; [`memo_file_load`] fills it.
fn check_config(a: &Args, mut cfg: CheckConfig) -> Result<CheckConfig, String> {
    cfg.parallel_cutover = a.num("--cutover", cfg.parallel_cutover)?;
    cfg.engine = match a.str("--engine") {
        None | Some("auto") => EngineKind::Auto,
        Some("exhaustive") => EngineKind::Exhaustive,
        Some("saturate") => EngineKind::Saturate,
        Some(other) => {
            return Err(format!(
                "--engine: `{other}` is not `exhaustive`, `saturate` or `auto`"
            ))
        }
    };
    if cfg.memo.is_none() && a.has("--memo-file") {
        cfg = cfg.with_memo();
    }
    Ok(cfg)
}

/// The operational machines, by `--memory` name.
const MACHINES: [&str; 11] = [
    "sc", "tso", "tso-fwd", "pram", "causal", "pc", "coherent", "rcsc", "rcpc", "wo", "hybrid",
];

/// A computation over one operational machine type, which
/// [`with_machine`] picks by name.
trait MachineFn {
    type Out;
    /// Run with `make`, which builds a fresh machine on every call.
    fn call<M: MemorySystem>(self, make: impl Fn() -> M) -> Self::Out;
}

/// Run `f` on the machine named `name` (one of [`MACHINES`]) with `n`
/// processors and `l` locations.
fn with_machine<F: MachineFn>(name: &str, n: usize, l: usize, f: F) -> Result<F::Out, String> {
    Ok(match name {
        "sc" => f.call(|| ScMem::new(n, l)),
        "tso" => f.call(|| TsoMem::new(n, l)),
        "tso-fwd" => f.call(|| TsoMem::with_forwarding(n, l)),
        "pram" => f.call(|| PramMem::new(n, l)),
        "causal" => f.call(|| CausalMem::new(n, l)),
        "pc" => f.call(|| PcMem::new(n, l)),
        "coherent" => f.call(|| CoherentMem::new(n, l)),
        "rcsc" => f.call(|| RcMem::new(SyncMode::Sc, n, l)),
        "rcpc" => f.call(|| RcMem::new(SyncMode::Pc, n, l)),
        "wo" => f.call(|| WoMem::new(n, l)),
        "hybrid" => f.call(|| HybridMem::new(n, l)),
        other => return Err(format!("unknown memory `{other}`")),
    })
}

/// `--model NAME` as a one-model list, or `default()` when it is absent
/// or `all`.
fn select_models(
    selector: Option<&str>,
    default: fn() -> Vec<ModelSpec>,
) -> Result<Vec<ModelSpec>, String> {
    match selector {
        None | Some("all") => Ok(default()),
        Some(name) => models::by_name(name)
            .map(|m| vec![m])
            .ok_or_else(|| format!("unknown model `{name}` (try `smc models`)")),
    }
}

fn write_json_lines(path: &str, lines: &[String]) -> Result<(), String> {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// The ` [N jobs]` tail of a summary line (empty when sequential).
fn jobs_suffix(jobs: usize) -> String {
    if jobs > 1 {
        format!(" [{jobs} jobs]")
    } else {
        String::new()
    }
}

fn memo_line(s: &MemoStats) -> String {
    format!(
        "memo: {} hits, {} misses, {} inserts, {} evictions",
        s.hits, s.misses, s.inserts, s.evictions
    )
}

/// A verdict as a matrix cell.
fn cell(v: &Verdict) -> &'static str {
    match v {
        Verdict::Allowed(_) => "yes",
        Verdict::Disallowed => "no",
        Verdict::Exhausted => "?",
        Verdict::Unsupported(_) => "n/a",
    }
}

fn exit_status(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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

/// Load `--memo-file` into `cfg`'s cache if the flag is present. A
/// missing file is a cold start; a corrupt or mismatched file is ignored
/// with a warning — persistence must never fail a check.
fn memo_file_load(cfg: &CheckConfig, a: &Args) {
    let (Some(path), Some(memo)) = (a.str("--memo-file"), &cfg.memo) else {
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
fn memo_file_save(cfg: &CheckConfig, a: &Args) {
    let (Some(path), Some(memo)) = (a.str("--memo-file"), &cfg.memo) else {
        return;
    };
    match memo.save(std::path::Path::new(path)) {
        Ok(n) => eprintln!("memo: saved {n} cached verdict(s) to {path}"),
        Err(e) => eprintln!("warning: could not save memo file `{path}`: {e}"),
    }
}

fn cmd_check(a: &Args) -> Result<ExitCode, String> {
    let path = a.pos.first().ok_or("check: missing <file>")?;
    let model_list = select_models(a.str("--model"), models::all_models)?;
    let jobs = jobs(a)?;
    let show_stats = a.has("--stats");
    let cfg = check_config(a, CheckConfig::default())?;
    memo_file_load(&cfg, a);
    let suite = load(path)?;
    let results = check_suite(&suite, &model_list, &cfg, jobs);
    memo_file_save(&cfg, a);
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
    if failures > 0 {
        eprintln!("{failures} expectation(s) failed");
    }
    Ok(exit_status(failures == 0))
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

fn cmd_corpus(a: &Args) -> Result<ExitCode, String> {
    let jobs = jobs(a)?;
    let show_stats = a.has("--stats");
    let json_path = a.str("--json");
    // Decided verdicts are renaming-invariant, so the memo is safe here:
    // expectations compare only allowed/forbidden, never the witness.
    let cfg = check_config(a, CheckConfig::default().with_memo())?;
    let memo = cfg.memo.clone().expect("with_memo attaches a cache");
    memo_file_load(&cfg, a);
    let suite = smc_programs::corpus::litmus_suite();
    let model_list = models::all_models();
    let results = check_suite(&suite, &model_list, &cfg, jobs);
    memo_file_save(&cfg, a);
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
        write_json_lines(path, &json_lines)?;
    }
    println!(
        "corpus: {} tests × {} models, {} expectation(s) checked, {} failure(s){}",
        suite.len(),
        model_list.len(),
        checked,
        failures,
        jobs_suffix(jobs)
    );
    if show_stats {
        println!("total search nodes: {nodes}");
        println!("{}", memo_line(&memo_stats));
    }
    Ok(exit_status(failures == 0))
}

/// `smc corpus --engine-equiv`: the engine drift gate. Every embedded
/// litmus history is checked by both the exhaustive checker and the
/// saturation engine on every model that advertises saturate support;
/// wherever both decide they must agree, saturate must never report
/// `Unsupported` there, and every saturate `Allowed` witness must pass
/// the independent verifier. Exits nonzero on any divergence.
fn corpus_engine_equiv(a: &Args) -> Result<ExitCode, String> {
    use smc_core::verify::verify_witness;

    let (jobs, json_path) = (jobs(a)?, a.str("--json"));
    let ex_cfg = CheckConfig {
        engine: EngineKind::Exhaustive,
        parallel_cutover: a.num("--cutover", CheckConfig::default().parallel_cutover)?,
        ..CheckConfig::default()
    };
    let sat_cfg = CheckConfig {
        engine: EngineKind::Saturate,
        ..ex_cfg.clone()
    };
    let suite = smc_programs::corpus::litmus_suite();
    let model_list = models::saturating_models();
    let ex = check_suite(&suite, &model_list, &ex_cfg, jobs);
    let sat = check_suite(&suite, &model_list, &sat_cfg, jobs);

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
        jobs_suffix(jobs)
    );
    if let Some(path) = json_path {
        json_lines.push(
            JsonObject::new()
                .num("pairs", pairs as u64)
                .num("divergences", divergences as u64)
                .finish(),
        );
        write_json_lines(path, &json_lines)?;
    }
    Ok(exit_status(divergences == 0))
}

/// `smc corpus --exhaustive`: classify the full universe of small
/// histories (2 processors × 2 ops × 2 locations × 1 value) against the
/// Figure 5 models, with the memo table and lattice propagation on. One
/// JSON line per history carries the verdict row, so a checked-in golden
/// file can detect verdict drift between revisions.
fn corpus_exhaustive(a: &Args) -> Result<ExitCode, String> {
    let (jobs, show_stats, json_path) = (jobs(a)?, a.has("--stats"), a.str("--json"));
    let params = smc_core::histgen::GenParams {
        procs: 2,
        ops_per_proc: 2,
        locs: 2,
        values: 1,
    };
    let corpus = smc_core::histgen::all_histories(&params);
    let model_list = models::figure5_models();
    let mut cfg = CheckConfig::default().with_memo();
    cfg.parallel_cutover = a.num("--cutover", cfg.parallel_cutover)?;
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
                .map(|(m, allowed)| {
                    format!(
                        "{}:{}",
                        m.name,
                        match allowed {
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
        write_json_lines(path, &json_lines)?;
    }
    println!(
        "exhaustive: {} histories × {} models, {} checked, {} propagated, {} undecided{}",
        corpus.len(),
        model_list.len(),
        prop.checked,
        prop.propagated,
        undecided,
        jobs_suffix(jobs)
    );
    if show_stats {
        println!("{}", memo_line(&memo_stats));
    }
    Ok(exit_status(undecided == 0))
}

fn cmd_matrix(a: &Args) -> Result<ExitCode, String> {
    let path = a.pos.first().ok_or("matrix: missing <file>")?;
    let jobs = jobs(a)?;
    let show_stats = a.has("--stats");
    let suite = load(path)?;
    let model_list = models::all_models();
    let base = if show_stats {
        CheckConfig::default().with_memo()
    } else {
        CheckConfig::default()
    };
    let cfg = check_config(a, base)?;
    memo_file_load(&cfg, a);
    let results = check_suite(&suite, &model_list, &cfg, jobs);
    memo_file_save(&cfg, a);
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
            print!(" {:>14}", cell(&r.verdict));
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
            println!("{}", memo_line(&memo.stats()));
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

fn cmd_explore(a: &Args) -> Result<ExitCode, String> {
    let path = a.pos.first().ok_or("explore: missing <file>")?;
    let memory = a.str("--memory").ok_or("explore: missing --memory NAME")?;
    let jobs = jobs(a)?;
    let tests = load(path)?;
    let t = tests.first().ok_or("explore: file contains no history")?;

    struct Explore(OpScript);
    impl MachineFn for Explore {
        type Out = (String, smc_sim::explore::ExploreOutcome);
        fn call<M: MemorySystem>(self, make: impl Fn() -> M) -> Self::Out {
            let mem = make();
            (
                mem.name(),
                explore(&mem, &self.0, &ExploreConfig::default()),
            )
        }
    }
    let (n, l) = (t.history.num_procs(), t.history.num_locs());
    let (mem_name, out) = with_machine(memory, n, l, Explore(to_script(&t.history)))?;
    println!(
        "{}: {} distinct histories over {} states{}{}",
        mem_name,
        out.histories.len(),
        out.states_explored,
        if out.truncated { " (TRUNCATED)" } else { "" },
        if out.bounded { " (bounded)" } else { "" },
    );
    if !a.has("--check") {
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
    let model_list = select_models(a.str("--model"), models::all_models)?;
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
            print!(
                " {:>14}",
                cell(&results[hi * model_list.len() + mi].verdict)
            );
        }
        println!();
        for line in h.to_string().lines() {
            println!("    {line}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bakery(a: &Args) -> Result<ExitCode, String> {
    let n: usize = a.num("--n", 2)?;
    let runs: u64 = a.num("--runs", 1000)?;
    let memory = a.str("--memory").unwrap_or("rcpc");
    if !["sc", "tso", "rcsc", "rcpc", "wo", "hybrid"].contains(&memory) {
        return Err(format!("bakery: unsupported memory `{memory}`"));
    }
    let program = bakery(n, Label::Labeled);
    if a.has("--show-program") {
        println!("{program}");
    }

    struct Trial<'p>(&'p smc_programs::Program, u64);
    impl MachineFn for Trial<'_> {
        type Out = (u64, Option<(u64, String, History)>);
        fn call<M: MemorySystem>(self, make: impl Fn() -> M) -> Self::Out {
            let mut violations = 0;
            let mut first = None;
            for seed in 0..self.1 {
                let w = ProgramWorkload::new(self.0.clone(), 200);
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
    }
    let (violations, first) = with_machine(memory, n, program.num_locs(), Trial(&program, runs))?;
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
fn cmd_separate(a: &Args) -> Result<ExitCode, String> {
    use smc_core::separate::{DirectionStatus, Separator};

    let model_list: Vec<ModelSpec> = if a.has("--all") {
        if !a.pos.is_empty() {
            return Err("separate: --all takes no model arguments".into());
        }
        models::lattice_models()
    } else {
        let [x, y] = a.pos[..] else {
            return Err("separate: expected <model-a> <model-b>, or --all".into());
        };
        let ma =
            models::by_name(x).ok_or_else(|| format!("unknown model `{x}` (try `smc models`)"))?;
        let mb =
            models::by_name(y).ok_or_else(|| format!("unknown model `{y}` (try `smc models`)"))?;
        if ma.name == mb.name {
            return Err(format!(
                "`{x}` and `{y}` are both {} — nothing to separate",
                ma.name
            ));
        }
        vec![ma, mb]
    };
    let jobs = jobs(a)?;
    let spec = a.str("--max-universe").unwrap_or("medium");
    let universes = smc_core::separate::ladder(spec).map_err(|e| format!("--max-universe: {e}"))?;
    let json_path = a.str("--json");
    let cfg = check_config(a, CheckConfig::default().with_memo())?;
    memo_file_load(&cfg, a);

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
    if !a.has("--no-minimize") {
        sep.minimize_found();
    }
    memo_file_save(&cfg, a);
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
        jobs_suffix(jobs)
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
        write_json_lines(path, &json_lines)?;
    }

    if let Some(dir) = a.str("--emit-dir") {
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

    /// A JSON line, opened with the session id in a multi-session
    /// replay.
    fn json(&self) -> JsonObject {
        match &self.label {
            Some(sid) => JsonObject::new().str("session", sid),
            None => JsonObject::new(),
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
                    json_lines.push(
                        self.json()
                            .num("event", rep.events as u64)
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
fn cmd_monitor(a: &Args) -> Result<ExitCode, String> {
    use smc_history::trace::{is_session_id, parse_trace_line, split_session_line};
    use smc_monitor::{Monitor, MonitorConfig, TriVerdict};
    use std::io::BufRead;

    let show_stats = a.has("--stats");
    let json_path = a.str("--json");
    // Feed granularity: --batch N amortizes interning, table growth and
    // restart-model settling over N events per feed_batch call. Verdict
    // transitions and per-step stats then report at batch granularity;
    // final verdicts are identical to per-event feeding.
    let batch: usize = a.num("--batch", 1)?;
    if batch == 0 {
        return Err("monitor: --batch must be at least 1".into());
    }
    // Lattice order keeps stronger models first, so one frontier
    // verdict propagates to as many weaker models as possible.
    let model_list = select_models(a.str("--model"), models::lattice_models)?;
    let mut cfg = MonitorConfig {
        jobs: jobs(a)?,
        ..MonitorConfig::default()
    };
    cfg.max_frontier_states = a.num("--max-states", cfg.max_frontier_states)?;
    // --window N seals the decided prefix every N events, bounding
    // frontier memory (0 = unwindowed, the default).
    let window: usize = a.num("--window", 0)?;
    cfg.window = (window > 0).then_some(window);
    cfg.check = check_config(a, cfg.check)?;
    memo_file_load(&cfg.check, a);
    // The memo cache is shared by Arc, so this clone saves the verdicts
    // the monitor's rechecks insert while it owns `cfg`.
    let memo_cfg = cfg.check.clone();
    let checkpoint_file = a.str("--checkpoint-file");
    let restore_from = a.str("--restore-from");
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
            if !a.has("--max-states") {
                cfg.max_frontier_states = cap;
            }
            if !a.has("--window") {
                cfg.window = (win > 0).then_some(win);
            }
            let mon = Monitor::restore_bytes(&bytes, model_list.clone(), cfg.clone())
                .map_err(|e| format!("monitor: cannot restore `{p}`: {e}"))?;
            eprintln!("restored {} event(s) from {p}", mon.num_events());
            mon
        }
        None => Monitor::new(model_list.clone(), cfg.clone()),
    };

    let path = a.pos.first().copied().unwrap_or("-");
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
                json_lines.push(
                    s.json()
                        .num("skipped_line", line_no as u64)
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
                let mut line = s.json().str("model", &m.name).str("verdict", v.word());
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
                    let row: Vec<String> = model_list
                        .iter()
                        .zip(&rec.verdicts)
                        .map(|(m, v)| format!("{}:{}", m.name, v.word()))
                        .collect();
                    json_lines.push(
                        s.json()
                            .num("window", (wi + 1) as u64)
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
        write_json_lines(path, &json_lines)?;
    }
    memo_file_save(&memo_cfg, a);
    Ok(exit_status(violated == 0))
}

/// `smc monitor --corpus`: the monitor golden gate. Every embedded
/// litmus history is linearized to a trace, replayed event-by-event, and
/// the final per-model verdicts are diffed against the batch checker.
fn monitor_corpus(a: &Args) -> Result<ExitCode, String> {
    use smc_history::trace::Trace;
    use smc_monitor::{Monitor, MonitorConfig, TriVerdict};

    let (jobs, json_path) = (jobs(a)?, a.str("--json"));
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
        jobs_suffix(jobs)
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
        write_json_lines(path, &json_lines)?;
    }
    Ok(exit_status(mismatches == 0))
}

/// The [`SERVER`] and [`SESSION`] flags as a server configuration.
/// Sessions monitor their models in lattice order, so frontier verdicts
/// propagate maximally.
fn serve_config(a: &Args) -> Result<smc_serve::ServeConfig, String> {
    let mut cfg = smc_serve::ServeConfig::default();
    cfg.workers = a.num("--workers", cfg.workers)?;
    cfg.max_sessions = a.num("--max-sessions", cfg.max_sessions)?;
    cfg.max_conns = a.num("--max-conns", cfg.max_conns)?;
    cfg.queue_cap = a.num("--queue", cfg.queue_cap)?;
    if cfg.queue_cap == 0 {
        return Err("serve: --queue must be at least 1".into());
    }
    cfg.models = select_models(a.str("--model"), models::lattice_models)?;
    cfg.monitor.jobs = jobs(a)?;
    cfg.monitor.max_frontier_states = a.num("--max-states", cfg.monitor.max_frontier_states)?;
    let window: usize = a.num("--window", 0)?;
    cfg.monitor.window = (window > 0).then_some(window);
    cfg.evict_dir = a.str("--evict-dir").map(std::path::PathBuf::from);
    Ok(cfg)
}

/// `smc serve`: run the multi-session streaming admission server until
/// a client sends `SHUTDOWN`.
fn cmd_serve(a: &Args) -> Result<ExitCode, String> {
    let mut cfg = serve_config(a)?;
    if let Some(addr) = a.str("--listen") {
        cfg.addr = addr.to_owned();
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

/// The [`LOADGEN`] flags: the client configuration (no address, no
/// shutdown) and the session count.
fn loadgen_config(a: &Args) -> Result<(smc_serve::loadgen::LoadgenConfig, usize), String> {
    let sessions: usize = a.num("--sessions", 1024)?;
    if sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    let cfg = smc_serve::loadgen::LoadgenConfig {
        addr: String::new(),
        conns: a.num("--conns", 8)?,
        query_every: a.num("--query-every", 32)?,
        shutdown: false,
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

/// `smc serve --bench`: start an ephemeral in-process server, drive it
/// with the in-tree load generator over loopback, verify every session's
/// final verdict against the offline monitor, and report sustained
/// events/sec plus query-latency percentiles.
fn serve_bench(a: &Args) -> Result<ExitCode, String> {
    let mut cfg = serve_config(a)?;
    let (mut lg, sessions) = loadgen_config(a)?;
    let work = gen_session_work(&GenSpec::from_args(a, Some(64))?, sessions)?;
    cfg.addr = "127.0.0.1:0".into();
    cfg.max_sessions = cfg.max_sessions.max(sessions);
    let model_list = cfg.models.clone();
    let mon_cfg = cfg.monitor.clone();
    // The memo cache is shared by Arc; hold a handle so the report can
    // include the cross-session hit counters after the server stops.
    let memo = cfg.monitor.check.memo.clone();
    let server = smc_serve::Server::start(cfg).map_err(|e| format!("serve: {e}"))?;
    lg.addr = server.addr().to_string();
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
    if let Some(path) = a.str("--json") {
        write_json_lines(path, &[json])?;
        eprintln!("wrote {path}");
    }
    Ok(exit_status(mismatches.is_empty()))
}

/// `smc loadgen`: drive a *running* server (see `smc serve`) with
/// generated multi-session traffic and report throughput, latency
/// percentiles and (with `--verify`) a diff of every session's final
/// verdict against the offline monitor.
fn cmd_loadgen(a: &Args) -> Result<ExitCode, String> {
    let addr = a.str("--addr").ok_or("loadgen: missing --addr HOST:PORT")?;
    let (mut lg, sessions) = loadgen_config(a)?;
    lg.addr = addr.to_owned();
    lg.shutdown = a.has("--shutdown");
    let work = gen_session_work(&GenSpec::from_args(a, Some(64))?, sessions)?;
    let report = smc_serve::loadgen::run(&lg, &work)?;
    let verified = if a.has("--verify") {
        // The offline twin assumes the server monitors the same models
        // (its default set, or the matching --model) under the same
        // per-session frontier budget (the serve default, or the
        // matching --max-states).
        let model_list = select_models(a.str("--model"), models::lattice_models)?;
        let mut mon_cfg = smc_serve::ServeConfig::default().monitor;
        mon_cfg.max_frontier_states = a.num("--max-states", mon_cfg.max_frontier_states)?;
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
    if let Some(path) = a.str("--json") {
        write_json_lines(path, &[json])?;
        eprintln!("wrote {path}");
    }
    Ok(exit_status(verified.unwrap_or(0) == 0))
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
fn trace_from(a: &Args) -> Result<ExitCode, String> {
    use smc_history::trace::{emit_trace, Trace};
    let path = a.pos.first().ok_or("trace from: missing <file>")?;
    let suite = load(path)?;
    let t = match a.str("--test") {
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
    write_out(a.str("--out"), &text)
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
    /// The [`GEN`] flags (plus `--ops` when no `--events` count is given
    /// or defaulted).
    fn from_args(a: &Args, default_events: Option<usize>) -> Result<GenSpec, String> {
        let procs: usize = a.num("--procs", 3)?;
        let events = a.positive("--events")?.or(default_events);
        let ops: usize = match events {
            // Cover the requested total even when it does not divide
            // evenly; the surplus is trimmed from the emitted stream.
            Some(n) => n.div_ceil(procs.max(1)),
            None => a.num("--ops", 4)?,
        };
        let locs: usize = a.num("--locs", 2)?;
        let values: i64 = a.num("--values", 2)?;
        // Aliasing-heavy mode: write values come from a fresh counter
        // folded into a K-letter alphabet, so the emitted trace has the
        // *structure* of a fresh-value execution but every read ends up
        // with many same-value reads-from candidates — the adversarial
        // regime for checkers. Mutually exclusive with --values (it
        // replaces the value pool, it does not sample from one).
        let alias_values: Option<i64> = a.positive("--alias-values")?;
        if alias_values.is_some() && a.has("--values") {
            return Err("trace gen: --alias-values and --values are mutually exclusive".into());
        }
        let seed: u64 = a.num("--seed", 0)?;
        if procs == 0 || locs == 0 || values < 1 {
            return Err("trace gen: --procs/--locs/--values must be at least 1".into());
        }
        Ok(GenSpec {
            memory: a.str("--memory").unwrap_or("tso").to_owned(),
            procs,
            events,
            ops,
            locs,
            values,
            alias_values,
            seed,
        })
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

        struct Run(OpScript, u64);
        impl MachineFn for Run {
            type Out = smc_sim::sched::RunOutcome;
            fn call<M: MemorySystem>(self, make: impl Fn() -> M) -> Self::Out {
                run_random(make(), self.0, self.1, 200_000)
            }
        }
        let run = Run(OpScript::new(threads, locs), seed);
        let out = with_machine(&self.memory, procs, locs, run)?;
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
fn trace_gen(a: &Args) -> Result<ExitCode, String> {
    use smc_history::trace::{emit_trace, session_line};
    use smc_prng::SmallRng;

    let spec = GenSpec::from_args(a, None)?;
    let sessions: usize = a.num("--sessions", 0)?;
    let churn: usize = a.num("--churn", 0)?;
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
        return write_out(a.str("--out"), &text);
    }
    if sessions == 0 {
        let (trace, completed) = spec.generate()?;
        let mut text = spec.comment();
        if !completed {
            text.push_str("# note: run hit the step limit before draining\n");
        }
        text.push_str(&emit_trace(&trace));
        return write_out(a.str("--out"), &text);
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
    write_out(a.str("--out"), &text)
}

fn cmd_models(_: &Args) -> Result<ExitCode, String> {
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
    println!("  {}", MACHINES.join(" "));
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn entry(usage: &str) -> &'static Cmd {
        COMMANDS.iter().find(|c| c.usage == usage).expect("entry")
    }

    /// Select and parse a whole `smc` command line without running it.
    fn parses(words: &[String]) -> Result<&'static str, String> {
        let (cmd, rest) = select(words)?;
        parse(cmd, rest).map(|_| cmd.usage)
    }

    #[test]
    fn flag_parsing() {
        let v = argv("--stats x.litmus --model TSO --jobs 3");
        let a = parse(entry("check <file>"), &v).unwrap();
        assert_eq!(a.pos, ["x.litmus"]);
        assert_eq!(a.str("--model"), Some("TSO"));
        assert!(a.has("--stats") && !a.has("--engine"));
        assert_eq!(jobs(&a), Ok(3));
        for (line, err) in [
            ("x --modle sc", "check: unknown flag `--modle`"),
            ("x --model", "check: --model requires a value"),
            ("x --model --stats", "check: --model requires a value"),
            ("x --jobs 2 --jobs 4", "check: --jobs given twice"),
            ("x --stats --stats", "check: --stats given twice"),
        ] {
            let e = parse(entry("check <file>"), &argv(line)).err();
            assert_eq!(e.as_deref(), Some(err), "{line}");
        }
        let e = parse(entry("corpus"), &argv("extra")).err();
        assert_eq!(e.as_deref(), Some("corpus: unexpected argument `extra`"));
        let e = parse(entry("check <file>"), &argv("a.litmus b.litmus")).err();
        assert_eq!(e.as_deref(), Some("check: unexpected argument `b.litmus`"));
        let v = argv("--jobs 0");
        assert!(jobs(&parse(entry("corpus"), &v).unwrap()).is_err());
    }

    #[test]
    fn engine_flag_parsing() {
        let engine = |line: &str| {
            let v = argv(line);
            check_config(&parse(entry("matrix <file>"), &v)?, CheckConfig::default())
                .map(|c| c.engine)
        };
        assert_eq!(engine(""), Ok(EngineKind::Auto));
        assert_eq!(engine("--engine auto"), Ok(EngineKind::Auto));
        assert_eq!(engine("--engine saturate"), Ok(EngineKind::Saturate));
        assert_eq!(engine("--engine exhaustive"), Ok(EngineKind::Exhaustive));
        assert!(engine("--engine").is_err());
        assert!(engine("--engine warp").is_err());
    }

    #[test]
    fn check_flags_parse_and_configure() {
        let v = argv("--jobs 3 --cutover 7 --engine saturate --memo-file m.bin");
        let a = parse(entry("check <file>"), &v).unwrap();
        assert_eq!(jobs(&a), Ok(3));
        assert_eq!(a.str("--memo-file"), Some("m.bin"));
        let cfg = check_config(&a, CheckConfig::default()).unwrap();
        assert_eq!(cfg.parallel_cutover, 7);
        assert_eq!(cfg.engine, EngineKind::Saturate);
        assert!(cfg.memo.is_some(), "--memo-file attaches a cache");
        // Defaults when no flags are given, and no cache.
        let a = parse(entry("check <file>"), &[]).unwrap();
        let cfg = check_config(&a, CheckConfig::default()).unwrap();
        assert_eq!(jobs(&a), Ok(1));
        assert_eq!(
            cfg.parallel_cutover,
            CheckConfig::default().parallel_cutover
        );
        assert_eq!(cfg.engine, EngineKind::Auto);
        assert!(cfg.memo.is_none() && a.str("--memo-file").is_none());
    }

    #[test]
    #[should_panic(expected = "does not declare")]
    fn getter_for_an_undeclared_flag_panics() {
        let a = parse(entry("corpus --engine-equiv"), &[]).unwrap();
        a.has("--engine");
    }

    /// Every flag name has one declaration, no table lists a name twice
    /// or claims `--help`, and every declaration reads `--name [META]:
    /// help`.
    #[test]
    fn flag_tables_are_well_formed() {
        let mut seen: Vec<Flag> = Vec::new();
        for cmd in COMMANDS {
            let names: Vec<&str> = cmd.flags().map(Flag::name).collect();
            for (i, f) in cmd.flags().enumerate() {
                let (name, (head, help)) = (f.name(), f.split());
                assert!(name.starts_with("--") && name != "--help", "{name}");
                assert!(!help.is_empty() && !head.ends_with(' '), "{name}");
                assert!(!names[..i].contains(&name), "{}: {name} twice", cmd.usage);
                assert!(!cmd.name().split(' ').any(|w| w == name), "{name}");
                match seen.iter().find(|s| s.name() == name) {
                    Some(s) => assert_eq!(*s, f, "{name} declared twice"),
                    None => seen.push(f),
                }
            }
        }
    }

    #[test]
    fn modes_and_subcommands_select_their_entry() {
        for (line, usage, rest) in [
            ("corpus --jobs 2", "corpus", 2),
            ("corpus --jobs 2 --exhaustive", "corpus --exhaustive", 3),
            ("corpus --engine-equiv", "corpus --engine-equiv", 1),
            ("monitor --corpus", "monitor --corpus", 1),
            ("monitor -", "monitor [<file>|-]", 1),
            ("serve --bench", "serve --bench", 1),
            ("trace gen --seed 1", "trace gen", 2),
            ("trace from f", "trace from <file>", 1),
        ] {
            let v = argv(line);
            let (cmd, r) = select(&v).unwrap();
            assert_eq!((cmd.usage, r.len()), (usage, rest), "{line}");
        }
        let e = select(&argv("trace --seed 1")).err();
        assert_eq!(e.as_deref(), Some("trace: expected `gen` or `from <file>`"));
        // Two modes at once: the other mode's switch is not in the table.
        let e = parses(&argv("corpus --exhaustive --engine-equiv")).unwrap_err();
        assert!(e.contains("unknown flag `--engine-equiv`"), "{e}");
    }

    /// The argument vectors that the gate script, CI, the README and the
    /// benchmark harness pass to `smc` all parse, so a flag-table change
    /// that would break one of them fails here first.
    #[test]
    fn callers_argument_lists_parse() {
        let sources = [
            include_str!("../../../scripts/check.sh"),
            include_str!("../../../.github/workflows/ci.yml"),
            include_str!("../../../README.md"),
        ];
        let mut lines: Vec<Vec<String>> = Vec::new();
        for text in sources {
            for line in text.replace("\\\n", " ").lines() {
                let start = (line.find("smc -- ").map(|i| i + 7))
                    .or_else(|| line.find("release/smc ").map(|i| i + 12));
                if let Some(i) = start {
                    let words = line[i..].split_whitespace();
                    let words = words.take_while(|w| !w.starts_with(['>', '&', '#', '|']));
                    lines.push(words.map(str::to_owned).collect());
                }
            }
        }
        assert!(lines.len() >= 18, "found {} command lines", lines.len());
        // perfbench/src: gen.rs (SESSION_SHAPE and its extension),
        // oneshot.rs (SEPARATE_ARGS, the check runs and the setup
        // probes) and serve_load.rs.
        lines.extend(
            [
                "trace gen --memory tso --procs 3 --locs 2 --values 2 --events 64 \
                 --sessions 1024 --seed 7",
                "separate --all --max-universe medium --jobs 2",
                "separate --all --max-universe 2x1x1x1 --jobs 2",
                "check suite.litmus --model TSO --engine auto",
                "serve --listen 127.0.0.1:0 --workers 1",
            ]
            .map(argv),
        );
        for words in &lines {
            assert!(parses(words).is_ok(), "{words:?}: {:?}", parses(words));
        }
    }

    #[test]
    fn help_is_generated_from_the_tables() {
        let check = usage_for(&argv("check"));
        assert!(
            check.contains("smc check <file> [--model NAME] [--stats]"),
            "{check}"
        );
        assert!(check.contains("--memo-file PATH"), "{check}");
        assert!(
            check.contains("keep decided verdicts across runs"),
            "{check}"
        );
        assert!(!check.contains("smc corpus"), "{check}");
        let trace = usage_for(&argv("trace"));
        assert!(trace.contains("smc trace gen") && trace.contains("smc trace from"));
        let all = usage();
        for cmd in COMMANDS {
            assert!(all.contains(&format!("smc {}", cmd.usage)), "{}", cmd.usage);
        }
        assert!(all.contains(&MACHINES.join(" ")));
        assert_eq!(usage_for(&argv("frobnicate")), all);
    }

    #[test]
    fn every_machine_name_dispatches() {
        struct Name;
        impl MachineFn for Name {
            type Out = String;
            fn call<M: MemorySystem>(self, make: impl Fn() -> M) -> String {
                make().name()
            }
        }
        for name in MACHINES {
            assert!(with_machine(name, 2, 2, Name).is_ok(), "{name}");
        }
        assert!(with_machine("bogus", 2, 2, Name).is_err());
    }

    #[test]
    fn resolve_model_selectors() {
        assert!(select_models(None, models::all_models).unwrap().len() > 5);
        let all = select_models(Some("all"), models::lattice_models).unwrap();
        assert_eq!(all.len(), models::lattice_models().len());
        assert_eq!(select_models(Some("tso"), Vec::new).unwrap()[0].name, "TSO");
        assert!(select_models(Some("bogus"), models::all_models).is_err());
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(run(&["frobnicate".to_string()]).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn models_subcommand_succeeds() {
        assert!(cmd_models(&parse(entry("models"), &[]).unwrap()).is_ok());
    }

    #[test]
    fn script_conversion_preserves_shape() {
        let h = parse_history("p: w(x)1 rl(y)0\nq: wl(y)2").unwrap();
        let s = to_script(&h);
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.num_locs(), 2);
    }
}
