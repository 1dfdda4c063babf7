//! End-to-end one-shot workloads: `smc separate` and `smc check` run as
//! child processes, timed from launch to the complete result.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::child;
use crate::gen::{self, Family};
use crate::Tally;

/// `smc separate` arguments of `separate_lattice`.
pub const SEPARATE_ARGS: [&str; 6] = [
    "separate",
    "--all",
    "--max-universe",
    "medium",
    "--jobs",
    "2",
];

/// The direction table `separate_lattice` must print: everything `smc
/// separate` writes except the closing `scanned ...` summary, whose
/// wall time differs run to run. Witnesses do not depend on `--jobs`.
pub const SEPARATE_EXPECTED: &str = include_str!("../expected/separate_medium.txt");

/// One repetition of a one-shot workload.
pub struct Rep {
    /// Launch to complete result of each process, in a fixed order: the
    /// one `separate` process, or one `check` process per model.
    pub walls: Vec<Duration>,
    /// Peak RSS, MiB: of the one process (separate), or the sum over the
    /// per-model processes of each one's peak above the trivial run's
    /// (check).
    pub peak_rss_mb: f64,
    /// Operations and failures.
    pub tally: Tally,
}

/// Blocks of a direction table: each starts at a line that is not
/// indented and runs until the next.
fn blocks(table: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in table.lines() {
        if line.starts_with(' ') {
            if let Some(b) = out.last_mut() {
                b.push('\n');
                b.push_str(line);
                continue;
            }
        }
        out.push(line.to_owned());
    }
    out
}

/// Split `smc separate` output into the table and the `scanned` line.
fn split_summary(out: &str) -> (&str, &str) {
    match out.rfind("\nscanned ") {
        Some(i) => (&out[..i + 1], out[i + 1..].trim_end()),
        None => (out, ""),
    }
}

/// The number before `word` in `line` (`"115283 checks"` -> 115283).
fn count_before(line: &str, word: &str) -> Option<u64> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    toks.windows(2)
        .find(|w| w[1].trim_end_matches(',') == word)
        .and_then(|w| w[0].parse().ok())
}

/// Compare a `smc separate` output with the expected table.
pub fn judge_separate(out: &str, ok_exit: bool) -> Tally {
    let (table, summary) = split_summary(out);
    let want = blocks(SEPARATE_EXPECTED);
    let got = blocks(table);
    let mut t = Tally {
        attempted: want.len() as u64,
        ..Tally::default()
    };
    if !ok_exit {
        t.fail(t.attempted, "smc separate exited nonzero".into());
        return t;
    }
    let differing = (0..want.len().max(got.len()))
        .filter(|&i| want.get(i) != got.get(i))
        .count() as u64;
    if differing > 0 {
        let first = (0..).find(|&i| want.get(i) != got.get(i)).unwrap_or(0);
        t.fail(
            differing.min(t.attempted),
            format!(
                "direction table differs at block {first}: got `{}`",
                got.get(first).map_or("<missing>", String::as_str)
            ),
        );
    }
    match (
        count_before(summary, "checks"),
        count_before(summary, "undecided"),
    ) {
        (Some(checks), Some(undecided)) => {
            t.verdicts = checks;
            t.undecided = undecided;
        }
        _ => t.fail(
            1,
            format!("no `scanned` summary in smc separate output: `{summary}`"),
        ),
    }
    t
}

/// One direction of a direction table, as `smc separate` states it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectionRow {
    /// The model that must admit the witness.
    pub admits: String,
    /// The model that must refute it.
    pub refutes: String,
    /// What was established.
    pub status: RowStatus,
}

/// The outcome of one direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RowStatus {
    /// A known inclusion: no witness can exist.
    Impossible,
    /// No witness up to the largest universe.
    Open,
    /// A witness: its universe label, enumeration index, whether it was
    /// minimized, and the history's lines.
    Found {
        universe: String,
        index: u64,
        minimized: bool,
        history: Vec<String>,
    },
}

/// Parse one direction block of a table.
fn direction_row(block: &str) -> Option<DirectionRow> {
    let mut lines = block.lines();
    let head = lines.next()?;
    let row = |admits: &str, refutes: &str, status| DirectionRow {
        admits: admits.to_owned(),
        refutes: refutes.to_owned(),
        status,
    };
    if let Some((pair, _)) = head.split_once(" is a known inclusion") {
        let (a, r) = pair.split_once(" ⊆ ")?;
        return Some(row(a, r, RowStatus::Impossible));
    }
    let (a, rest) = head.split_once(" admits / ")?;
    let (r, rest) = rest.split_once(" refutes: ")?;
    if rest.starts_with("no witness up to ") {
        return Some(row(a, r, RowStatus::Open));
    }
    let (universe, rest) = rest.strip_prefix("witness in ")?.split_once(" (index ")?;
    let (index, rest) = rest.split_once([',', ')'])?;
    let status = RowStatus::Found {
        universe: universe.to_owned(),
        index: index.parse().ok()?,
        minimized: rest.starts_with(" minimized"),
        history: lines.map(|l| l.trim().to_owned()).collect(),
    };
    Some(row(a, r, status))
}

/// The directions of [`SEPARATE_EXPECTED`]: every block after the
/// universe log, in table order.
pub fn expected_directions() -> Result<Vec<DirectionRow>, String> {
    let table = SEPARATE_EXPECTED;
    let start = table.find("\n\n").map_or(0, |i| i + 2);
    blocks(&table[start..])
        .iter()
        .filter(|b| !b.trim().is_empty())
        .map(|b| direction_row(b).ok_or_else(|| format!("expected table: cannot read `{b}`")))
        .collect()
}

/// One `separate_lattice` repetition.
pub fn separate_rep(smc: &Path) -> Result<Rep, String> {
    let (out, exit, wall) = child::run(smc, &SEPARATE_ARGS)?;
    Ok(Rep {
        walls: vec![wall],
        peak_rss_mb: exit.peak_rss_mb,
        tally: judge_separate(&out, exit.success()),
    })
}

/// The 7 models the saturation engine supports, by CLI name.
pub const SATURATE_MODELS: [&str; 7] = [
    "SC",
    "TSO",
    "PCG",
    "CausalCoherent",
    "Causal",
    "PRAM",
    "Coherent",
];
/// The 5 exhaustive-only models.
pub const EXHAUSTIVE_MODELS: [&str; 5] = ["PC", "RCsc", "RCpc", "WO", "Hybrid"];

/// The `check_bighist` suites written to disk for one seed.
pub struct Suites {
    /// Saturation suite (fresh, alias, stale) text and path.
    pub sat: (String, PathBuf),
    /// Exhaustive suite text and path.
    pub exh: (String, PathBuf),
}

/// Generate and write both suites under `dir`.
pub fn write_suites(dir: &Path, seed: u64) -> Result<Suites, String> {
    let (sat, exh) = gen::check_suites(seed);
    let write = |name: &str, text: String| -> Result<(String, PathBuf), String> {
        let p = dir.join(name);
        std::fs::write(&p, &text).map_err(|e| format!("cannot write {}: {e}", p.display()))?;
        Ok((text, p))
    };
    Ok(Suites {
        sat: write(&format!("sat-{seed}.litmus"), sat)?,
        exh: write(&format!("exh-{seed}.litmus"), exh)?,
    })
}

/// Verdict cells of `smc check --model <m>` output: `(test, cell)`.
fn verdict_cells(out: &str) -> Vec<(String, String)> {
    let mut test = None;
    let mut cells = Vec::new();
    for line in out.lines() {
        if let Some(name) = line.strip_prefix("== ").and_then(|l| l.strip_suffix(" ==")) {
            test = Some(name.to_owned());
        } else if let (Some(t), Some(rest)) = (&test, line.strip_prefix("  ")) {
            // The cell line is `  <model padded to 16> <verdict>`; views
            // and histories are indented by four.
            if !rest.starts_with(' ') {
                let cell = rest
                    .split_whitespace()
                    .skip(1)
                    .collect::<Vec<_>>()
                    .join(" ");
                cells.push((t.clone(), cell));
                test = None;
            }
        }
    }
    cells
}

/// Judge one `smc check` process against the generator's guarantees.
pub fn judge_check(out: &str, ok_exit: bool, tests: usize, model: &str, t: &mut Tally) {
    t.attempted += tests as u64;
    if !ok_exit {
        t.fail(
            tests as u64,
            format!("smc check --model {model} exited nonzero"),
        );
        return;
    }
    let cells = verdict_cells(out);
    if cells.len() != tests {
        t.fail(
            tests as u64,
            format!(
                "smc check --model {model}: {} of {tests} verdicts",
                cells.len()
            ),
        );
        return;
    }
    for (name, cell) in cells {
        t.verdicts += 1;
        let want = Family::of_test(&name).map(Family::expected_allowed);
        let got = match cell.as_str() {
            "allowed" => Some(true),
            "forbidden" => Some(false),
            _ => None,
        };
        match (want, got) {
            (Some(w), Some(g)) if w == g => {}
            (Some(_), None) if cell.starts_with("undecided") => t.undecided += 1,
            _ => t.fail(1, format!("{name} under {model}: `{cell}`")),
        }
    }
}

/// Number of tests in a suite text.
pub fn count_tests(text: &str) -> usize {
    text.lines().filter(|l| l.starts_with("test ")).count()
}

/// One `check_bighist` repetition: one `smc check --engine auto`
/// process per model, one after another. `base_rss_mb` is the peak RSS
/// of the command on a trivial input: the part of every process's peak
/// that no check causes.
pub fn check_rep(smc: &Path, suites: &Suites, base_rss_mb: f64) -> Result<Rep, String> {
    let mut rep = Rep {
        walls: Vec::new(),
        peak_rss_mb: 0.0,
        tally: Tally::default(),
    };
    let runs = SATURATE_MODELS
        .iter()
        .map(|m| (m, &suites.sat))
        .chain(EXHAUSTIVE_MODELS.iter().map(|m| (m, &suites.exh)));
    for (model, (text, path)) in runs {
        let path = path.to_str().ok_or("suite path is not UTF-8")?;
        let (out, exit, wall) =
            child::run(smc, &["check", path, "--model", model, "--engine", "auto"])?;
        rep.walls.push(wall);
        rep.peak_rss_mb += (exit.peak_rss_mb - base_rss_mb).max(0.0);
        judge_check(
            &out,
            exit.success(),
            count_tests(text),
            model,
            &mut rep.tally,
        );
    }
    Ok(rep)
}

/// The workload's command on a trivial input (`separate` over the
/// smallest universe; `check` on a two-operation history): its
/// launch-to-result time is `setup_s`.
pub struct Setup {
    args: Vec<String>,
}

impl Setup {
    /// Write the trivial input under `dir`.
    pub fn new(dir: &Path, separate: bool) -> Result<Setup, String> {
        let trivial = dir.join("trivial.litmus");
        std::fs::write(&trivial, "p: w(x)1\nq: r(x)1\n")
            .map_err(|e| format!("cannot write {}: {e}", trivial.display()))?;
        let trivial = trivial.to_str().ok_or("work path is not UTF-8")?;
        let args: &[&str] = if separate {
            &[
                "separate",
                "--all",
                "--max-universe",
                "2x1x1x1",
                "--jobs",
                "2",
            ]
        } else {
            &["check", trivial, "--model", "SC", "--engine", "auto"]
        };
        Ok(Setup {
            args: args.iter().map(|a| (*a).to_owned()).collect(),
        })
    }

    /// Run it once: launch-to-result seconds and peak RSS, MiB.
    pub fn sample(&self, smc: &Path) -> Result<(f64, f64), String> {
        let args: Vec<&str> = self.args.iter().map(String::as_str).collect();
        let (_, exit, wall) = child::run(smc, &args)?;
        if !exit.success() {
            return Err(format!("trivial `smc {}` failed", args.join(" ")));
        }
        Ok((wall.as_secs_f64(), exit.peak_rss_mb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_cells_skip_histories_and_views() {
        let out = "== fresh_64_0 ==\n    p: w(x)1\n  SC               allowed\n    S_p: w(x)1\n\n\
                   == stale_64_0 ==\n    p: w(x)1\n  SC               forbidden\n\n\
                   == alias_64_0 ==\n    p: w(x)1\n  SC               undecided (budget)\n";
        let cells = verdict_cells(out);
        assert_eq!(
            cells,
            vec![
                ("fresh_64_0".to_owned(), "allowed".to_owned()),
                ("stale_64_0".to_owned(), "forbidden".to_owned()),
                ("alias_64_0".to_owned(), "undecided (budget)".to_owned()),
            ]
        );
        let mut t = Tally::default();
        judge_check(out, true, 3, "SC", &mut t);
        assert_eq!(
            (t.attempted, t.failed, t.verdicts, t.undecided),
            (3, 0, 3, 1)
        );
        let mut t = Tally::default();
        judge_check(&out.replace("forbidden", "allowed"), true, 3, "SC", &mut t);
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn separate_table_is_judged_by_direction_block() {
        let summary = "scanned 9 histories (1 skipped by form, 0 unexplainable) -> 4 classes (2 repeat encounters), 7 checks + 3 propagated, 0 undecided in 1.0ms [2 jobs]\n";
        let good = format!("{SEPARATE_EXPECTED}{summary}");
        let t = judge_separate(&good, true);
        assert_eq!((t.failed, t.verdicts, t.undecided), (0, 7, 0));
        assert!(t.attempted > 30);
        let bad = good.replacen("witness in", "witness at", 1);
        assert_eq!(judge_separate(&bad, true).failed, 1);
        assert_eq!(judge_separate(&good, false).failed, t.attempted);
    }

    #[test]
    fn expected_table_reads_as_directions() {
        let rows = expected_directions().unwrap();
        // 8 models, 7 directions each.
        assert_eq!(rows.len(), 56);
        let count = |f: fn(&RowStatus) -> bool| rows.iter().filter(|r| f(&r.status)).count();
        assert_eq!(count(|s| *s == RowStatus::Impossible), 20);
        let tso_sc = rows
            .iter()
            .find(|r| r.admits == "TSO" && r.refutes == "SC")
            .unwrap();
        assert_eq!(
            tso_sc.status,
            RowStatus::Found {
                universe: "2x2x2x1".into(),
                index: 196,
                minimized: true,
                history: vec!["p: w(x)1 r(y)0".into(), "q: w(y)1 r(x)0".into()],
            }
        );
    }
}
