//! End-to-end tests of the `smc` binary.

use std::process::Command;

fn smc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_smc"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_tmp(name: &str, content: &str) -> String {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn check_single_history_single_model() {
    let f = write_tmp("smc_fig1.litmus", "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n");
    let (ok, stdout, _) = smc(&["check", &f, "--model", "tso"]);
    assert!(ok);
    assert!(stdout.contains("TSO"));
    assert!(stdout.contains("allowed"));
    assert!(stdout.contains("S_{p+w}"));
}

#[test]
fn check_suite_with_expectations_validates() {
    let f = write_tmp(
        "smc_suite_ok.litmus",
        "test t {\n p: w(x)1 r(y)0\n q: w(y)1 r(x)0\n} expect { SC: no, TSO: yes }\n",
    );
    let (ok, stdout, _) = smc(&["check", &f]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("[expected]"));
}

#[test]
fn check_suite_mismatch_fails() {
    let f = write_tmp(
        "smc_suite_bad.litmus",
        "test t {\n p: w(x)1 r(y)0\n q: w(y)1 r(x)0\n} expect { SC: yes }\n",
    );
    let (ok, stdout, stderr) = smc(&["check", &f]);
    assert!(!ok, "{stdout}");
    assert!(stdout.contains("[MISMATCH]"));
    assert!(stderr.contains("failed"));
}

#[test]
fn explore_enumerates_machine_histories() {
    let f = write_tmp("smc_sb.litmus", "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n");
    let (ok, stdout, _) = smc(&["explore", &f, "--memory", "sc"]);
    assert!(ok);
    assert!(stdout.contains("SC: 3 distinct histories"));
    let (ok, stdout, _) = smc(&["explore", &f, "--memory", "tso"]);
    assert!(ok);
    assert!(stdout.contains("TSO: 4 distinct histories"));
}

#[test]
fn bakery_subcommand_reports_violations() {
    let (ok, stdout, _) = smc(&["bakery", "--memory", "rcpc", "--runs", "300"]);
    assert!(ok);
    assert!(stdout.contains("violated mutual exclusion"));
    // RC_pc violates at least once in 300 seeded runs.
    assert!(stdout.contains("first violation"), "{stdout}");
    let (ok, stdout, _) = smc(&["bakery", "--memory", "rcsc", "--runs", "100"]);
    assert!(ok);
    assert!(stdout.contains("0/100"), "{stdout}");
}

#[test]
fn models_lists_everything() {
    let (ok, stdout, _) = smc(&["models"]);
    assert!(ok);
    for name in [
        "SC", "TSO", "PC", "PRAM", "Causal", "RCsc", "RCpc", "WO", "Hybrid",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn bad_usage_is_reported() {
    let (ok, _, stderr) = smc(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown subcommand"));
    let (ok, _, stderr) = smc(&["check", "/nonexistent/file.litmus"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

/// A switch such as `--stats` takes no value, so the word after it is
/// still the file; a flag the command does not know is an error naming
/// it, never silently ignored (a misspelled `--model` used to check
/// every model and exit 0).
#[test]
fn check_splits_switches_and_rejects_unknown_flags() {
    let path = format!("{}/../../litmus/paper.litmus", env!("CARGO_MANIFEST_DIR"));
    let (ok, stdout, stderr) = smc(&["check", "--stats", &path, "--model", "sc"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("[expected]"), "{stdout}");
    let (ok, _, stderr) = smc(&["check", &path, "--modle", "sc"]);
    assert!(!ok, "--modle was accepted");
    assert!(stderr.contains("unknown flag `--modle`"), "{stderr}");
}

/// Run `smc` on a command line it must refuse: exit code 2 and an
/// error on stderr. Returns stdout and stderr.
fn usage_error(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_smc"))
        .args(args)
        .output()
        .expect("binary runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    );
    assert_eq!(out.status.code(), Some(2), "{args:?}\n{stdout}\n{stderr}");
    assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    (stdout, stderr)
}

#[test]
fn every_command_rejects_unknown_flags() {
    let f = write_tmp(
        "smc_unknown_flag.litmus",
        "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n",
    );
    for args in [
        vec!["check", f.as_str(), "--bogus"],
        vec!["corpus", "--bogus"],
        vec!["matrix", f.as_str(), "--bogus"],
        vec!["explore", f.as_str(), "--memory", "sc", "--bogus"],
        vec!["bakery", "--bogus"],
        vec!["separate", "sc", "tso", "--bogus"],
        vec!["monitor", f.as_str(), "--bogus"],
        // Refused before binding a socket (a bound server would block
        // here, and print its address)...
        vec!["serve", "--bogus"],
        // ...and before connecting to anything.
        vec!["loadgen", "--addr", "127.0.0.1:1", "--bogus"],
        vec!["trace", "gen", "--bogus"],
        vec!["models", "--bogus"],
    ] {
        let (stdout, stderr) = usage_error(&args);
        assert!(
            stderr.contains("unknown flag `--bogus`"),
            "{args:?}: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        // The error names the failing command's usage, not every command.
        assert!(stderr.contains(&format!("smc {}", args[0])), "{stderr}");
        assert!(!stderr.contains("memories for --memory"), "{stderr}");
    }
}

/// Command lines that used to run with a flag silently ignored, or
/// misread, now exit 2 with an error naming the flag.
#[test]
fn misspelled_missing_and_repeated_flags_are_refused() {
    let path = format!("{}/../../litmus/paper.litmus", env!("CARGO_MANIFEST_DIR"));
    let trace = write_tmp("smc_refused.trace", "p w(x)1\nq r(x)1\n");
    for (args, flag) in [
        (vec!["bakery", "--runz", "5", "--memory", "sc"], "--runz"),
        (vec!["corpus", "--jbos", "4"], "--jbos"),
        (
            vec!["serve", "--bench", "--sesions", "2", "--workrs", "1"],
            "--sesions",
        ),
        (vec!["check", path.as_str(), "--model"], "--model"),
        (
            vec!["monitor", trace.as_str(), "--json", "--stats"],
            "--json",
        ),
        (
            vec!["monitor", "--corpus", "--model", "TSO", "--window", "3"],
            "--model",
        ),
        (
            vec![
                "trace",
                "from",
                path.as_str(),
                "--procs",
                "9",
                "--churn",
                "2",
            ],
            "--procs",
        ),
        (
            vec!["check", path.as_str(), "--jobs", "2", "--jobs", "4"],
            "--jobs",
        ),
    ] {
        let (_, stderr) = usage_error(&args);
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(flag), "{args:?}: {stderr}");
    }
    // `--stats` was taken as the JSON path: no such file may appear.
    assert!(!std::path::Path::new("--stats").exists());
}

#[test]
fn every_command_prints_its_help() {
    let (ok, stdout, stderr) = smc(&["check", "--help"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("smc check <file> [--model NAME] [--stats]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("--engine exhaustive|saturate|auto"),
        "{stdout}"
    );
    assert!(!stdout.contains("smc corpus"), "{stdout}");
    for cmd in [
        "corpus", "matrix", "explore", "bakery", "separate", "monitor", "serve", "loadgen",
        "trace", "models",
    ] {
        let (ok, stdout, stderr) = smc(&[cmd, "--help"]);
        assert!(ok, "{cmd}: {stderr}");
        assert!(stdout.contains(&format!("smc {cmd}")), "{cmd}: {stdout}");
    }
}

#[test]
fn matrix_runs_on_the_shipped_corpus() {
    // The repository ships litmus/paper.litmus (regenerated by the
    // export_corpus binary); the matrix over it must succeed.
    let root = env!("CARGO_MANIFEST_DIR");
    let path = format!("{root}/../../litmus/paper.litmus");
    if std::path::Path::new(&path).exists() {
        let (ok, stdout, _) = smc(&["matrix", &path]);
        assert!(ok);
        assert!(stdout.contains("bakery_s5"));
    }
}

#[test]
fn forbidden_verdict_shows_cycle_certificate() {
    let f = write_tmp("smc_mp_stale.litmus", "p: w(d)1 w(f)1\nq: r(f)1 r(d)0\n");
    let (ok, stdout, _) = smc(&["check", &f, "--model", "causal"]);
    assert!(ok);
    assert!(stdout.contains("forbidden"));
    assert!(stdout.contains("unsatisfiable ordering cycle"), "{stdout}");
    assert!(stdout.contains("no view exists for q"), "{stdout}");
}

#[test]
fn explore_supports_all_machines() {
    let f = write_tmp("smc_sb2.litmus", "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n");
    for mem in [
        "pram", "causal", "pc", "coherent", "rcsc", "rcpc", "wo", "hybrid", "tso-fwd",
    ] {
        let (ok, stdout, stderr) = smc(&["explore", &f, "--memory", mem]);
        assert!(ok, "{mem}: {stderr}");
        assert!(stdout.contains("distinct histories"), "{mem}: {stdout}");
    }
    let (ok, _, stderr) = smc(&["explore", &f, "--memory", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown memory"));
}

#[test]
fn separate_finds_store_buffering_for_sc_vs_tso() {
    let (ok, stdout, _) = smc(&["separate", "sc", "tso", "--max-universe", "2x2x2x1"]);
    assert!(ok, "{stdout}");
    // SC ⊆ TSO is known, so only the TSO-admits direction can be witnessed,
    // and its minimal witness is the store-buffering litmus of Figure 1.
    assert!(stdout.contains("known inclusion"), "{stdout}");
    assert!(stdout.contains("TSO admits / SC refutes"), "{stdout}");
    assert!(stdout.contains("w(x)1 r(y)0"), "{stdout}");
    assert!(stdout.contains("strictly stronger"), "{stdout}");
}

#[test]
fn separate_reports_incomparable_pc_variants() {
    let (ok, stdout, _) = smc(&["separate", "dash_pc", "goodman_pc", "--jobs", "2"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("PC admits / PCG refutes"), "{stdout}");
    assert!(stdout.contains("PCG admits / PC refutes"), "{stdout}");
    assert!(stdout.contains("incomparable"), "{stdout}");
}

#[test]
fn separate_rejects_bad_arguments() {
    let (ok, _, stderr) = smc(&["separate", "sc"]);
    assert!(!ok);
    assert!(stderr.contains("expected <model-a> <model-b>"), "{stderr}");
    let (ok, _, stderr) = smc(&["separate", "sc", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"), "{stderr}");
    let (ok, _, stderr) = smc(&["separate", "sc", "sc"]);
    assert!(!ok);
    assert!(stderr.contains("nothing to separate"), "{stderr}");
    let (ok, _, stderr) = smc(&["separate", "sc", "tso", "--max-universe", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("max-universe"), "{stderr}");
}

#[test]
fn separate_json_lines_report_every_direction() {
    let json = std::env::temp_dir().join("smc_sep_sc_pram.json");
    let json = json.to_string_lossy().into_owned();
    let (ok, _, _) = smc(&[
        "separate",
        "sc",
        "pram",
        "--json",
        &json,
        "--max-universe",
        "small",
    ]);
    assert!(ok);
    let body = std::fs::read_to_string(&json).unwrap();
    assert!(
        body.contains(r#""admits":"PRAM","refutes":"SC","status":"found""#),
        "{body}"
    );
    assert!(
        body.contains(r#""admits":"SC","refutes":"PRAM","status":"impossible""#),
        "{body}"
    );
    assert!(body.contains(r#""checked""#), "{body}");
}

#[test]
fn bakery_show_program_renders_pseudocode() {
    let (ok, stdout, _) = smc(&["bakery", "--runs", "1", "--show-program"]);
    assert!(ok);
    assert!(stdout.contains("shared: choosing[2] number[2] d"));
    assert!(stdout.contains("enter critical section"));
}

#[test]
fn trace_gen_alias_values_caps_distinct_writes() {
    let (ok, stdout, _) = smc(&[
        "trace",
        "gen",
        "--memory",
        "sc",
        "--procs",
        "3",
        "--events",
        "60",
        "--locs",
        "2",
        "--alias-values",
        "3",
        "--seed",
        "7",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("--alias-values 3"), "{stdout}");
    let mut distinct = std::collections::BTreeSet::new();
    for line in stdout.lines() {
        for piece in line.split_whitespace() {
            if let Some(rest) = piece.strip_prefix("w(") {
                let val = rest.split(')').nth(1).expect("write value");
                distinct.insert(val.to_owned());
            }
        }
    }
    assert!(!distinct.is_empty(), "{stdout}");
    assert!(distinct.len() <= 3, "{distinct:?}\n{stdout}");
}

#[test]
fn trace_gen_alias_values_rejects_values_flag_and_bad_counts() {
    let (ok, _, stderr) = smc(&["trace", "gen", "--alias-values", "3", "--values", "2"]);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
    let (ok, _, stderr) = smc(&["trace", "gen", "--alias-values", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--alias-values"), "{stderr}");
}

#[test]
fn trace_gen_sessions_interleaves_parseable_streams() {
    let (ok, stdout, _) = smc(&[
        "trace",
        "gen",
        "--memory",
        "tso",
        "--sessions",
        "4",
        "--procs",
        "2",
        "--events",
        "12",
        "--seed",
        "5",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("--sessions 4"), "{stdout}");
    // Every non-comment line carries an @sid prefix, and the stream
    // demultiplexes back into 4 well-formed traces.
    for line in stdout.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(line.starts_with('@'), "unprefixed line `{line}`\n{stdout}");
    }
    let sessions = smc_history::trace::parse_multi_trace(&stdout).expect("parses");
    assert_eq!(sessions.len(), 4, "{stdout}");
    for (sid, trace) in &sessions {
        assert!(sid.starts_with('s'), "sid `{sid}`");
        assert_eq!(trace.len(), 12, "session {sid} has {} events", trace.len());
    }
}

#[test]
fn trace_gen_churn_streams_admit_the_generating_model() {
    let (ok, stdout, _) = smc(&[
        "trace", "gen", "--memory", "sc", "--churn", "2", "--procs", "2", "--locs", "2",
        "--events", "12", "--seed", "7",
    ]);
    assert!(ok, "{stdout}");
    // Three generations enter via `join` and the first two retire.
    assert_eq!(stdout.lines().filter(|l| l.starts_with("join ")).count(), 6);
    assert_eq!(
        stdout.lines().filter(|l| l.starts_with("retire ")).count(),
        4
    );
    // The stream must be admissible under the model that generated it:
    // later generations inherit earlier generations' final memory, so
    // the monitor admits SC (and exits 0) instead of refuting a read of
    // stale initial memory. Folding must engage across the retires.
    let f = write_tmp("smc_gen_churn.trace", &stdout);
    let (ok, out, err) = smc(&["monitor", &f, "--window", "4", "--stats"]);
    assert!(ok, "{out}\n{err}");
    assert!(out.contains("SC") && out.contains("admitted"), "{out}");
    assert!(out.contains("4 fold(s)"), "{out}");
}

#[test]
fn monitor_restore_inherits_checkpoint_limits() {
    let f = write_tmp(
        "smc_ckpt_inherit.trace",
        "procs p q\nlocs x\np w(x)1\nq r(x)1\np w(x)2\nq r(x)2\n",
    );
    let ckpt = std::env::temp_dir().join("smc_ckpt_inherit.ckpt");
    let ckpt = ckpt.to_string_lossy().into_owned();
    let (ok, out, err) = smc(&["monitor", &f, "--window", "2", "--checkpoint-file", &ckpt]);
    assert!(ok, "{out}\n{err}");
    // Resuming without repeating --window inherits the checkpoint's
    // windowing instead of erroring on the mismatch with the default.
    let more = write_tmp("smc_ckpt_inherit_more.trace", "p w(x)3\nq r(x)3\n");
    let (ok, out, err) = smc(&["monitor", &more, "--restore-from", &ckpt, "--stats"]);
    assert!(ok, "{out}\n{err}");
    assert!(err.contains("restored 4 event(s)"), "{err}");
    assert!(out.contains("windows: 3 sealed"), "{out}");
    // An explicit conflicting flag is still a mismatch error.
    let (ok, _, err) = smc(&["monitor", &more, "--restore-from", &ckpt, "--window", "5"]);
    assert!(!ok);
    assert!(err.contains("window size 2 != configured 5"), "{err}");
}

#[test]
fn monitor_skips_malformed_lines_and_counts_them() {
    let f = write_tmp(
        "smc_mon_skip.trace",
        "p w(x)1\nthis is not an event\nq r(x)1\n",
    );
    let json = std::env::temp_dir().join("smc_mon_skip.json");
    let json = json.to_string_lossy().into_owned();
    let (ok, stdout, stderr) = smc(&["monitor", &f, "--stats", "--json", &json]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(stdout.contains("1 malformed line(s) skipped"), "{stdout}");
    let body = std::fs::read_to_string(&json).unwrap();
    assert!(body.contains(r#""skipped_line":2"#), "{body}");
    assert!(body.contains(r#""skipped_lines":1"#), "{body}");
}

#[test]
fn monitor_batch_matches_per_event_verdicts() {
    let f = write_tmp(
        "smc_mon_batch.trace",
        "procs p q\nlocs x y\np w(x)1\np r(y)0\nq w(y)1\nq r(x)0\n",
    );
    // The SB trace violates SC, so `smc monitor` exits non-zero by
    // design — only the verdicts (and the exit codes) must agree
    // across batch sizes.
    let (ok1, per_event, _) = smc(&["monitor", &f]);
    let (ok2, batched, _) = smc(&["monitor", &f, "--batch", "8"]);
    assert_eq!(ok1, ok2, "{per_event}\n{batched}");
    // Compare the final verdict table (indented `<model> <verdict>`
    // rows); per-event transition lines may legitimately coalesce
    // under batching.
    let table = |out: &str| -> Vec<String> {
        out.lines()
            .filter(|l| l.starts_with("  ") && (l.contains("admitted") || l.contains("violated")))
            .map(str::to_owned)
            .collect()
    };
    let (a, b) = (table(&per_event), table(&batched));
    assert!(!a.is_empty(), "{per_event}");
    assert_eq!(a, b, "{per_event}\n---\n{batched}");
}

#[test]
fn serve_bench_smoke_verifies_verdicts() {
    let (ok, stdout, stderr) = smc(&[
        "serve",
        "--bench",
        "--sessions",
        "16",
        "--events",
        "8",
        "--conns",
        "2",
        "--query-every",
        "4",
        "--memory",
        "tso",
        "--seed",
        "11",
    ]);
    assert!(ok, "{stdout}\n{stderr}");
    assert!(
        stdout.contains("all verdicts match offline monitor"),
        "{stdout}"
    );
    assert!(stdout.contains("16 session(s)"), "{stdout}");
}

#[test]
fn loadgen_requires_addr() {
    let (ok, _, stderr) = smc(&["loadgen"]);
    assert!(!ok);
    assert!(stderr.contains("--addr"), "{stderr}");
}
