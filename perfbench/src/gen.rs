//! Seeded input generation for every workload.
//!
//! One benchmark seed determines every input: the serve traffic (what
//! `smc trace gen --memory tso --procs 3 --locs 2 --values 2 --events 64
//! --sessions N` emits for a seed derived from the benchmark seed) and
//! the `check_bighist` suites (histories from `smc_bench::bighist`).
//! `separate_lattice` enumerates a fixed universe ladder and takes no
//! random input.

use std::path::Path;

use smc_bench::bighist::{sc_run, sc_run_aliased, stale_run};
use smc_history::litmus::{emit_litmus_test, LitmusTest};
use smc_history::trace::{emit_trace, parse_multi_trace, session_line, Trace};

use crate::child;

/// SplitMix64 finalizer: spreads `seed ^ tag` over the whole 64-bit
/// range, so neighbouring benchmark seeds share no derived seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = (seed ^ tag).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `smc trace gen` arguments of one serve session's machine and program
/// shape.
const SESSION_SHAPE: [&str; 10] = [
    "trace", "gen", "--memory", "tso", "--procs", "3", "--locs", "2", "--values", "2",
];

/// Events per serve session.
pub const SESSION_EVENTS: usize = 64;

/// The serve traffic of benchmark seed `seed`: `sessions` TSO-machine
/// sessions as `smc trace gen --sessions` emits them (session `i` is
/// the run for trace seed `mix(seed) + i`), interleaved `@s<i>` lines.
pub fn serve_stream(smc: &Path, seed: u64, sessions: usize) -> Result<String, String> {
    let (e, n, s) = (
        SESSION_EVENTS.to_string(),
        sessions.to_string(),
        mix(seed, 0x5e55_0000).to_string(),
    );
    let mut args = SESSION_SHAPE.to_vec();
    args.extend(["--events", &e, "--sessions", &n, "--seed", &s]);
    let (out, exit, _) = child::run(smc, &args)?;
    if !exit.success() {
        return Err(format!("`smc {}` failed", args.join(" ")));
    }
    Ok(out)
}

/// Self-test of the serve generator against `stream`, the traffic of
/// `seed`: the same seed must give it byte for byte, another seed
/// something else.
pub fn serve_self_test(
    smc: &Path,
    seed: u64,
    sessions: usize,
    stream: &str,
) -> Result<bool, String> {
    let again = serve_stream(smc, seed, sessions)?;
    let other = serve_stream(smc, seed.wrapping_add(1), sessions)?;
    Ok(again == stream && other != stream)
}

/// Demultiplex a [`serve_stream`] into its sessions, in session order.
pub fn serve_sessions(stream: &str) -> Result<Vec<Trace>, String> {
    let mut sessions = parse_multi_trace(stream).map_err(|e| format!("serve stream: {e}"))?;
    let index = |sid: &str| sid.strip_prefix('s').and_then(|i| i.parse::<usize>().ok());
    if let Some((sid, _)) = sessions.iter().find(|(sid, _)| index(sid).is_none()) {
        return Err(format!("serve stream: unexpected session id `{sid}`"));
    }
    sessions.sort_by_key(|(sid, _)| index(sid));
    Ok(sessions.into_iter().map(|(_, t)| t).collect())
}

/// A session's wire lines, headers first: `@sid procs ...`,
/// `@sid locs ...`, then one `@sid <event>` line per event.
pub fn wire_lines(sid: &str, t: &Trace) -> Vec<String> {
    emit_trace(t)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| session_line(sid, l))
        .collect()
}

/// Number of header lines [`wire_lines`] puts before the events.
pub fn header_lines(t: &Trace) -> usize {
    usize::from(t.num_procs() > 0) + usize::from(t.num_locs() > 0)
}

/// Which `smc_bench::bighist` generator produced a check test; the
/// test name starts with the family word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// `sc_run`: fresh values, forced reads-from. Allowed everywhere.
    Fresh,
    /// `sc_run_aliased` over 3 values. Allowed everywhere.
    Alias,
    /// `stale_run`: Disallowed under every program-order model.
    Stale,
    /// Short `sc_run`s for the exhaustive-only models. Allowed.
    Exhaustive,
}

impl Family {
    /// All families, in report order.
    pub const ALL: [Family; 4] = [
        Family::Fresh,
        Family::Alias,
        Family::Stale,
        Family::Exhaustive,
    ];

    /// The word used in test names and metric names.
    pub fn word(self) -> &'static str {
        match self {
            Family::Fresh => "fresh",
            Family::Alias => "alias",
            Family::Stale => "stale",
            Family::Exhaustive => "exhaustive",
        }
    }

    /// The family of a generated test, from its name.
    pub fn of_test(name: &str) -> Option<Family> {
        let word = name.split('_').next()?;
        Family::ALL.into_iter().find(|f| f.word() == word)
    }

    /// The verdict the generator guarantees: `true` = admitted.
    pub fn expected_allowed(self) -> bool {
        self != Family::Stale
    }
}

/// Sizes (operations) of the tests of each family. The fresh and
/// stale families get one test per size, the aliased family
/// [`ALIAS_REPLICAS`] and the exhaustive family [`EXHAUSTIVE_REPLICAS`],
/// all with distinct seeds.
const FRESH_OPS: [usize; 5] = [64, 128, 256, 512, 1024];
const ALIAS_OPS: [usize; 3] = [64, 96, 128];
const STALE_OPS: [usize; 3] = [64, 256, 1024];
const EXHAUSTIVE_OPS: usize = 16;
const ALIAS_REPLICAS: usize = 8;
const EXHAUSTIVE_REPLICAS: usize = 40;

/// The two `check_bighist` suites as litmus text: the saturation suite
/// (fresh, alias, stale) checked under each of the 7 models the
/// saturation engine supports, and the exhaustive suite checked under
/// the 5 exhaustive-only models. Expectations are left out: the
/// benchmark checks verdicts against [`Family::expected_allowed`].
pub fn check_suites(seed: u64) -> (String, String) {
    let base = mix(seed, 0xb16_0000);
    let mut n = 0u64;
    let mut next = || {
        n += 1;
        base.wrapping_add(n)
    };
    let mut sat = Vec::new();
    let mut exh = Vec::new();
    for ops in FRESH_OPS {
        sat.push(test("fresh", ops, 0, sc_run(next(), 4, 4, ops)));
    }
    for r in 0..ALIAS_REPLICAS {
        for ops in ALIAS_OPS {
            sat.push(test("alias", ops, r, sc_run_aliased(next(), 4, 8, ops, 3)));
        }
    }
    for ops in STALE_OPS {
        sat.push(test("stale", ops, 0, stale_run(next(), 4, 4, ops)));
    }
    for r in 0..EXHAUSTIVE_REPLICAS {
        exh.push(test(
            "exhaustive",
            EXHAUSTIVE_OPS,
            r,
            sc_run(next(), 4, 4, EXHAUSTIVE_OPS),
        ));
    }
    let render = |tests: &[LitmusTest]| -> String {
        tests
            .iter()
            .map(|t| emit_litmus_test(t) + "\n")
            .collect::<String>()
    };
    (render(&sat), render(&exh))
}

fn test(family: &str, ops: usize, replica: usize, history: smc_history::History) -> LitmusTest {
    LitmusTest {
        name: format!("{family}_{ops}_{replica}"),
        description: String::new(),
        history,
        expectations: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_suites_other_seed_other_suites() {
        assert_eq!(check_suites(7), check_suites(7));
        let (a, b) = (check_suites(7), check_suites(8));
        assert_ne!(a.0, b.0);
        assert_ne!(a.1, b.1);
    }

    #[test]
    fn serve_stream_demultiplexes_in_session_order() {
        let stream = "# smc trace gen --sessions 11\n\
                      @s10 procs p0\n@s2 procs p0\n@s10 p0 w(x0)1\n\
                      @s2 p0 r(x0)0\n@s10 p0 r(x0)1\n";
        let sessions = serve_sessions(stream).unwrap();
        assert_eq!(sessions.len(), 2);
        assert_eq!(sessions[0].len(), 1);
        assert_eq!(sessions[1].len(), 2);
        let lines = wire_lines("c1", &sessions[1]);
        assert_eq!(lines.len(), header_lines(&sessions[1]) + 2);
        assert!(lines.iter().all(|l| l.starts_with("@c1 ")));
        assert!(serve_sessions("@x procs p0\n").is_err());
    }

    #[test]
    fn suites_parse_and_name_their_family() {
        let (sat, exh) = check_suites(5);
        let sat = smc_history::litmus::parse_suite(&sat).unwrap();
        let exh = smc_history::litmus::parse_suite(&exh).unwrap();
        assert_eq!(
            sat.len(),
            FRESH_OPS.len() + ALIAS_REPLICAS * ALIAS_OPS.len() + STALE_OPS.len()
        );
        assert_eq!(exh.len(), EXHAUSTIVE_REPLICAS);
        for t in sat.iter().chain(&exh) {
            assert!(Family::of_test(&t.name).is_some(), "{}", t.name);
        }
    }
}
