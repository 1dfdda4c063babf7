//! End-to-end serve workloads: an `smc serve --workers 1` child driven
//! over loopback by this process, with at most two threads and two
//! connections.
//!
//! A repetition starts a fresh server and runs the closed loop; until
//! one open loop has kept its schedule, a repetition also runs the open
//! loop after it, against a second fresh server:
//!
//! * **closed loop** — two connections each own half of the sessions,
//!   `OPEN` them, stream their events round-robin, send a `QUERY` every
//!   `query_every` events per session and wait for its verdict, then
//!   `CLOSE` every session. The wall time runs from the first `OPEN` to
//!   the last `CLOSED`; the `CLOSE` barrier means all verdict work has
//!   drained.
//! * **open loop** — one connection, a writer and a reader thread. The
//!   writer sends events on a fixed schedule (`open_rate` events per
//!   second, round-robin over the sessions) whatever the server does,
//!   with each session's query period offset so queries arrive evenly;
//!   each `QUERY` is timed from when it was due, so a stall also counts
//!   against the queries behind it. The writer's lateness against the
//!   schedule is recorded; an open loop whose generator fell behind is
//!   invalid and is run again.
//!
//! Every `CLOSED` payload is diffed against
//! [`smc_serve::offline_payload`] on the same trace.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use smc_history::trace::Trace;

use crate::child::{self, Running};
use crate::gen;
use crate::Tally;

/// The traffic shape of one serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Sessions of the closed-loop phase.
    pub sessions: usize,
    /// A `QUERY` after every this many events per session.
    pub query_every: usize,
    /// Sessions of the open-loop phase (generated after the closed
    /// loop's, with the same shape).
    pub open_sessions: usize,
    /// Offered open-loop rate, events per second: about half the
    /// closed-loop capacity measured when the benchmark was defined.
    pub open_rate: f64,
}

/// `serve_ingest`: 1024 sessions x 64 events, a `QUERY` every 32.
pub const INGEST: Shape = Shape {
    sessions: 1024,
    query_every: 32,
    open_sessions: 640,
    open_rate: 15_000.0,
};

/// An open loop whose generator ran later than this at its 99th
/// percentile did not offer the stated load: its latencies are
/// discarded and the next repetition runs the open loop again.
pub const MAX_GEN_LAG_P99_MS: f64 = 10.0;

/// Reply timeout on every connection, so a hung server fails the run
/// instead of hanging it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Whether session `i` sends a `QUERY` right after its `event`-th event
/// (1-based), with one query per `k` events (`k` = 0: none). Session `i`
/// starts `i mod k` events into its query period, so the sessions'
/// queries are spread evenly, as independent clients' would be, instead
/// of falling in lock step. With lock-step queries each connection
/// drained 512 sessions back to back every 32 sweeps, and the
/// closed-loop wall of `serve_ingest` varied twice as much from
/// repetition to repetition.
pub fn queries_after(i: usize, k: usize, event: usize) -> bool {
    k > 0 && (event + i % k).is_multiple_of(k)
}

/// Check a `CLOSED` payload against the offline monitor's, counting
/// its per-model verdict tokens and the `unknown` ones among them.
fn judge_payload(t: &mut Tally, sid: &str, got: &str, want: &str) {
    for tok in got.split_whitespace().skip(1) {
        t.verdicts += 1;
        if tok
            .split_once('=')
            .is_some_and(|(_, v)| v.starts_with("unknown"))
        {
            t.undecided += 1;
        }
    }
    if got != want {
        t.fail(
            1,
            format!("session {sid}: served `{got}`, offline `{want}`"),
        );
    }
}

/// Prepared traffic: traces, their wire lines under closed- and
/// open-loop session ids, and the offline payloads.
pub struct Traffic {
    /// The `smc trace gen` output the sessions were parsed from.
    stream: String,
    /// The generated sessions: closed loop first, then open loop.
    pub work: Vec<Trace>,
    /// Closed-loop session ids and wire lines.
    pub closed: Vec<(String, Vec<String>)>,
    open: Vec<(String, Vec<String>)>,
    /// Header lines before the first event of each session.
    pub heads: Vec<usize>,
    /// Offline payload of each session.
    pub expected: Vec<String>,
    shape: Shape,
}

impl Traffic {
    /// Generate the traffic for `seed` with `smc trace gen` and compute
    /// every expected payload (on two threads, before anything is
    /// timed). The open loop gets sessions of its own, so no trace
    /// reaches the server twice and the cross-session memo sees only
    /// genuine repeats.
    pub fn new(smc: &Path, shape: Shape, seed: u64) -> Result<Traffic, String> {
        let n = shape.sessions + shape.open_sessions;
        let stream = gen::serve_stream(smc, seed, n)?;
        let work = gen::serve_sessions(&stream)?;
        if work.len() != n || work.iter().any(|t| t.len() != gen::SESSION_EVENTS) {
            return Err(format!(
                "serve stream: expected {n} sessions of {} events",
                gen::SESSION_EVENTS
            ));
        }
        let render = |prefix: &str, range: std::ops::Range<usize>| -> Vec<(String, Vec<String>)> {
            work[range]
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let sid = format!("{prefix}{i}");
                    let lines = gen::wire_lines(&sid, t);
                    (sid, lines)
                })
                .collect()
        };
        let closed = render("c", 0..shape.sessions);
        let open = render("o", shape.sessions..work.len());
        let heads = work.iter().map(gen::header_lines).collect();
        let expected = offline_payloads(&work);
        Ok(Traffic {
            stream,
            work,
            closed,
            open,
            heads,
            expected,
            shape,
        })
    }

    /// [`gen::serve_self_test`] on this traffic.
    pub fn self_test(&self, smc: &Path, seed: u64) -> Result<bool, String> {
        gen::serve_self_test(smc, seed, self.work.len(), &self.stream)
    }

    /// Events in the closed-loop phase.
    pub fn closed_events(&self) -> usize {
        self.work[..self.shape.sessions]
            .iter()
            .map(Trace::len)
            .sum()
    }
}

/// The payload every session must end with, from the offline monitor
/// under the server's default models and per-session configuration.
fn offline_payloads(work: &[Trace]) -> Vec<String> {
    let cfg = smc_serve::ServeConfig::default();
    let half = work.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = work
            .chunks(half.max(1))
            .map(|chunk| {
                let cfg = &cfg;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|t| smc_serve::offline_payload(&cfg.models, &cfg.monitor, t))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("offline payload thread panicked"))
            .collect()
    })
}

/// Start `smc serve --workers 1` on an ephemeral loopback port; returns
/// the child, its address and the time from spawn to its `listening
/// on` line.
pub fn start_server(smc: &Path) -> Result<(Running, String, Duration), String> {
    let mut r = child::spawn(smc, &["serve", "--listen", "127.0.0.1:0", "--workers", "1"])?;
    let line = r.read_line()?.ok_or("smc serve exited before listening")?;
    let setup = r.spawned.elapsed();
    let addr = line
        .strip_prefix("listening on ")
        .ok_or_else(|| format!("smc serve said `{line}` instead of `listening on ...`"))?
        .to_owned();
    Ok((r, addr, setup))
}

fn connect(addr: &str) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let r = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
    Ok((r, BufWriter::with_capacity(64 * 1024, s)))
}

fn read_line(r: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => Err("server closed the connection".into()),
        Ok(_) => Ok(line.trim_end().to_owned()),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Next solicited reply; asynchronous `BUSY` notices count as failures.
fn reply(r: &mut BufReader<TcpStream>, tally: &mut Tally) -> Result<String, String> {
    loop {
        let line = read_line(r)?;
        if line.starts_with("BUSY ") {
            tally.fail(1, format!("refused event: {line}"));
            continue;
        }
        return Ok(line);
    }
}

fn send(w: &mut BufWriter<TcpStream>, line: &str) -> Result<(), String> {
    w.write_all(line.as_bytes())
        .and_then(|()| w.write_all(b"\n"))
        .map_err(|e| format!("write: {e}"))
}

fn flush(w: &mut BufWriter<TcpStream>) -> Result<(), String> {
    w.flush().map_err(|e| format!("write: {e}"))
}

/// `OPEN` every session of `sids` (pipelined) and check each `OK`.
fn open_all<'a>(
    r: &mut BufReader<TcpStream>,
    w: &mut BufWriter<TcpStream>,
    sids: impl Iterator<Item = &'a str> + Clone,
    tally: &mut Tally,
) -> Result<(), String> {
    for sid in sids.clone() {
        send(w, &format!("OPEN {sid}"))?;
        tally.attempted += 1;
    }
    flush(w)?;
    for sid in sids {
        let got = reply(r, tally)?;
        if got != format!("OK {sid}") {
            tally.fail(1, format!("OPEN {sid}: `{got}`"));
        }
    }
    Ok(())
}

/// Result of one closed-loop connection.
struct ConnOut {
    tally: Tally,
    events: u64,
}

/// Drive the sessions `mine` (indices into the traffic) over one
/// connection, closed loop.
fn closed_conn(addr: &str, tr: &Traffic, mine: &[usize]) -> Result<ConnOut, String> {
    let (mut r, mut w) = connect(addr)?;
    let mut out = ConnOut {
        tally: Tally::default(),
        events: 0,
    };
    let k = tr.shape.query_every;
    open_all(
        &mut r,
        &mut w,
        mine.iter().map(|&i| tr.closed[i].0.as_str()),
        &mut out.tally,
    )?;
    let mut cursor = vec![0usize; mine.len()];
    let mut sent = vec![0usize; mine.len()];
    let mut live = mine.len();
    while live > 0 {
        live = 0;
        for (j, &i) in mine.iter().enumerate() {
            let (sid, lines) = &tr.closed[i];
            if cursor[j] >= lines.len() {
                continue;
            }
            live += 1;
            send(&mut w, &lines[cursor[j]])?;
            out.tally.attempted += 1;
            let is_event = cursor[j] >= tr.heads[i];
            cursor[j] += 1;
            if is_event {
                out.events += 1;
                sent[j] += 1;
            }
            if is_event && queries_after(i, k, sent[j]) {
                send(&mut w, &format!("QUERY {sid}"))?;
                flush(&mut w)?;
                out.tally.attempted += 1;
                let got = reply(&mut r, &mut out.tally)?;
                if !got.starts_with(&format!("VERDICT {sid} ")) {
                    out.tally.fail(1, format!("QUERY {sid}: `{got}`"));
                }
            }
        }
    }
    for &i in mine {
        let sid = &tr.closed[i].0;
        send(&mut w, &format!("CLOSE {sid}"))?;
        flush(&mut w)?;
        out.tally.attempted += 1;
        let got = reply(&mut r, &mut out.tally)?;
        match got.strip_prefix(&format!("CLOSED {sid} ")) {
            Some(payload) => judge_payload(&mut out.tally, sid, payload, &tr.expected[i]),
            None => out.tally.fail(1, format!("CLOSE {sid}: `{got}`")),
        }
    }
    Ok(out)
}

/// Closed-loop phase: two connections, the second on a spawned thread.
/// Returns the tally, events sent and the wall time from the first
/// `OPEN` to the last `CLOSED`.
fn closed_loop(addr: &str, tr: &Traffic) -> Result<(Tally, u64, Duration), String> {
    let split = |c: usize| -> Vec<usize> { (0..tr.closed.len()).filter(|i| i % 2 == c).collect() };
    let (a, b) = (split(0), split(1));
    let t0 = Instant::now();
    let (ra, rb) = std::thread::scope(|s| {
        let hb = s.spawn(|| closed_conn(addr, tr, &b));
        let ra = closed_conn(addr, tr, &a);
        let rb = hb
            .join()
            .unwrap_or_else(|_| Err("connection thread panicked".into()));
        (ra, rb)
    });
    let wall = t0.elapsed();
    let (ra, rb) = (ra?, rb?);
    let mut tally = ra.tally;
    tally.absorb(&rb.tally);
    Ok((tally, ra.events + rb.events, wall))
}

/// Result of the open-loop phase.
pub struct OpenOut {
    /// Query round trips from when each was due, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Writer lateness against the schedule per line, milliseconds.
    pub lag_ms: Vec<f64>,
    tally: Tally,
}

/// The open loop's header lines, sent up front, and its scheduled event
/// lines, each with the session to `QUERY` right after it, if any.
fn schedule(tr: &Traffic) -> (Vec<&str>, Vec<(&str, Option<&str>)>) {
    let n = tr.open.len();
    let mut heads = Vec::new();
    for (i, (_, lines)) in tr.open.iter().enumerate() {
        heads.extend(
            lines[..tr.heads[tr.shape.sessions + i]]
                .iter()
                .map(String::as_str),
        );
    }
    let mut events = Vec::new();
    let mut cursor: Vec<usize> = (0..n).map(|i| tr.heads[tr.shape.sessions + i]).collect();
    let k = tr.shape.query_every;
    let mut live = n;
    while live > 0 {
        live = 0;
        for i in 0..n {
            let (sid, lines) = &tr.open[i];
            if cursor[i] >= lines.len() {
                continue;
            }
            live += 1;
            let event = cursor[i] + 1 - tr.heads[tr.shape.sessions + i];
            let query = queries_after(i, k, event).then_some(sid.as_str());
            events.push((lines[cursor[i]].as_str(), query));
            cursor[i] += 1;
        }
    }
    (heads, events)
}

/// Open-loop phase on one connection: this thread writes on schedule,
/// a second thread reads replies.
fn open_loop(addr: &str, tr: &Traffic) -> Result<OpenOut, String> {
    let (mut r, mut w) = connect(addr)?;
    let mut tally = Tally::default();
    open_all(
        &mut r,
        &mut w,
        tr.open.iter().map(|(s, _)| s.as_str()),
        &mut tally,
    )?;
    let (heads, events) = schedule(tr);
    for h in &heads {
        send(&mut w, h)?;
        tally.attempted += 1;
    }
    flush(&mut w)?;
    let queries = events.iter().filter(|(_, q)| q.is_some()).count();
    let (due_tx, due_rx) = mpsc::channel::<Instant>();
    let n_open = tr.open.len();

    let (reader, lag_ms, wrote) = std::thread::scope(|s| {
        let reader = s.spawn(move || -> Result<(Tally, Vec<f64>), String> {
            let mut t = Tally::default();
            let mut lat = Vec::with_capacity(queries);
            for _ in 0..queries {
                let got = reply(&mut r, &mut t)?;
                let due = due_rx.recv().map_err(|_| "query schedule ended early")?;
                lat.push(due.elapsed().as_secs_f64() * 1e3);
                if !got.starts_with("VERDICT ") {
                    t.fail(1, format!("QUERY: `{got}`"));
                }
            }
            for i in 0..n_open {
                let sid = &tr.open[i].0;
                let got = reply(&mut r, &mut t)?;
                match got.strip_prefix(&format!("CLOSED {sid} ")) {
                    Some(payload) => {
                        judge_payload(&mut t, sid, payload, &tr.expected[tr.shape.sessions + i])
                    }
                    None => t.fail(1, format!("CLOSE {sid}: `{got}`")),
                }
            }
            Ok((t, lat))
        });
        let mut lag_ms = Vec::with_capacity(events.len());
        let period = Duration::from_secs_f64(1.0 / tr.shape.open_rate);
        let start = Instant::now();
        let mut wrote = || -> Result<(), String> {
            for (j, (line, query)) in events.iter().enumerate() {
                let due = start + period * j as u32;
                let now = Instant::now();
                if due > now {
                    flush(&mut w)?;
                    std::thread::sleep(due - now);
                }
                send(&mut w, line)?;
                lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                if let Some(sid) = query {
                    due_tx.send(due).map_err(|_| "reply reader stopped early")?;
                    send(&mut w, &format!("QUERY {sid}"))?;
                }
            }
            for (sid, _) in &tr.open {
                send(&mut w, &format!("CLOSE {sid}"))?;
            }
            flush(&mut w)
        };
        let wrote = wrote();
        if wrote.is_err() {
            // Wake the reader instead of letting it wait out its timeout.
            let _ = w.get_ref().shutdown(std::net::Shutdown::Both);
        }
        (reader.join(), lag_ms, wrote)
    });
    wrote?;
    let (t, latency_ms) = reader.unwrap_or_else(|_| Err("reply reader panicked".into()))?;
    tally.attempted += (events.len() + queries + n_open) as u64;
    tally.absorb(&t);
    Ok(OpenOut {
        latency_ms,
        lag_ms,
        tally,
    })
}

/// Counters from the server's `STATS` reply.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerStats {
    /// Cross-session memo hits.
    pub memo_hits: u64,
    /// Cross-session memo misses.
    pub memo_misses: u64,
    /// `BUSY` replies the server sent.
    pub busy: u64,
}

fn stat_field(line: &str, key: &str) -> Result<u64, String> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("STATS reply lacks `{key}`: `{line}`"))
}

/// Ask for `STATS`, then `SHUTDOWN` the server.
fn stats_and_shutdown(addr: &str, tally: &mut Tally) -> Result<ServerStats, String> {
    let (mut r, mut w) = connect(addr)?;
    send(&mut w, "STATS")?;
    send(&mut w, "SHUTDOWN")?;
    flush(&mut w)?;
    tally.attempted += 2;
    let line = reply(&mut r, tally)?;
    let stats = ServerStats {
        memo_hits: stat_field(&line, "memo_hits")?,
        memo_misses: stat_field(&line, "memo_misses")?,
        busy: stat_field(&line, "busy")?,
    };
    let bye = reply(&mut r, tally)?;
    if bye != "BYE" {
        tally.fail(1, format!("SHUTDOWN: `{bye}`"));
    }
    Ok(stats)
}

/// Everything one repetition measured.
pub struct Rep {
    /// First `OPEN` to last `CLOSED` of the closed loop.
    pub closed_wall: Duration,
    /// Events sent in the closed loop.
    pub closed_events: u64,
    /// Open-loop phase, if the repetition ran one.
    pub open: Option<OpenOut>,
    /// Closed-loop server counters.
    pub stats: ServerStats,
    /// Closed-loop server peak RSS, MiB.
    pub peak_rss_mb: f64,
    /// All operations of the repetition.
    pub tally: Tally,
}

impl Rep {
    /// 99th-percentile generator lateness of the open loop, ms.
    pub fn lag_p99_ms(&self) -> Option<f64> {
        let mut l = self.open.as_ref()?.lag_ms.clone();
        l.sort_by(f64::total_cmp);
        Some(crate::stats::percentile(&l, 99.0))
    }

    /// The open loop ran and its generator kept the schedule.
    pub fn open_on_schedule(&self) -> bool {
        self.lag_p99_ms().is_some_and(|l| l <= MAX_GEN_LAG_P99_MS)
    }
}

/// One repetition: the closed loop against a fresh server, then, if
/// `with_open`, the open loop against another fresh server, so the
/// closed-loop server's peak RSS never includes open-loop sessions.
/// Transport failures end the repetition with an error (the caller
/// counts it as failed).
pub fn rep(smc: &Path, tr: &Traffic, with_open: bool) -> Result<Rep, String> {
    let (server, addr, _) = start_server(smc)?;
    let (mut tally, closed_events, closed_wall) = closed_loop(&addr, tr)?;
    let stats = stats_and_shutdown(&addr, &mut tally)?;
    let (_, exit) = server.finish()?;
    if !exit.success() {
        tally.fail(1, format!("smc serve exited with {:?}", exit.code));
    }
    let open = if with_open {
        let (server, addr, _) = start_server(smc)?;
        let o = open_loop(&addr, tr)?;
        tally.absorb(&o.tally);
        stats_and_shutdown(&addr, &mut tally)?;
        let (_, open_exit) = server.finish()?;
        if !open_exit.success() {
            tally.fail(1, format!("smc serve exited with {:?}", open_exit.code));
        }
        Some(o)
    } else {
        None
    };
    Ok(Rep {
        closed_wall,
        closed_events,
        open,
        stats,
        peak_rss_mb: exit.peak_rss_mb,
        tally,
    })
}

/// Spawn-to-listening time of one server started and shut down
/// straight away.
pub fn setup_sample(smc: &Path) -> Result<f64, String> {
    let (server, addr, setup) = start_server(smc)?;
    let mut t = Tally::default();
    stats_and_shutdown(&addr, &mut t)?;
    let (_, exit) = server.finish()?;
    if !exit.success() || t.failed > 0 {
        return Err(format!(
            "idle smc serve did not stop cleanly: {:?}",
            t.notes
        ));
    }
    Ok(setup.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_keep_their_period_and_spread_out() {
        let first = |i: usize| (1..=64).find(|&e| queries_after(i, 32, e)).unwrap();
        for i in 0..64 {
            assert_eq!((1..=64).filter(|&e| queries_after(i, 32, e)).count(), 2);
        }
        let mut firsts: Vec<usize> = (0..32).map(first).collect();
        firsts.sort_unstable();
        assert_eq!(firsts, (1..=32).collect::<Vec<_>>());
        assert!((1..=64).all(|e| queries_after(5, 1, e)));
        assert!((1..=64).all(|e| !queries_after(5, 0, e)));
    }
}
