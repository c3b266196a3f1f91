//! Concurrent session simulator over the real `dbex-serve` wire
//! protocol.
//!
//! One OS thread per session (small stacks, staggered starts) — the
//! *client* side deliberately mirrors the server's thread-per-connection
//! architecture so the harness measures the protocol end-to-end rather
//! than an idealized event loop. Each session replays its seeded trace
//! with think-time pacing and can **abandon** at any op boundary: it
//! writes one more request frame and drops the connection without
//! reading the response (exercising the server's executor-drain path),
//! then either vanishes or reconnects, restores its CAD View, and
//! resumes.
//!
//! The report carries everything `bench_explore` aggregates into
//! `BENCH_explore.json`: per-session time-to-first-result, per-op
//! latency samples tagged by [`OpKind`], BUSY/error/abandon/reconnect
//! counts, and — when the caller hands in the server's shared
//! [`StatsCache`] — the cache hit-rate trajectory sampled over the run.

use crate::gen::SyntheticSpec;
use crate::mix::mix;
use crate::trace::{session_trace, OpKind, TraceConfig, TraceOp};
use dbex_serve::{Client, ClientError};
use dbex_stats::StatsCache;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Knobs for [`run_sim`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Concurrent sessions to drive.
    pub sessions: usize,
    /// Trace shape shared by all sessions (each session still gets its
    /// own seeded variation).
    pub trace: TraceConfig,
    /// Per-op-boundary probability that the session abandons its
    /// connection mid-request.
    pub abandon_rate: f64,
    /// Probability an abandoning session reconnects and resumes instead
    /// of vanishing for good.
    pub reconnect_rate: f64,
    /// Connect attempts before giving up on a `BUSY` server (linear
    /// backoff between attempts).
    pub connect_retries: u32,
    /// Delay between consecutive session starts (ramp-up; `0` =
    /// thundering herd).
    pub stagger: Duration,
    /// Cache trajectory sampling interval (used only when a cache is
    /// passed to [`run_sim`]).
    pub cache_sample_every: Duration,
    /// Opt every session into the server's progressive responses
    /// (`.stream on`): a CAD build with at least
    /// `dbex_core::PREVIEW_MIN_ROWS` rows the cluster-reuse cache cannot
    /// serve answers with a sampled preview frame before the exact final
    /// frame, and TTFR measures the *first* frame — the paper's "first
    /// result on screen" moment.
    pub streamed: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            sessions: 8,
            trace: TraceConfig::default(),
            abandon_rate: 0.05,
            reconnect_rate: 0.5,
            connect_retries: 40,
            stagger: Duration::from_micros(500),
            cache_sample_every: Duration::from_millis(50),
            streamed: true,
        }
    }
}

/// One timed request/response exchange (possibly multi-frame).
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Which exploration step this was.
    pub kind: OpKind,
    /// Full round-trip latency (send → **final** frame parsed).
    pub latency: Duration,
    /// Latency to the **first** frame — equal to `latency` for classic
    /// single-frame responses, earlier when a preview streamed first.
    pub first_frame: Duration,
    /// Response frames received (`1` classic, `2` preview + exact).
    pub frames: u32,
    /// Whether the server's final frame answered `ok:true`.
    pub ok: bool,
}

/// What happened to one session.
#[derive(Debug, Clone, Copy)]
pub struct SessionOutcome {
    /// Session id (trace seed input).
    pub session: u64,
    /// Time from session start (including connect and BUSY backoff) to
    /// the first successful response — the paper's "first result on
    /// screen" moment. `None` when the session never got one.
    pub ttfr: Option<Duration>,
    /// The session ran its whole trace.
    pub completed: bool,
    /// The session abandoned at least once (it may still have completed
    /// via reconnect).
    pub abandoned: bool,
    /// Successful reconnect-and-resume cycles.
    pub reconnects: u32,
    /// `BUSY` rejections absorbed while connecting.
    pub busy_retries: u32,
    /// Error responses or transport failures observed.
    pub errors: u32,
}

/// One point of the shared-cache trajectory.
#[derive(Debug, Clone, Copy)]
pub struct CacheSample {
    /// Elapsed run time at the sample.
    pub at: Duration,
    /// Cumulative cache hits.
    pub hits: u64,
    /// Cumulative cache misses.
    pub misses: u64,
    /// Cumulative LRU evictions.
    pub evictions: u64,
}

/// Everything [`run_sim`] measured.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Per-session outcomes, in session order.
    pub outcomes: Vec<SessionOutcome>,
    /// All op samples across all sessions (unordered).
    pub samples: Vec<OpSample>,
    /// Wall-clock of the whole run (first spawn → last join).
    pub wall: Duration,
    /// Shared-cache trajectory (empty when no cache was passed).
    pub cache_trajectory: Vec<CacheSample>,
}

impl SimReport {
    /// Latencies (ms) of successful ops of one kind, unsorted.
    pub fn latencies_ms(&self, kind: Option<OpKind>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && kind.is_none_or(|k| s.kind == k))
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    }

    /// First-frame latencies (ms) of successful ops of one kind — the
    /// progressive-response counterpart of [`SimReport::latencies_ms`].
    pub fn first_frame_ms(&self, kind: Option<OpKind>) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok && kind.is_none_or(|k| s.kind == k))
            .map(|s| s.first_frame.as_secs_f64() * 1e3)
            .collect()
    }

    /// How many ops streamed a preview frame before their final answer —
    /// cold CAD builds only: a build whose partitions all come from the
    /// cluster-reuse cache (a warm re-run) answers in one frame.
    pub fn previewed_ops(&self) -> usize {
        self.samples.iter().filter(|s| s.frames > 1).count()
    }

    /// Total requests issued (ok + error samples).
    pub fn requests(&self) -> usize {
        self.samples.len()
    }

    /// Total error responses / transport failures.
    pub fn errors(&self) -> u32 {
        self.outcomes.iter().map(|o| o.errors).sum()
    }
}

/// Per-attempt bound on TCP connect + hello. A thousand-session ramp
/// can overflow the listen backlog; a dropped SYN must surface as a
/// retryable timeout here, not sit in the kernel's minutes-long
/// retransmit cycle.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Connects with linear-backoff retries on `BUSY` (counted) and on
/// connect/hello timeouts (backlog pressure, not counted as BUSY).
fn connect_with_retry(
    addr: &str,
    retries: u32,
    busy: &mut u32,
) -> Result<Client, ClientError> {
    let mut attempt = 0u32;
    loop {
        let err = match Client::connect_timeout(addr, CONNECT_TIMEOUT) {
            Ok(c) => return Ok(c),
            Err(ClientError::Busy(msg)) => {
                *busy += 1;
                ClientError::Busy(msg)
            }
            Err(e) if is_timeout(&e) => e,
            Err(e) => return Err(e),
        };
        attempt += 1;
        if attempt > retries {
            return Err(err);
        }
        thread::sleep(Duration::from_millis(u64::from(attempt.min(20))));
    }
}

/// Whether a connect error is a per-attempt timeout (retryable).
fn is_timeout(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Protocol(dbex_serve::ProtocolError::Io(io))
            if matches!(io.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock)
    )
}

/// One request/response exchange, consuming **every** frame of a
/// (possibly streamed) response and timestamping the first. Returns
/// `(final_latency, first_frame_latency, frames, ok)`. Sets `ttfr` once,
/// at the first `ok` frame the session ever receives — a preview frame
/// counts: it is the first usable result on screen.
fn exchange(
    client: &mut Client,
    request: &str,
    session_start: Instant,
    ttfr: &mut Option<Duration>,
) -> Result<(Duration, Duration, u32, bool), ClientError> {
    let started = Instant::now();
    client.send_only(request)?;
    let mut first_frame: Option<Duration> = None;
    let mut frames = 0u32;
    loop {
        let resp = client.read_response()?;
        frames += 1;
        let at = started.elapsed();
        if first_frame.is_none() {
            first_frame = Some(at);
        }
        if resp.ok && ttfr.is_none() {
            *ttfr = Some(session_start.elapsed());
        }
        if resp.is_final() {
            return Ok((at, first_frame.unwrap_or(at), frames, resp.ok));
        }
    }
}

/// Opts a fresh connection into streamed responses. The acknowledgement
/// deliberately does NOT count toward TTFR or the samples — only real
/// exploration ops do.
fn enable_streaming(client: &mut Client, errors: &mut u32) {
    match client.request(".stream on") {
        Ok(resp) if resp.ok => {}
        _ => *errors += 1,
    }
}

/// Runs one session's trace; returns its outcome and samples.
fn run_session(
    addr: &str,
    session: u64,
    trace: &[TraceOp],
    cfg: &SimConfig,
) -> (SessionOutcome, Vec<OpSample>) {
    let mut out = SessionOutcome {
        session,
        ttfr: None,
        completed: false,
        abandoned: false,
        reconnects: 0,
        busy_retries: 0,
        errors: 0,
    };
    let mut samples = Vec::with_capacity(trace.len());
    let mut rng = StdRng::seed_from_u64(mix(cfg.trace.seed ^ 0x7369_6D75, session));
    dbex_obs::counter!("explore.sessions.started").incr(1);
    let start = Instant::now();

    let mut client = match connect_with_retry(addr, cfg.connect_retries, &mut out.busy_retries) {
        Ok(c) => c,
        Err(_) => {
            out.errors += 1;
            dbex_obs::counter!("explore.sessions.failed").incr(1);
            return (out, samples);
        }
    };
    // A wedged server must not strand the session thread forever.
    client.set_read_timeout(Some(Duration::from_secs(30))).ok();
    if cfg.streamed {
        enable_streaming(&mut client, &mut out.errors);
    }

    // Index of the last view-creating op already issued — what a
    // reconnecting session replays to restore its server-side view.
    let mut last_view_op: Option<usize> = None;
    let mut i = 0usize;
    while i < trace.len() {
        let op = &trace[i];
        if !op.think.is_zero() {
            thread::sleep(op.think);
        }
        // Abandon at this boundary?
        if cfg.abandon_rate > 0.0 && rng.random_range(0.0..1.0) < cfg.abandon_rate {
            out.abandoned = true;
            // Fire the request and vanish without reading the response.
            client.send_only(&op.request).ok();
            drop(client);
            dbex_obs::counter!("explore.sessions.abandon_drops").incr(1);
            if rng.random_range(0.0..1.0) >= cfg.reconnect_rate {
                dbex_obs::counter!("explore.sessions.abandoned").incr(1);
                return (out, samples);
            }
            // Reconnect and resume: restore the view, then retry this op.
            thread::sleep(Duration::from_millis(rng.random_range(1u64..10)));
            client = match connect_with_retry(addr, cfg.connect_retries, &mut out.busy_retries) {
                Ok(c) => c,
                Err(_) => {
                    out.errors += 1;
                    dbex_obs::counter!("explore.sessions.abandoned").incr(1);
                    return (out, samples);
                }
            };
            client.set_read_timeout(Some(Duration::from_secs(30))).ok();
            if cfg.streamed {
                enable_streaming(&mut client, &mut out.errors);
            }
            out.reconnects += 1;
            dbex_obs::counter!("explore.sessions.reconnects").incr(1);
            if let Some(v) = last_view_op {
                if needs_view(op.kind) {
                    match exchange(&mut client, &trace[v].request, start, &mut out.ttfr) {
                        Ok((latency, first_frame, frames, true)) => samples.push(OpSample {
                            kind: trace[v].kind,
                            latency,
                            first_frame,
                            frames,
                            ok: true,
                        }),
                        _ => out.errors += 1,
                    }
                }
            }
            // Fall through to issue `op` on the fresh connection.
        }
        match exchange(&mut client, &op.request, start, &mut out.ttfr) {
            Ok((latency, first_frame, frames, ok)) => {
                samples.push(OpSample {
                    kind: op.kind,
                    latency,
                    first_frame,
                    frames,
                    ok,
                });
                if ok {
                    dbex_obs::counter!("explore.ops.ok").incr(1);
                } else {
                    dbex_obs::counter!("explore.ops.err").incr(1);
                    out.errors += 1;
                }
                if matches!(op.kind, OpKind::Cad | OpKind::Pivot) {
                    last_view_op = Some(i);
                }
            }
            Err(_) => {
                // Transport failure (server shed the connection, timeout):
                // count it and end the session rather than spin.
                out.errors += 1;
                dbex_obs::counter!("explore.ops.err").incr(1);
                dbex_obs::counter!("explore.sessions.failed").incr(1);
                return (out, samples);
            }
        }
        i += 1;
    }
    out.completed = true;
    dbex_obs::counter!("explore.sessions.completed").incr(1);
    (out, samples)
}

fn needs_view(kind: OpKind) -> bool {
    // `SUGGEST NEXT FOR v` resolves the view server-side; completion
    // requests don't strictly need it, but replaying the view op before
    // either keeps reconnect-resume uniform and cheap.
    matches!(kind, OpKind::Highlight | OpKind::Reorder | OpKind::Suggest)
}

/// Drives `cfg.sessions` concurrent sessions against the server at
/// `addr`, replaying seeded traces over `spec`'s table. When `cache` is
/// the server's shared [`StatsCache`], a monitor thread samples its
/// cumulative stats every [`SimConfig::cache_sample_every`] for the
/// hit-rate trajectory.
///
/// Deterministic *in structure* (traces, abandon points) for a fixed
/// seed; latencies and interleavings are of course wall-clock.
pub fn run_sim(addr: &str, spec: &SyntheticSpec, cache: Option<&StatsCache>, cfg: &SimConfig) -> SimReport {
    let traces: Vec<Vec<TraceOp>> = (0..cfg.sessions as u64)
        .map(|s| session_trace(spec, &cfg.trace, s))
        .collect();
    let start = Instant::now();
    let done = AtomicBool::new(false);
    let mut outcomes: Vec<SessionOutcome> = Vec::with_capacity(cfg.sessions);
    let mut samples: Vec<OpSample> = Vec::new();
    let mut trajectory: Vec<CacheSample> = Vec::new();

    thread::scope(|scope| {
        let monitor = cache.map(|cache| {
            let done = &done;
            let every = cfg.cache_sample_every;
            scope.spawn(move || {
                let mut traj = Vec::new();
                loop {
                    let s = cache.stats();
                    traj.push(CacheSample {
                        at: start.elapsed(),
                        hits: s.hits,
                        misses: s.misses,
                        evictions: s.evictions,
                    });
                    if done.load(Ordering::Acquire) {
                        return traj;
                    }
                    thread::sleep(every);
                }
            })
        });

        let handles: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(s, trace)| {
                let ramp = cfg.stagger * s as u32;
                let builder = thread::Builder::new()
                    .name(format!("explore-s{s}"))
                    .stack_size(128 * 1024);
                #[allow(clippy::expect_used)] // thread spawn failure = dead harness
                builder
                    .spawn_scoped(scope, move || {
                        if !ramp.is_zero() {
                            thread::sleep(ramp);
                        }
                        run_session(addr, s as u64, trace, cfg)
                    })
                    .expect("spawn session thread")
            })
            .collect();
        for h in handles {
            if let Ok((outcome, ops)) = h.join() {
                outcomes.push(outcome);
                samples.extend(ops);
            }
        }
        done.store(true, Ordering::Release);
        if let Some(m) = monitor {
            if let Ok(traj) = m.join() {
                trajectory = traj;
            }
        }
    });

    SimReport {
        outcomes,
        samples,
        wall: start.elapsed(),
        cache_trajectory: trajectory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbex_serve::{ServeConfig, Server};

    fn boot(spec: &SyntheticSpec, max_connections: usize) -> dbex_serve::ServerHandle {
        let table = spec.generate();
        let config = ServeConfig {
            max_connections,
            ..ServeConfig::default()
        };
        #[allow(clippy::expect_used)]
        let server = Server::bind("127.0.0.1:0", config).expect("bind");
        server.preload(&spec.name, table);
        #[allow(clippy::expect_used)]
        server.spawn().expect("spawn server")
    }

    #[test]
    fn small_sim_completes_against_live_server() {
        let spec = SyntheticSpec::exploration_default(400, 11);
        let handle = boot(&spec, 32);
        let cfg = SimConfig {
            sessions: 6,
            trace: TraceConfig {
                seed: 11,
                ops: 6,
                think_min_ms: 0,
                think_max_ms: 2,
            },
            abandon_rate: 0.0,
            ..SimConfig::default()
        };
        let report = run_sim(&handle.addr().to_string(), &spec, None, &cfg);
        assert_eq!(report.outcomes.len(), 6);
        assert!(
            report.outcomes.iter().all(|o| o.completed),
            "all sessions should complete: {:?}",
            report.outcomes
        );
        assert!(report.outcomes.iter().all(|o| o.ttfr.is_some()));
        assert_eq!(report.errors(), 0, "no errors expected on a quiet server");
        assert!(report.requests() >= 6 * 6);
        handle.shutdown();
    }

    #[test]
    fn abandon_churn_is_survivable_and_counted() {
        let spec = SyntheticSpec::exploration_default(400, 13);
        let handle = boot(&spec, 32);
        let cfg = SimConfig {
            sessions: 10,
            trace: TraceConfig {
                seed: 13,
                ops: 8,
                think_min_ms: 0,
                think_max_ms: 1,
            },
            abandon_rate: 0.35,
            reconnect_rate: 0.6,
            ..SimConfig::default()
        };
        let report = run_sim(&handle.addr().to_string(), &spec, None, &cfg);
        assert!(
            report.outcomes.iter().any(|o| o.abandoned),
            "0.35 abandon rate over 80 boundaries should abandon at least once"
        );
        // The server must stay healthy through the churn.
        assert_eq!(handle.panics(), 0);
        let report2 = run_sim(&handle.addr().to_string(), &spec, None, &SimConfig {
            sessions: 2,
            trace: TraceConfig { seed: 99, ops: 3, think_min_ms: 0, think_max_ms: 1 },
            abandon_rate: 0.0,
            ..SimConfig::default()
        });
        assert!(report2.outcomes.iter().all(|o| o.completed), "server unhealthy after churn");
        handle.shutdown();
    }

    #[test]
    fn cache_trajectory_is_monotone() {
        let spec = SyntheticSpec::exploration_default(400, 17);
        let handle = boot(&spec, 32);
        let cache = handle.cache();
        let cfg = SimConfig {
            sessions: 4,
            trace: TraceConfig {
                seed: 17,
                ops: 6,
                think_min_ms: 1,
                think_max_ms: 4,
            },
            abandon_rate: 0.0,
            cache_sample_every: Duration::from_millis(5),
            ..SimConfig::default()
        };
        let report = run_sim(&handle.addr().to_string(), &spec, Some(&cache), &cfg);
        assert!(report.cache_trajectory.len() >= 2, "monitor should sample at least twice");
        for w in report.cache_trajectory.windows(2) {
            assert!(w[1].hits >= w[0].hits, "hits must be cumulative");
            assert!(w[1].misses >= w[0].misses, "misses must be cumulative");
            assert!(w[1].at >= w[0].at);
        }
        let last = report.cache_trajectory.last().unwrap();
        assert!(last.hits + last.misses > 0, "CAD ops should touch the stats cache");
        handle.shutdown();
    }
}
