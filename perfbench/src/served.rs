//! `explore_hot` and `explore_cold`: a `dbex-serve` instance restarted from
//! a snapshot, driven closed-loop over the wire by at most `nproc`
//! connections replaying seeded `session_trace`s with zero think time.

use crate::replay::Replay;
use crate::report::{reset_rss_peak, rss_peak_mb, Class, Latencies, Report};
use crate::stats::{median, percentile, Outcome, Tally};
use crate::{mix, Args, WorkDir, SETUP_REPEATS};
use dbex_core::StatsCache;
use dbex_explore::{session_trace, OpKind, SyntheticSpec, TraceConfig, TraceOp};
use dbex_query::{HighlightStmt, ReorderStmt, Session, SharedCatalog, Statement};
use dbex_serve::{
    handle_request, oracle_transcript, strip_stream_tags, write_frame, ServeConfig, Server,
    ServerHandle, WireResponse,
};
use dbex_store::RealVfs;
use dbex_table::{Predicate, Table, Value};
use std::collections::HashSet;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One served workload.
pub struct Served {
    pub rows: usize,
    /// `Some(n)`: a fixed pool of `n` sessions replayed cyclically after a
    /// warm-up pass. `None`: every session id is used once.
    pub pool: Option<usize>,
}

/// Sessions replayed, untimed, before the measured phase.
const WARMUP_SESSIONS: u64 = 64;
const OPS_PER_SESSION: usize = 12;
/// Sessions whose final frames are checked against the oracle.
const CHECKED_SESSIONS: usize = 8;
const TABLE: &str = "synth";

/// Connections, and client threads: the host's cores, at most two.
fn lanes() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

fn class_of(kind: OpKind) -> Class {
    match kind {
        OpKind::Cad | OpKind::Pivot => Class::Cad,
        OpKind::Suggest => Class::Suggest,
        OpKind::Drill | OpKind::Highlight | OpKind::Reorder => Class::Interact,
    }
}

/// The workload's request stream, a pure function of the seed.
struct Streams {
    spec: SyntheticSpec,
    table: Arc<Table>,
    trace: TraceConfig,
    /// The fixed pool's session ids, or `None` for unique sessions.
    pool: Option<Vec<u64>>,
    lanes: usize,
    /// Sessions left out by [`Streams::valid`].
    left_out: AtomicUsize,
}

impl Streams {
    fn new(args: &Args, workload: &Served, lanes: usize) -> Streams {
        let spec = SyntheticSpec::exploration_default(workload.rows, args.seed);
        let mut streams = Streams {
            table: Arc::new(spec.generate()),
            spec,
            trace: TraceConfig {
                seed: args.seed,
                ops: OPS_PER_SESSION,
                think_min_ms: 0,
                think_max_ms: 0,
            },
            pool: None,
            lanes,
            left_out: AtomicUsize::new(0),
        };
        streams.pool = workload
            .pool
            .map(|n| (0..).filter(|&s| streams.valid(s)).take(n).collect());
        streams
    }

    /// Whether every request of the session is one the program answers:
    /// the trace generator can drill a view until the pivot value a later
    /// highlight or reorder names is gone from it, and the program then
    /// rightly refuses. Such sessions are left out, so no op fails.
    fn valid(&self, session: u64) -> bool {
        let valid = self.answerable(session);
        if !valid {
            self.left_out.fetch_add(1, Ordering::Relaxed);
        }
        valid
    }

    fn answerable(&self, session: u64) -> bool {
        let table = &*self.table;
        let exists = |pred: &Predicate, also: &dyn Fn(usize) -> bool| {
            (0..table.num_rows()).any(|r| pred.eval(table, r).unwrap_or(false) && also(r))
        };
        let mut view: Option<(Predicate, usize)> = None;
        for op in session_trace(&self.spec, &self.trace, session) {
            match dbex_query::parse(&op.request) {
                Ok(Statement::CreateCadView(c)) => {
                    let Ok(pivot) = table.schema().index_of(&c.pivot) else {
                        return false;
                    };
                    if !exists(&c.predicate, &|_| true) {
                        return false;
                    }
                    view = Some((c.predicate, pivot));
                }
                Ok(Statement::Highlight(HighlightStmt { pivot_value, .. }))
                | Ok(Statement::Reorder(ReorderStmt { pivot_value, .. })) => {
                    let Some((pred, pivot)) = &view else {
                        return false;
                    };
                    let named = |r: usize| matches!(table.value(r, *pivot), Value::Str(v) if v == pivot_value);
                    if !exists(pred, &named) {
                        return false;
                    }
                }
                Ok(_) => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Session ids lane `lane` runs in the warm-up pass.
    fn warmup_ids(&self, lane: usize) -> Box<dyn Iterator<Item = u64> + '_> {
        match &self.pool {
            Some(pool) => Box::new(pool.iter().copied().skip(lane).step_by(self.lanes)),
            None => Box::new(
                (lane as u64..WARMUP_SESSIONS)
                    .step_by(self.lanes)
                    .filter(|&s| self.valid(s)),
            ),
        }
    }

    /// Session ids lane `lane` runs in the measured phase, without end:
    /// the pool again and again, or ids never used before.
    fn measured_ids(&self, lane: usize) -> Box<dyn Iterator<Item = u64> + '_> {
        match &self.pool {
            Some(pool) => Box::new(pool.iter().copied().skip(lane).step_by(self.lanes).cycle()),
            None => Box::new(
                (WARMUP_SESSIONS + lane as u64..)
                    .step_by(self.lanes)
                    .filter(|&s| self.valid(s)),
            ),
        }
    }

    /// The warm-up pass (`limit` None) or the first `limit[lane]` measured
    /// ops of every lane, interleaved.
    fn replay<'s>(
        &'s self,
        limit: Option<&[usize]>,
    ) -> impl Iterator<Item = (usize, TraceOp)> + 's {
        let lanes = (0..self.lanes)
            .map(|lane| -> Box<dyn Iterator<Item = (u64, TraceOp)> + 's> {
                match limit {
                    Some(limit) => Box::new(self.ops(self.measured_ids(lane)).take(limit[lane])),
                    None => Box::new(self.ops(self.warmup_ids(lane))),
                }
            })
            .collect();
        interleave(lanes)
    }

    fn ops<'s>(
        &'s self,
        ids: impl Iterator<Item = u64> + 's,
    ) -> impl Iterator<Item = (u64, TraceOp)> + 's {
        ids.flat_map(move |s| {
            session_trace(&self.spec, &self.trace, s)
                .into_iter()
                .map(move |op| (s, op))
        })
    }
}

/// A wire connection in `.stream on` mode.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    fn connect(addr: SocketAddr, stream: bool) -> std::io::Result<Wire> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut wire = Wire { writer, reader };
        let hello = wire.line()?;
        if !hello.starts_with("{\"ok\":true") {
            return Err(std::io::Error::other(format!(
                "server refused the connection: {hello}"
            )));
        }
        if stream {
            let (ok, _, _, _) = wire.request(".stream on")?;
            if !ok {
                return Err(std::io::Error::other(".stream on was refused"));
            }
        }
        Ok(wire)
    }

    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends one request and reads frames up to the final one. Returns
    /// `(ok, ms to first frame, ms to final frame, final line)`.
    fn request(&mut self, request: &str) -> std::io::Result<(bool, f64, f64, String)> {
        let sent = Instant::now();
        write_frame(&mut self.writer, request).map_err(|e| std::io::Error::other(e.to_string()))?;
        let mut first = None;
        loop {
            let line = self.line()?;
            let at = sent.elapsed();
            first.get_or_insert(at);
            let frame = WireResponse::parse(&line)
                .map_err(|e| std::io::Error::other(format!("bad frame {line:?}: {e}")))?;
            if frame.is_final() {
                let ms = |d: Duration| d.as_secs_f64() * 1e3;
                return Ok((frame.ok, ms(first.unwrap_or(at)), ms(at), line));
            }
        }
    }
}

/// What one lane saw.
#[derive(Default)]
struct LaneLog {
    lat: Latencies,
    tally: Tally,
    ops: usize,
    /// `(session, stripped final lines)` of the checked sessions.
    transcripts: Vec<(u64, Vec<String>)>,
    end: Option<Instant>,
}

/// Drives `ops` closed-loop over one connection until they run out or
/// `deadline` passes. Sessions for which `check` holds keep their final
/// frames, up to `keep` complete sessions.
fn drive(
    addr: SocketAddr,
    ops: impl Iterator<Item = (u64, TraceOp)>,
    deadline: Option<Instant>,
    check: &dyn Fn(u64) -> bool,
    keep: usize,
) -> Result<LaneLog, String> {
    let mut wire = Wire::connect(addr, true).map_err(|e| format!("connect: {e}"))?;
    let mut log = LaneLog::default();
    let mut checked: HashSet<u64> = HashSet::new();
    let mut current: Option<(u64, Vec<String>)> = None;
    for (session, op) in ops {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let class = class_of(op.kind);
        log.ops += 1;
        match wire.request(&op.request) {
            Ok((ok, first_ms, total_ms, line)) => {
                if ok {
                    log.tally.record(Outcome::Ok);
                    log.lat.push(class, total_ms);
                    if class == Class::Cad {
                        log.lat.cad_first_frame.push(first_ms);
                    }
                } else {
                    log.tally.record(Outcome::Refused);
                    eprintln!(
                        "perfbench: session {session} refused {:?}: {line}",
                        op.request
                    );
                }
                if current.as_ref().is_none_or(|(s, _)| *s != session)
                    && check(session)
                    && log.transcripts.len() < keep
                    && checked.insert(session)
                {
                    current = Some((session, Vec::new()));
                }
                if let Some((s, lines)) = current.as_mut() {
                    if *s == session {
                        lines.push(strip_stream_tags(&line));
                        if lines.len() == OPS_PER_SESSION {
                            log.transcripts.extend(current.take());
                        }
                    }
                }
            }
            Err(e) => {
                log.tally.record(Outcome::Transport);
                eprintln!("perfbench: transport error on session {session}: {e}");
                current = None;
                wire = Wire::connect(addr, true).map_err(|e| format!("reconnect: {e}"))?;
            }
        }
    }
    log.end = Some(Instant::now());
    Ok(log)
}

/// Binds a server on the snapshot, spawns it and waits for the first
/// `.ping`; returns the handle and the time that took.
fn start_server(config: &ServeConfig) -> Result<(ServerHandle, f64), String> {
    let started = Instant::now();
    let server = Server::bind("127.0.0.1:0", config.clone()).map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut wire = Wire::connect(handle.addr(), false).map_err(|e| format!("connect: {e}"))?;
    let (ok, _, _, line) = wire.request(".ping").map_err(|e| format!("ping: {e}"))?;
    let elapsed = started.elapsed().as_secs_f64();
    if !ok {
        return Err(format!("ping refused: {line}"));
    }
    Ok((handle, elapsed))
}

pub fn run(
    args: &Args,
    workload: &Served,
    report: &mut Report,
    work: &WorkDir,
) -> Result<(), String> {
    let lanes = lanes();
    let streams = Streams::new(args, workload, lanes);
    let table = &streams.table;
    let config = ServeConfig {
        data_dir: Some(work.path.clone()),
        ..ServeConfig::default()
    };
    println!(
        "provenance workload={} rows={} sessions={} ops_per_session={OPS_PER_SESSION} connections={lanes} \
         server_cache_entries={} server_threads={} server_workers={} think_ms=0",
        report.workload,
        workload.rows,
        workload
            .pool
            .map_or_else(|| "unique".to_owned(), |p| format!("pool of {p}")),
        config.cache_entries,
        config.threads,
        config.workers,
    );

    let saved = Instant::now();
    let save = dbex_store::save(
        &RealVfs,
        &work.path,
        &[(TABLE.to_owned(), Arc::clone(table))],
        None,
    )
    .map_err(|e| format!("saving the snapshot: {e}"))?;
    report.set("store.save_ms", saved.elapsed().as_secs_f64() * 1e3, "ms");
    report.set(
        "store.bytes_per_row",
        save.bytes_written as f64 / workload.rows as f64,
        "B/row",
    );

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = server.take() {
            ServerHandle::shutdown(old);
        }
        let (handle, secs) = start_server(&config)?;
        setups.push(secs);
        server = Some(handle);
    }
    let server = server.ok_or("no server started")?;
    report.set("setup_s", median(&setups).unwrap_or(0.0), "s");

    // Phase A: the wire, untraced.
    let addr = server.addr();
    let cache = server.cache();
    let seconds = Duration::from_secs(args.seconds);
    let checked = |s: u64| mix(args.seed, s).is_multiple_of(4);
    let barrier = Barrier::new(lanes + 1);
    let mut before = None;
    let mut reset = Ok(());
    let logs: Vec<Result<LaneLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let (streams, barrier, checked) = (&streams, &barrier, &checked);
                scope.spawn(move || {
                    let warm = drive(
                        addr,
                        streams.ops(streams.warmup_ids(lane)),
                        None,
                        &|_| false,
                        0,
                    );
                    barrier.wait();
                    let warm = warm?;
                    println!(
                        "warm-up lane {lane}: {} ops, {} failed",
                        warm.tally.attempted, warm.tally.failed
                    );
                    let deadline = Instant::now() + seconds;
                    drive(
                        addr,
                        streams.ops(streams.measured_ids(lane)),
                        Some(deadline),
                        checked,
                        CHECKED_SESSIONS.div_ceil(lanes),
                    )
                })
            })
            .collect();
        barrier.wait();
        before = Some((cache.stats(), Instant::now()));
        reset = reset_rss_peak();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
            })
            .collect()
    });
    let after = cache.stats();
    reset?;
    report.set("rss_peak_mb", rss_peak_mb()?, "MB");
    let mut lat = Latencies::default();
    let mut transcripts = Vec::new();
    let mut lane_ops = Vec::with_capacity(lanes);
    let (before, start) = before.ok_or("the measured phase did not start")?;
    let mut end = start;
    for log in logs {
        let log = log?;
        report.tally.merge(log.tally);
        lat.merge(log.lat);
        transcripts.extend(log.transcripts);
        lane_ops.push(log.ops);
        end = end.max(log.end.unwrap_or(start));
    }
    report.set_latencies(&lat, (end - start).as_secs_f64());
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    report.set("stats.cache.hits", hits as f64, "count");
    report.set("stats.cache.misses", misses as f64, "count");
    report.set(
        "stats.cache.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    report.set("stats.cache.lookups", (hits + misses) as f64, "count");
    report.set(
        "stats.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    println!(
        "cache capacity server={} session_default={} hits={hits} misses={misses} evictions={}",
        config.cache_entries,
        dbex_stats::cache::MAX_ENTRIES,
        after.evictions - before.evictions
    );
    ServerHandle::shutdown(server);

    // Correctness: the checked sessions' final frames against the oracle.
    if transcripts.is_empty() {
        report.fail(format!("{}: no checked session completed", report.workload));
    }
    for (session, lines) in &transcripts {
        let requests: Vec<String> = session_trace(&streams.spec, &streams.trace, *session)
            .into_iter()
            .map(|op| op.request)
            .collect();
        let oracle = oracle_transcript(
            vec![(TABLE.to_owned(), Table::clone(table))],
            &config,
            &requests,
        );
        for (i, (got, want)) in lines.iter().zip(&oracle).enumerate() {
            if got != want {
                report.fail(format!(
                    "{}: session {session} request {i} ({}) final frame differs from the oracle",
                    report.workload, requests[i]
                ));
            }
        }
    }
    println!(
        "checked {} sessions against the oracle; left out {} sessions with a request the program refuses",
        transcripts.len(),
        streams.left_out.load(Ordering::Relaxed)
    );

    if args.trace {
        traced(
            args, &streams, table, &config, &lane_ops, &lat, report, work,
        )?;
    }
    Ok(())
}

/// The same sessions in-process: once untimed per layer through
/// `handle_request` (phase B), once traced layer by layer (phase C).
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    streams: &Streams,
    table: &Arc<Table>,
    config: &ServeConfig,
    lane_ops: &[usize],
    wire: &Latencies,
    report: &mut Report,
    work: &WorkDir,
) -> Result<(), String> {
    let lanes = lane_ops.len();
    let budget = Duration::from_secs(args.seconds).div_f64(2.0);
    crate::store_open_metric(&work.path, report)?;

    let new_sessions = |cache: &Arc<StatsCache>| -> (Arc<SharedCatalog>, Vec<Session>) {
        let catalog = Arc::new(SharedCatalog::new());
        catalog.insert(TABLE, Arc::clone(table));
        let sessions = (0..lanes)
            .map(|_| {
                let mut session = Session::new();
                session.set_catalog(Some(Arc::clone(&catalog)));
                session.set_stats_cache(Arc::clone(cache));
                if config.threads != 1 {
                    session.set_threads(config.threads);
                }
                session
            })
            .collect();
        (catalog, sessions)
    };

    // Phase B: handle_request, timed per op.
    let mut inproc = Latencies::default();
    {
        let cache = Arc::new(StatsCache::with_capacity(config.cache_entries));
        let (catalog, mut sessions) = new_sessions(&cache);
        for (lane, op) in streams.replay(None) {
            handle_request(&mut sessions[lane], &catalog, &op.request);
        }
        let deadline = Instant::now() + budget;
        for (lane, op) in streams.replay(Some(lane_ops)) {
            if Instant::now() >= deadline {
                break;
            }
            let started = Instant::now();
            let line = handle_request(&mut sessions[lane], &catalog, &op.request);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if line.starts_with("{\"ok\":true") {
                inproc.push(class_of(op.kind), ms);
            }
        }
    }

    // Phase C: traced.
    let cache = Arc::new(StatsCache::with_capacity(config.cache_entries));
    let (catalog, mut sessions) = new_sessions(&cache);
    let threads = (config.threads != 1).then_some(config.threads);
    let mut replay = Replay::new(catalog, config.cache_entries, threads, lanes);
    let mut no_deeper =
        |_: &mut crate::span::Recorder, _: u64, _: &crate::replay::MirroredBuild<'_>| {};
    for (lane, op) in streams.replay(None) {
        replay.run(
            lane,
            &mut sessions[lane],
            class_of(op.kind),
            &op.request,
            false,
            &mut no_deeper,
        );
    }
    let deadline = Instant::now() + budget;
    for (lane, op) in streams.replay(Some(lane_ops)) {
        if Instant::now() >= deadline {
            break;
        }
        replay.run(
            lane,
            &mut sessions[lane],
            class_of(op.kind),
            &op.request,
            true,
            &mut no_deeper,
        );
    }

    replay.set_layer_metrics(report);
    for name in [
        "core.unaccounted_ms",
        "stats.compare_attrs_ms",
        "stats.encode_matrix_ms",
        "cluster.kmeans_ms",
        "topk.solve_ms",
    ] {
        report.set(name, 0.0, "ms");
    }
    report.set("cluster.rows_clustered", 0.0, "count");
    report.set("cluster.iterations", 0.0, "count");

    // Reconciliation: wire = in-process handle_request + serve overhead,
    // and the in-process path cannot be slower than the wire.
    for class in Class::ALL {
        let (Some(w), Some(b)) = (
            percentile(wire.class(class), 0.5),
            percentile(inproc.class(class), 0.5),
        ) else {
            report.fail(format!(
                "{}: too few {} ops to reconcile",
                report.workload,
                class.name()
            ));
            continue;
        };
        let traced = replay.median_ms("request", Some(class));
        report.set(&format!("serve.overhead_ms.{}", class.name()), w - b, "ms");
        println!(
            "reconcile {} {}: wire_p50_ms={w:.4} = handle_request_p50_ms={b:.4} + serve_overhead_ms={:.4}; \
             traced_request_p50_ms={traced:.4} (tracing overhead {:+.1}%)",
            report.workload,
            class.name(),
            w - b,
            (traced / b - 1.0) * 100.0
        );
        if b > w * 1.10 + 0.02 {
            report.fail(format!(
                "{}: in-process {} p50 {b:.4} ms exceeds the wire p50 {w:.4} ms",
                report.workload,
                class.name()
            ));
        }
    }
    for m in &replay.mismatches {
        report.fail(format!("{}: {m}", report.workload));
    }
    replay.print_layers();
    let path = work.trace_path(&report.workload);
    replay
        .rec
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace {} spans written to {}",
        replay.rec.spans.len(),
        path.display()
    );
    Ok(())
}

/// Interleaves the lanes' op streams one op at a time, as connections
/// taking turns would.
fn interleave<'a>(
    mut lanes: Vec<Box<dyn Iterator<Item = (u64, TraceOp)> + 'a>>,
) -> impl Iterator<Item = (usize, TraceOp)> + 'a {
    let mut next = 0;
    std::iter::from_fn(move || {
        for _ in 0..lanes.len() {
            let lane = next;
            next = (next + 1) % lanes.len();
            if let Some((_, op)) = lanes[lane].next() {
                return Some((lane, op));
            }
        }
        None
    })
}
