//! Adversarial clients against the evented server: peers that are slow,
//! greedy, or gone are the scenarios a readiness loop exists to survive.
//!
//! * **Slow loris** — a client delivering its frame one byte per write
//!   must cost the loop one cheap decode attempt per readiness event,
//!   and still get a full response once the frame completes.
//! * **Never reads** — a client that pipelines requests and never drains
//!   its socket must hit the server's write-side backpressure
//!   (`WouldBlock` → buffered bytes + write-interest re-registration)
//!   without wedging the loop for everyone else.
//! * **Reads late** — a client that pipelines bulky requests and reads
//!   only once a worker's direct write came up short must still get
//!   every response whole and in order: the worker hands its unwritten
//!   bytes, and every later frame, to the loop.
//! * **Mid-preview disconnect** — a streaming client that vanishes after
//!   the preview frame must arm the in-flight exact build's cancel flag
//!   and release the connection slot.
//!
//! All assertions use per-server `ServerHandle` counters, not the
//! process-wide gauges, so these tests can share a binary.

use dbexplorer::data::UsedCarsGenerator;
use dbexplorer::serve::{
    encode_frame, oracle_transcript, Client, ServeConfig, Server, ServerHandle,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn spawn_server(rows: usize) -> ServerHandle {
    let server =
        Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind ephemeral port");
    server.preload("cars", UsedCarsGenerator::new(11).generate(rows));
    server.spawn().expect("spawn server threads")
}

/// Reads one newline-terminated response line from a raw socket.
fn read_line(stream: &mut TcpStream) -> String {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => panic!("server closed before completing a response line"),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) => panic!("read failed mid-line: {e}"),
        }
    }
    String::from_utf8(line).expect("response line is UTF-8")
}

fn wait_for_connections(handle: &ServerHandle, want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.active_connections() != want {
        assert!(
            Instant::now() < deadline,
            "{what}: still {} connection(s), want {want}",
            handle.active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One byte per write, a pause between each: the frame decoder must
/// accumulate across dozens of readiness events and answer normally —
/// twice, to prove the per-connection state machine resets cleanly.
#[test]
fn slow_loris_frames_decode_across_readiness_events() {
    let handle = spawn_server(500);
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_nodelay(true).ok();
    let hello = read_line(&mut raw);
    assert!(hello.contains("dbex-serve ready"), "unexpected hello: {hello}");

    for _ in 0..2 {
        let frame = encode_frame(".ping").expect("encode .ping");
        for byte in &frame {
            raw.write_all(std::slice::from_ref(byte)).expect("write one byte");
            raw.flush().ok();
            std::thread::sleep(Duration::from_millis(2));
        }
        let response = read_line(&mut raw);
        assert!(
            response.contains("\"ok\":true") && response.contains("pong"),
            "slow-loris frame got a wrong answer: {response}"
        );
    }

    assert_eq!(handle.panics(), 0);
    drop(raw);
    wait_for_connections(&handle, 0, "after the loris left");
    handle.shutdown();
}

/// A client that pipelines far more work than it ever reads back. The
/// server must buffer what the socket won't take, keep serving other
/// connections promptly, and discard everything when the hoarder leaves.
#[test]
fn never_reading_client_does_not_wedge_the_loop() {
    let handle = spawn_server(6_000);
    let mut hoarder = Client::connect(handle.addr()).expect("connect hoarder");
    // ~64 bulky responses (a few hundred KB each) against a socket nobody
    // drains: the send buffer fills, and the overflow must live in the
    // server's write buffer under re-registered write interest.
    for _ in 0..64 {
        hoarder
            .send_only("SELECT Make, Model, Price FROM cars LIMIT 5000")
            .expect("pipeline request");
    }

    // The loop must still answer everyone else with single-digit-ms
    // round-trips' worth of responsiveness (bounded generously).
    let mut other = Client::connect(handle.addr()).expect("connect bystander");
    other.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    for _ in 0..5 {
        let resp = other.request(".ping").expect("bystander ping during backpressure");
        assert!(resp.ok, "bystander ping failed: {resp:?}");
    }

    // The hoarder vanishes with megabytes still queued for it; the server
    // must drop the buffered bytes and release the slot.
    drop(hoarder);
    wait_for_connections(&handle, 1, "after the hoarder left");

    let resp = other.request(".ping").expect("bystander ping after cleanup");
    assert!(resp.ok);
    assert_eq!(handle.panics(), 0);
    drop(other);
    wait_for_connections(&handle, 0, "after all clients left");
    handle.shutdown();
}

/// Bulky responses pipelined with `.ping`s between them, to a client that
/// reads nothing until a worker's write comes up short. The responses
/// must then arrive whole, in request order, and byte-identical to the
/// single-session oracle — whichever of worker and loop wrote them.
#[test]
fn short_worker_write_hands_the_rest_to_the_loop_in_order() {
    const BULKY: &str = "SELECT Make, Model, Price FROM cars LIMIT 5000";
    let handle = spawn_server(6_000);
    let mut raw = TcpStream::connect(handle.addr()).expect("connect");
    raw.set_nodelay(true).ok();
    let hello = read_line(&mut raw);
    assert!(hello.contains("dbex-serve ready"), "unexpected hello: {hello}");

    // Pipeline batches until a worker's write has come up short: after
    // each batch, wait until every bulky frame sent so far was either
    // written by its worker or handed to the loop.
    let mut script = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(120);
    while handle.frames_deferred() == 0 {
        assert!(script.len() < 20_000, "the socket never filled");
        for _ in 0..50 {
            for request in [BULKY, ".ping"] {
                raw.write_all(&encode_frame(request).expect("encode request"))
                    .expect("pipeline request");
                script.push(request);
            }
        }
        let sent = script.len() as u64 / 2;
        while handle.frames_direct() + handle.frames_deferred() < sent {
            assert!(Instant::now() < deadline, "server stopped answering");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let oracle = oracle_transcript(
        vec![("cars".to_owned(), UsedCarsGenerator::new(11).generate(6_000))],
        &ServeConfig::default(),
        &script,
    );

    let mut reader = BufReader::new(raw);
    for (i, expected) in oracle.iter().enumerate() {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        assert_eq!(line.strip_suffix('\n'), Some(expected.as_str()), "response {i} differs");
    }
    assert!(handle.frames_direct() > 0, "the first responses fit the socket");
    assert!(handle.frames_deferred() > 0);
    assert_eq!(handle.panics(), 0);
    drop(reader);
    wait_for_connections(&handle, 0, "after the late reader left");
    handle.shutdown();
}

/// A streaming client that disconnects between the preview frame and the
/// exact answer: the loop must arm the running request's cancel flag
/// (the `BudgetGauge` then abandons the exact build early) and close the
/// connection once the worker comes home.
#[test]
fn mid_preview_disconnect_cancels_the_exact_build() {
    let handle = spawn_server(6_000);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let ack = client.request(".stream on").expect("enable streaming");
    assert!(ack.ok, "{ack:?}");

    client
        .send_only("CREATE CADVIEW big AS SET pivot = Make FROM cars LIMIT COLUMNS 3 IUNITS 3")
        .expect("send CAD build");
    let preview = client.read_response().expect("read preview frame");
    assert!(preview.ok, "preview frame not ok: {preview:?}");
    assert_eq!(preview.seq, Some(0), "first frame must be seq 0");
    assert!(!preview.is_final(), "first frame of a streamed CAD build must be a preview");

    // Gone before the exact frame: the read-side EOF arrives while the
    // worker is still building.
    drop(client);

    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.request_cancels() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        handle.request_cancels() > 0,
        "disconnect mid-preview never armed the request cancel flag"
    );
    wait_for_connections(&handle, 0, "after the streaming client vanished");
    assert_eq!(handle.panics(), 0);
    handle.shutdown();
}
