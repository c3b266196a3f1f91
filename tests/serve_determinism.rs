//! 32 concurrent clients must be byte-indistinguishable from one.
//!
//! Every client replays the same exploration script against one server;
//! every response line must equal the single-session oracle transcript
//! ([`oracle_transcript`]) — cold cache and warm. The warm pass must
//! additionally show shared-cache hits: client sessions draw codecs,
//! contingency tables, and cluster partitions from one process-wide
//! `StatsCache`, and a byte-identical answer that *recomputed* everything
//! would be a performance bug, not a correctness pass.

use dbexplorer::data::UsedCarsGenerator;
use dbexplorer::serve::{
    oracle_transcript, strip_stream_tags, Client, ServeConfig, Server, ServerHandle,
};

const CLIENTS: usize = 32;
const ROWS: usize = 1_500;
const SEED: u64 = 11;

const SCRIPT: &[&str] = &[
    ".tables",
    "SELECT Make, Price FROM cars WHERE BodyType = Sedan LIMIT 4",
    "CREATE CADVIEW v AS SET pivot = Make FROM cars WHERE BodyType = Sedan LIMIT COLUMNS 2 IUNITS 2",
    "REORDER ROWS IN v ORDER BY SIMILARITY(Honda) DESC",
    "HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(Ford, 1) > 0.5",
];

fn cars() -> dbexplorer::table::Table {
    UsedCarsGenerator::new(SEED).generate(ROWS)
}

/// Runs `CLIENTS` concurrent replays of [`SCRIPT`]; panics (with the
/// offending request) on the first byte that differs from `oracle`.
fn replay_pass(handle: &ServerHandle, oracle: &[String], pass: &str) {
    let transcripts: Vec<Vec<String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    SCRIPT
                        .iter()
                        .map(|req| client.request_line(req).expect("request"))
                        .collect::<Vec<String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    for (i, transcript) in transcripts.iter().enumerate() {
        assert_eq!(transcript.len(), oracle.len());
        for (j, (got, want)) in transcript.iter().zip(oracle).enumerate() {
            assert_eq!(
                got, want,
                "{pass} pass: client {i} diverged from the oracle on {:?}",
                SCRIPT[j]
            );
        }
    }
}

#[test]
fn thirty_two_clients_are_byte_identical_to_one_session() {
    let config = ServeConfig::default();
    let oracle = oracle_transcript(vec![("cars".to_owned(), cars())], &config, SCRIPT);
    // The script must exercise every response kind we serve.
    assert!(oracle.iter().any(|l| l.contains("\"kind\":\"rows\"")));
    assert!(oracle.iter().any(|l| l.contains("\"kind\":\"cad\"")));
    assert!(oracle.iter().any(|l| l.contains("\"kind\":\"reordered\"")));

    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    server.preload("cars", cars());
    let cache = server.cache();
    let handle = server.spawn().expect("spawn accept thread");

    replay_pass(&handle, &oracle, "cold");
    let after_cold = cache.stats();
    assert!(
        after_cold.hits > 0,
        "32 clients building the same view must share stats work: {after_cold}"
    );

    replay_pass(&handle, &oracle, "warm");
    let after_warm = cache.stats();
    assert!(after_warm.hits > after_cold.hits, "warm pass produced no cache hits");
    assert_eq!(
        after_warm.misses, after_cold.misses,
        "warm pass repeated identical requests yet missed the shared cache"
    );

    assert_eq!(handle.panics(), 0);
    handle.shutdown();
}

/// Streamed mode must refine toward the *same* bytes: for clients in
/// `.stream on`, a CAD build with clustering work left answers with a
/// preview frame first, but the final frame — minus its `seq`/`final`
/// tags — must still equal the single-session oracle line for line. The
/// table is sized past the preview threshold, and every client builds
/// its own statement (its own `IUNITS`/`LIMIT COLUMNS`, hence its own
/// cluster-reuse keys), so each client's first build is cold and must
/// stream. Its warm re-run reuses every partition and must arrive as a
/// single final frame.
#[test]
fn streamed_replay_strips_to_the_oracle() {
    const STREAM_ROWS: usize = 4_000;
    const STREAM_CLIENTS: usize = 8;
    let cars = || UsedCarsGenerator::new(SEED).generate(STREAM_ROWS);
    let scripts: Vec<Vec<String>> = (0..STREAM_CLIENTS)
        .map(|i| {
            let build = format!(
                "CREATE CADVIEW v AS SET pivot = Make FROM cars LIMIT COLUMNS {} IUNITS {}",
                2 + i / 4,
                2 + i % 4
            );
            vec![
                ".tables".to_owned(),
                "SELECT Make, Price FROM cars WHERE BodyType = Sedan LIMIT 4".to_owned(),
                build.clone(),
                "REORDER ROWS IN v ORDER BY SIMILARITY(Honda) DESC".to_owned(),
                build,
            ]
        })
        .collect();
    const COLD_BUILD: usize = 2;
    const WARM_BUILD: usize = 4;

    let config = ServeConfig::default();
    let oracles: Vec<Vec<String>> = scripts
        .iter()
        .map(|script| {
            let script: Vec<&str> = script.iter().map(String::as_str).collect();
            oracle_transcript(vec![("cars".to_owned(), cars())], &config, &script)
        })
        .collect();
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    server.preload("cars", cars());
    let handle = server.spawn().expect("spawn server threads");

    let streams: Vec<Vec<Vec<String>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = scripts
            .iter()
            .map(|script| {
                let addr = handle.addr();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let ack = client.request(".stream on").expect(".stream on");
                    assert!(ack.ok, "{ack:?}");
                    script
                        .iter()
                        .map(|req| client.request_stream_lines(req).expect("request"))
                        .collect::<Vec<Vec<String>>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });

    for (i, (transcript, oracle)) in streams.iter().zip(&oracles).enumerate() {
        assert_eq!(transcript.len(), oracle.len());
        for (j, (frames, want)) in transcript.iter().zip(oracle).enumerate() {
            let last = frames.last().expect("at least one frame");
            assert_eq!(
                &strip_stream_tags(last),
                want,
                "client {i}: streamed final frame diverged from the oracle on {:?}",
                scripts[i][j]
            );
            let expected_frames = if j == COLD_BUILD { 2 } else { 1 };
            assert_eq!(
                frames.len(),
                expected_frames,
                "client {i}: {:?} should arrive as {expected_frames} frame(s)",
                scripts[i][j]
            );
        }
        assert_eq!(oracle[WARM_BUILD], oracle[COLD_BUILD]);
    }

    assert_eq!(handle.panics(), 0);
    handle.shutdown();
}
