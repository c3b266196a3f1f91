//! # dbex-serve
//!
//! A zero-dependency (std-only) TCP wire server for DBExplorer: many
//! concurrent clients, each with a private [`Session`](dbex_query::Session),
//! all drawing from one shared catalog of `Arc`-immutable tables and one
//! process-wide [`StatsCache`](dbex_core::StatsCache) — so the codecs and
//! contingency tables one client's CAD build computes warm every other
//! client's refinements.
//!
//! ## Wire protocol
//!
//! * **Requests** (client → server): length-prefixed UTF-8 frames — a
//!   4-byte big-endian payload length, then that many bytes of text; one
//!   statement or dot-command per frame ([`protocol`]).
//! * **Responses** (server → client): JSON lines — one flat JSON object
//!   per request, `{"ok":true,"kind":…,"text":…}` or
//!   `{"ok":false,"code":…,"error":…}` ([`wire`]).
//!
//! The `text` of a successful response is byte-identical to what the
//! local REPL prints for the same statement
//! ([`QueryOutput::render`](dbex_query::QueryOutput::render)), which is
//! what makes multi-client determinism testable: every client replaying a
//! script must receive exactly the single-session oracle transcript
//! ([`oracle_transcript`]).
//!
//! ## Quick start
//!
//! ```no_run
//! use dbex_serve::{Client, ServeConfig, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.spawn().unwrap();
//! let mut client = Client::connect(addr).unwrap();
//! client.request(".load cars 5000 42").unwrap();
//! let resp = client
//!     .request("CREATE CADVIEW v AS SET pivot = Make FROM cars")
//!     .unwrap();
//! print!("{}", resp.text);
//! handle.shutdown();
//! ```

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod poller;
pub mod protocol;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use poller::{listen_with_backlog, Event, Interest, Poller};
pub use protocol::{
    decode_frame, decode_frame_with, encode_frame, encode_frame_with, read_frame, read_frame_with,
    write_frame, ProtocolError, HEADER_LEN, MAX_FRAME,
};
pub use server::{
    handle_request, handle_request_streamed, oracle_transcript, ServeConfig, Server,
    ServerHandle, ShutdownSummary, PIPELINE_DEPTH,
};
pub use wire::{
    query_error_code, strip_stream_tags, tag_stream_line, WireParseError, WireResponse,
};
