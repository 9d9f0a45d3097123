//! `uic-serve`: a resident welfare-allocation service over the warm RR
//! arena.
//!
//! The offline pipeline pays the two dominant costs of every
//! [`WelMax`](uic_core::WelMax) query — loading the graph and sampling
//! RR sets — from scratch on every run. This crate keeps both resident:
//! a long-lived process loads the graph once, answers
//! [`SolverSpec`](uic_datasets::SolverSpec)-formatted allocation
//! queries over TCP, and serves `warm-grd` requests from shared
//! extend-only [`RrCollection`](uic_im::RrCollection) arenas that only
//! ever *top up* (via prefix-stable
//! [`warm_prima_on`](uic_im::warm_prima_on), the warm finisher of
//! `uic-im`'s one certification loop) — never regenerate — while
//! staying bit-identical to a cold offline run of the same request.
//!
//! Built entirely on `std` (`std::net` + threads): no async runtime, no
//! serde — responses are JSON via `uic-util`'s hand-rolled writer.
//!
//! | module | role |
//! |--------|------|
//! | [`frame`] | length-prefixed wire protocol, hostile-input safe |
//! | [`request`] | spec-text request parsing, typed [`ServeError`]s |
//! | [`engine`] | graph + warm arenas + solve pipeline |
//! | [`server`] | listener, bounded admission, workers, drain |
//! | [`client`] | blocking client + multi-client load driver |
//! | [`metrics`] | lock-free counters + latency percentiles |
//!
//! Quickstart: see `examples/serve_quickstart.rs`, or the `uic-serve`
//! binary (`uic-serve serve --network flixster --scale 0.2`).

pub mod client;
pub mod engine;
pub mod frame;
pub mod metrics;
pub mod request;
pub mod server;
pub mod shard;
pub mod spill;

pub use client::{
    run_load, run_load_with, Client, ClientError, LoadReport, Response, RetryPolicy,
    DEFAULT_IO_TIMEOUT,
};
pub use engine::{report_json, Engine, SolveOutcome, WARM_SOLVER};
pub use frame::{
    read_frame, write_frame, Frame, FrameError, KIND_ERR, KIND_OK, KIND_REQ, MAX_FRAME_LEN,
};
pub use metrics::ServerMetrics;
pub use request::{
    parse_request, ErrorCode, Request, ServeError, SolveRequest, MAX_SERVE_ELL, MAX_SERVE_ITEMS,
    MAX_SERVE_SIMS, MIN_SERVE_EPS,
};
pub use server::{Server, ServerConfig, ServerHandle};
pub use shard::{ArenaHandle, ArenaKey, ArenaRegistry};
