//! The `absolverd` solve service: a long-running daemon that accepts
//! AB-problems over a line protocol and answers them from a bounded
//! worker pool with cross-request caches.
//!
//! # Architecture
//!
//! ```text
//! stdin / unix socket ──► RequestDecoder ──► Server::submit
//!                                                │
//!                                     JobQueue (3 priority bands,
//!                                      bounded, reject-on-full)
//!                                                │
//!                                          worker pool
//!                                       (catch_unwind each)
//!                                                │
//!                          ┌─────────────────────┼──────────────────┐
//!                    problem cache        analysis cache      Orchestrator::solve
//!                  (same problem ⇒        (static-unsat ⇒     (a miss on both:
//!                   cached answer)         no solve/worker)     one-shot solve)
//! ```
//!
//! Statically unsatisfiable bodies — refuted by the interval-dataflow
//! analysis of `absolver-analyze` — are answered with the distinct
//! `static-unsat` verdict before the solve loop runs; on resubmission
//! the cached analysis answers at submission, without occupying a
//! worker.
//!
//! * [`protocol`] — the wire format: request decoding and response
//!   rendering, total over arbitrary input.
//! * [`queue`] — the bounded three-band priority queue; a full queue is
//!   backpressure (`overload` + retry hint), never a stall.
//! * [`cache`] — the bounded FIFO map both warm-state layers use, its
//!   problem key, and their soundness argument.
//! * [`server`] — the worker pool tying it together: per-request
//!   deadlines, cooperative cancellation, and panic containment (a
//!   worker panic becomes an `internal` error response and an `aborts`
//!   counter tick; the daemon lives on).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::{problem_key, FifoCache, ProblemKey};
pub use protocol::{
    CacheTier, ClientFrame, ErrCode, Priority, ProtoError, RequestDecoder, Response, SolveFrame,
    MAX_BODY_BYTES,
};
pub use queue::JobQueue;
pub use server::{spawn_with_stack, Server, ServerOptions, ServerStats, Submission};
