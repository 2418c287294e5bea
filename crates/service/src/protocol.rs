//! The `absolverd` wire protocol: a line-oriented request/response
//! exchange carried over stdin/stdout or a unix socket.
//!
//! # Client → server
//!
//! ```text
//! solve id=<N> [timeout_ms=<N>] [priority=high|normal|low]
//! <problem body in extended DIMACS>
//! .
//! cancel id=<N>
//! stats
//! ping
//! shutdown
//! ```
//!
//! A `solve` header opens a body: every following line belongs to the
//! problem until a line containing only `.`. The body cap
//! ([`MAX_BODY_BYTES`]) bounds memory per connection.
//!
//! # Server → client
//!
//! ```text
//! ok id=<N> verdict=sat|unsat|unknown|static-unsat cache=problem|analysis|session|cold wait_us=<N> solve_us=<N> [model x=1/2 y=3]
//! err id=<N> code=<code> [retry_after_ms=<N>] msg=<text>
//! stats <json>
//! pong
//! bye
//! ```
//!
//! Error codes: `parse` (malformed problem body), `proto` (malformed
//! request framing), `deadline` (request deadline expired, queued or
//! in-flight), `cancelled` (client cancel honoured), `overload` (queue
//! full — retry after the hinted delay), `limit` (problem exceeds the
//! configured size caps, or the solve hit its iteration limit),
//! `internal` (worker panic — the request is lost but the daemon lives).
//!
//! The `static-unsat` verdict is an `unsat` answer produced by static
//! analysis alone (the interval-dataflow fixpoint refuted the problem
//! before any solving): clients may treat it exactly like `unsat`, the
//! distinct code only attributes the answer. On a resubmission the
//! cached analysis answers at submission (`cache=analysis`); a first
//! encounter computes it on a worker (`cache=cold`) without building a
//! session.
//!
//! The decoder is **total**: arbitrary bytes produce frames or
//! [`ProtoError`]s, never a panic — enforced by the panic-freedom fuzz
//! suite at the workspace root.

use std::fmt;

/// Cap on the byte length of one `solve` body. A client that streams an
/// unterminated body gets a `limit` error instead of exhausting memory.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Scheduling priority of a request. `High` jobs always dequeue before
/// `Normal`, which always dequeue before `Low`; within a band the order
/// is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Dequeued first.
    High,
    /// The default band.
    #[default]
    Normal,
    /// Dequeued last.
    Low,
}

impl Priority {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

impl std::str::FromStr for Priority {
    type Err = ();

    fn from_str(s: &str) -> Result<Priority, ()> {
        match s {
            "high" => Ok(Priority::High),
            "normal" => Ok(Priority::Normal),
            "low" => Ok(Priority::Low),
            _ => Err(()),
        }
    }
}

/// Which layer of warm state answered a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// Byte-identical problem seen before: cached verdict + model.
    Problem,
    /// The cached static analysis answered at submission (statically
    /// unsatisfiable body seen before — no worker involved).
    Analysis,
    /// Answered by a one-shot solve (or, for a `static-unsat` body seen
    /// for the first time, by the static analysis on a worker).
    Cold,
}

impl CacheTier {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheTier::Problem => "problem",
            CacheTier::Analysis => "analysis",
            CacheTier::Cold => "cold",
        }
    }
}

/// Machine-readable error class of an `err` response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The problem body failed to parse.
    Parse,
    /// The request framing itself was malformed.
    Proto,
    /// The request deadline expired (queued or mid-solve).
    Deadline,
    /// The client cancelled the request.
    Cancelled,
    /// The queue was full; retry after the hinted delay.
    Overload,
    /// The problem exceeds the configured size caps, or the solve hit
    /// its iteration limit.
    Limit,
    /// A worker panicked on this request (counted as an abort).
    Internal,
}

impl ErrCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::Parse => "parse",
            ErrCode::Proto => "proto",
            ErrCode::Deadline => "deadline",
            ErrCode::Cancelled => "cancelled",
            ErrCode::Overload => "overload",
            ErrCode::Limit => "limit",
            ErrCode::Internal => "internal",
        }
    }
}

/// A complete `solve` request: header fields plus the problem body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveFrame {
    /// Client-chosen request id, echoed on every response line.
    pub id: u64,
    /// Per-request deadline in milliseconds from submission, if any.
    pub timeout_ms: Option<u64>,
    /// Scheduling priority.
    pub priority: Priority,
    /// The problem body (extended DIMACS).
    pub text: String,
}

/// One decoded client frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientFrame {
    /// A solve request (header + body).
    Solve(SolveFrame),
    /// Cancel the identified request, queued or in-flight.
    Cancel {
        /// The id to cancel.
        id: u64,
    },
    /// Ask for the server statistics JSON.
    Stats,
    /// Liveness probe.
    Ping,
    /// Drain and exit.
    Shutdown,
}

/// A framing error: the offending request id when the header carried
/// one, and a message for the `err` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The request id, when recoverable from the malformed input.
    pub id: Option<u64>,
    /// Human-readable description.
    pub message: String,
}

impl ProtoError {
    fn new(id: Option<u64>, message: impl Into<String>) -> ProtoError {
        ProtoError {
            id,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Incremental frame decoder: feed it lines, collect frames. One decoder
/// per connection — a `solve` body spans multiple `push_line` calls.
#[derive(Debug, Default)]
pub struct RequestDecoder {
    body: Option<PendingBody>,
}

#[derive(Debug)]
struct PendingBody {
    id: u64,
    timeout_ms: Option<u64>,
    priority: Priority,
    lines: Vec<String>,
    bytes: usize,
    overflowed: bool,
}

impl RequestDecoder {
    /// Creates an idle decoder.
    pub fn new() -> RequestDecoder {
        RequestDecoder::default()
    }

    /// Whether the decoder is mid-body (useful for EOF diagnostics).
    pub fn in_body(&self) -> bool {
        self.body.is_some()
    }

    /// Consumes one input line. Returns a frame when one completes, a
    /// [`ProtoError`] when the input is malformed, and `None` when the
    /// line was a body line, a blank, or a comment between frames.
    pub fn push_line(&mut self, raw: &str) -> Option<Result<ClientFrame, ProtoError>> {
        if self.body.is_some() {
            if raw.trim() == "." {
                let body = self.body.take()?;
                if body.overflowed {
                    return Some(Err(ProtoError::new(
                        Some(body.id),
                        format!("solve body exceeds {MAX_BODY_BYTES} bytes"),
                    )));
                }
                let mut text = body.lines.join("\n");
                text.push('\n');
                return Some(Ok(ClientFrame::Solve(SolveFrame {
                    id: body.id,
                    timeout_ms: body.timeout_ms,
                    priority: body.priority,
                    text,
                })));
            }
            // Keep consuming (but not storing) an oversized body so the
            // connection can resynchronise at the terminator.
            if let Some(body) = &mut self.body {
                body.bytes = body.bytes.saturating_add(raw.len() + 1);
                if body.bytes > MAX_BODY_BYTES {
                    body.overflowed = true;
                    body.lines.clear();
                } else {
                    body.lines.push(raw.to_string());
                }
            }
            return None;
        }

        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return None;
        }
        let mut words = trimmed.split_whitespace();
        let cmd = words.next()?;
        match cmd {
            "solve" => {
                let mut id: Option<u64> = None;
                let mut timeout_ms: Option<u64> = None;
                let mut priority = Priority::Normal;
                for word in words {
                    let Some((key, value)) = word.split_once('=') else {
                        return Some(Err(ProtoError::new(
                            id,
                            format!("malformed solve option `{word}` (expected key=value)"),
                        )));
                    };
                    match key {
                        "id" => match value.parse::<u64>() {
                            Ok(v) => id = Some(v),
                            Err(_) => {
                                return Some(Err(ProtoError::new(
                                    None,
                                    format!("invalid request id `{value}`"),
                                )));
                            }
                        },
                        "timeout_ms" => match value.parse::<u64>() {
                            Ok(v) => timeout_ms = Some(v),
                            Err(_) => {
                                return Some(Err(ProtoError::new(
                                    id,
                                    format!("invalid timeout_ms `{value}`"),
                                )));
                            }
                        },
                        "priority" => match value.parse::<Priority>() {
                            Ok(p) => priority = p,
                            Err(()) => {
                                return Some(Err(ProtoError::new(
                                    id,
                                    format!("invalid priority `{value}` (high|normal|low)"),
                                )));
                            }
                        },
                        other => {
                            return Some(Err(ProtoError::new(
                                id,
                                format!("unknown solve option `{other}`"),
                            )));
                        }
                    }
                }
                let Some(id) = id else {
                    return Some(Err(ProtoError::new(None, "solve requires id=<N>")));
                };
                self.body = Some(PendingBody {
                    id,
                    timeout_ms,
                    priority,
                    lines: Vec::new(),
                    bytes: 0,
                    overflowed: false,
                });
                None
            }
            "cancel" => {
                let mut id: Option<u64> = None;
                for word in words {
                    match word.split_once('=') {
                        Some(("id", value)) => match value.parse::<u64>() {
                            Ok(v) => id = Some(v),
                            Err(_) => {
                                return Some(Err(ProtoError::new(
                                    None,
                                    format!("invalid request id `{value}`"),
                                )));
                            }
                        },
                        _ => {
                            return Some(Err(ProtoError::new(
                                id,
                                format!("unknown cancel option `{word}`"),
                            )));
                        }
                    }
                }
                match id {
                    Some(id) => Some(Ok(ClientFrame::Cancel { id })),
                    None => Some(Err(ProtoError::new(None, "cancel requires id=<N>"))),
                }
            }
            "stats" => Some(Ok(ClientFrame::Stats)),
            "ping" => Some(Ok(ClientFrame::Ping)),
            "shutdown" => Some(Ok(ClientFrame::Shutdown)),
            other => Some(Err(ProtoError::new(
                None,
                format!("unknown command `{other}`"),
            ))),
        }
    }
}

/// One server response line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A solve completed with a verdict.
    Ok {
        /// Echoed request id.
        id: u64,
        /// `sat`, `unsat`, `unknown`, or `static-unsat` (an unsat answer
        /// produced by static analysis alone).
        verdict: &'static str,
        /// Which warm-state layer answered.
        cache: CacheTier,
        /// Microseconds spent queued.
        wait_us: u64,
        /// Microseconds spent solving (0 on a problem-cache hit).
        solve_us: u64,
        /// `name=value` pairs of the model, when sat and small enough.
        model: Vec<(String, String)>,
    },
    /// A request failed.
    Err {
        /// Echoed request id, when attributable.
        id: Option<u64>,
        /// Machine-readable class.
        code: ErrCode,
        /// Suggested retry delay for `overload`.
        retry_after_ms: Option<u64>,
        /// Human-readable message (single line).
        message: String,
    },
    /// Server statistics (JSON payload).
    Stats(
        /// The statistics JSON object.
        String,
    ),
    /// Reply to `ping`.
    Pong,
    /// Acknowledges `shutdown`.
    Bye,
}

impl Response {
    /// Renders the response as one protocol line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Response::Ok {
                id,
                verdict,
                cache,
                wait_us,
                solve_us,
                model,
            } => {
                let mut line = format!(
                    "ok id={id} verdict={verdict} cache={} wait_us={wait_us} solve_us={solve_us}",
                    cache.as_str()
                );
                if !model.is_empty() {
                    line.push_str(" model");
                    for (name, value) in model {
                        line.push(' ');
                        line.push_str(name);
                        line.push('=');
                        line.push_str(value);
                    }
                }
                line
            }
            Response::Err {
                id,
                code,
                retry_after_ms,
                message,
            } => {
                let mut line = String::from("err");
                if let Some(id) = id {
                    line.push_str(&format!(" id={id}"));
                }
                line.push_str(&format!(" code={}", code.as_str()));
                if let Some(ms) = retry_after_ms {
                    line.push_str(&format!(" retry_after_ms={ms}"));
                }
                // The message must stay a single line whatever was in it.
                let flat: String = message
                    .chars()
                    .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
                    .collect();
                line.push_str(" msg=");
                line.push_str(flat.trim());
                line
            }
            Response::Stats(json) => format!("stats {json}"),
            Response::Pong => "pong".to_string(),
            Response::Bye => "bye".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_frame_round_trip() {
        let mut d = RequestDecoder::new();
        assert_eq!(d.push_line("solve id=7 timeout_ms=100 priority=high"), None);
        assert!(d.in_body());
        assert_eq!(d.push_line("p cnf 1 1"), None);
        assert_eq!(d.push_line("1 0"), None);
        let frame = d.push_line(".").unwrap().unwrap();
        assert_eq!(
            frame,
            ClientFrame::Solve(SolveFrame {
                id: 7,
                timeout_ms: Some(100),
                priority: Priority::High,
                text: "p cnf 1 1\n1 0\n".to_string(),
            })
        );
        assert!(!d.in_body());
    }

    #[test]
    fn control_frames() {
        let mut d = RequestDecoder::new();
        assert_eq!(
            d.push_line("cancel id=3").unwrap().unwrap(),
            ClientFrame::Cancel { id: 3 }
        );
        assert_eq!(d.push_line("stats").unwrap().unwrap(), ClientFrame::Stats);
        assert_eq!(d.push_line("ping").unwrap().unwrap(), ClientFrame::Ping);
        assert_eq!(
            d.push_line("shutdown").unwrap().unwrap(),
            ClientFrame::Shutdown
        );
        assert_eq!(d.push_line(""), None);
        assert_eq!(d.push_line("# comment"), None);
    }

    #[test]
    fn malformed_headers_are_errors() {
        let mut d = RequestDecoder::new();
        assert!(d.push_line("solve").unwrap().is_err());
        assert!(d.push_line("solve id=x").unwrap().is_err());
        assert!(d.push_line("solve id=1 bogus=2").unwrap().is_err());
        assert!(d.push_line("solve id=1 priority=urgent").unwrap().is_err());
        assert!(d.push_line("cancel").unwrap().is_err());
        assert!(d.push_line("frobnicate").unwrap().is_err());
        // Errors carry the id when it was already parsed.
        match d.push_line("solve id=9 priority=urgent").unwrap() {
            Err(e) => assert_eq!(e.id, Some(9)),
            Ok(f) => panic!("unexpected frame {f:?}"),
        }
    }

    #[test]
    fn oversized_bodies_error_and_resync() {
        let mut d = RequestDecoder::new();
        d.push_line("solve id=1");
        let big = "x".repeat(4096);
        for _ in 0..=(MAX_BODY_BYTES / 4096) {
            assert_eq!(d.push_line(&big), None);
        }
        let err = d.push_line(".").unwrap().unwrap_err();
        assert_eq!(err.id, Some(1));
        assert!(err.message.contains("exceeds"));
        // The decoder is idle again — the next frame decodes normally.
        assert_eq!(d.push_line("ping").unwrap().unwrap(), ClientFrame::Ping);
    }

    #[test]
    fn responses_render_single_lines() {
        let ok = Response::Ok {
            id: 4,
            verdict: "sat",
            cache: CacheTier::Cold,
            wait_us: 12,
            solve_us: 345,
            model: vec![("x".into(), "1/2".into())],
        };
        assert_eq!(
            ok.render(),
            "ok id=4 verdict=sat cache=cold wait_us=12 solve_us=345 model x=1/2"
        );
        let err = Response::Err {
            id: Some(5),
            code: ErrCode::Overload,
            retry_after_ms: Some(50),
            message: "queue full\nretry".to_string(),
        };
        assert_eq!(
            err.render(),
            "err id=5 code=overload retry_after_ms=50 msg=queue full retry"
        );
    }
}
