//! `absolverd` — the resident ABsolver solve service.
//!
//! Serves the line protocol of [`absolver::service::protocol`] over
//! stdin/stdout, and additionally over a unix socket when `--socket` is
//! given. Requests flow through a bounded priority queue into a worker
//! pool with per-request deadlines, cooperative cancellation, and two
//! cross-request caches (problem verdicts and static-analysis results);
//! a request that misses both is one one-shot solve.
//!
//! ```text
//! usage: absolverd [--workers N] [--queue N]
//!                  [--timeout-ms N] [--socket PATH] [--trace FILE]
//!
//!   --workers N      worker threads (default 2)
//!   --queue N        queue capacity before overload rejections (default 64)
//!   --timeout-ms N   default per-request deadline (default: none)
//!   --socket PATH    additionally listen on a unix socket
//!   --trace FILE     write a JSONL event trace to FILE
//! ```
//!
//! The daemon exits when it reads a `shutdown` command (from any
//! connection), or on stdin EOF when no socket is configured; queued
//! requests are drained first. Exit status is 0 on a clean shutdown,
//! 2 on a usage or setup error.

use absolver::service::protocol::{ClientFrame, ErrCode, Response};
use absolver::service::{spawn_with_stack, RequestDecoder, Server, ServerOptions, Submission};
use absolver::trace::{FileSink, NullSink, TraceSink};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

struct Config {
    options: ServerOptions,
    socket: Option<String>,
    trace: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: absolverd [--workers N] [--queue N]\n\
         \x20                [--timeout-ms N] [--socket PATH] [--trace FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut config = Config {
        options: ServerOptions::default(),
        socket: None,
        trace: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let num = |args: &mut dyn Iterator<Item = String>| -> usize {
            args.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| usage())
        };
        match arg.as_str() {
            "--workers" => config.options.workers = num(&mut args).max(1),
            "--queue" => config.options.queue_capacity = num(&mut args).max(1),
            "--timeout-ms" => {
                config.options.default_timeout = Some(Duration::from_millis(num(&mut args) as u64));
            }
            "--socket" => config.socket = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => config.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    config
}

/// Set once by any connection that reads a `shutdown` command (or by
/// stdin EOF when the daemon serves stdin only); the main thread waits
/// on it before draining the server.
struct ShutdownSignal {
    fired: Mutex<bool>,
    cond: Condvar,
}

impl ShutdownSignal {
    fn new() -> ShutdownSignal {
        ShutdownSignal {
            fired: Mutex::new(false),
            cond: Condvar::new(),
        }
    }

    fn fire(&self) {
        let mut fired = match self.fired.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *fired = true;
        self.cond.notify_all();
    }

    fn wait(&self) {
        let mut fired = match self.fired.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        while !*fired {
            fired = match self.cond.wait(fired) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// The requests submitted on one connection that have not been answered
/// yet: their cancel tokens (for `cancel id=N`), plus a condvar so a
/// `shutdown` can drain them before `bye` goes out.
struct Pending {
    tokens: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    drained: Condvar,
}

impl Pending {
    fn new() -> Pending {
        Pending {
            tokens: Mutex::new(HashMap::new()),
            drained: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<AtomicBool>>> {
        match self.tokens.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Marks `id` answered (its final response is about to be written).
    fn finish(&self, id: u64) {
        self.lock().remove(&id);
        self.drained.notify_all();
    }

    /// Gives up on every outstanding request (the connection died).
    fn abandon(&self) {
        self.lock().clear();
        self.drained.notify_all();
    }

    /// Blocks until every submitted request has been answered. In-flight
    /// solves keep running under their own deadlines/cancellation, so
    /// this terminates whenever the workers do.
    fn wait_drained(&self) {
        let mut map = self.lock();
        while !map.is_empty() {
            map = match self.drained.wait(map) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// Serves one connection: decodes frames from `reader`, submits solves,
/// and writes every response line to `writer` (from a dedicated thread,
/// so slow clients never block the workers). Returns after EOF or a
/// `shutdown` command.
fn serve_connection(
    server: &Server,
    reader: impl Read,
    writer: impl Write + Send + 'static,
    shutdown: &ShutdownSignal,
) {
    let (tx, rx) = mpsc::channel::<Response>();
    let pending = Arc::new(Pending::new());

    let writer_pending = pending.clone();
    let writer_thread = std::thread::spawn(move || {
        let mut writer = writer;
        while let Ok(response) = rx.recv() {
            let done_id = match &response {
                Response::Ok { id, .. } => Some(*id),
                Response::Err { id, .. } => *id,
                _ => None,
            };
            if let Some(id) = done_id {
                writer_pending.finish(id);
            }
            if writeln!(writer, "{}", response.render()).is_err() {
                // Dead client: nothing submitted here can be delivered
                // any more, so stop a shutdown from waiting on it.
                writer_pending.abandon();
                break;
            }
            let _ = writer.flush();
        }
        writer_pending.abandon();
    });

    let mut decoder = RequestDecoder::new();
    let mut saw_shutdown = false;
    for line in BufReader::new(reader).lines() {
        let Ok(line) = line else { break };
        let Some(result) = decoder.push_line(&line) else {
            continue;
        };
        match result {
            Ok(ClientFrame::Solve(frame)) => {
                let id = frame.id;
                // Hold the pending lock across the submit: a fast worker
                // can answer before this thread resumes, and the writer's
                // `finish(id)` must not run before the token is inserted
                // (the ghost entry would hang a later `wait_drained`).
                let mut map = pending.lock();
                match server.submit(frame, tx.clone()) {
                    Submission::Enqueued { cancel } => {
                        // Bound the map against clients that never
                        // read responses for completed requests.
                        if map.len() > 4096 {
                            map.clear();
                        }
                        map.insert(id, cancel);
                    }
                    // Rejected and statically-unsat requests were already
                    // answered on the reply channel; nothing to track.
                    Submission::Rejected { .. } | Submission::Answered => {}
                }
            }
            Ok(ClientFrame::Cancel { id }) => {
                let token = pending.lock().get(&id).cloned();
                if let Some(token) = token {
                    token.store(true, Ordering::Relaxed);
                } else {
                    let _ = tx.send(Response::Err {
                        id: Some(id),
                        code: ErrCode::Proto,
                        retry_after_ms: None,
                        message: format!("no pending request with id {id} on this connection"),
                    });
                }
            }
            Ok(ClientFrame::Stats) => {
                let _ = tx.send(Response::Stats(server.stats_json()));
            }
            Ok(ClientFrame::Ping) => {
                let _ = tx.send(Response::Pong);
            }
            Ok(ClientFrame::Shutdown) => {
                // Drain this connection's in-flight requests so `bye` is
                // the last line the client reads.
                pending.wait_drained();
                let _ = tx.send(Response::Bye);
                saw_shutdown = true;
                break;
            }
            Err(e) => {
                let _ = tx.send(Response::Err {
                    id: e.id,
                    code: ErrCode::Proto,
                    retry_after_ms: None,
                    message: e.message,
                });
            }
        }
    }
    // Drop our sender so the writer drains in-flight job responses and
    // then exits; jobs still hold their own clones until answered.
    drop(tx);
    let _ = writer_thread.join();
    if saw_shutdown {
        shutdown.fire();
    }
}

fn main() -> ExitCode {
    let config = parse_args();

    // Keep the concrete handle: the daemon exits with worker/listener
    // threads still holding sink clones, so the buffered trace must be
    // flushed explicitly — no drop will do it.
    let mut file_sink: Option<Arc<FileSink>> = None;
    let sink: Arc<dyn TraceSink> = match &config.trace {
        Some(path) => match FileSink::create(path) {
            Ok(sink) => {
                let sink = Arc::new(sink);
                file_sink = Some(sink.clone());
                sink
            }
            Err(e) => {
                eprintln!("cannot open trace file `{path}`: {e}");
                return ExitCode::from(2);
            }
        },
        None => Arc::new(NullSink),
    };
    let server = Arc::new(Server::with_trace(config.options, sink));
    let shutdown = Arc::new(ShutdownSignal::new());
    let serving_socket = config.socket.is_some();

    if let Some(path) = config.socket {
        // A stale socket file from a previous run would make bind fail.
        let _ = std::fs::remove_file(&path);
        let listener = match std::os::unix::net::UnixListener::bind(&path) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("cannot bind unix socket `{path}`: {e}");
                return ExitCode::from(2);
            }
        };
        let server = server.clone();
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                let server = server.clone();
                let shutdown = shutdown.clone();
                spawn_with_stack(move || {
                    serve_connection(&server, stream, write_half, &shutdown);
                });
            }
        });
    }

    // stdin/stdout is always served; its EOF ends the daemon unless a
    // socket keeps it alive for other clients.
    {
        let server = server.clone();
        let shutdown = shutdown.clone();
        spawn_with_stack(move || {
            serve_connection(&server, std::io::stdin(), std::io::stdout(), &shutdown);
            if !serving_socket {
                shutdown.fire();
            }
        });
    }

    shutdown.wait();
    server.shutdown();
    if let Some(sink) = file_sink {
        if let Err(e) = sink.flush() {
            eprintln!("cannot flush trace file: {e}");
        }
    }
    ExitCode::SUCCESS
}
