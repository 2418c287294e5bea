//! The service workload: `absolverd` over its stdin/stdout protocol, fed
//! by one generator with [`SLOTS`] closed-loop slots.

use crate::check::check_model;
use crate::inputs::{schedule, solve_frame, Request, SLOTS};
use crate::proc::{status_kb, Reaped};
use crate::stats::{json_field, mean, min_samples_for_tail, tail};
use crate::{Metrics, RunResult};
use absolver::core::AbProblem;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests per second of `--seconds`: the request count of a run is
/// fixed by `--seconds`, not by how fast this host happens to be.
pub const REQUESTS_PER_SECOND: f64 = 200.0;
/// The tail percentile reported as `latency_tail_ms`.
pub const TAIL_Q: f64 = 0.9;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 101;
/// No single response may take longer than this.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon: its stdin, and a reader thread that timestamps every
/// response line as it arrives.
struct Daemon {
    child: Reaped,
    stdin: ChildStdin,
    lines: mpsc::Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `absolverd` with one worker per hardware thread and waits
    /// until it answers `ping`.
    fn start(absolverd: &Path, workers: usize) -> std::io::Result<Daemon> {
        let mut child = Command::new(absolverd)
            .args(["--workers", &workers.to_string()])
            .env_clear()
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let (stdin, stdout) = (child.stdin.take(), child.stdout.take());
        let child = Reaped(child);
        let (Some(stdin), Some(stdout)) = (stdin, stdout) else {
            return Err(std::io::Error::other("absolverd pipes missing"));
        };
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Daemon {
            child,
            stdin,
            lines,
            reader: Some(reader),
        };
        daemon.send("ping\n")?;
        daemon.expect_line("pong")?;
        Ok(daemon)
    }

    fn send(&mut self, bytes: &str) -> std::io::Result<()> {
        self.stdin.write_all(bytes.as_bytes())?;
        self.stdin.flush()
    }

    fn next_line(&self) -> std::io::Result<(Instant, String)> {
        self.lines
            .recv_timeout(RESPONSE_TIMEOUT)
            .map_err(|e| std::io::Error::other(format!("absolverd stopped answering: {e}")))
    }

    fn expect_line(&self, prefix: &str) -> std::io::Result<String> {
        let (_, line) = self.next_line()?;
        if line.starts_with(prefix) {
            Ok(line)
        } else {
            Err(std::io::Error::other(format!(
                "expected `{prefix}`, got `{line}`"
            )))
        }
    }

    fn pid(&self) -> u32 {
        self.child.0.id()
    }

    /// Sends `shutdown`, waits for `bye` and for the process to exit.
    fn stop(mut self) -> std::io::Result<()> {
        self.send("shutdown\n")?;
        self.expect_line("bye")?;
        let status = self.child.0.wait()?;
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(std::io::Error::other(format!(
                "absolverd exited with {status}"
            )))
        }
    }
}

/// The closed-loop generator: each slot sends its next request once the
/// previous one is answered, so each slot has at most one in flight.
struct Generator<'a> {
    slots: &'a [Vec<Request>],
    next: [usize; SLOTS],
    sent_at: [Option<Instant>; SLOTS],
}

impl<'a> Generator<'a> {
    fn new(slots: &'a [Vec<Request>]) -> Generator<'a> {
        Generator {
            slots,
            next: [0; SLOTS],
            sent_at: [None; SLOTS],
        }
    }

    /// Writes `slot`'s next request to `out`, if the slot has one left.
    /// Refuses a request whose family already has one in flight.
    fn send(&mut self, out: &mut impl Write, slot: usize) -> std::io::Result<()> {
        let Some(request) = self.slots[slot].get(self.next[slot]) else {
            return Ok(());
        };
        if self.in_flight().any(|r| r.family == request.family) {
            let msg = format!("family {} already has a request in flight", request.family);
            return Err(std::io::Error::other(msg));
        }
        self.sent_at[slot] = Some(Instant::now());
        out.write_all(solve_frame(request).as_bytes())?;
        out.flush()
    }

    /// The requests sent and not answered yet.
    fn in_flight(&self) -> impl Iterator<Item = &'a Request> + '_ {
        (0..SLOTS)
            .filter(|&slot| self.sent_at[slot].is_some())
            .map(|slot| &self.slots[slot][self.next[slot]])
    }

    fn busy(&self) -> bool {
        self.sent_at.iter().any(Option::is_some)
    }

    /// Marks in-flight request `id` answered: returns it, when it was sent,
    /// and its slot.
    fn answered(&mut self, id: u64) -> Option<(&'a Request, Instant, usize)> {
        let slot = (0..SLOTS).find(|&slot| {
            self.sent_at[slot].is_some() && self.slots[slot][self.next[slot]].id == id
        })?;
        let sent = self.sent_at[slot].take()?;
        let request = &self.slots[slot][self.next[slot]];
        self.next[slot] += 1;
        Some((request, sent, slot))
    }
}

/// The request id of a response line (`ok id=…` or `err id=…`).
fn response_id(line: &str) -> Option<u64> {
    line.split(' ')
        .find_map(|w| w.strip_prefix("id="))?
        .parse()
        .ok()
}

/// One `ok` response line.
#[derive(Debug, PartialEq)]
struct Ok<'a> {
    id: u64,
    verdict: &'a str,
    cache: &'a str,
    wait_us: u64,
    solve_us: u64,
    model: Vec<(&'a str, &'a str)>,
}

fn parse_ok(line: &str) -> Option<Ok<'_>> {
    let mut words = line.strip_prefix("ok ")?.split(' ');
    let mut field = |key: &str| words.next()?.strip_prefix(key)?.strip_prefix('=');
    let id = field("id")?.parse().ok()?;
    let verdict = field("verdict")?;
    let cache = field("cache")?;
    let wait_us = field("wait_us")?.parse().ok()?;
    let solve_us = field("solve_us")?.parse().ok()?;
    let model = match words.next() {
        None => Vec::new(),
        Some("model") => words.map(|w| w.split_once('=')).collect::<Option<_>>()?,
        Some(_) => return None,
    };
    Some(Ok {
        id,
        verdict,
        cache,
        wait_us,
        solve_us,
        model,
    })
}

/// Checks a response against the request's known verdict and, for a sat
/// answer, the returned model against the problem.
fn check_answer(ok: &Ok, request: &Request, problem: &AbProblem) -> Result<(), String> {
    if ok.verdict != request.expect {
        return Err(format!(
            "verdict {} where {} is known",
            ok.verdict, request.expect
        ));
    }
    if ok.verdict == "sat" {
        check_model(problem, &ok.model)?;
    }
    Ok(())
}

/// One answered request, as the generator saw it.
struct Sample {
    latency_ms: f64,
    cache: String,
    wait_ms: f64,
    solve_ms: f64,
    verdict_sat: bool,
}

/// Runs the service workload and returns its end-to-end metrics, or with
/// `trace` the per-layer metrics read from the daemon's own answers.
pub fn run(absolverd: &Path, seed: u64, seconds: u64, trace: bool) -> std::io::Result<RunResult> {
    let per_slot = ((seconds as f64 * REQUESTS_PER_SECOND / SLOTS as f64).ceil() as usize)
        .max(min_samples_for_tail(TAIL_Q).div_ceil(SLOTS));
    let slots = schedule(seed, per_slot);
    let mut parsed: HashMap<&str, AbProblem> = HashMap::new();
    for request in slots.iter().flatten() {
        if !parsed.contains_key(request.text.as_str()) {
            let problem = request.text.parse().map_err(|e| {
                std::io::Error::other(format!("generated body does not parse: {e}"))
            })?;
            parsed.insert(&request.text, problem);
        }
    }
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());

    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let started = Daemon::start(absolverd, workers)?;
        setups.push(start.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            started.stop()?;
        } else {
            daemon = Some(started);
        }
    }
    let Some(mut daemon) = daemon else {
        return Err(std::io::Error::other("no set-up ran"));
    };
    let rss_before_kb = status_kb(daemon.pid(), "VmRSS").unwrap_or(0);

    let mut result = RunResult::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut generator = Generator::new(&slots);
    let start = Instant::now();
    for slot in 0..SLOTS {
        generator.send(&mut daemon.stdin, slot)?;
    }
    while generator.busy() {
        let (arrived, line) = daemon.next_line()?;
        let answered = response_id(&line).and_then(|id| generator.answered(id));
        let Some((request, sent, slot)) = answered else {
            return Err(std::io::Error::other(format!("unexpected line `{line}`")));
        };
        generator.send(&mut daemon.stdin, slot)?;

        result.attempted += 1;
        let verdict = match parse_ok(&line) {
            Some(ok) => check_answer(&ok, request, &parsed[request.text.as_str()]).map(|()| ok),
            None => Err(format!("error response `{line}`")),
        };
        match verdict {
            Ok(ok) => samples.push(Sample {
                latency_ms: (arrived - sent).as_secs_f64() * 1e3,
                cache: ok.cache.to_string(),
                wait_ms: ok.wait_us as f64 / 1e3,
                solve_ms: ok.solve_us as f64 / 1e3,
                verdict_sat: ok.verdict == "sat",
            }),
            Err(e) => {
                eprintln!("request {} failed: {e}", request.id);
                result.failed += 1;
                result.correct = false;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak_kb = status_kb(daemon.pid(), "VmHWM").unwrap_or(0);
    let stats = if trace {
        daemon.send("stats\n")?;
        daemon.expect_line("stats ")?
    } else {
        String::new()
    };
    daemon.stop()?;

    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    eprintln!(
        "service: {} requests in {elapsed:.2}s; p90 {:.3} p95 {:.3} p99 {:.3} ms",
        latencies.len(),
        tail(&latencies, 0.9).unwrap_or(0.0),
        tail(&latencies, 0.95).unwrap_or(0.0),
        tail(&latencies, 0.99).unwrap_or(0.0),
    );
    if trace {
        let growth_kb = peak_kb.saturating_sub(rss_before_kb);
        layer_metrics(&mut result.metrics, &samples, &stats, growth_kb);
    } else {
        let peak = Some(peak_kb);
        crate::end_to_end(&mut result, &setups, &latencies, TAIL_Q, elapsed, peak);
    }
    Ok(result)
}

/// Per-layer metrics of the daemon, read from its `ok` lines and its
/// final `stats` JSON. `service.io.ms` is latency − wait − solve, so
/// nothing is left unattributed.
fn layer_metrics(m: &mut Metrics, samples: &[Sample], stats: &str, rss_growth_kb: u64) {
    m.zeros(&crate::cli::CLI_LAYERS);
    let total = samples.len().max(1) as f64;
    let share = |tier: &str| samples.iter().filter(|s| s.cache == tier).count() as f64 / total;
    let solve_ms = |tier: &str| {
        let solves: Vec<f64> = samples
            .iter()
            .filter(|s| s.cache == tier && s.verdict_sat)
            .map(|s| s.solve_ms)
            .collect();
        mean(&solves)
    };
    let io: Vec<f64> = samples
        .iter()
        .map(|s| s.latency_ms - s.wait_ms - s.solve_ms)
        .collect();
    let values: [f64; SERVICE_LAYERS.len()] = [
        mean(&samples.iter().map(|s| s.wait_ms).collect::<Vec<_>>()),
        share("problem"),
        share("analysis"),
        share("session"),
        share("cold"),
        solve_ms("session"),
        solve_ms("cold"),
        json_field(stats, "lemmas_seeded").unwrap_or(0.0),
        json_field(stats, "contraction_resumes").unwrap_or(0.0),
        mean(&io),
        rss_growth_kb as f64 / 1024.0,
    ];
    for ((name, unit), value) in SERVICE_LAYERS.iter().zip(values) {
        m.push(name, value, unit);
    }
    m.push("unattributed.ms", 0.0, "ms");
    m.push("trace.overhead.ms", 0.0, "ms");
}

/// The per-layer metrics of the daemon, in report order, with their units.
pub const SERVICE_LAYERS: [(&str, &str); 11] = [
    ("service.queue_wait.ms", "ms"),
    ("service.tier.problem", "share"),
    ("service.tier.analysis", "share"),
    ("service.tier.session", "share"),
    ("service.tier.cold", "share"),
    ("service.solve.session.ms", "ms"),
    ("service.solve.cold.ms", "ms"),
    ("service.lemmas_seeded", "count"),
    ("service.contraction_resumes", "count"),
    ("service.io.ms", "ms"),
    ("service.rss_growth.mb", "MB"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_lines_parse_with_and_without_a_model() {
        let line = "ok id=7 verdict=sat cache=session wait_us=120 solve_us=4500 model x0=1 x1=-1/2";
        let ok = parse_ok(line).expect("parses");
        assert_eq!((ok.id, ok.verdict, ok.cache), (7, "sat", "session"));
        assert_eq!((ok.wait_us, ok.solve_us), (120, 4500));
        assert_eq!(ok.model, [("x0", "1"), ("x1", "-1/2")]);
        let ok = parse_ok("ok id=3 verdict=static-unsat cache=analysis wait_us=0 solve_us=0")
            .expect("parses");
        assert!(ok.model.is_empty());
        assert_eq!(parse_ok("err id=3 code=parse msg=bad"), None);
    }

    #[test]
    fn tier_shares_and_io_come_from_the_ok_lines() {
        let sample = |cache: &str, latency_ms, wait_ms, solve_ms| Sample {
            latency_ms,
            cache: cache.to_string(),
            wait_ms,
            solve_ms,
            verdict_sat: true,
        };
        let samples = [
            sample("session", 20.0, 8.0, 10.0),
            sample("session", 22.0, 9.0, 12.0),
            sample("cold", 30.0, 10.0, 18.0),
            sample("problem", 1.0, 0.5, 0.0),
        ];
        let mut m = Metrics::default();
        layer_metrics(&mut m, &samples, r#"{"lemmas_seeded":5}"#, 2048);
        assert_eq!(m.get("service.tier.session"), Some(0.5));
        assert_eq!(m.get("service.tier.analysis"), Some(0.0));
        assert_eq!(m.get("service.solve.session.ms"), Some(11.0));
        assert_eq!(m.get("service.io.ms"), Some(1.375));
        assert_eq!(m.get("service.lemmas_seeded"), Some(5.0));
        assert_eq!(m.get("service.rss_growth.mb"), Some(2.0));
        assert_eq!(m.get("sat.ms"), Some(0.0));
        assert_eq!(
            crate::tests::printed(&m),
            crate::tests::declared("per_layer")
        );
    }

    #[test]
    fn no_two_in_flight_requests_share_a_family() {
        use absolver_testkit::{Rng, Xoshiro256pp};
        let slots = schedule(21, 300);
        let mut generator = Generator::new(&slots);
        let mut wire = Vec::new();
        for slot in 0..SLOTS {
            generator.send(&mut wire, slot).expect("send");
        }
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let mut answered = Vec::new();
        while generator.busy() {
            let in_flight: Vec<&Request> = generator.in_flight().collect();
            let families: std::collections::HashSet<u32> =
                in_flight.iter().map(|r| r.family).collect();
            assert_eq!(families.len(), in_flight.len());
            // Answer in any order, as the daemon's workers may.
            let id = in_flight[rng.gen_range(0..in_flight.len())].id;
            let (request, _, slot) = generator.answered(id).expect("in flight");
            assert_eq!(request.id, id);
            answered.push(id);
            generator.send(&mut wire, slot).expect("send");
        }
        assert_eq!(answered.len(), SLOTS * 300);
        assert!(generator.answered(answered[0]).is_none());
        let frames = String::from_utf8(wire).expect("utf-8");
        assert_eq!(frames.matches("solve id=").count(), SLOTS * 300);
    }
}
