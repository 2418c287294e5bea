//! The CLI workloads: one cold `absolver FILE` process per request, sent
//! by one closed-loop client.

use crate::check::check_model;
use crate::proc::children_peak_rss_kb;
use crate::stats::{json_field, mean, median};
use crate::{Metrics, RunResult};
use absolver::analyze::Simplifier;
use absolver::core::{
    AbModel, AbProblem, CascadeNonlinear, CdclBoolean, Orchestrator, OrchestratorOptions, Outcome,
    SimplexLinear,
};
use absolver::nonlinear::{ContractorConfig, NlOptions};
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A CLI workload.
pub struct CliWorkload {
    /// The instance text, written to the input file.
    pub text: fn() -> String,
    /// Requests per second of `--seconds`: the request count of a run is
    /// fixed by `--seconds`, not by how fast this host happens to be.
    pub requests_per_second: f64,
    /// The tail percentile reported as `latency_tail_ms`.
    pub tail_q: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// The command of one request: the input file is the only argument.
pub fn cli_command(absolver: &Path, file: &Path) -> Command {
    quiet_command(absolver, &[file.as_os_str()])
}

/// The same request with the CLI's own counters printed as JSON.
fn stats_command(absolver: &Path, file: &Path) -> Command {
    quiet_command(
        absolver,
        &["--stats".as_ref(), "json".as_ref(), file.as_os_str()],
    )
}

/// `program args`, with an empty environment, no stdin, and stdout piped.
fn quiet_command(program: &Path, args: &[&std::ffi::OsStr]) -> Command {
    let mut cmd = Command::new(program);
    cmd.args(args)
        .env_clear()
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    cmd
}

/// One answered request: wall time from spawn to exit, and the checked
/// answer (the error says what was wrong with it).
struct Answer {
    wall: Duration,
    verdict: Result<(), String>,
    stdout: String,
}

fn request(mut cmd: Command, problem: &AbProblem) -> Answer {
    let start = Instant::now();
    let output = cmd.output();
    let wall = start.elapsed();
    let (verdict, stdout) = match output {
        Ok(out) => {
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            let verdict = if out.status.code() == Some(10) {
                check_cli_output(problem, &stdout)
            } else {
                Err(format!("exit status {}", out.status))
            };
            (verdict, stdout)
        }
        Err(e) => (Err(format!("spawn failed: {e}")), String::new()),
    };
    Answer {
        wall,
        verdict,
        stdout,
    }
}

/// Checks `s SATISFIABLE` plus a `v name = value` line per variable.
fn check_cli_output(problem: &AbProblem, stdout: &str) -> Result<(), String> {
    if !stdout.lines().any(|l| l == "s SATISFIABLE") {
        return Err("no `s SATISFIABLE` line".to_string());
    }
    let values: Vec<(&str, &str)> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("v ")?.split_once(" = "))
        .collect();
    check_model(problem, &values)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `workload` and returns its end-to-end metrics, or with `trace` the
/// per-layer metrics of a traced run over the same input.
pub fn run(
    workload: &CliWorkload,
    absolver: &Path,
    input: &Path,
    seconds: u64,
    trace: bool,
) -> std::io::Result<RunResult> {
    let text = (workload.text)();
    let problem: AbProblem = text
        .parse()
        .map_err(|e| std::io::Error::other(format!("generated input does not parse: {e}")))?;
    let requests = ((seconds as f64 * workload.requests_per_second).ceil() as usize)
        .max(crate::stats::min_samples_for_tail(workload.tail_q));

    let mut result = RunResult::default();
    let mut setups = Vec::new();
    for _ in 0..workload.setups {
        let start = Instant::now();
        std::fs::write(input, &text)?;
        let warm_up = request(cli_command(absolver, input), &problem);
        setups.push(start.elapsed().as_secs_f64());
        if let Err(e) = warm_up.verdict {
            eprintln!("warm-up answer rejected: {e}");
            result.correct = false;
        }
    }

    let me = std::env::current_exe()?;
    let mut walls = Vec::new();
    let mut traced: Vec<(f64, Layers)> = Vec::new();
    let start = Instant::now();
    for i in 0..requests {
        let tracing = trace && i % 2 == 1;
        let cmd = if tracing {
            quiet_command(&me, &["trace-child".as_ref(), input.as_os_str()])
        } else {
            cli_command(absolver, input)
        };
        let answer = request(cmd, &problem);
        result.attempted += 1;
        if let Err(e) = &answer.verdict {
            eprintln!("request {i} failed: {e}");
            result.failed += 1;
            result.correct = false;
            continue;
        }
        if tracing {
            match parse_spans(&answer.stdout) {
                Some(spans) => traced.push((ms(answer.wall), spans)),
                None => {
                    result.failed += 1;
                    result.correct = false;
                }
            }
        } else {
            walls.push(ms(answer.wall));
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    if trace {
        // The traced child rebuilds the CLI's solve path; the CLI's own
        // counters must agree with the child's, or the per-layer figures
        // describe another configuration than the measured one.
        let answer = request(stats_command(absolver, input), &problem);
        result.attempted += 1;
        let agreed = answer
            .verdict
            .and_then(|()| counters_agree(&answer.stdout, &traced));
        if let Err(e) = agreed {
            eprintln!("traced child disagrees with absolver: {e}");
            result.failed += 1;
            result.correct = false;
        }
        let untraced_p50 = median(&walls).unwrap_or(0.0);
        let traced_walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
        let overhead = median(&traced_walls).unwrap_or(0.0) - untraced_p50;
        layer_metrics(&mut result.metrics, &traced, overhead);
    } else {
        let peak = children_peak_rss_kb();
        crate::end_to_end(&mut result, &setups, &walls, workload.tail_q, elapsed, peak);
    }
    Ok(result)
}

/// The per-layer metrics of one CLI request, in report order, with their
/// units. The `ms` entries are spans (or phases of the `solve` span) and
/// add up, with `unattributed.ms`, to the request time.
pub const CLI_LAYERS: [(&str, &str); 14] = [
    ("parser.ms", "ms"),
    ("analyze.ms", "ms"),
    ("sat.ms", "ms"),
    ("sat.iterations", "count"),
    ("linear.ms", "ms"),
    ("linear.pivots", "count"),
    ("linear.conflict.ms", "ms"),
    ("linear.conflict_literals", "count"),
    ("nonlinear.ms", "ms"),
    ("nonlinear.hc4", "count"),
    ("nonlinear.bc3", "count"),
    ("nonlinear.newton", "count"),
    ("nonlinear.cache_hit_rate", "ratio"),
    ("core.model.ms", "ms"),
];

/// One traced request's values of [`CLI_LAYERS`].
type Layers = [f64; CLI_LAYERS.len()];

/// The counters of [`CLI_LAYERS`] in the CLI's `--stats json` line, as
/// `(layer index, value)`.
fn stats_counters(json: &str) -> Option<Vec<(usize, f64)>> {
    let field = |key| json_field(json, key);
    let hits = field("contraction_cache_hits")?;
    let lookups = hits + field("contraction_cache_misses")?;
    let counters = [
        ("sat.iterations", field("boolean_iterations")?),
        ("linear.pivots", field("simplex_pivots")?),
        ("linear.conflict_literals", field("conflict_literals")?),
        ("nonlinear.hc4", field("hc4_contractions")?),
        ("nonlinear.bc3", field("bc3_contractions")?),
        ("nonlinear.newton", field("newton_contractions")?),
        (
            "nonlinear.cache_hit_rate",
            if lookups == 0.0 { 0.0 } else { hits / lookups },
        ),
    ];
    counters
        .into_iter()
        .map(|(name, value)| Some((CLI_LAYERS.iter().position(|(n, _)| *n == name)?, value)))
        .collect()
}

/// Checks that every traced request counted what `absolver --stats json`
/// printed in `stdout` counts.
fn counters_agree(stdout: &str, traced: &[(f64, Layers)]) -> Result<(), String> {
    let json = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .ok_or("no `--stats json` line")?;
    let counters = stats_counters(json).ok_or("a counter is missing from `--stats json`")?;
    if traced.is_empty() {
        return Err("no traced request".to_string());
    }
    for (_, layers) in traced {
        for &(i, expected) in &counters {
            if layers[i] != expected {
                let name = CLI_LAYERS[i].0;
                return Err(format!(
                    "{name} {} where absolver counts {expected}",
                    layers[i]
                ));
            }
        }
    }
    Ok(())
}

const SPANS_PREFIX: &str = "c perfbench-spans";

/// The spans line the traced child prints after the CLI's output.
fn render_spans(values: &Layers) -> String {
    let mut line = SPANS_PREFIX.to_string();
    for ((name, _), value) in CLI_LAYERS.iter().zip(values) {
        line.push_str(&format!(" {name}={value}"));
    }
    line
}

fn parse_spans(stdout: &str) -> Option<Layers> {
    let line = stdout.lines().find_map(|l| l.strip_prefix(SPANS_PREFIX))?;
    let mut values: Layers = [0.0; CLI_LAYERS.len()];
    let mut words = line.split_whitespace();
    for ((name, _), value) in CLI_LAYERS.iter().zip(&mut values) {
        *value = words
            .next()?
            .strip_prefix(name)?
            .strip_prefix('=')?
            .parse()
            .ok()?;
    }
    words.next().is_none().then_some(values)
}

/// Per-layer metrics of the traced requests: per-request means, so the
/// layer times plus `unattributed.ms` add up to the mean traced request
/// time. `overhead_ms` is the traced minus the untraced p50.
fn layer_metrics(m: &mut Metrics, traced: &[(f64, Layers)], overhead_ms: f64) {
    for (i, (name, unit)) in CLI_LAYERS.iter().enumerate() {
        m.push(
            name,
            mean(&traced.iter().map(|(_, v)| v[i]).collect::<Vec<_>>()),
            unit,
        );
    }
    m.zeros(&crate::service::SERVICE_LAYERS);
    let unattributed: Vec<f64> = traced
        .iter()
        .map(|(wall, v)| {
            let spans: f64 = CLI_LAYERS
                .iter()
                .zip(v)
                .filter(|((_, unit), _)| *unit == "ms")
                .map(|(_, x)| x)
                .sum();
            wall - spans
        })
        .collect();
    m.push("unattributed.ms", mean(&unattributed), "ms");
    m.push("trace.overhead.ms", overhead_ms, "ms");
}

/// The orchestrator the `absolver` CLI builds with its default flags.
fn cli_orchestrator() -> Orchestrator {
    let nl_options = NlOptions {
        contractors: ContractorConfig::default(),
        contraction_cache: true,
        nl_jobs: 1,
        ..Default::default()
    };
    Orchestrator::custom(Box::new(CdclBoolean::new()))
        .with_linear(Box::new(SimplexLinear::new()))
        .with_nonlinear(Box::new(CascadeNonlinear::with_options(nl_options)))
        .with_options(OrchestratorOptions {
            time_limit: None,
            theory_cache: true,
            ..Default::default()
        })
        .with_preprocessor(Box::new(Simplifier::new()))
}

/// The CLI's model lines.
fn model_lines(problem: &AbProblem, model: &AbModel) -> String {
    let mut out = String::new();
    for (id, var) in problem.arith_vars().iter().enumerate() {
        let value = match model.arith.value_exact(id) {
            Some(exact) => exact.to_string(),
            None => model.arith.value_f64(id).unwrap_or(f64::NAN).to_string(),
        };
        out.push_str(&format!("v {} = {value}\n", var.name));
    }
    out
}

/// The traced child: the CLI's solve path on `file`, with a span around
/// each public call (parse, `Orchestrator::solve`, model print); `solve`
/// is split by the phases the orchestrator records. Prints the CLI's
/// output plus one spans line and exits with the CLI's exit code.
pub fn trace_child(file: &Path) -> std::process::ExitCode {
    let Ok(text) = std::fs::read_to_string(file) else {
        return std::process::ExitCode::from(2);
    };
    let t = Instant::now();
    let parsed = absolver::core::parser::parse(&text);
    let parse = ms(t.elapsed());
    let Ok(problem) = parsed else {
        return std::process::ExitCode::from(2);
    };
    let mut orc = cli_orchestrator();
    let Ok(outcome) = orc.solve(&problem) else {
        return std::process::ExitCode::from(40);
    };
    let model = match outcome {
        Outcome::Sat(model) => model,
        Outcome::Unsat => {
            println!("s UNSATISFIABLE");
            return std::process::ExitCode::from(20);
        }
        Outcome::Unknown => {
            println!("s UNKNOWN");
            return std::process::ExitCode::from(30);
        }
    };
    let t = Instant::now();
    let mut stdout = std::io::stdout().lock();
    let printed = write!(stdout, "s SATISFIABLE\n{}", model_lines(&problem, &model))
        .and_then(|()| stdout.flush());
    let model_ms = ms(t.elapsed());
    if printed.is_err() {
        return std::process::ExitCode::from(2);
    }
    let s = orc.stats();
    let lookups = s.contraction_cache_hits + s.contraction_cache_misses;
    let values: Layers = [
        parse,
        ms(s.preprocess_time),
        ms(s.boolean_time),
        s.boolean_iterations as f64,
        ms(s.linear_time.saturating_sub(s.conflict_min_time)),
        s.simplex_pivots as f64,
        ms(s.conflict_min_time),
        s.conflict_literals as f64,
        ms(s.nonlinear_time),
        s.hc4_contractions as f64,
        s.bc3_contractions as f64,
        s.newton_contractions as f64,
        if lookups == 0 {
            0.0
        } else {
            s.contraction_cache_hits as f64 / lookups as f64
        },
        model_ms,
    ];
    if writeln!(stdout, "{}", render_spans(&values)).is_err() {
        return std::process::ExitCode::from(2);
    }
    std::process::ExitCode::from(10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsStr;

    #[test]
    fn the_cli_receives_only_the_input_file() {
        let cmd = cli_command(Path::new("bin/absolver"), Path::new("work/steering.dimacs"));
        let args: Vec<&OsStr> = cmd.get_args().collect();
        assert_eq!(args, [OsStr::new("work/steering.dimacs")]);
        assert_eq!(cmd.get_envs().count(), 0);
    }

    #[test]
    fn spans_round_trip_through_the_child_output() {
        let mut values: Layers = [0.0; CLI_LAYERS.len()];
        values[0] = 0.25;
        values[3] = 34.0;
        values[8] = 391.5;
        let stdout = format!("s SATISFIABLE\nv x = 1\n{}\n", render_spans(&values));
        assert_eq!(parse_spans(&stdout), Some(values));
        assert_eq!(parse_spans("s SATISFIABLE\n"), None);
        assert_eq!(
            parse_spans(&format!("{} extra=1", render_spans(&values))),
            None
        );
    }

    #[test]
    fn cli_output_is_checked_against_the_instance() {
        let problem: AbProblem = "p cnf 1 1\n1 0\nc def real 1 x >= 2\n".parse().unwrap();
        assert_eq!(
            check_cli_output(&problem, "s SATISFIABLE\nv x = 5/2\n"),
            Ok(())
        );
        assert!(check_cli_output(&problem, "s SATISFIABLE\nv x = 1\n").is_err());
        assert!(check_cli_output(&problem, "s UNSATISFIABLE\n").is_err());
    }

    #[test]
    fn traced_counters_must_match_the_cli_stats() {
        let json = r#"{"boolean_iterations":34,"simplex_pivots":2873,"conflict_literals":5973,"hc4_contractions":0,"bc3_contractions":0,"newton_contractions":0,"contraction_cache_hits":1,"contraction_cache_misses":3}"#;
        let stdout = format!("{json}\ns SATISFIABLE\nv x0 = 1\n");
        let mut values: Layers = [0.0; CLI_LAYERS.len()];
        values[3] = 34.0;
        values[5] = 2873.0;
        values[7] = 5973.0;
        values[12] = 0.25;
        assert_eq!(counters_agree(&stdout, &[(400.0, values)]), Ok(()));
        let mut drifted = values;
        drifted[5] = 2874.0;
        let err = counters_agree(&stdout, &[(400.0, values), (400.0, drifted)]).unwrap_err();
        assert!(err.contains("linear.pivots"), "{err}");
        assert!(counters_agree(&stdout, &[]).is_err());
        assert!(counters_agree("s SATISFIABLE\n", &[(400.0, values)]).is_err());
        let partial = stdout.replace("\"simplex_pivots\":2873,", "");
        assert!(counters_agree(&partial, &[(400.0, values)]).is_err());
    }

    #[test]
    fn traced_layers_add_up_to_the_request_time() {
        let values: Layers = std::array::from_fn(|i| i as f64 + 1.0);
        let mut m = Metrics::default();
        layer_metrics(&mut m, &[(140.0, values), (144.0, values)], 0.5);
        let get = |name: &str| m.get(name).unwrap_or_else(|| panic!("{name}"));
        let layers: f64 = CLI_LAYERS
            .iter()
            .filter(|(_, unit)| *unit == "ms")
            .map(|(name, _)| get(name))
            .sum();
        assert_eq!(layers + get("unattributed.ms"), 142.0);
        assert_eq!(get("sat.iterations"), 4.0);
        assert_eq!(get("trace.overhead.ms"), 0.5);
        assert_eq!(get("service.queue_wait.ms"), 0.0);
        assert_eq!(
            crate::tests::printed(&m),
            crate::tests::declared("per_layer")
        );
    }
}
