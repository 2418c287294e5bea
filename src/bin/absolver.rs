//! The stand-alone ABsolver executable (paper Sec. 4/6).
//!
//! "ABsolver can be used as a stand-alone tool with its intuitive-to-use
//! input language for specifying multi-domain constraint problems" — this
//! binary reads the extended DIMACS format from a file (or stdin), runs
//! the control loop, and prints the verdict plus a model. "The various
//! constituents of our solver are customisable via command line
//! parameters":
//!
//! ```text
//! absolver [OPTIONS] [FILE]
//! absolver check [--json] [FILE]
//! absolver session [OPTIONS] [FILE]
//!
//!   FILE                     input in extended DIMACS (default: stdin)
//!   --boolean cdcl|restart   Boolean backend        (default: cdcl)
//!   --nonlinear cascade|interval|penalty
//!                            nonlinear backend      (default: cascade)
//!   --contractors hc4[,bc3][,newton]
//!                            contractor cascade stages (default: hc4,bc3,newton)
//!   --nl-jobs N              worker threads for the nonlinear box search
//!   --all-models N           enumerate up to N models (N >= 1)
//!   --time-limit SECS        wall-clock budget
//!   --max-iterations N       cap on Boolean models examined (under --jobs,
//!                            per shard; without --deterministic the shards
//!                            draw components in a varying order, so a
//!                            capped run can end differently each time)
//!   --jobs N                 solve with N parallel shards (not with
//!                            --boolean, --nonlinear, --contractors or
//!                            --nl-jobs: each shard picks its own backends)
//!   --deterministic          reproducible component-to-shard assignment
//!   --stats [human|json]     print solver statistics (default: human)
//!   --trace FILE             write a JSONL event trace to FILE
//!   --quiet                  verdict only
//! ```
//!
//! Solve exit codes: `10` sat, `20` unsat, `30` unknown, `40` iteration
//! limit, `2` usage/IO/parse error.
//!
//! `absolver check` runs the static analyzer instead of the solver and
//! prints compiler-style diagnostics (`file:line:col: severity[AB0xx]:
//! message`), or a stable JSON report with `--json`. Check exit codes:
//! `0` clean, `3` warnings only, `4` errors, `2` usage/IO error.
//!
//! `absolver session` reads a line-oriented incremental script (from FILE
//! or stdin) driving one persistent solve session. One command per line;
//! blank lines and `#` comments are skipped:
//!
//! ```text
//! var <int|real> <name>      declare an arithmetic variable
//! range <name> <lo> <hi>     tighten its search range
//! def <int|real> <v> <cmp>   bind Boolean var v (1-based) to a constraint
//! assert <lit> ... [0]       add a clause (DIMACS-style literals)
//! push / pop                 open / undo an assertion frame
//! check                      decide the current assertions (prints `s ...`)
//! model                      print the model of the last check
//! reset                      drop every assertion and frame
//! ```
//!
//! Each `check` prints its own `s SATISFIABLE|UNSATISFIABLE|UNKNOWN`
//! line; with `--stats json` it also emits a per-check JSON block, plus a
//! cumulative block at end of script. In session mode `--time-limit` is a
//! *cumulative* budget for the whole script: one absolute deadline is set
//! when the script starts, and every `check` after it expires reports
//! `s UNKNOWN` (it does not restart per check). Malformed scripts abort with
//! compiler-style diagnostics (`file:line:col: error[AB02x]: message`,
//! codes: `AB020` unknown command, `AB021` malformed command, `AB022`
//! pop without a frame). The process exit code is the last check's solve
//! code (`10`/`20`/`30`, or `40` on iteration limit), `0` if the script
//! ran no check, and `2` on script/usage/IO errors.

use absolver::core::script::{parse_script_line, ScriptCommand};
use absolver::core::{
    parse_session_constraint, AbProblem, CascadeNonlinear, CdclBoolean, IntervalNonlinear,
    Orchestrator, OrchestratorOptions, Outcome, ParallelOptions, ParallelStats, PenaltyNonlinear,
    RestartingBoolean, Session, SimplexLinear, Span,
};
use absolver::nonlinear::{ContractorConfig, NlOptions};
use absolver::num::Interval;
use absolver::trace::{saturating_micros, FileSink, JsonObject};
use std::fmt::Display;
use std::io::{self, Read, StdoutLock, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

const EXIT_SAT: u8 = 10;
const EXIT_UNSAT: u8 = 20;
const EXIT_UNKNOWN: u8 = 30;
const EXIT_ITERATION_LIMIT: u8 = 40;
const EXIT_ERROR: u8 = 2;

const EXIT_CHECK_CLEAN: u8 = 0;
const EXIT_CHECK_WARNINGS: u8 = 3;
const EXIT_CHECK_ERRORS: u8 = 4;

/// Stdout, for every mode: the one fallible writer all output goes
/// through. The first write error is kept and later writes are skipped,
/// so a reader that went away (`absolver FILE | head -1`) ends the run
/// with its verdict's exit code instead of a panic.
struct Out {
    stdout: StdoutLock<'static>,
    error: Option<io::Error>,
}

impl Out {
    fn new() -> Out {
        Out {
            stdout: io::stdout().lock(),
            error: None,
        }
    }

    /// Writes `text` as is.
    fn text(&mut self, text: &str) {
        if self.error.is_none() {
            self.error = self.stdout.write_all(text.as_bytes()).err();
        }
    }

    /// Writes `line` and a newline.
    fn line(&mut self, line: impl Display) {
        self.text(&format!("{line}\n"));
    }

    /// Whether a write failed, so nothing more reaches the reader.
    fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// The exit code of a run that reached the verdict (or check result)
    /// `code`. A reader that went away (`BrokenPipe`) leaves the code
    /// standing; any other write error is an IO error.
    fn exit(mut self, code: u8) -> ExitCode {
        match self.error.take().or_else(|| self.stdout.flush().err()) {
            Some(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                eprintln!("cannot write to stdout: {e}");
                ExitCode::from(EXIT_ERROR)
            }
            _ => ExitCode::from(code),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum StatsFormat {
    Human,
    Json,
}

struct Config {
    file: Option<String>,
    boolean: String,
    nonlinear: String,
    contractors: ContractorConfig,
    nl_jobs: usize,
    all_models: Option<usize>,
    time_limit: Option<Duration>,
    max_iterations: Option<u64>,
    jobs: Option<usize>,
    deterministic: bool,
    stats: Option<StatsFormat>,
    trace: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: absolver [--boolean cdcl|restart] [--nonlinear cascade|interval|penalty]\n\
         \x20               [--contractors hc4[,bc3][,newton]] [--nl-jobs N]\n\
         \x20               [--all-models N] [--time-limit SECS] [--max-iterations N]\n\
         \x20               [--jobs N] [--deterministic]\n\
         \x20               [--stats [human|json]] [--trace FILE] [--quiet] [FILE]\n\
         \x20      absolver check [--json] [FILE]\n\
         \x20      absolver session [--boolean ...] [--nonlinear ...]\n\
         \x20               [--time-limit SECS] [--max-iterations N]\n\
         \x20               [--stats [human|json]] [--trace FILE] [--quiet] [FILE]\n\
         solve exit codes: 10 sat, 20 unsat, 30 unknown, 40 iteration limit, 2 error\n\
         check exit codes: 0 clean, 3 warnings, 4 errors, 2 error\n\
         session exit code: last check's solve code (0 if no check), 2 on script error"
    );
    std::process::exit(EXIT_ERROR as i32);
}

fn parse_args() -> Config {
    let mut config = Config {
        file: None,
        boolean: "cdcl".to_string(),
        nonlinear: "cascade".to_string(),
        contractors: ContractorConfig::default(),
        nl_jobs: 1,
        all_models: None,
        time_limit: None,
        max_iterations: None,
        jobs: None,
        deterministic: false,
        stats: None,
        trace: None,
        quiet: false,
    };
    // Flags that configure the sequential solver's backends. The parallel
    // shards build their own backends, so `--jobs` would ignore them.
    let mut backend_flags: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        if matches!(
            arg.as_str(),
            "--boolean" | "--nonlinear" | "--contractors" | "--nl-jobs"
        ) {
            backend_flags.push(arg.clone());
        }
        match arg.as_str() {
            "--boolean" => config.boolean = args.next().unwrap_or_else(|| usage()),
            "--nonlinear" => config.nonlinear = args.next().unwrap_or_else(|| usage()),
            "--contractors" => {
                let list = args.next().unwrap_or_else(|| usage());
                config.contractors = list.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                });
            }
            "--nl-jobs" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                config.nl_jobs = n.max(1);
            }
            "--all-models" => {
                let n = args.next().and_then(|v| v.parse().ok());
                config.all_models = Some(n.filter(|&n| n > 0).unwrap_or_else(|| usage()));
            }
            "--time-limit" => {
                let secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                config.time_limit = Some(Duration::from_secs(secs));
            }
            "--max-iterations" => {
                let n: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                config.max_iterations = Some(n);
            }
            "--jobs" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                config.jobs = Some(n.max(1));
            }
            "--deterministic" => config.deterministic = true,
            "--stats" => {
                // The format operand is optional: `--stats`, `--stats human`
                // and `--stats json` are all accepted.
                config.stats = Some(match args.peek().map(String::as_str) {
                    Some("json") => {
                        args.next();
                        StatsFormat::Json
                    }
                    Some("human") => {
                        args.next();
                        StatsFormat::Human
                    }
                    _ => StatsFormat::Human,
                });
            }
            "--trace" => config.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--quiet" => config.quiet = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`");
                usage();
            }
            file => {
                if config.file.replace(file.to_string()).is_some() {
                    eprintln!("multiple input files");
                    usage();
                }
            }
        }
    }
    if config.jobs.is_some() && !backend_flags.is_empty() {
        for flag in &backend_flags {
            eprintln!("`{flag}` cannot be combined with `--jobs`: the parallel shards build their own backends");
        }
        usage();
    }
    config
}

fn build_orchestrator(config: &Config) -> Orchestrator {
    let boolean: Box<dyn absolver::core::BooleanSolver> = match config.boolean.as_str() {
        "cdcl" => Box::new(CdclBoolean::new()),
        "restart" => Box::new(RestartingBoolean::new()),
        other => {
            eprintln!("unknown Boolean backend `{other}`");
            usage();
        }
    };
    let mut orc = Orchestrator::custom(boolean).with_linear(Box::new(SimplexLinear::new()));
    let nl_options = NlOptions {
        contractors: config.contractors,
        nl_jobs: config.nl_jobs,
        ..Default::default()
    };
    orc = match config.nonlinear.as_str() {
        "cascade" => orc.with_nonlinear(Box::new(CascadeNonlinear::with_options(nl_options))),
        "interval" => orc.with_nonlinear(Box::new(IntervalNonlinear::with_options(nl_options))),
        "penalty" => orc.with_nonlinear(Box::new(PenaltyNonlinear::with_options(nl_options))),
        other => {
            eprintln!("unknown nonlinear backend `{other}`");
            usage();
        }
    };
    let mut options = OrchestratorOptions {
        time_limit: config.time_limit,
        ..Default::default()
    };
    if let Some(n) = config.max_iterations {
        options.max_iterations = n;
    }
    orc.with_options(options)
}

/// The `absolver check` mode: run the static analyzer on one input and
/// report findings without solving.
fn check_main(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut file: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`");
                usage();
            }
            path => {
                if file.replace(path.to_string()).is_some() {
                    eprintln!("multiple input files");
                    usage();
                }
            }
        }
    }
    let mut text = String::new();
    let label = match &file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => {
                text = t;
                path.clone()
            }
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        },
        None => {
            if std::io::stdin().read_to_string(&mut text).is_err() {
                eprintln!("cannot read stdin");
                return ExitCode::from(EXIT_ERROR);
            }
            "<stdin>".to_string()
        }
    };
    let report = absolver::analyze::check_source(&text);
    let mut out = Out::new();
    if json {
        out.line(report.render_json());
    } else {
        out.text(&report.render_human(&label));
    }
    out.exit(if report.errors() > 0 {
        EXIT_CHECK_ERRORS
    } else if report.warnings() > 0 {
        EXIT_CHECK_WARNINGS
    } else {
        EXIT_CHECK_CLEAN
    })
}

/// Emits one compiler-style session diagnostic (the AB-code format of
/// `absolver check`, with the session's own `AB02x` code block).
fn session_diag(label: &str, line: usize, col: usize, code: &str, message: &str) {
    eprintln!("{label}:{line}:{col}: error[{code}]: {message}");
}

fn verdict_line(outcome: &Outcome) -> (&'static str, u8) {
    match outcome {
        Outcome::Sat(_) => ("s SATISFIABLE", EXIT_SAT),
        Outcome::Unsat => ("s UNSATISFIABLE", EXIT_UNSAT),
        Outcome::Unknown => ("s UNKNOWN", EXIT_UNKNOWN),
    }
}

/// The `absolver session` mode: drive one persistent [`Session`] from a
/// line-oriented script (see the module docs for the command language).
fn session_main(args: &[String]) -> ExitCode {
    let mut config = Config {
        file: None,
        boolean: "cdcl".to_string(),
        nonlinear: "cascade".to_string(),
        contractors: ContractorConfig::default(),
        nl_jobs: 1,
        all_models: None,
        time_limit: None,
        max_iterations: None,
        jobs: None,
        deterministic: false,
        stats: None,
        trace: None,
        quiet: false,
    };
    let mut it = args.iter().cloned().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--boolean" => config.boolean = it.next().unwrap_or_else(|| usage()),
            "--nonlinear" => config.nonlinear = it.next().unwrap_or_else(|| usage()),
            "--time-limit" => {
                let secs: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                config.time_limit = Some(Duration::from_secs(secs));
            }
            "--max-iterations" => {
                let n: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                config.max_iterations = Some(n);
            }
            "--stats" => {
                config.stats = Some(match it.peek().map(String::as_str) {
                    Some("json") => {
                        it.next();
                        StatsFormat::Json
                    }
                    Some("human") => {
                        it.next();
                        StatsFormat::Human
                    }
                    _ => StatsFormat::Human,
                });
            }
            "--trace" => config.trace = Some(it.next().unwrap_or_else(|| usage())),
            "--quiet" => config.quiet = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option `{other}`");
                usage();
            }
            path => {
                if config.file.replace(path.to_string()).is_some() {
                    eprintln!("multiple input files");
                    usage();
                }
            }
        }
    }

    let mut text = String::new();
    let label = match &config.file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => {
                text = t;
                path.clone()
            }
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        },
        None => {
            if std::io::stdin().read_to_string(&mut text).is_err() {
                eprintln!("cannot read stdin");
                return ExitCode::from(EXIT_ERROR);
            }
            "<stdin>".to_string()
        }
    };

    // The script budget is *cumulative*: one absolute deadline covers
    // every check in the script, instead of restarting per `check` (which
    // let long sessions overshoot `--time-limit` arbitrarily). The
    // orchestrator's per-call limit therefore stays unset here.
    let budget = config.time_limit.take();
    let mut orc = build_orchestrator(&config);
    let trace_sink = match &config.trace {
        Some(path) => match FileSink::create(path) {
            Ok(sink) => {
                let sink = Arc::new(sink);
                orc.set_trace_sink(sink.clone());
                Some(sink)
            }
            Err(e) => {
                eprintln!("cannot open trace file `{path}`: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        },
        None => None,
    };
    let mut session = Session::with_orchestrator(orc);
    session.set_deadline(budget.map(|d| Instant::now() + d));
    let mut last_exit: Option<u8> = None;
    let mut out = Out::new();

    for (idx, raw) in text.lines().enumerate() {
        if out.failed() {
            // Nobody reads the verdicts of the remaining checks.
            break;
        }
        let line = idx + 1;
        let cmd = match parse_script_line(raw, line) {
            Ok(Some(cmd)) => cmd,
            Ok(None) => continue,
            Err(d) => {
                session_diag(&label, d.line, d.col, d.code, &d.message);
                return ExitCode::from(EXIT_ERROR);
            }
        };
        match cmd {
            ScriptCommand::Push => session.push(),
            ScriptCommand::Pop { col } => {
                if session.pop().is_err() {
                    session_diag(&label, line, col, "AB022", "pop without a matching push");
                    return ExitCode::from(EXIT_ERROR);
                }
            }
            ScriptCommand::Reset => session.reset(),
            ScriptCommand::Var { kind, name } => {
                if let Err(e) = session.arith_var(name, kind) {
                    session_diag(&label, line, 1, "AB021", &e.to_string());
                    return ExitCode::from(EXIT_ERROR);
                }
            }
            ScriptCommand::Range {
                name,
                name_col,
                lo,
                hi,
            } => {
                let Some(id) = session.problem().arith_var(name) else {
                    session_diag(
                        &label,
                        line,
                        name_col,
                        "AB021",
                        &format!("unknown arithmetic variable `{name}`"),
                    );
                    return ExitCode::from(EXIT_ERROR);
                };
                // The parser guarantees `lo <= hi` and no NaN, so the
                // interval constructor cannot panic.
                if session.assert_range(id, Interval::new(lo, hi)).is_err() {
                    session_diag(&label, line, name_col, "AB021", "invalid range");
                    return ExitCode::from(EXIT_ERROR);
                }
            }
            ScriptCommand::Def {
                kind,
                var,
                body,
                body_col,
            } => {
                let base = Span::new(line, body_col);
                match parse_session_constraint(body, kind, session.problem().arith_vars(), base) {
                    Ok((constraint, new_vars)) => {
                        for (name, k) in new_vars {
                            if let Err(e) = session.arith_var(&name, k) {
                                session_diag(&label, line, body_col, "AB021", &e.to_string());
                                return ExitCode::from(EXIT_ERROR);
                            }
                        }
                        if let Err(e) = session.define(var, constraint) {
                            session_diag(&label, line, body_col, "AB021", &e.to_string());
                            return ExitCode::from(EXIT_ERROR);
                        }
                    }
                    Err(e) => {
                        let (l, c) = match e.span() {
                            Some(s) => (s.line, s.col),
                            None => (line, body_col),
                        };
                        session_diag(&label, l, c, "AB021", e.message());
                        return ExitCode::from(EXIT_ERROR);
                    }
                }
            }
            ScriptCommand::Assert { lits } => session.assert_clause(lits),
            ScriptCommand::Check => match session.check() {
                Ok(outcome) => {
                    let (msg, code) = verdict_line(&outcome);
                    out.line(msg);
                    last_exit = Some(code);
                    match config.stats {
                        Some(StatsFormat::Human) => {
                            eprintln!(
                                "c check {} (depth {}): {}",
                                session.checks(),
                                session.depth(),
                                session.check_stats()
                            );
                        }
                        Some(StatsFormat::Json) => {
                            let mut obj = JsonObject::new();
                            obj.field_u64("check", session.checks())
                                .field_u64("depth", session.depth() as u64)
                                .field_str(
                                    "verdict",
                                    match outcome {
                                        Outcome::Sat(_) => "sat",
                                        Outcome::Unsat => "unsat",
                                        Outcome::Unknown => "unknown",
                                    },
                                )
                                .field_raw("stats", &session.check_stats().to_json());
                            out.line(obj.finish());
                        }
                        None => {}
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    if let Some(sink) = &trace_sink {
                        let _ = sink.flush();
                    }
                    return ExitCode::from(EXIT_ITERATION_LIMIT);
                }
            },
            ScriptCommand::Model => match session.model() {
                Some(m) => {
                    if !config.quiet {
                        print_model(&mut out, session.problem(), m);
                    }
                }
                None => out.line("c no model"),
            },
        }
    }

    match config.stats {
        Some(StatsFormat::Human) => {
            eprintln!(
                "c cumulative ({} checks, {} lemmas retained): {}",
                session.checks(),
                session.lemmas_retained(),
                session.cumulative_stats()
            );
        }
        Some(StatsFormat::Json) => {
            let mut obj = JsonObject::new();
            obj.field_u64("checks", session.checks())
                .field_u64("lemmas_retained", session.lemmas_retained() as u64)
                .field_raw("cumulative", &session.cumulative_stats().to_json());
            out.line(obj.finish());
        }
        None => {}
    }
    if let Some(sink) = &trace_sink {
        let _ = sink.flush();
    }
    out.exit(last_exit.unwrap_or(0))
}

fn print_model(out: &mut Out, problem: &AbProblem, model: &absolver::core::AbModel) {
    for (id, var) in problem.arith_vars().iter().enumerate() {
        match model.arith.value_exact(id) {
            Some(exact) => out.line(format_args!("v {} = {}", var.name, exact)),
            None => out.line(format_args!(
                "v {} = {}",
                var.name,
                model.arith.value_f64(id).unwrap_or(f64::NAN)
            )),
        }
    }
}

/// Prints the sequential statistics in the requested format. JSON goes to
/// stdout (it is the machine-readable payload); the human form stays on
/// stderr as a `c`-prefixed comment.
fn print_stats(out: &mut Out, orc: &Orchestrator, format: StatsFormat) {
    match format {
        StatsFormat::Human => eprintln!("c stats: {}", orc.stats()),
        StatsFormat::Json => out.line(orc.stats().to_json()),
    }
}

/// JSON for a parallel run: the per-shard aggregate (phase times are not
/// meaningful across racing shards, so the object carries the shard
/// totals instead).
fn parallel_stats_json(stats: &ParallelStats) -> String {
    let iterations: u64 = stats.shards.iter().map(|s| s.boolean_iterations).sum();
    let theory_checks: u64 = stats.shards.iter().map(|s| s.theory_checks).sum();
    let mut obj = JsonObject::new();
    obj.field_u64("jobs", stats.jobs as u64)
        .field_u64("components", stats.components as u64)
        .field_u64("boolean_iterations", iterations)
        .field_u64("theory_checks", theory_checks)
        .field_bool("timed_out", stats.timed_out)
        .field_u64("elapsed_us", saturating_micros(stats.elapsed));
    match stats.winner {
        Some(w) => obj.field_u64("winner", w as u64),
        None => obj.field_raw("winner", "null"),
    };
    obj.finish()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("check") {
        return check_main(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("session") {
        return session_main(&argv[1..]);
    }
    let config = parse_args();
    let mut text = String::new();
    match &config.file {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(t) => text = t,
            Err(e) => {
                eprintln!("cannot read `{path}`: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        },
        None => {
            if std::io::stdin().read_to_string(&mut text).is_err() {
                eprintln!("cannot read stdin");
                return ExitCode::from(EXIT_ERROR);
            }
        }
    }
    let problem: AbProblem = match text.parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };

    let mut orc = build_orchestrator(&config);
    let trace_sink = match &config.trace {
        Some(path) => match FileSink::create(path) {
            Ok(sink) => {
                let sink = Arc::new(sink);
                orc.set_trace_sink(sink.clone());
                Some(sink)
            }
            Err(e) => {
                eprintln!("cannot open trace file `{path}`: {e}");
                return ExitCode::from(EXIT_ERROR);
            }
        },
        None => None,
    };
    let flush_trace = || {
        if let Some(sink) = &trace_sink {
            let _ = sink.flush();
        }
    };
    let mut out = Out::new();

    if let Some(max) = config.all_models {
        match orc.solve_all(&problem, max) {
            Ok((models, end)) => {
                let inconclusive = end == Outcome::Unknown;
                if !config.quiet {
                    out.line(format_args!("c {} model(s)", models.len()));
                    for (i, m) in models.iter().enumerate() {
                        out.line(format_args!("c model {}", i + 1));
                        print_model(&mut out, &problem, m);
                    }
                    if inconclusive && !models.is_empty() {
                        out.line("c enumeration incomplete");
                    }
                }
                if let Some(format) = config.stats {
                    print_stats(&mut out, &orc, format);
                }
                flush_trace();
                // Found models make the problem sat however the search
                // ended; with none, only an exhausted search means unsat.
                let (msg, code) = match (models.is_empty(), inconclusive) {
                    (false, _) => ("s SATISFIABLE", EXIT_SAT),
                    (true, true) => ("s UNKNOWN", EXIT_UNKNOWN),
                    (true, false) => ("s UNSATISFIABLE", EXIT_UNSAT),
                };
                out.line(msg);
                return out.exit(code);
            }
            Err(e) => {
                eprintln!("{e}");
                flush_trace();
                return ExitCode::from(EXIT_ITERATION_LIMIT);
            }
        }
    }

    let outcome = if let Some(jobs) = config.jobs {
        let mut base = OrchestratorOptions {
            time_limit: config.time_limit,
            ..Default::default()
        };
        if let Some(n) = config.max_iterations {
            base.max_iterations = n;
        }
        let popts = ParallelOptions {
            jobs,
            deterministic: config.deterministic,
            base,
        };
        match orc.solve_parallel(&problem, &popts) {
            Ok((o, pstats)) => {
                match config.stats {
                    Some(StatsFormat::Human) => {
                        eprintln!("c parallel: {pstats}");
                        for (i, (s, items)) in pstats.shards.iter().zip(&pstats.items).enumerate() {
                            eprintln!(
                                "c shard {i}: items={items} iterations={}{}{}",
                                s.boolean_iterations,
                                if s.cancelled { " cancelled" } else { "" },
                                if s.timed_out { " timed-out" } else { "" },
                            );
                        }
                    }
                    Some(StatsFormat::Json) => out.line(parallel_stats_json(&pstats)),
                    None => {}
                }
                o
            }
            Err(e) => {
                eprintln!("{e}");
                flush_trace();
                return ExitCode::from(EXIT_ITERATION_LIMIT);
            }
        }
    } else {
        match orc.solve(&problem) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{e}");
                if let Some(format) = config.stats {
                    print_stats(&mut out, &orc, format);
                }
                flush_trace();
                return out.exit(EXIT_ITERATION_LIMIT);
            }
        }
    };
    if config.jobs.is_none() {
        if let Some(format) = config.stats {
            print_stats(&mut out, &orc, format);
        }
    }
    flush_trace();
    let (msg, code) = verdict_line(&outcome);
    out.line(msg);
    if let Outcome::Sat(model) = &outcome {
        if !config.quiet {
            print_model(&mut out, &problem, model);
        }
    }
    out.exit(code)
}
