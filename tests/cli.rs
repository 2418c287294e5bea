//! End-to-end tests of the `absolver` command-line binary: documented
//! exit codes, `--stats json` machine-readable output, and `--trace`
//! JSONL emission.
//!
//! Exit-code contract (also printed by `absolver --help`):
//! 10 sat, 20 unsat, 30 unknown, 40 iteration limit, 2 usage/parse error.

use std::io::Write;
use std::process::{Command, Output, Stdio};

const FIG2: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fig2.dimacs");

fn absolver() -> Command {
    Command::new(env!("CARGO_BIN_EXE_absolver"))
}

/// Runs the binary with `input` piped to stdin and returns the output.
fn run_stdin(args: &[&str], input: &str) -> Output {
    let mut child = absolver()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn absolver");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("wait for absolver")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("process exited normally")
}

#[test]
fn sat_input_exits_10() {
    let out = absolver().arg(FIG2).output().expect("run absolver");
    assert_eq!(
        exit_code(&out),
        10,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("s SATISFIABLE"), "stdout: {stdout}");
}

#[test]
fn unsat_input_exits_20() {
    let out = run_stdin(&[], "p cnf 1 2\n1 0\n-1 0\n");
    assert_eq!(exit_code(&out), 20);
    assert!(String::from_utf8_lossy(&out.stdout).contains("s UNSATISFIABLE"));
}

#[test]
fn unknown_verdict_exits_30() {
    // The penalty engine alone cannot refute x*x <= -1, so the solver
    // must admit Unknown rather than claim a verdict.
    let input = "p cnf 1 1\n1 0\nc def real 1 x * x <= -1\nc range x -10 10\n";
    let out = run_stdin(&["--nonlinear", "penalty"], input);
    assert_eq!(
        exit_code(&out),
        30,
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("s UNKNOWN"));
}

#[test]
fn all_models_inconclusive_is_unknown_not_unsat() {
    // Fig. 2 is satisfiable: an enumeration that found no model because
    // its time ran out must not claim unsat.
    let out = absolver()
        .args(["--all-models", "3", "--time-limit", "0", FIG2])
        .output()
        .expect("run absolver");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 30, "stdout: {stdout}");
    assert!(stdout.contains("s UNKNOWN"), "stdout: {stdout}");
    assert!(!stdout.contains("s UNSATISFIABLE"), "stdout: {stdout}");
    // Asking for zero models is a usage error, not an empty enumeration.
    let out = absolver()
        .args(["--all-models", "0", FIG2])
        .output()
        .expect("run absolver");
    assert_eq!(exit_code(&out), 2);
    assert!(!String::from_utf8_lossy(&out.stdout).contains("s UNSATISFIABLE"));
}

#[test]
fn all_models_flags_an_incomplete_enumeration() {
    // The penalty engine decides the models where atom 2 is false but
    // never the one where it is true: two models, then an open end.
    let input =
        "p cnf 2 1\n1 -2 0\nc def real 1 x >= 0\nc def real 2 y * y <= -1\nc range y -10 10\n";
    let out = run_stdin(&["--all-models", "5", "--nonlinear", "penalty"], input);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 10, "stdout: {stdout}");
    assert!(stdout.contains("c 2 model(s)"), "stdout: {stdout}");
    assert!(
        stdout.contains("c enumeration incomplete"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("s SATISFIABLE"), "stdout: {stdout}");
}

#[test]
fn all_models_remembers_models_left_open_by_an_earlier_call() {
    // The Boolean model {¬1, 2} asks for (x − y)² < −0.001, which no pass
    // settles. The enumeration finds {1, ¬2} in a later control-loop run
    // and must still know that {¬1, 2} was never decided.
    let input = "p cnf 2 2\n1 2 0\n-1 -2 0\nc def real 1 z >= 1\n\
        c def real 2 x * x - 2 * x * y + y * y < -0.001\n\
        c range x -10 10\nc range y -10 10\nc range z -10 10\n";
    let out = run_stdin(&["--all-models", "10", "--stats", "json"], input);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(exit_code(&out), 10, "stdout: {stdout}");
    assert!(stdout.contains("c 1 model(s)"), "stdout: {stdout}");
    assert!(
        stdout.contains("c enumeration incomplete"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("\"escalated_checks\":1"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("s SATISFIABLE"), "stdout: {stdout}");
}

#[test]
fn iteration_limit_exits_40() {
    let out = absolver()
        .args(["--max-iterations", "0", FIG2])
        .output()
        .expect("run");
    assert_eq!(
        exit_code(&out),
        40,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `--max-iterations` caps the whole solve, not each component: the four
/// components of components 4×40 take 23 Boolean models each, 92 in all,
/// so a cap of 30 runs out in the second, with or without `--jobs 1`,
/// and a cap of 200 does not.
#[test]
fn iteration_limit_bounds_the_components_together() {
    let four =
        absolver::core::parser::write(&absolver_bench::workloads::decomposable_problem(4, 40));
    // Unpinned shards draw components in an order that varies run to run,
    // so only `--deterministic` makes a capped `--jobs 2` run repeatable.
    for jobs in [
        &[][..],
        &["--jobs", "1"][..],
        &["--jobs", "2", "--deterministic"][..],
    ] {
        for (cap, code) in [("30", 40), ("200", 10)] {
            let args = [jobs, &["--quiet", "--max-iterations", cap][..]].concat();
            assert_eq!(exit_code(&run_stdin(&args, &four)), code, "{args:?}");
        }
    }
}

#[test]
fn parse_error_exits_2() {
    let out = run_stdin(&[], "this is not dimacs\n");
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn removed_flags_are_unknown_options() {
    // The theory-verdict and contraction caches are gone, and so are the
    // parallel strategy switch and the preprocessing switches: each is
    // now a usage error like any other unknown flag. (The names are
    // assembled so no source line still spells a removed flag.)
    let theory = format!("--no-{}-cache", "theory");
    let contraction = format!("--no-{}-cache", "contraction");
    let preprocess = format!("--{}", "preprocess");
    let no_preprocess = format!("--no-{}", "preprocess");
    for args in [
        vec![theory.as_str(), FIG2],
        vec![contraction.as_str(), FIG2],
        vec!["session", theory.as_str()],
        vec!["--strategy", "cubes", FIG2],
        vec![preprocess.as_str(), FIG2],
        vec![no_preprocess.as_str(), FIG2],
    ] {
        let out = run_stdin(&args, "");
        assert_eq!(exit_code(&out), 2, "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
    }
}

#[test]
fn backend_flags_are_rejected_with_jobs() {
    // The parallel shards build their own backends, so each of these
    // flags would be ignored under `--jobs`: it is a usage error that
    // names the flag instead.
    for (flag, value) in [
        ("--boolean", "restart"),
        ("--nonlinear", "interval"),
        ("--contractors", "hc4"),
        ("--nl-jobs", "2"),
    ] {
        let out = run_stdin(&["--jobs", "2", flag, value, FIG2], "");
        assert_eq!(exit_code(&out), 2, "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("`{flag}` cannot be combined with `--jobs`")),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: no verdict is printed");
    }
    // Without `--jobs` the same flags solve as usual.
    let out = run_stdin(&["--nonlinear", "interval", FIG2], "");
    assert_eq!(exit_code(&out), 10);
}

#[test]
fn near_miss_directive_is_a_parse_error() {
    // Satellite regression: a misspelled directive must be a hard error,
    // not a silently ignored comment that flips the verdict.
    let input = "p cnf 1 1\n1 0\nc dff int 1 i >= 0\n";
    let out = run_stdin(&[], input);
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("misspelled"), "stderr: {stderr}");
}

#[test]
fn stats_json_emits_one_valid_object_with_phase_timings() {
    let out = absolver()
        .args(["--stats", "json", FIG2])
        .output()
        .expect("run");
    assert_eq!(exit_code(&out), 10);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("a JSON stats line on stdout");
    assert!(json_line.ends_with('}'));
    for key in [
        "\"boolean_iterations\":",
        "\"theory_checks\":",
        "\"simplex_pivots\":",
        "\"hc4_contractions\":",
        "\"local_search_steps\":",
        "\"phase\":{",
        "\"setup_us\":",
        "\"boolean_us\":",
        "\"linear_us\":",
        "\"nonlinear_us\":",
        "\"conflict_min_us\":",
        "\"elapsed_us\":",
    ] {
        assert!(json_line.contains(key), "missing {key} in {json_line}");
    }
    // No pretty-printing, no trailing garbage: exactly one object.
    assert_eq!(json_line.matches("\"elapsed_us\":").count(), 1);

    // The human line on stderr names the same phases.
    let out = absolver()
        .args(["--stats", "human", FIG2])
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with("c stats: "))
        .expect("a human stats line on stderr");
    for key in [
        " setup=",
        " boolean=",
        " linear=",
        " nonlinear=",
        " elapsed=",
    ] {
        assert!(line.contains(key), "missing {key} in {line}");
    }
}

#[test]
fn stats_json_counts_local_search_steps() {
    // No start point satisfies the equality, so the penalty engine has to
    // descend to its witness.
    let input = "p cnf 1 1\n1 0\nc def real 1 x * x = 2\nc range x -10 10\n";
    let out = run_stdin(&["--nonlinear", "penalty", "--stats", "json"], input);
    assert_eq!(exit_code(&out), 10);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("a JSON stats line on stdout");
    let steps: u64 = json_line
        .split("\"local_search_steps\":")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("no local_search_steps in {json_line}"));
    assert!(steps > 0, "{json_line}");
}

#[test]
fn int_witness_is_snapped_and_rechecked() {
    // x = 0 is the only integer the descent's near-zero witness rounds
    // to, and it breaks the strict x·x > 0: the answer may be `x = ±1` or
    // unknown, never `x = 0` or a fractional value.
    let input = "p cnf 3 3\n1 0\n2 0\n3 0\nc def int 1 x * x > 0\n\
                 c def int 2 x >= -1\nc def int 3 x <= 1\n";
    for args in [&[][..], &["--nonlinear", "penalty"][..]] {
        let out = run_stdin(args, input);
        let stdout = String::from_utf8_lossy(&out.stdout);
        match exit_code(&out) {
            10 => assert!(
                stdout.contains("v x = 1\n") || stdout.contains("v x = -1\n"),
                "{args:?}: {stdout}"
            ),
            30 => {}
            code => panic!("{args:?}: exit {code}: {stdout}"),
        }
    }
}

#[test]
fn stats_json_works_in_parallel_mode() {
    let out = absolver()
        .args(["--jobs", "2", "--stats", "json", FIG2])
        .output()
        .expect("run");
    assert_eq!(exit_code(&out), 10);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("a JSON stats line on stdout");
    for key in [
        "\"jobs\":",
        "\"components\":",
        "\"boolean_iterations\":",
        "\"theory_checks\":",
        "\"timed_out\":",
        "\"elapsed_us\":",
        "\"winner\":",
    ] {
        assert!(json_line.contains(key), "missing {key} in {json_line}");
    }
}

#[test]
fn trace_flag_writes_jsonl_events() {
    let dir = std::env::temp_dir().join(format!("absolver-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let trace_path = dir.join("fig2.trace.jsonl");
    let out = absolver()
        .args(["--trace", trace_path.to_str().unwrap(), FIG2])
        .output()
        .expect("run");
    assert_eq!(exit_code(&out), 10);
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    let lines: Vec<&str> = trace.lines().collect();
    assert!(!lines.is_empty(), "trace must not be empty");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not JSONL: {line}"
        );
    }
    assert!(trace.contains("\"kind\":\"solve.start\""));
    assert!(trace.contains("\"kind\":\"solve.end\""));
    assert!(trace.contains("\"kind\":\"theory.check\""));
    std::fs::remove_dir_all(&dir).ok();
}

const MALFORMED: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/analyze/malformed.dimacs"
);
const LINTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/analyze/lints.dimacs");

#[test]
fn check_clean_input_exits_0() {
    let out = absolver().args(["check", FIG2]).output().expect("run");
    assert_eq!(
        exit_code(&out),
        0,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 error(s), 0 warning(s)"),
        "stdout: {stdout}"
    );
}

#[test]
fn check_warnings_exit_3() {
    let out = absolver().args(["check", LINTS]).output().expect("run");
    assert_eq!(exit_code(&out), 3);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Compiler-style anchors: file:line:col: severity[code]: message.
    assert!(stdout.contains(":5:1: warning[AB006]:"), "stdout: {stdout}");
    assert!(
        stdout.contains("0 error(s), 6 warning(s)"),
        "stdout: {stdout}"
    );
}

#[test]
fn check_errors_exit_4_with_stable_json() {
    let out = absolver()
        .args(["check", "--json", MALFORMED])
        .output()
        .expect("run");
    assert_eq!(exit_code(&out), 4);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let expected = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/analyze/malformed.expected.json"
    ))
    .expect("golden file");
    assert_eq!(stdout.trim_end(), expected.trim_end());
}

#[test]
fn check_reads_stdin() {
    let out = run_stdin(&["check"], "p cnf 1 1\n1 -1 0\n");
    assert_eq!(exit_code(&out), 3);
    assert!(String::from_utf8_lossy(&out.stdout).contains("<stdin>:2:1: warning[AB006]"));
}

#[test]
fn check_missing_file_exits_2() {
    let out = absolver()
        .args(["check", "/no/such/file.dimacs"])
        .output()
        .expect("run");
    assert_eq!(exit_code(&out), 2);
}

/// No preprocessor runs by default, but the `preprocess` object keeps
/// its keys, reading 0.
#[test]
fn preprocess_stats_appear_in_json() {
    let out = absolver()
        .args(["--stats", "json", "--quiet", FIG2])
        .output()
        .expect("run");
    assert_eq!(exit_code(&out), 10);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .expect("stats JSON");
    for key in [
        "\"preprocess\":{",
        "\"vars_eliminated\":",
        "\"ranges_tightened\":",
        "\"time_us\":",
    ] {
        assert!(json_line.contains(key), "missing {key} in {json_line}");
    }
    assert!(
        json_line.contains(
            "\"preprocess\":{\"vars_eliminated\":0,\"clauses_eliminated\":0,\
             \"atoms_eliminated\":0,\"ranges_tightened\":0,\"time_us\":0}"
        ),
        "{json_line}"
    );
}

/// The `"components"` count of the `--stats json` line of a run on
/// `input` with `args`.
fn stats_components(args: &[&str], input: &str) -> u64 {
    let out = run_stdin(args, input);
    assert_eq!(exit_code(&out), 10, "{args:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .and_then(|json| json.split("\"components\":").nth(1))
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("{args:?}: no components in {stdout}"))
}

/// The sequential solve and `--jobs 2` partition the same problem: a
/// sudoku that is one component, and four independent threshold
/// instances.
#[test]
fn sequential_and_parallel_runs_report_one_partition() {
    use absolver::core::parser;
    use absolver_bench::sudoku::{encode_mixed, table3_suite};
    let sudoku_hard = parser::write(&encode_mixed(&table3_suite()[0].1));
    let four = parser::write(&absolver_bench::workloads::decomposable_problem(4, 40));
    for (input, components) in [(&sudoku_hard, 1), (&four, 4)] {
        for args in [
            &["--stats", "json", "--quiet"][..],
            &["--jobs", "2", "--stats", "json", "--quiet"][..],
        ] {
            assert_eq!(stats_components(args, input), components, "{args:?}");
        }
    }
}

// ----------------------------------------------------------------------
// `absolver session` — the line-oriented incremental script mode
// ----------------------------------------------------------------------

/// A push/pop script whose three checks go sat → unsat → sat.
const SESSION_SCRIPT: &str = "\
# incremental script
var real x
def real 1 x >= 0
assert 1
check
model
push
def real 2 x <= -1
assert 2
check
pop
check
model
";

#[test]
fn session_reads_stdin_and_exits_with_last_check() {
    let out = run_stdin(&["session"], SESSION_SCRIPT);
    assert_eq!(
        exit_code(&out),
        10,
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let verdicts: Vec<&str> = stdout.lines().filter(|l| l.starts_with("s ")).collect();
    assert_eq!(
        verdicts,
        ["s SATISFIABLE", "s UNSATISFIABLE", "s SATISFIABLE"],
        "stdout: {stdout}"
    );
    // Both `model` commands fall on satisfiable checks.
    assert_eq!(stdout.matches("v x = ").count(), 2, "stdout: {stdout}");
}

#[test]
fn session_reads_a_script_file() {
    let dir = std::env::temp_dir().join(format!("absolver-cli-session-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("script.abs");
    std::fs::write(&path, "assert 1\nassert -1\ncheck\n").expect("write script");
    let out = absolver()
        .args(["session", path.to_str().unwrap()])
        .output()
        .expect("run");
    assert_eq!(exit_code(&out), 20);
    assert!(String::from_utf8_lossy(&out.stdout).contains("s UNSATISFIABLE"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_without_checks_exits_0() {
    let out = run_stdin(&["session"], "var real x\npush\npop\n");
    assert_eq!(exit_code(&out), 0);
}

#[test]
fn session_unknown_command_is_ab020() {
    let out = run_stdin(&["session"], "check\nfrobnicate 1 2\n");
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("<stdin>:2:1: error[AB020]:"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("frobnicate"), "stderr: {stderr}");
}

#[test]
fn session_malformed_command_is_ab021_with_span() {
    // The parse error points into the constraint body, not at column 1.
    let out = run_stdin(&["session"], "var real x\ndef real 1 x >=\n");
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("<stdin>:2:16: error[AB021]:"),
        "stderr: {stderr}"
    );
}

#[test]
fn session_undeclared_variable_is_ab021() {
    let out = run_stdin(&["session"], "range nope 0 1\n");
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error[AB021]:") && stderr.contains("nope"),
        "stderr: {stderr}"
    );
}

#[test]
fn session_pop_without_frame_is_ab022() {
    let out = run_stdin(&["session"], "push\npop\npop\n");
    assert_eq!(exit_code(&out), 2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("<stdin>:3:1: error[AB022]:"),
        "stderr: {stderr}"
    );
}

#[test]
fn session_stats_json_emits_per_check_and_cumulative_blocks() {
    let out = run_stdin(&["session", "--stats", "json"], SESSION_SCRIPT);
    assert_eq!(exit_code(&out), 10);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let json_lines: Vec<&str> = stdout.lines().filter(|l| l.starts_with('{')).collect();
    // Three per-check blocks plus one cumulative block, all one-line JSON.
    assert_eq!(json_lines.len(), 4, "stdout: {stdout}");
    for (i, expected) in [("1", "sat"), ("2", "unsat"), ("3", "sat")]
        .iter()
        .enumerate()
    {
        let line = json_lines[i];
        assert!(
            line.contains(&format!("\"check\":{}", expected.0))
                && line.contains(&format!("\"verdict\":\"{}\"", expected.1))
                && line.contains("\"depth\":")
                && line.contains("\"stats\":{")
                && line.contains("\"elapsed_us\":"),
            "check block {i}: {line}"
        );
    }
    let cumulative = json_lines[3];
    for key in [
        "\"checks\":3",
        "\"lemmas_retained\":",
        "\"cumulative\":{",
        "\"theory_checks\":",
    ] {
        assert!(cumulative.contains(key), "missing {key} in {cumulative}");
    }
}

#[test]
fn session_quiet_suppresses_models_but_not_verdicts() {
    let out = run_stdin(&["session", "--quiet"], SESSION_SCRIPT);
    assert_eq!(exit_code(&out), 10);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().filter(|l| l.starts_with("s ")).count(), 3);
    assert!(!stdout.contains("v x = "), "stdout: {stdout}");
}

#[test]
fn help_documents_exit_codes() {
    let out = absolver().arg("--help").output().expect("run");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    for needle in ["10 sat", "20 unsat", "30 unknown", "40 iteration limit"] {
        assert!(text.contains(needle), "--help must document `{needle}`");
    }
}

/// A reader that went away (`absolver --stats json FILE | head -1`) must
/// not panic the CLI. Stdout is a pipe whose read end is already closed,
/// so every write fails with `BrokenPipe`; each run still exits with the
/// code of the verdict (or check result) it reached.
#[test]
fn closed_stdout_exits_with_the_verdict_code() {
    let runs: [(&[&str], i32); 3] = [
        (&[FIG2], 10),
        (&["--stats", "json", FIG2], 10),
        (&["check", FIG2], 0),
    ];
    for (args, code) in runs {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = absolver()
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("run absolver");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(exit_code(&out), code, "{args:?}: stderr: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: stderr: {stderr}");
    }
}
