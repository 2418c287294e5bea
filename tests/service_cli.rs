//! End-to-end tests of the `absolverd` binary: the stdin/stdout line
//! protocol and the unix-socket front end.

use absolver::core::{parser, AbProblem, VarKind};
use absolver::linear::CmpOp;
use absolver::nonlinear::Expr;
use absolver::num::Rational;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

const ABSOLVERD: &str = env!("CARGO_BIN_EXE_absolverd");
const ABSOLVER: &str = env!("CARGO_BIN_EXE_absolver");

const PROBLEM: &str = "p cnf 2 2\n\
    1 0\n\
    2 0\n\
    c def real 1 x >= 1\n\
    c def real 2 x <= 3\n\
    c range x -10 10\n\
    .\n";

#[test]
fn stdin_protocol_round_trip() {
    let mut child = Command::new(ABSOLVERD)
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn absolverd");
    let mut stdin = child.stdin.take().expect("stdin piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped")).lines();
    let mut next_line = move || stdout.next().expect("line").expect("utf8 line");

    // Responses are asynchronous in general, but driving one command at
    // a time makes the exchange deterministic.
    stdin.write_all(b"ping\n").expect("write");
    assert_eq!(next_line(), "pong");

    stdin
        .write_all(format!("solve id=1\n{PROBLEM}").as_bytes())
        .expect("write");
    let ok1 = next_line();
    assert!(ok1.starts_with("ok id=1"), "{ok1}");
    assert!(ok1.contains("verdict=sat"), "{ok1}");
    assert!(ok1.contains("cache=cold"), "{ok1}");
    assert!(ok1.contains("model x="), "{ok1}");

    stdin
        .write_all(format!("solve id=2\n{PROBLEM}").as_bytes())
        .expect("write");
    let ok2 = next_line();
    assert!(ok2.starts_with("ok id=2"), "{ok2}");
    assert!(ok2.contains("verdict=sat"), "{ok2}");
    assert!(ok2.contains("cache=problem"), "{ok2}");

    stdin.write_all(b"bogus command\n").expect("write");
    let err = next_line();
    assert!(
        err.starts_with("err") && err.contains("code=proto"),
        "{err}"
    );

    stdin.write_all(b"stats\n").expect("write");
    let stats = next_line();
    assert!(stats.starts_with("stats "), "{stats}");
    assert!(stats.contains("\"problem_hits\":1"), "{stats}");
    assert!(stats.contains("\"completed\":2"), "{stats}");
    assert!(stats.contains("\"aborts\":0"), "{stats}");

    stdin.write_all(b"shutdown\n").expect("write");
    assert_eq!(next_line(), "bye");

    let status = child.wait().expect("absolverd exits");
    assert!(status.success(), "exit: {status:?}");
}

#[test]
fn stdin_eof_shuts_down_cleanly() {
    let output = Command::new(ABSOLVERD)
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map(|mut child| {
            // Close stdin with no input at all: EOF must end the daemon.
            drop(child.stdin.take());
            child.wait_with_output().expect("absolverd exits")
        })
        .expect("spawn absolverd");
    assert!(output.status.success(), "exit: {:?}", output.status);
}

#[test]
fn unix_socket_serves_and_shuts_down() {
    let dir = std::env::temp_dir().join(format!("absolverd-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let sock = dir.join("d.sock");

    let mut child = Command::new(ABSOLVERD)
        .args(["--workers", "1", "--socket"])
        .arg(&sock)
        .stdin(Stdio::piped()) // held open; the socket client drives shutdown
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn absolverd");

    // The socket appears asynchronously after startup.
    let mut stream = None;
    for _ in 0..100 {
        match std::os::unix::net::UnixStream::connect(&sock) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    let stream = stream.expect("connect to absolverd socket");
    let mut writer = stream.try_clone().expect("clone stream");
    writer
        .write_all(b"ping\nsolve id=7\np cnf 1 1\n1 0\n.\nshutdown\n")
        .expect("write");
    let reader = BufReader::new(stream);
    let lines: Vec<String> = reader.lines().map_while(Result::ok).collect();
    assert!(lines.iter().any(|l| l == "pong"), "{lines:?}");
    assert!(
        lines.iter().any(|l| l.starts_with("ok id=7 verdict=sat")),
        "{lines:?}"
    );
    assert_eq!(lines.last().map(String::as_str), Some("bye"), "{lines:?}");

    let status = child.wait().expect("absolverd exits after shutdown");
    assert!(status.success(), "exit: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends `input` to a one-worker daemon on stdin and returns its exit
/// status and stdout lines.
fn drive_daemon(input: &str) -> (std::process::ExitStatus, Vec<String>) {
    let mut child = Command::new(ABSOLVERD)
        .args(["--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn absolverd");
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin.write_all(input.as_bytes()).expect("write");
    drop(stdin);
    let output = child.wait_with_output().expect("absolverd exits");
    let lines = String::from_utf8_lossy(&output.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    (output.status, lines)
}

#[test]
fn long_sum_is_answered_not_a_stack_overflow() {
    // `x0 + x1 + …` nests one level per term, and the expression walks
    // recurse per level. On a default 2 MiB thread the debug daemon
    // overflows from about 400 terms and the release one at 3 000, which
    // the CLI's 8 MiB main thread answers; the daemon's threads get as
    // much.
    let terms = if cfg!(debug_assertions) { 600 } else { 3_000 };
    let sum: Vec<String> = (0..terms).map(|i| format!("x{i}")).collect();
    let input = format!(
        "solve id=1\np cnf 1 1\n1 0\nc def real 1 {} >= 1\n.\nshutdown\n",
        sum.join(" + ")
    );
    let (status, lines) = drive_daemon(&input);
    assert!(status.success(), "exit: {status:?}");
    assert!(
        lines.iter().any(|l| l.starts_with("ok id=1 verdict=sat")),
        "{lines:?}"
    );
    assert_eq!(lines.last().map(String::as_str), Some("bye"), "{lines:?}");
}

/// A body of the service traffic's family 0: fourteen `int` variables in
/// `[-1, 1]` whose sum is at least 8, coupled by `x0² + x1² ≤ 2`, with
/// the free atom `x2 ≥ 1` required.
fn service_family_body() -> String {
    let mut b = AbProblem::builder();
    let vars: Vec<usize> = (0..14)
        .map(|i| b.arith_var(&format!("x{i}"), VarKind::Int))
        .collect();
    let mut frees = Vec::new();
    for &v in &vars {
        frees.push(b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(1)));
        let lo = b.atom(Expr::var(v), CmpOp::Ge, Rational::from_int(-1));
        b.require(lo.positive());
        let hi = b.atom(Expr::var(v), CmpOp::Le, Rational::from_int(1));
        b.require(hi.positive());
    }
    let sum = vars.iter().fold(Expr::int(0), |acc, &v| acc + Expr::var(v));
    let target = b.atom(sum, CmpOp::Ge, Rational::from_int(8));
    b.require(target.positive());
    let square = |v: usize| Expr::var(v) * Expr::var(v);
    let coupling = b.atom(
        square(vars[0]) + square(vars[1]),
        CmpOp::Le,
        Rational::from_int(2),
    );
    b.require(coupling.positive());
    b.require(frees[2].positive());
    parser::write(&b.build())
}

/// Whether `value` is an integer as the model printers render one:
/// digits with an optional `-`, and no `-0`.
fn is_integer_literal(value: &str) -> bool {
    let digits = value.strip_prefix('-').unwrap_or(value);
    !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) && value != "-0"
}

#[test]
fn int_variables_get_exact_integers_from_the_cli_and_the_daemon() {
    let body = service_family_body();

    let mut child = Command::new(ABSOLVER)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn absolver");
    let mut stdin = child.stdin.take().expect("stdin piped");
    stdin.write_all(body.as_bytes()).expect("write");
    drop(stdin);
    let output = child.wait_with_output().expect("absolver exits");
    assert_eq!(output.status.code(), Some(10), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let values: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("v "))
        .map(|l| l.split(" = ").nth(1).expect("`v name = value`"))
        .collect();
    assert_eq!(values.len(), 14, "{stdout}");
    assert!(values.iter().all(|v| is_integer_literal(v)), "{stdout}");

    let (status, lines) = drive_daemon(&format!("solve id=1\n{body}.\nshutdown\n"));
    assert!(status.success(), "exit: {status:?}");
    let ok = lines
        .iter()
        .find(|l| l.starts_with("ok id=1 verdict=sat"))
        .unwrap_or_else(|| panic!("{lines:?}"));
    let (_, model) = ok.split_once(" model ").expect("model pairs");
    let values: Vec<&str> = model
        .split(' ')
        .map(|pair| pair.split_once('=').expect("name=value").1)
        .collect();
    assert_eq!(values.len(), 14, "{ok}");
    assert!(values.iter().all(|v| is_integer_literal(v)), "{ok}");
}
