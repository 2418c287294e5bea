//! Golden-file tests for the static analyzer: each checked-in
//! `tests/analyze/*.dimacs` input must produce byte-identical JSON to its
//! `*.expected.json` sibling, so diagnostic codes, spans, and messages
//! are a stable machine-readable interface.

use absolver::analyze::{check_source, Code, Severity};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/analyze/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn golden(name: &str) {
    let input = fixture(&format!("{name}.dimacs"));
    let expected = fixture(&format!("{name}.expected.json"));
    let report = check_source(&input);
    assert_eq!(
        report.render_json(),
        expected.trim_end(),
        "golden mismatch for tests/analyze/{name}.dimacs — if the change is \
         intentional, regenerate with `absolver check --json`"
    );
}

#[test]
fn malformed_input_matches_golden_json() {
    golden("malformed");
}

#[test]
fn lints_input_matches_golden_json() {
    golden("lints");
}

#[test]
fn malformed_input_is_a_single_spanned_error() {
    let report = check_source(&fixture("malformed.dimacs"));
    assert_eq!(report.errors(), 1);
    assert_eq!(report.warnings(), 0);
    let d = &report.diagnostics[0];
    assert_eq!(d.severity, Severity::Error);
    assert!(
        d.span.line > 0 && d.span.col > 0,
        "parse errors must carry a span"
    );
}

#[test]
fn paper_example_is_clean() {
    let input =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/fig2.dimacs"))
            .unwrap();
    let report = check_source(&input);
    assert!(
        report.is_clean(),
        "fig2 must lint clean, got:\n{}",
        report.render_human("fig2")
    );
}

#[test]
fn subsumption_fixture_matches_golden_json() {
    golden("subsume");
    let report = check_source(&fixture("subsume.dimacs"));
    for code in [Code::AB013, Code::AB014, Code::AB015, Code::AB016] {
        assert!(
            report.diagnostics.iter().any(|d| d.code == code),
            "subsume.dimacs must trigger {code:?}"
        );
    }
    assert_eq!(report.errors(), 0, "subsumption lints are warnings");
}

#[test]
fn static_unsat_fixture_matches_golden_json() {
    golden("staticunsat");
    let report = check_source(&fixture("staticunsat.dimacs"));
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::AB017)
        .expect("staticunsat.dimacs must trigger AB017");
    assert_eq!(
        d.severity,
        Severity::Error,
        "AB017 is an error: the input is unsatisfiable"
    );
}

#[test]
fn declared_range_miss_fixture_matches_golden_json() {
    golden("declared_miss");
    let report = check_source(&fixture("declared_miss.dimacs"));
    assert!(
        report.diagnostics.iter().any(|d| d.code == Code::AB018),
        "declared_miss.dimacs must trigger AB018"
    );
    assert_eq!(report.errors(), 0, "AB018 is suspicion, not refutation");
}

/// Diagnostics print constraints with the problem's own names, even names
/// that look like the internal `v<id>` ones: here `v1` is variable 0 and
/// `v0` variable 1.
#[test]
fn diagnostics_keep_names_that_look_like_variable_ids() {
    let input = "p cnf 1 1\n1 0\nc var real v1\nc var real v0\n\
                 c def real 1 v0 + 2 * v1 >= 1\nc def real 1 v0 + 2 * v1 >= 1\n";
    let report = check_source(input);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::AB002)
        .expect("the repeated constraint triggers AB002");
    assert!(
        d.message
            .ends_with("repeats the constraint `v0 + 2 * v1 >= 1`"),
        "{}",
        d.message
    );
}
