//! Robustness fuzzing: none of the textual front ends may panic on
//! arbitrary input — malformed text must come back as a parse error.

use absolver_testkit::{gen, property};

property! {
    #![cases = 256]

    /// The extended DIMACS parser returns `Err`, never panics.
    fn ab_parser_never_panics(input in gen::ascii_string("\n\t", 0..=300)) {
        let _ = input.parse::<absolver::core::AbProblem>();
    }

    /// Structured-looking but corrupted definition lines.
    fn ab_parser_survives_mangled_defs(
        var in gen::ints(0u32..20),
        body in gen::string_from_charset("abcdefghijklmnopqrstuvwxyz0123456789+*/<>=. ()^-", 0..=60),
    ) {
        let text = format!("p cnf 3 1\n1 2 0\nc def int {var} {body}\n");
        let _ = text.parse::<absolver::core::AbProblem>();
    }

    /// The plain DIMACS layer never panics.
    fn dimacs_parser_never_panics(input in gen::ascii_string("\n", 0..=300)) {
        let _ = absolver::logic::dimacs::parse(&input);
    }

    /// The LUSTRE parser never panics.
    fn lustre_parser_never_panics(input in gen::ascii_string("\n", 0..=300)) {
        let _ = absolver::model::lustre::parse(&input);
    }

    /// LUSTRE with a plausible skeleton and a fuzzed equation body.
    fn lustre_parser_survives_mangled_equations(
        body in gen::string_from_charset("abcdefghijklmnopqrstuvwxyz0123456789+*/<>= ()-", 0..=60),
    ) {
        let text = format!("node f(a: real) returns (o: bool);\nlet o = {body}; tel");
        let _ = absolver::model::lustre::parse(&text);
    }

    /// Rational and BigInt parsers never panic.
    fn number_parsers_never_panic(input in gen::string_from_charset("0123456789./+-", 0..=40)) {
        let _ = input.parse::<absolver::num::Rational>();
        let _ = input.parse::<absolver::num::BigInt>();
    }
}

property! {
    #![cases = 64]

    /// Parallel solving never panics on degenerate pure-Boolean CNFs —
    /// including zero-variable, zero-clause, unit-conflicting, and
    /// trivially-UNSAT inputs — and its verdict matches sequential solve.
    /// Inputs whose variables fall apart run the component shards, the
    /// rest the portfolio.
    fn parallel_solve_survives_degenerate_cnfs(
        num_vars in gen::ints(0usize..=4),
        raw_clauses in gen::vec_of(gen::vec_of(gen::ints(-4i64..=4), 0..4), 0..6),
        jobs in gen::ints(1usize..=4),
    ) {
        use absolver::core::{Orchestrator, OrchestratorOptions};
        let mut text = String::new();
        let clauses: Vec<Vec<i64>> = raw_clauses
            .into_iter()
            .map(|c| {
                c.into_iter()
                    .filter(|&l| l != 0 && l.unsigned_abs() as usize <= num_vars)
                    .collect()
            })
            .collect();
        text.push_str(&format!("p cnf {num_vars} {}\n", clauses.len()));
        for c in &clauses {
            for l in c {
                text.push_str(&format!("{l} "));
            }
            // Zero-length clauses survive the filter: an empty clause line
            // is a legal trivially-UNSAT input.
            text.push_str("0\n");
        }
        let problem: absolver::core::AbProblem = text.parse().unwrap();
        let sequential = Orchestrator::with_defaults().solve(&problem).unwrap();
        let opts = OrchestratorOptions {
            jobs,
            deterministic: true,
            ..Default::default()
        };
        let outcome = Orchestrator::with_defaults().with_options(opts).solve(&problem).unwrap();
        assert_eq!(sequential.is_sat(), outcome.is_sat(), "jobs={jobs}: {text}");
        assert_eq!(sequential.is_unsat(), outcome.is_unsat(), "jobs={jobs}: {text}");
    }

    /// Parallel solving also survives problems with theory atoms whose
    /// CNF skeleton is already unsatisfiable (refuted before any theory
    /// check happens).
    fn parallel_solve_survives_bool_unsat_with_atoms(jobs in gen::ints(1usize..=4)) {
        use absolver::core::{Orchestrator, OrchestratorOptions};
        let text = "p cnf 2 3\n1 0\n-1 0\n2 0\nc def real 2 x >= 0\n";
        let problem: absolver::core::AbProblem = text.parse().unwrap();
        let opts = OrchestratorOptions {
            jobs,
            deterministic: true,
            ..Default::default()
        };
        let outcome = Orchestrator::with_defaults().with_options(opts).solve(&problem).unwrap();
        assert!(outcome.is_unsat());
    }
}

/// Error messages of the main front end are informative (mention what went
/// wrong), not just a generic failure.
#[test]
fn parse_errors_are_descriptive() {
    let err = "p cnf 1 1\n1 0\nc def bool 1 x >= 0\n"
        .parse::<absolver::core::AbProblem>()
        .unwrap_err();
    assert!(err.to_string().contains("int"), "{err}");
    let err = "p cnf 1 1\n1 0\nc def int 1 x >\n"
        .parse::<absolver::core::AbProblem>()
        .unwrap_err();
    assert!(err.to_string().contains("expected"), "{err}");
}

property! {
    #![cases = 256]

    /// The session script parser returns spanned diagnostics on arbitrary
    /// input, never panics.
    fn script_parser_never_panics(input in gen::ascii_string("\n\t", 0..=300)) {
        for (i, line) in input.lines().enumerate() {
            let _ = absolver::core::script::parse_script_line(line, i + 1);
        }
    }

    /// Plausible script commands with fuzzed operands (huge indices,
    /// broken ranges, mangled constraint bodies).
    fn script_parser_survives_mangled_commands(
        cmd in gen::from_slice(&["var", "range", "def", "assert", "push", "pop", "check", "model"]),
        body in gen::string_from_charset(
            "abcxyz0123456789+*/<>=. ()^-easdfnit realbo",
            0..=60,
        ),
    ) {
        let _ = absolver::core::script::parse_script_line(&format!("{cmd} {body}"), 1);
    }

    /// The absolverd request decoder is total over arbitrary bytes.
    fn service_decoder_never_panics(input in gen::ascii_string("\n\t=.", 0..=300)) {
        let mut decoder = absolver::service::RequestDecoder::new();
        for line in input.lines() {
            let _ = decoder.push_line(line);
        }
    }

    /// Plausible solve headers with fuzzed option values.
    fn service_decoder_survives_mangled_headers(
        key in gen::from_slice(&["id", "timeout_ms", "priority", "bogus", ""]),
        value in gen::string_from_charset("0123456789abchighnormalw=-", 0..=20),
        body in gen::ascii_string("\n", 0..=80),
    ) {
        let mut decoder = absolver::service::RequestDecoder::new();
        let _ = decoder.push_line(&format!("solve {key}={value}"));
        for line in body.lines() {
            let _ = decoder.push_line(line);
        }
        let _ = decoder.push_line(".");
    }
}
