//! The diagnostic passes (the compiler-style half of the analyzer).
//!
//! [`check_source`] parses an extended-DIMACS text and runs every pass,
//! anchoring findings on the [`SourceMap`] the parser collected; the
//! result is a [`Report`] renderable in human or JSON form. See the
//! crate docs for the code table.

use crate::dataflow::{dataflow, Dataflow, DataflowVerdict};
use crate::diag::{Code, Diagnostic, Report, StructureSummary};
use crate::structure::{cross_def_duplicates, prune_conjunction, subsumed_clauses};
use absolver_core::{parse_spanned, AbProblem, Partition, SourceMap, Span};
use absolver_logic::Lit;
use absolver_nonlinear::IntervalVerdict;
use absolver_num::Interval;
use std::collections::HashMap;

/// Parses `text` and runs all diagnostic passes. A parse failure yields a
/// single [`Code::AB001`] error carrying the parser's span.
pub fn check_source(text: &str) -> Report {
    match parse_spanned(text) {
        Ok((problem, map)) => check_problem(&problem, &map),
        Err(e) => {
            let mut report = Report::default();
            let span = e.span().unwrap_or(Span::new(1, 1));
            report.push(Diagnostic::new(Code::AB001, span, e.message()));
            report
        }
    }
}

/// Runs all diagnostic passes over an already-parsed problem and its
/// source map.
pub fn check_problem(problem: &AbProblem, map: &SourceMap) -> Report {
    let mut report = Report::default();
    check_defs(problem, map, &mut report);
    check_ranges(problem, map, &mut report);
    check_declared_vars(problem, map, &mut report);
    check_clauses(problem, map, &mut report);
    check_static_atoms(problem, map, &mut report);
    let subsumed = check_subsumption(problem, map, &mut report);
    let df = check_dataflow(problem, map, &mut report);
    report.structure = Some(structure_summary(problem, subsumed, &df));
    report.sort();
    report
}

/// Renders a constraint with the problem's variable names.
fn pretty(problem: &AbProblem, constraint: &absolver_nonlinear::NlConstraint) -> String {
    let names: Vec<String> = problem
        .arith_vars()
        .iter()
        .map(|v| v.name.clone())
        .collect();
    format!(
        "{} {} {}",
        constraint.expr().with_names(&names),
        constraint.op,
        constraint.rhs
    )
}

/// First `def` directive span per Boolean variable.
fn first_def_sites(map: &SourceMap) -> HashMap<u32, Span> {
    let mut first: HashMap<u32, Span> = HashMap::new();
    for site in &map.def_sites {
        first.entry(site.var).or_insert(site.span);
    }
    first
}

/// AB002 (duplicate constraint in one def), AB003 (def never in a
/// clause), AB005 (shadowed def).
fn check_defs(problem: &AbProblem, map: &SourceMap, report: &mut Report) {
    let first = first_def_sites(map);
    let site_of = |var: u32, constraint: usize| {
        map.def_sites
            .iter()
            .find(|s| s.var == var && s.constraint == constraint)
            .map(|s| s.span)
            .unwrap_or(Span::new(1, 1))
    };

    // AB002: repeated constraint within one definition's conjunction.
    // Hash-consing makes this an id comparison — no O(n²) re-rendering.
    for (var, def) in problem.defs() {
        let mut seen: HashMap<u32, usize> = HashMap::new();
        for (j, c) in def.constraints.iter().enumerate() {
            if let std::collections::hash_map::Entry::Vacant(slot) = seen.entry(c.cid().raw()) {
                slot.insert(j);
            } else {
                let v = var.index() as u32;
                report.push(Diagnostic::new(
                    Code::AB002,
                    site_of(v, j),
                    format!(
                        "definition of variable {} repeats the constraint `{}`",
                        v + 1,
                        pretty(problem, c)
                    ),
                ));
            }
        }
    }

    // AB003: defined variable that no clause ever mentions — the solver
    // will pick its polarity freely, which is rarely what a generator
    // meant to emit.
    let mut occurs = vec![false; problem.cnf().num_vars()];
    for clause in problem.cnf().clauses() {
        for lit in clause.lits() {
            occurs[lit.var().index()] = true;
        }
    }
    for (var, _) in problem.defs() {
        if !occurs[var.index()] {
            let v = var.index() as u32;
            report.push(Diagnostic::new(
                Code::AB003,
                first.get(&v).copied().unwrap_or(Span::new(1, 1)),
                format!("variable {} is defined but occurs in no clause", v + 1),
            ));
        }
    }

    // AB005: two Boolean variables carrying identical conjunctions. The
    // later one shadows the earlier — almost always a generator slip.
    // Keyed on sorted interned constraint ids (structural equality is id
    // equality since the arena).
    let mut canon: HashMap<Vec<u32>, u32> = HashMap::new();
    for (var, def) in problem.defs() {
        let v = var.index() as u32;
        let mut key: Vec<u32> = def.constraints.iter().map(|c| c.cid().raw()).collect();
        key.sort_unstable();
        match canon.get(&key) {
            Some(&earlier) => {
                report.push(Diagnostic::new(
                    Code::AB005,
                    first.get(&v).copied().unwrap_or(Span::new(1, 1)),
                    format!(
                        "definition of variable {} is identical to the definition \
                         of variable {}",
                        v + 1,
                        earlier + 1
                    ),
                ));
            }
            None => {
                canon.insert(key, v);
            }
        }
    }
}

/// AB004: `range` directives whose intersection is empty.
fn check_ranges(problem: &AbProblem, map: &SourceMap, report: &mut Report) {
    let mut last: HashMap<usize, Span> = HashMap::new();
    for site in &map.range_sites {
        last.insert(site.var, site.span);
    }
    for (&var, &span) in &last {
        if problem.arith_vars()[var].range.is_empty() {
            report.push(Diagnostic::new(
                Code::AB004,
                span,
                format!(
                    "range directives for `{}` contradict each other \
                     (their intersection is empty)",
                    problem.arith_vars()[var].name
                ),
            ));
        }
    }
}

/// AB012: `var` directives for variables no definition uses.
fn check_declared_vars(problem: &AbProblem, map: &SourceMap, report: &mut Report) {
    let mut used = vec![false; problem.arith_vars().len()];
    for (_, def) in problem.defs() {
        for c in &def.constraints {
            for &v in c.variables() {
                used[v] = true;
            }
        }
    }
    for &(var, span) in &map.var_sites {
        if !used[var] {
            report.push(Diagnostic::new(
                Code::AB012,
                span,
                format!(
                    "arithmetic variable `{}` is declared but used in no definition",
                    problem.arith_vars()[var].name
                ),
            ));
        }
    }
}

/// AB006 (tautological clause), AB007 (empty clause / complementary
/// units), AB008 (variable beyond the declared header), AB009 (duplicate
/// clause).
fn check_clauses(problem: &AbProblem, map: &SourceMap, report: &mut Report) {
    let span_of = |i: usize| map.clause_spans.get(i).copied().unwrap_or(Span::new(1, 1));
    let mut units: HashMap<usize, (bool, usize)> = HashMap::new();
    let mut seen: HashMap<Vec<usize>, usize> = HashMap::new();
    for (i, clause) in problem.cnf().clauses().iter().enumerate() {
        if clause.is_empty() {
            report.push(Diagnostic::new(
                Code::AB007,
                span_of(i),
                format!("clause {} is empty (the formula is unsatisfiable)", i + 1),
            ));
            continue;
        }
        if clause.is_tautology() {
            report.push(Diagnostic::new(
                Code::AB006,
                span_of(i),
                format!(
                    "clause {} is tautological (contains a literal and its negation)",
                    i + 1
                ),
            ));
        }
        if let Some(declared) = map.declared_vars {
            if let Some(lit) = clause.iter().find(|l| l.var().index() >= declared) {
                report.push(Diagnostic::new(
                    Code::AB008,
                    span_of(i),
                    format!(
                        "clause {} mentions variable {} beyond the declared {} variable(s)",
                        i + 1,
                        lit.var().index() + 1,
                        declared
                    ),
                ));
            }
        }
        if clause.len() == 1 {
            let lit = clause.lits()[0];
            match units.get(&lit.var().index()) {
                Some(&(polarity, j)) if polarity != lit.is_positive() => {
                    report.push(Diagnostic::new(
                        Code::AB007,
                        span_of(i),
                        format!(
                            "unit clause {} contradicts unit clause {} \
                             (the formula is unsatisfiable)",
                            i + 1,
                            j + 1
                        ),
                    ));
                }
                Some(_) => {}
                None => {
                    units.insert(lit.var().index(), (lit.is_positive(), i));
                }
            }
        }
        let mut key: Vec<usize> = clause.iter().map(|l| l.code()).collect();
        key.sort_unstable();
        key.dedup();
        match seen.get(&key) {
            Some(&j) => {
                report.push(Diagnostic::new(
                    Code::AB009,
                    span_of(i),
                    format!("clause {} duplicates clause {}", i + 1, j + 1),
                ));
            }
            None => {
                seen.insert(key, i);
            }
        }
    }
}

/// AB010/AB011: theory atoms statically decided by a root interval pass
/// over the *declared* box. These are warnings, not rewrites: declared
/// ranges only seed the nonlinear engine's search box, so a declared-box
/// certainty flags suspicious input without licensing simplification
/// (the equisatisfiable simplifier uses entire-box certainty instead).
fn check_static_atoms(problem: &AbProblem, map: &SourceMap, report: &mut Report) {
    let first = first_def_sites(map);
    let declared: Vec<Interval> = problem.arith_vars().iter().map(|v| v.range).collect();
    for (var, def) in problem.defs() {
        // An empty declared range already carries its own AB004 error;
        // interval evaluation over it would flag every dependent atom.
        let touches_empty = def
            .constraints
            .iter()
            .any(|c| c.variables().iter().any(|&v| declared[v].is_empty()));
        if touches_empty || def.constraints.is_empty() {
            continue;
        }
        let v = var.index() as u32;
        let span = first.get(&v).copied().unwrap_or(Span::new(1, 1));
        if let Some(falsified) = def
            .constraints
            .iter()
            .find(|c| c.check_box(&declared) == IntervalVerdict::CertainlyFalse)
        {
            report.push(Diagnostic::new(
                Code::AB011,
                span,
                format!(
                    "constraint `{}` of variable {} is statically false throughout \
                     the declared box",
                    pretty(problem, falsified),
                    v + 1
                ),
            ));
        } else if def
            .constraints
            .iter()
            .all(|c| c.check_box(&declared) == IntervalVerdict::CertainlyTrue)
        {
            report.push(Diagnostic::new(
                Code::AB010,
                span,
                format!(
                    "definition of variable {} is statically true throughout \
                     the declared box",
                    v + 1
                ),
            ));
        }
    }
}

/// AB013 (constraint repeated across definitions), AB014 (dominated
/// conjunct), AB015 (contradictory conjuncts), AB016 (subsumed clause).
/// Returns the number of constraints/clauses a subsumption-aware
/// preprocessor would drop, for the structure block.
fn check_subsumption(problem: &AbProblem, map: &SourceMap, report: &mut Report) -> usize {
    let site_of = |var: u32, constraint: usize| {
        map.def_sites
            .iter()
            .find(|s| s.var == var && s.constraint == constraint)
            .map(|s| s.span)
            .unwrap_or(Span::new(1, 1))
    };
    let mut subsumed = 0usize;

    // AB013: the same interned constraint attached to two different
    // variables. Not redundant (both atoms genuinely need it) but almost
    // always a generator slip; wholly identical definitions are AB005.
    for d in cross_def_duplicates(problem) {
        let constraint = problem
            .defs()
            .find(|(var, _)| var.index() as u32 == d.var)
            .map(|(_, def)| &def.constraints[d.constraint])
            .expect("cross-def duplicate indexes a real definition");
        report.push(Diagnostic::new(
            Code::AB013,
            site_of(d.var, d.constraint),
            format!(
                "definition of variable {} repeats the constraint `{}` already \
                 attached to variable {}",
                d.var + 1,
                pretty(problem, constraint),
                d.earlier_var + 1
            ),
        ));
    }

    // AB014/AB015: affine dominance inside one definition's conjunction.
    for (var, def) in problem.defs() {
        let v = var.index() as u32;
        let pruning = prune_conjunction(&def.constraints);
        subsumed += pruning.dropped();
        for &(dominated, dominating) in &pruning.dominated {
            report.push(Diagnostic::new(
                Code::AB014,
                site_of(v, dominated),
                format!(
                    "constraint `{}` of variable {} is redundant: `{}` dominates it",
                    pretty(problem, &def.constraints[dominated]),
                    v + 1,
                    pretty(problem, &def.constraints[dominating])
                ),
            ));
        }
        if let Some((a, b)) = pruning.contradiction {
            report.push(Diagnostic::new(
                Code::AB015,
                site_of(v, b),
                format!(
                    "constraints `{}` and `{}` of variable {} contradict each \
                     other (the atom can never hold)",
                    pretty(problem, &def.constraints[a]),
                    pretty(problem, &def.constraints[b]),
                    v + 1
                ),
            ));
        }
    }

    // AB016: clause subsumed by a strictly shorter clause. Equal clauses
    // are AB009's business; tautologies are skipped (AB006).
    let span_of = |i: usize| map.clause_spans.get(i).copied().unwrap_or(Span::new(1, 1));
    let entries: Vec<(usize, Vec<Lit>)> = problem
        .cnf()
        .clauses()
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty() && !c.is_tautology())
        .map(|(i, c)| {
            let mut lits = c.lits().to_vec();
            lits.sort_by_key(|l| l.code());
            lits.dedup();
            (i, lits)
        })
        .collect();
    for (sub, by) in subsumed_clauses(&entries) {
        subsumed += 1;
        report.push(Diagnostic::new(
            Code::AB016,
            span_of(sub),
            format!("clause {} is subsumed by clause {}", sub + 1, by + 1),
        ));
    }
    subsumed
}

/// AB017 (statically unsatisfiable by the interval-dataflow fixpoint or
/// by Boolean unit propagation), AB018 (derived hull misses a declared
/// range). Returns the dataflow result for the structure block.
fn check_dataflow(problem: &AbProblem, map: &SourceMap, report: &mut Report) -> Dataflow {
    let df = dataflow(problem, 16);
    match &df.verdict {
        DataflowVerdict::Converged => {
            // AB018: every model's value of a variable lies outside the
            // box the nonlinear engine will search. Declared ranges do
            // not bind the other engines, so this is suspicious input,
            // not a refutation.
            let mut range_span: HashMap<usize, Span> = HashMap::new();
            for site in &map.range_sites {
                range_span.insert(site.var, site.span);
            }
            for (v, var) in problem.arith_vars().iter().enumerate() {
                if var.range == Interval::ENTIRE || var.range.is_empty() {
                    continue; // nothing declared, or AB004's business
                }
                let derived = df.derived[v];
                if !derived.is_empty() && derived.intersect(var.range).is_empty() {
                    report.push(Diagnostic::new(
                        Code::AB018,
                        range_span.get(&v).copied().unwrap_or(Span::new(1, 1)),
                        format!(
                            "the declared range of `{}` misses every derivable \
                             value (derived {} vs declared {})",
                            var.name, derived, var.range
                        ),
                    ));
                }
            }
        }
        DataflowVerdict::BoolConflict => {
            // Complementary *unit* pairs and empty clauses already carry
            // an AB007; only deeper propagation conflicts are news.
            if !report.diagnostics.iter().any(|d| d.code == Code::AB007) {
                report.push(Diagnostic::new(
                    Code::AB017,
                    Span::new(1, 1),
                    "Boolean unit propagation derives a contradiction \
                     (the formula is unsatisfiable)",
                ));
            }
        }
        DataflowVerdict::EmptyDomain(ci) => {
            report.push(Diagnostic::new(
                Code::AB017,
                Span::new(1, 1),
                format!(
                    "constraints forced in every model empty an arithmetic \
                     domain while revising `{}`: the problem is statically \
                     unsatisfiable",
                    pretty(problem, &df.asserted[*ci])
                ),
            ));
        }
    }
    df
}

/// Builds the report's structure block: incidence-graph components,
/// subsumption count, and the dataflow-derived ranges.
fn structure_summary(problem: &AbProblem, subsumed: usize, df: &Dataflow) -> StructureSummary {
    let partition = Partition::of(problem);
    let derived_ranges = match df.verdict {
        DataflowVerdict::Converged => problem
            .arith_vars()
            .iter()
            .enumerate()
            .filter(|&(v, _)| df.derived[v] != Interval::ENTIRE && !df.derived[v].is_empty())
            .map(|(v, var)| (var.name.clone(), df.derived[v].to_string()))
            .collect(),
        _ => Vec::new(),
    };
    StructureSummary {
        components: partition.len(),
        component_sizes: partition.sizes(),
        subsumed,
        derived_ranges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn codes(text: &str) -> Vec<Code> {
        check_source(text)
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn clean_input_is_clean() {
        let report =
            check_source("p cnf 2 2\n1 0\n-1 2 0\nc def int 1 i >= 0\nc def int 2 i < 7\n");
        assert!(report.is_clean(), "unexpected findings: {report:?}");
    }

    #[test]
    fn parse_error_is_ab001() {
        let report = check_source("p cnf 1 1\n1 0\nc def bool 1 x >= 0\n");
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.code, Code::AB001);
        assert_eq!(d.severity, Severity::Error);
        assert_eq!((d.span.line, d.span.col), (3, 7));
    }

    #[test]
    fn duplicate_constraint_is_ab002() {
        let text = "p cnf 1 1\n1 0\nc def int 1 i >= 0\nc def int 1 i >= 0\n";
        assert_eq!(codes(text), vec![Code::AB002]);
        let report = check_source(text);
        assert_eq!(report.diagnostics[0].span.line, 4);
    }

    #[test]
    fn unclaused_def_is_ab003() {
        let text = "p cnf 2 1\n2 0\nc def int 1 i >= 0\n";
        assert_eq!(codes(text), vec![Code::AB003]);
    }

    #[test]
    fn contradictory_ranges_are_ab004() {
        let text = "p cnf 1 1\n1 0\nc var real x\nc range x 0 1\nc range x 2 3\n\
                    c def real 1 x >= 0\n";
        let report = check_source(text);
        // AB004 on the second range line; the atom check skips the
        // empty-ranged variable.
        assert_eq!(
            report
                .diagnostics
                .iter()
                .map(|d| d.code)
                .collect::<Vec<_>>(),
            vec![Code::AB004]
        );
        assert_eq!(report.diagnostics[0].span.line, 5);
        assert_eq!(report.errors(), 1);
    }

    #[test]
    fn shadowed_def_is_ab005() {
        let text = "p cnf 2 1\n1 2 0\nc def int 1 i >= 0\nc def int 2 i >= 0\n";
        assert_eq!(codes(text), vec![Code::AB005]);
    }

    #[test]
    fn tautological_clause_is_ab006() {
        assert_eq!(codes("p cnf 1 1\n1 -1 0\n"), vec![Code::AB006]);
    }

    #[test]
    fn complementary_units_are_ab007() {
        let text = "p cnf 1 2\n1 0\n-1 0\n";
        let report = check_source(text);
        assert_eq!(
            report
                .diagnostics
                .iter()
                .map(|d| d.code)
                .collect::<Vec<_>>(),
            vec![Code::AB007]
        );
        assert_eq!(report.diagnostics[0].span.line, 3);
    }

    #[test]
    fn undeclared_clause_variable_is_ab008() {
        // The unit `1` also subsumes the clause `1 2` (AB016).
        assert_eq!(
            codes("p cnf 1 2\n1 0\n1 2 0\n"),
            vec![Code::AB008, Code::AB016]
        );
    }

    #[test]
    fn duplicate_clause_is_ab009() {
        assert_eq!(codes("p cnf 2 2\n1 2 0\n2 1 0\n"), vec![Code::AB009]);
    }

    #[test]
    fn statically_true_atom_is_ab010() {
        // sin(x) ≤ 2 holds everywhere.
        let text = "p cnf 1 1\n1 0\nc def real 1 sin ( x ) <= 2\n";
        assert_eq!(codes(text), vec![Code::AB010]);
    }

    #[test]
    fn range_emptied_atom_is_ab011() {
        // Within x ∈ [0, 1], x ≥ 5 can never hold.
        // The forced atom also makes the dataflow hull `[5, ∞)` miss the
        // declared range entirely (AB018).
        let text = "p cnf 1 1\n1 0\nc def real 1 x >= 5\nc range x 0 1\n";
        assert_eq!(codes(text), vec![Code::AB011, Code::AB018]);
    }

    #[test]
    fn unused_declared_var_is_ab012() {
        let text = "p cnf 1 1\n1 0\nc var real x\nc var real y\nc def real 1 x >= 0\n";
        assert_eq!(codes(text), vec![Code::AB012]);
        let report = check_source(text);
        assert!(report.diagnostics[0].message.contains("`y`"));
    }

    #[test]
    fn paper_example_is_clean() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/fig2.dimacs"
        ))
        .expect("fig2 example present");
        let report = check_source(&text);
        assert!(
            report.is_clean(),
            "fig2 must produce zero diagnostics: {report:?}"
        );
    }
}
