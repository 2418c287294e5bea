//! Answer checking outside the solver: a returned model must satisfy the
//! instance it answers, judged from the values the program printed.

use absolver::core::{AbProblem, VarKind};
use absolver::logic::Lit;

/// The numeric tolerance of `AbModel::satisfies`.
pub const TOL: f64 = 1e-5;

/// Branching budget of the CNF check; the paper instances need a handful.
const MAX_DECISIONS: u32 = 100_000;

/// Parses a printed model value: an integer, a fraction `p/q`, or a float.
pub fn parse_value(s: &str) -> Option<f64> {
    let v = match s.split_once('/') {
        Some((n, d)) => n.parse::<f64>().ok()? / d.parse::<f64>().ok()?,
        None => s.parse().ok()?,
    };
    v.is_finite().then_some(v)
}

/// Checks a model, given as `(variable name, printed value)` pairs,
/// against `problem`. Every arithmetic variable needs a finite value (an
/// integer variable's within [`TOL`] of an integer), and every required
/// atom (a unit clause over a defined variable) must hold within
/// [`TOL`]. The CNF must also be satisfiable once each defined
/// atom takes the truth value the point gives it; an atom within [`TOL`]
/// of its boundary may take either value, and undefined variables are
/// free.
pub fn check_model(problem: &AbProblem, values: &[(&str, &str)]) -> Result<(), String> {
    let mut point = vec![f64::NAN; problem.arith_vars().len()];
    for (name, text) in values {
        let id = problem
            .arith_var(name)
            .ok_or_else(|| format!("model names unknown variable `{name}`"))?;
        let value = parse_value(text).ok_or_else(|| format!("unreadable value `{name}={text}`"))?;
        if problem.arith_vars()[id].kind == VarKind::Int && (value - value.round()).abs() > TOL {
            return Err(format!("integer variable `{name}` has value {text}"));
        }
        point[id] = value;
    }
    if let Some(missing) = point.iter().position(|v| v.is_nan()) {
        let name = &problem.arith_vars()[missing].name;
        return Err(format!("model lacks variable `{name}`"));
    }

    let mut assign: Vec<Option<bool>> = vec![None; problem.cnf().num_vars()];
    for (var, def) in problem.defs() {
        let strictly = def
            .constraints
            .iter()
            .all(|c| c.eval_with_tol(&point, -TOL));
        let loosely = def.constraints.iter().all(|c| c.eval_with_tol(&point, TOL));
        assign[var.index()] = if strictly {
            Some(true)
        } else if !loosely {
            Some(false)
        } else {
            None
        };
    }
    for clause in problem.cnf().clauses() {
        if let [lit] = clause.lits() {
            if problem.def(lit.var()).is_some()
                && assign[lit.var().index()] == Some(!lit.is_positive())
            {
                return Err(format!("required atom {} does not hold", lit.to_dimacs()));
            }
        }
    }
    let clauses: Vec<&[Lit]> = problem.cnf().clauses().iter().map(|c| c.lits()).collect();
    let mut budget = MAX_DECISIONS;
    if satisfiable(&clauses, &mut assign, &mut budget) {
        Ok(())
    } else if budget == 0 {
        Err("CNF check ran out of decisions".to_string())
    } else {
        Err("the atom values the model implies falsify the CNF".to_string())
    }
}

/// DPLL with unit propagation over the partial assignment `assign`.
fn satisfiable(clauses: &[&[Lit]], assign: &mut [Option<bool>], budget: &mut u32) -> bool {
    let value = |assign: &[Option<bool>], l: Lit| assign[l.var().index()].map(|v| l.eval(v));
    let mut trail = Vec::new();
    let undo = |assign: &mut [Option<bool>], trail: &[usize]| {
        for &v in trail {
            assign[v] = None;
        }
    };
    loop {
        let mut changed = false;
        for clause in clauses {
            if clause.iter().any(|&l| value(assign, l) == Some(true)) {
                continue;
            }
            let mut open = clause.iter().filter(|&&l| value(assign, l).is_none());
            match (open.next(), open.next()) {
                (None, _) => {
                    undo(assign, &trail);
                    return false;
                }
                (Some(&l), None) => {
                    assign[l.var().index()] = Some(l.is_positive());
                    trail.push(l.var().index());
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
    let branch = clauses
        .iter()
        .filter(|c| !c.iter().any(|&l| value(assign, l) == Some(true)))
        .find_map(|c| c.iter().find(|&&l| value(assign, l).is_none()).copied());
    let Some(lit) = branch else {
        return true;
    };
    if *budget == 0 {
        undo(assign, &trail);
        return false;
    }
    *budget -= 1;
    for polarity in [lit.is_positive(), !lit.is_positive()] {
        assign[lit.var().index()] = Some(polarity);
        if satisfiable(clauses, assign, budget) {
            return true;
        }
    }
    assign[lit.var().index()] = None;
    undo(assign, &trail);
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2: &str = "p cnf 2 2\n1 2 0\n-1 0\nc def real 1 x >= 0\nc def real 2 x + 1 < 0.5\n";

    #[test]
    fn values_parse_as_integers_fractions_and_floats() {
        assert_eq!(parse_value("-3"), Some(-3.0));
        assert_eq!(parse_value("3/4"), Some(0.75));
        assert_eq!(parse_value("1.5e-3"), Some(0.0015));
        assert_eq!(parse_value("NaN"), None);
        assert_eq!(parse_value("1/0"), None);
    }

    #[test]
    fn accepts_a_model_and_rejects_a_falsifying_one() {
        let problem: AbProblem = FIG2.parse().unwrap();
        assert_eq!(check_model(&problem, &[("x", "-1")]), Ok(()));
        assert!(check_model(&problem, &[("x", "2")]).is_err());
        assert!(check_model(&problem, &[]).is_err());
        assert!(check_model(&problem, &[("y", "1")]).is_err());
    }

    #[test]
    fn required_atoms_must_hold() {
        let text = "p cnf 1 1\n1 0\nc def real 1 x >= 2\n";
        let problem: AbProblem = text.parse().unwrap();
        assert_eq!(check_model(&problem, &[("x", "2")]), Ok(()));
        assert_eq!(check_model(&problem, &[("x", "1.999999")]), Ok(()));
        let err = check_model(&problem, &[("x", "1.9")]).unwrap_err();
        assert!(err.contains("required atom 1"), "{err}");
    }

    #[test]
    fn integer_variables_need_integer_values() {
        // x = 1/2 satisfies the atom and the CNF; only integrality fails.
        let text = "p cnf 1 1\n1 0\nc def int 1 x >= 0\n";
        let problem: AbProblem = text.parse().unwrap();
        assert_eq!(check_model(&problem, &[("x", "1")]), Ok(()));
        assert_eq!(check_model(&problem, &[("x", "0.999999")]), Ok(()));
        let err = check_model(&problem, &[("x", "1/2")]).unwrap_err();
        assert!(err.contains("integer variable `x`"), "{err}");
        let real: AbProblem = "p cnf 1 1\n1 0\nc def real 1 x >= 0\n".parse().unwrap();
        assert_eq!(check_model(&real, &[("x", "1/2")]), Ok(()));
    }
}
