//! FISCHER benchmark generator (paper Table 2).
//!
//! The paper's Table 2 runs the SMT-LIB `FISCHERn-1-fair.smt` instances —
//! Boolean + linear encodings of Fischer's real-time mutual-exclusion
//! protocol for `n` processes. The original files are not redistributable
//! here, so this module generates instances of the same family: an
//! event-time encoding of one round of the protocol whose Boolean skeleton
//! chooses an interleaving of the lock writes and whose linear part
//! carries the real-time constraints.
//!
//! Protocol recap: every contending process `p` writes `lock := p` within
//! `a` time units of starting (`0 ≤ set_p ≤ a`), then waits at least
//! `b > a` (`check_p ≥ set_p + b`) before reading the lock; it enters the
//! critical section only if the lock still holds its own id. Lock writes
//! are serialised on the bus, so any two writes are at least one tick
//! apart — encoded as the disjunctions `set_p ≤ set_q − 1 ∨ set_q ≤
//! set_p − 1` whose orientations form the Boolean search space.
//!
//! Two queries are provided:
//!
//! * [`fischer`] — *can process 0 enter the critical section?* SAT, but
//!   only for interleaving orientations that are acyclic and timing-
//!   consistent; a lazy solver "examines many Boolean solutions first"
//!   (the paper's own explanation of ABsolver's Table 2 slowdown), while
//!   the tight DPLL(T) baselines prune partial orientations early.
//! * [`fischer_mutex`] — *can processes 0 and 1 both enter?* UNSAT when
//!   `b > a` (the protocol is safe).

use absolver_core::{AbProblem, AbProblemBuilder, Session, VarKind};
use absolver_linear::CmpOp;
use absolver_logic::Var;
use absolver_nonlinear::{Expr, VarId};
use absolver_num::{Interval, Rational};

/// Parameters of a FISCHER instance.
#[derive(Debug, Clone, Copy)]
pub struct FischerConfig {
    /// Number of processes (the paper sweeps 1..=11).
    pub processes: usize,
    /// Write deadline `a` (must admit `n` serialised writes: `a ≥ n`).
    pub a: i64,
    /// Wait time `b` (protocol safe iff `b > a`).
    pub b: i64,
}

impl FischerConfig {
    /// The standard parameters for `n` processes: `a = n + 1`, `b = a + 1`.
    pub fn standard(n: usize) -> FischerConfig {
        let a = n as i64 + 1;
        FischerConfig {
            processes: n,
            a,
            b: a + 1,
        }
    }
}

struct Skeleton {
    set: Vec<usize>,
    check: Vec<usize>,
}

/// Timing constraints + serialised-write disjunctions shared by both
/// queries.
fn skeleton(builder: &mut AbProblemBuilder, config: &FischerConfig) -> Skeleton {
    let n = config.processes;
    let set: Vec<usize> = (0..n)
        .map(|p| builder.arith_var(&format!("set_{p}"), VarKind::Real))
        .collect();
    let check: Vec<usize> = (0..n)
        .map(|p| builder.arith_var(&format!("check_{p}"), VarKind::Real))
        .collect();
    for p in 0..n {
        builder.set_range(set[p], absolver_num::Interval::new(0.0, config.a as f64));
        builder.set_range(
            check[p],
            absolver_num::Interval::new(0.0, (config.a + 2 * config.b) as f64),
        );
    }
    // Per-process timing, as unit atoms.
    for p in 0..n {
        let nonneg = builder.atom(Expr::var(set[p]), CmpOp::Ge, Rational::zero());
        builder.require(nonneg.positive());
        let deadline = builder.atom(Expr::var(set[p]), CmpOp::Le, Rational::from_int(config.a));
        builder.require(deadline.positive());
        let wait = builder.atom(
            Expr::var(check[p]) - Expr::var(set[p]),
            CmpOp::Ge,
            Rational::from_int(config.b),
        );
        builder.require(wait.positive());
    }
    // Serialised lock writes: |set_p − set_q| ≥ 1, as an orientation choice.
    for p in 0..n {
        for q in (p + 1)..n {
            let p_first = builder.atom(
                Expr::var(set[p]) - Expr::var(set[q]),
                CmpOp::Le,
                Rational::from_int(-1),
            );
            let q_first = builder.atom(
                Expr::var(set[q]) - Expr::var(set[p]),
                CmpOp::Le,
                Rational::from_int(-1),
            );
            builder.add_clause([p_first.positive(), q_first.positive()]);
        }
    }
    Skeleton { set, check }
}

/// Adds the critical-section entry condition for process `p`: every other
/// write either precedes `p`'s or happens only after `p` has read.
fn entry_condition(builder: &mut AbProblemBuilder, sk: &Skeleton, p: usize) {
    let n = sk.set.len();
    for q in 0..n {
        if q == p {
            continue;
        }
        let earlier: Var = builder.atom(
            Expr::var(sk.set[q]) - Expr::var(sk.set[p]),
            CmpOp::Lt,
            Rational::zero(),
        );
        let too_late: Var = builder.atom(
            Expr::var(sk.set[q]) - Expr::var(sk.check[p]),
            CmpOp::Gt,
            Rational::zero(),
        );
        builder.add_clause([earlier.positive(), too_late.positive()]);
    }
}

/// The Table 2 instance for `n` processes: *process 0 can enter the
/// critical section* — satisfiable, with an exponential orientation space
/// that only timing reasoning prunes.
pub fn fischer(n: usize) -> AbProblem {
    assert!(n > 0, "at least one process");
    let config = FischerConfig::standard(n);
    let mut builder = AbProblem::builder();
    let sk = skeleton(&mut builder, &config);
    entry_condition(&mut builder, &sk, 0);
    builder.build()
}

/// The mutual-exclusion query: *processes 0 and 1 both enter*. UNSAT for
/// the safe parameters (`b > a`), SAT when `b ≤ a`.
///
/// # Panics
///
/// Panics if `config.processes < 2`.
pub fn fischer_mutex(config: FischerConfig) -> AbProblem {
    assert!(config.processes >= 2, "mutex needs two processes");
    let mut builder = AbProblem::builder();
    let sk = skeleton(&mut builder, &config);
    entry_condition(&mut builder, &sk, 0);
    entry_condition(&mut builder, &sk, 1);
    builder.build()
}

/// A FISCHER instance grown one process at a time inside a persistent
/// [`Session`] — the streaming counterpart of the Table 2 loop, which
/// rebuilds and re-solves the whole instance at every `n`.
///
/// Unlike [`FischerConfig::standard`], the deadline `a` is fixed up front
/// for the *maximum* depth (`a = n_max + 1`, `b = a + 1`), so deepening is
/// strictly append-only: adding process `p` adds its event variables,
/// timing atoms, serialised-write disjunctions against every earlier
/// process, and the process-0 entry clause for the new contender. Nothing
/// already asserted ever changes, which is what lets the session keep its
/// lemmas and warm Boolean state across depths.
///
/// The mutual-exclusion query is *not* monotone (it constrains process 1's
/// entry), so it runs as a `push` / [`FischerStream::assert_mutex_entry`] /
/// `check` / `pop` excursion at each depth.
#[derive(Debug)]
pub struct FischerStream {
    session: Session,
    a: i64,
    b: i64,
    set: Vec<VarId>,
    check: Vec<VarId>,
}

impl FischerStream {
    /// Starts an empty stream sized for at most `n_max` processes, over a
    /// default session.
    pub fn new(n_max: usize) -> FischerStream {
        FischerStream::with_session(n_max, Session::new())
    }

    /// Starts an empty stream sized for at most `n_max` processes, over a
    /// caller-configured session (custom backends or options).
    pub fn with_session(n_max: usize, session: Session) -> FischerStream {
        let a = n_max as i64 + 1;
        FischerStream {
            session,
            a,
            b: a + 1,
            set: Vec::new(),
            check: Vec::new(),
        }
    }

    /// Number of processes added so far.
    pub fn processes(&self) -> usize {
        self.set.len()
    }

    /// The underlying session (stats, checks, model access).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the underlying session (`push`/`pop`/`check`).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Appends the next process: event variables, timing atoms, write
    /// serialisation against every earlier process, and — for contenders
    /// other than process 0 — the process-0 entry clause.
    pub fn add_process(&mut self) {
        let p = self.set.len();
        let s = &mut self.session;
        let set_p = s
            .arith_var(&format!("set_{p}"), VarKind::Real)
            .expect("fresh name");
        let check_p = s
            .arith_var(&format!("check_{p}"), VarKind::Real)
            .expect("fresh name");
        s.assert_range(set_p, Interval::new(0.0, self.a as f64))
            .expect("declared");
        s.assert_range(check_p, Interval::new(0.0, (self.a + 2 * self.b) as f64))
            .expect("declared");
        let nonneg = s
            .atom(Expr::var(set_p), CmpOp::Ge, Rational::zero())
            .expect("declared");
        s.require(nonneg.positive());
        let deadline = s
            .atom(Expr::var(set_p), CmpOp::Le, Rational::from_int(self.a))
            .expect("declared");
        s.require(deadline.positive());
        let wait = s
            .atom(
                Expr::var(check_p) - Expr::var(set_p),
                CmpOp::Ge,
                Rational::from_int(self.b),
            )
            .expect("declared");
        s.require(wait.positive());
        for q in 0..p {
            let q_first = s
                .atom(
                    Expr::var(self.set[q]) - Expr::var(set_p),
                    CmpOp::Le,
                    Rational::from_int(-1),
                )
                .expect("declared");
            let p_first = s
                .atom(
                    Expr::var(set_p) - Expr::var(self.set[q]),
                    CmpOp::Le,
                    Rational::from_int(-1),
                )
                .expect("declared");
            s.assert_clause([q_first.positive(), p_first.positive()]);
        }
        if p > 0 {
            // Process 0's entry condition for the new contender.
            let earlier = s
                .atom(
                    Expr::var(set_p) - Expr::var(self.set[0]),
                    CmpOp::Lt,
                    Rational::zero(),
                )
                .expect("declared");
            let too_late = s
                .atom(
                    Expr::var(set_p) - Expr::var(self.check[0]),
                    CmpOp::Gt,
                    Rational::zero(),
                )
                .expect("declared");
            s.assert_clause([earlier.positive(), too_late.positive()]);
        }
        self.set.push(set_p);
        self.check.push(check_p);
    }

    /// Asserts process 1's critical-section entry condition into the
    /// *current frame* — push first, pop afterwards, or the mutex
    /// constraint (UNSAT with these safe parameters) poisons later depths.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two processes.
    pub fn assert_mutex_entry(&mut self) {
        assert!(self.set.len() >= 2, "mutex needs two processes");
        let s = &mut self.session;
        for q in 0..self.set.len() {
            if q == 1 {
                continue;
            }
            let earlier = s
                .atom(
                    Expr::var(self.set[q]) - Expr::var(self.set[1]),
                    CmpOp::Lt,
                    Rational::zero(),
                )
                .expect("declared");
            let too_late = s
                .atom(
                    Expr::var(self.set[q]) - Expr::var(self.check[1]),
                    CmpOp::Gt,
                    Rational::zero(),
                )
                .expect("declared");
            s.assert_clause([earlier.positive(), too_late.positive()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absolver_baselines::{BaselineVerdict, MathSatLike};
    use absolver_core::Orchestrator;

    #[test]
    fn instances_scale_with_processes() {
        let small = fischer(2);
        let large = fischer(6);
        assert!(large.cnf().len() > small.cnf().len());
        assert!(large.num_constraints() > small.num_constraints());
        assert_eq!(large.num_nonlinear(), 0, "pure Boolean-linear family");
    }

    #[test]
    fn reachability_is_sat_and_validates() {
        for n in 1..=4 {
            let p = fischer(n);
            let outcome = Orchestrator::with_defaults().solve(&p).unwrap();
            let model = outcome
                .model()
                .unwrap_or_else(|| panic!("n={n} must be SAT"));
            assert!(model.satisfies(&p, 1e-9), "n={n}");
        }
    }

    #[test]
    fn witness_puts_process_zero_last() {
        let p = fischer(3);
        let outcome = Orchestrator::with_defaults().solve(&p).unwrap();
        let model = outcome.model().unwrap();
        let set0 = model
            .arith
            .value_f64(p.arith_var("set_0").unwrap())
            .unwrap();
        for q in 1..3 {
            let setq = model
                .arith
                .value_f64(p.arith_var(&format!("set_{q}")).unwrap())
                .unwrap();
            assert!(setq < set0, "set_{q}={setq} must precede set_0={set0}");
        }
    }

    #[test]
    fn safe_mutex_is_unsat() {
        for n in 2..=3 {
            let p = fischer_mutex(FischerConfig::standard(n));
            let outcome = Orchestrator::with_defaults().solve(&p).unwrap();
            assert!(outcome.is_unsat(), "n={n}: protocol with b > a is safe");
        }
    }

    #[test]
    fn unsafe_parameters_violate_mutex() {
        // b ≤ a breaks the protocol: two processes in the CS are possible.
        let p = fischer_mutex(FischerConfig {
            processes: 2,
            a: 5,
            b: 1,
        });
        let outcome = Orchestrator::with_defaults().solve(&p).unwrap();
        let model = outcome
            .model()
            .expect("unsafe parameters admit a violation");
        assert!(model.satisfies(&p, 1e-9));
    }

    #[test]
    fn stream_agrees_with_from_scratch() {
        let mut stream = FischerStream::new(4);
        for n in 1..=4 {
            stream.add_process();
            let out = stream.session_mut().check().unwrap();
            let model = out.model().unwrap_or_else(|| panic!("n={n} must be SAT"));
            assert!(model.satisfies(stream.session().problem(), 1e-9), "n={n}");
            let fresh = Orchestrator::with_defaults()
                .solve(stream.session().problem())
                .unwrap();
            assert!(fresh.is_sat(), "n={n}: from-scratch disagrees");
            if n >= 2 {
                stream.session_mut().push();
                stream.assert_mutex_entry();
                assert!(
                    stream.session_mut().check().unwrap().is_unsat(),
                    "n={n}: safe protocol must refuse double entry"
                );
                stream.session_mut().pop().unwrap();
            }
        }
        // The mutex excursions must not have poisoned the final frame.
        assert!(stream.session_mut().check().unwrap().is_sat());
    }

    #[test]
    fn tight_baseline_agrees() {
        for n in 2..=3 {
            let sat = fischer(n);
            match MathSatLike::new().solve(&sat).verdict {
                BaselineVerdict::Sat(m) => assert!(m.satisfies(&sat, 1e-9), "n={n}"),
                other => panic!("n={n}: {other:?}"),
            }
            let unsat = fischer_mutex(FischerConfig::standard(n));
            assert_eq!(
                MathSatLike::new().solve(&unsat).verdict,
                BaselineVerdict::Unsat
            );
        }
    }
}
