//! Theory checking for a candidate Boolean assignment.
//!
//! Given the arithmetic constraints implied by a Boolean model (Sec. 1's
//! "linear constraint system", generalised to AB), this module decides
//! their conjunction:
//!
//! 1. the affine subset goes to the pluggable linear backend (simplex),
//!    as rows prepared once per solve, with every all-`int` row
//!    strengthened to the integer-tight form ([`PreparedConstraint`]),
//!    extended here with branch-and-bound for `int`-typed variables and
//!    lazy case splits for *disequalities* (`¬(Σaᵢxᵢ = c)` becomes
//!    `< c ∨ > c` exactly as Sec. 1 prescribes, but split lazily instead
//!    of eagerly to avoid exponential branch enumeration);
//! 2. if genuinely nonlinear constraints are present, the full system is
//!    handed to the nonlinear backend, whose verdict is final — mirroring
//!    the paper's "if the output pin's value is not yet known, the
//!    nonlinear solver is called". A check runs the backends' cheap first
//!    pass, or, when [`TheoryContext::escalate`] is set, their full check
//!    ([`crate::backends::NonlinearBackend::escalate`]).
//!
//! Conflicts are reported as sets of *tags* (indices chosen by the caller,
//! in practice identifying the Boolean literals that induced each
//! constraint), so the orchestrator can turn them into blocking clauses.

use crate::backends::{LinearBackend, NonlinearBackend};
use crate::problem::{AbProblem, ArithModel, VarKind};
use absolver_linear::{
    AssertionStack, CmpOp, Feasibility, LinExpr, LinearConstraint, RowId, StackResult,
};
use absolver_logic::Var;
use absolver_nonlinear::{Interrupt, NlConstraint, NlProblem, NlSearchStats, NlVerdict};
use absolver_num::{BigInt, Interval, Rational};
use absolver_trace::{TraceEvent, TraceSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One theory obligation: the constraint must hold (`positive`) or must be
/// violated (its negation must hold).
#[derive(Debug, Clone)]
pub struct TheoryItem {
    /// Caller-chosen tag identifying the origin (a Boolean literal).
    pub tag: usize,
    /// The prepared constraint, shared with the orchestrator's pool so
    /// building the per-iteration obligation list never deep-clones
    /// expression trees or rebuilds linear rows.
    pub constraint: Arc<PreparedConstraint>,
    /// `true` to assert the constraint, `false` to assert its negation.
    pub positive: bool,
}

/// A definition constraint prepared for theory checks: what asserting it,
/// and asserting its negation, asks of the linear and nonlinear paths.
/// The orchestrator prepares each definition constraint once per solve,
/// so a check only copies rows.
///
/// A row whose variables are all `int` is strengthened here, with the
/// GCD step of the Dutertre–de Moura integer procedure: scaled to coprime
/// integer coefficients (leading one positive), so that its left-hand
/// side takes only integer values, and its bound rounded. `x < 1` becomes
/// `x ≤ 0`, which the simplex refutes against `x ≥ 1` without
/// branch-and-bound; an `=` with a fractional bound is unsat on its own,
/// and its negation holds everywhere; and an all-integer disequality
/// splits into `≤ c − 1` / `≥ c + 1`. Every row keeps its integer
/// solutions. Rows that mention a `real` variable are left as they are.
#[derive(Debug)]
pub struct PreparedConstraint {
    positive: Literal,
    negative: Literal,
}

/// What asserting one polarity of a constraint asks of a check.
#[derive(Debug)]
enum Literal {
    /// The comparison must hold; the row is its linear form when it is
    /// affine, shared with the incremental session that asserts it.
    Holds(Arc<NlConstraint>, Option<Arc<LinearConstraint>>),
    /// The nonlinear equality must fail.
    Differs(Arc<NlConstraint>),
    /// The affine equality must fail.
    DiffersAffine(Box<LinDiseq>),
    /// No integer point satisfies it: an all-integer `=` with a
    /// fractional bound.
    Never,
    /// Every integer point satisfies it: the negation of such an `=`.
    Always,
}

/// An affine disequality `expr ≠ rhs`, the two rows its lazy case split
/// branches on, and the equality the nonlinear path splits instead.
#[derive(Debug)]
struct LinDiseq {
    expr: LinExpr,
    rhs: Rational,
    split: [LinearConstraint; 2],
    /// The stated row as an equality, without the integer strengthening.
    equality: NlConstraint,
}

impl PreparedConstraint {
    /// Prepares `constraint` over variables of the given kinds.
    pub fn new(constraint: NlConstraint, kinds: &[VarKind]) -> PreparedConstraint {
        let constraint = Arc::new(constraint);
        let negative = match constraint.op.negate() {
            Some(op) => Literal::holds(Arc::new(constraint.with_op(op)), kinds),
            None => Literal::differs(Arc::clone(&constraint), kinds),
        };
        PreparedConstraint {
            positive: Literal::holds(constraint, kinds),
            negative,
        }
    }

    fn literal(&self, positive: bool) -> &Literal {
        if positive {
            &self.positive
        } else {
            &self.negative
        }
    }
}

/// Every definition constraint of `problem`, prepared under its variable
/// kinds, in definition order.
pub fn prepare_defs(problem: &AbProblem) -> Vec<(Var, Vec<Arc<PreparedConstraint>>)> {
    let kinds: Vec<VarKind> = problem.arith_vars().iter().map(|v| v.kind).collect();
    problem
        .defs()
        .map(|(var, def)| {
            let prepared = def
                .constraints
                .iter()
                .map(|c| Arc::new(PreparedConstraint::new(c.clone(), &kinds)))
                .collect();
            (var, prepared)
        })
        .collect()
}

impl Literal {
    fn holds(c: Arc<NlConstraint>, kinds: &[VarKind]) -> Literal {
        let Some((lin, k)) = c.to_affine() else {
            return Literal::Holds(c, None);
        };
        let row = match integral(&c, kinds) {
            None => LinearConstraint::new(lin.clone(), c.op, &c.rhs - k),
            Some((expr, op, rhs)) => {
                let bound = |b: BigInt| Rational::from(b);
                match op {
                    CmpOp::Le => LinearConstraint::new(expr, CmpOp::Le, bound(rhs.floor())),
                    CmpOp::Lt => {
                        LinearConstraint::new(expr, CmpOp::Le, bound(rhs.ceil() - BigInt::one()))
                    }
                    CmpOp::Ge => LinearConstraint::new(expr, CmpOp::Ge, bound(rhs.ceil())),
                    CmpOp::Gt => {
                        LinearConstraint::new(expr, CmpOp::Ge, bound(rhs.floor() + BigInt::one()))
                    }
                    CmpOp::Eq if rhs.is_integer() => LinearConstraint::new(expr, CmpOp::Eq, rhs),
                    CmpOp::Eq => return Literal::Never,
                }
            }
        };
        Literal::Holds(c, Some(Arc::new(row)))
    }

    /// The negation of the equality `c`.
    fn differs(c: Arc<NlConstraint>, kinds: &[VarKind]) -> Literal {
        let Some((lin, k)) = c.to_affine() else {
            return Literal::Differs(c);
        };
        let rhs = &c.rhs - k;
        let (expr, bound, split) = match integral(&c, kinds) {
            None => {
                let split = [
                    LinearConstraint::new(lin.clone(), CmpOp::Lt, rhs.clone()),
                    LinearConstraint::new(lin.clone(), CmpOp::Gt, rhs.clone()),
                ];
                (lin.clone(), rhs.clone(), split)
            }
            Some((_, _, bound)) if !bound.is_integer() => return Literal::Always,
            Some((expr, _, bound)) => {
                let split = [
                    LinearConstraint::new(expr.clone(), CmpOp::Le, &bound - &Rational::one()),
                    LinearConstraint::new(expr.clone(), CmpOp::Ge, &bound + &Rational::one()),
                ];
                (expr, bound, split)
            }
        };
        Literal::DiffersAffine(Box::new(LinDiseq {
            expr,
            rhs: bound,
            split,
            equality: NlConstraint::new(lin_to_expr(lin), CmpOp::Eq, rhs),
        }))
    }
}

/// `c` as a row with coprime integer coefficients and a positive leading
/// one, when `c` is affine and every variable it mentions is `int`;
/// `None` otherwise. The row's left-hand side takes only integer values.
fn integral(c: &NlConstraint, kinds: &[VarKind]) -> Option<(LinExpr, CmpOp, Rational)> {
    let (mut expr, op, rhs) = c.normalized_affine()?;
    let terms = expr.terms();
    if !terms
        .iter()
        .all(|&(v, _)| kinds.get(v) == Some(&VarKind::Int))
    {
        return None;
    }
    // The leading coefficient is one, so the lcm of the denominators
    // scales the coefficients to coprime integers.
    let lcm = terms.iter().fold(BigInt::one(), |l, (_, a)| {
        &(&l / &l.gcd(a.denom())) * a.denom()
    });
    let lcm = Rational::from(lcm);
    expr.scale(&lcm);
    Some((expr, op, &rhs * &lcm))
}

fn lin_to_expr(lin: &LinExpr) -> absolver_nonlinear::Expr {
    use absolver_nonlinear::Expr;
    let mut acc = Expr::zero();
    for (v, c) in lin.terms() {
        acc = acc + Expr::constant(c.clone()) * Expr::var(*v);
    }
    acc.simplify()
}

/// Verdict of a theory check.
#[derive(Debug, Clone, PartialEq)]
pub enum TheoryVerdict {
    /// Satisfiable; carries values for all arithmetic variables.
    Sat(ArithModel),
    /// Unsatisfiable; the tags of a conflicting subset of the items.
    Unsat(Vec<usize>),
    /// Could not be decided within budget.
    Unknown,
}

/// Budgets for the theory engines.
#[derive(Debug, Clone)]
pub struct TheoryBudget {
    /// Maximum branch-and-bound / disequality-split nodes on the linear path.
    pub max_nodes: usize,
    /// Maximum disequality splits on the nonlinear path.
    pub max_nl_splits: usize,
    /// The check's cancellation token and wall-clock deadline, which the
    /// orchestrator fills in for every check: once it is interrupted, the
    /// theory engines abandon the check at their next node and report
    /// `Unknown`. This is what makes a `time_limit` a real deadline
    /// instead of a between-iterations hint — a single long
    /// branch-and-bound tree cannot blow past the wall clock. The
    /// nonlinear backends receive it with each call.
    pub interrupt: Interrupt,
}

impl Default for TheoryBudget {
    fn default() -> Self {
        TheoryBudget {
            max_nodes: 50_000,
            max_nl_splits: 16,
            interrupt: Interrupt::default(),
        }
    }
}

/// What one theory check spent, phase by phase. [`check`] fills it in;
/// the orchestrator folds it into its statistics, and the check's
/// `phase.linear`, `contract.*` and `local_search.steps` trace events are
/// rendered from it, so the two cannot disagree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckEffort {
    /// Time in the linear phase (simplex + branch-and-bound + splits).
    pub linear_time: Duration,
    /// Time in the nonlinear phase (branch-and-prune + local search).
    pub nonlinear_time: Duration,
    /// Simplex pivots of the linear phase.
    pub pivots: u64,
    /// Stack checks that started from rows an earlier check left behind:
    /// every check of a warm phase, and every branch-and-bound re-check
    /// of a cold one.
    pub warm_starts: u64,
    /// The linear phase started on a stack that already held rows of an
    /// earlier phase, even one that ended in a conflict before any stack
    /// check.
    pub warm: bool,
    /// Rows of the previous check kept on the stack, wherever they sit.
    pub reused_rows: u64,
    /// Rows pushed for this check (a row rejected at assertion counts).
    /// Branch-and-bound and disequality-split rows are not counted.
    pub pushed_rows: u64,
    /// Rows of the previous check retracted because this one does not
    /// want them.
    pub retracted_rows: u64,
    /// The nonlinear backends' effort, summed over the check's calls.
    pub search: NlSearchStats,
}

/// A persistent incremental linear session: the simplex assertion stack
/// plus the `(tag, row)` pairs asserted on it. The orchestrator owns one
/// per solve call and threads it through [`TheoryContext`]. Each check
/// diffs the rows it wants against the ones on the stack (*delta
/// assertion*): it retracts the rows no longer wanted, wherever they sit,
/// pushes only the new ones and keeps the rest, so it warm-starts from the
/// previous basis with only the bounds of the flipped atoms changed.
pub struct IncrementalLinear {
    stack: AssertionStack,
    /// The rows the last check asserted, in its row order.
    base: Vec<BaseRow>,
    /// The tag of each base row, by stack handle; `None` for the rows of
    /// branch-and-bound and disequality splits, and for free handles.
    owner: Vec<Option<usize>>,
}

/// A row on the stack for the check's own items.
struct BaseRow {
    tag: usize,
    /// Shared with the prepared constraint the row came from.
    row: Arc<LinearConstraint>,
    id: RowId,
    /// The row's place in the order of the check that last ranked it: of
    /// equally tight bounds, the earlier row's is the reason, as if the
    /// rows had been pushed in that order.
    rank: usize,
}

impl IncrementalLinear {
    /// Wraps a fresh assertion stack (see
    /// [`crate::backends::LinearBackend::make_stack`]).
    pub fn new(stack: AssertionStack) -> IncrementalLinear {
        IncrementalLinear {
            stack,
            base: Vec::new(),
            owner: Vec::new(),
        }
    }

    /// The underlying stack.
    pub fn stack(&self) -> &AssertionStack {
        &self.stack
    }
}

impl std::fmt::Debug for IncrementalLinear {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "IncrementalLinear(rows={}, checks={})",
            self.base.len(),
            self.stack.checks()
        )
    }
}

/// The context a theory check runs in; one context serves one check.
pub struct TheoryContext<'a> {
    /// Number of arithmetic variables.
    pub num_vars: usize,
    /// Kind of each variable.
    pub kinds: &'a [VarKind],
    /// Initial search box of each variable.
    pub ranges: &'a [Interval],
    /// The linear backend; without one, linear checks run a one-shot
    /// exact simplex.
    pub linear: Option<&'a mut dyn LinearBackend>,
    /// Nonlinear backends, tried in order.
    pub nonlinear: &'a mut [Box<dyn NonlinearBackend>],
    /// Budgets.
    pub budget: TheoryBudget,
    /// The check's effort, filled in by [`check`]. The row counts and
    /// warm starts stay zero on the from-scratch linear path.
    pub effort: CheckEffort,
    /// Trace sink for phase spans (`phase.linear` / `phase.nonlinear`).
    pub sink: Option<&'a dyn TraceSink>,
    /// Incremental linear session. When present, the linear phase runs
    /// delta assertion + warm-started checks on it instead of building a
    /// fresh tableau per check.
    pub incremental: Option<&'a mut IncrementalLinear>,
    /// Run the nonlinear backends' full check
    /// ([`crate::backends::NonlinearBackend::escalate`]) instead of their
    /// first pass. The orchestrator sets it when it re-checks the Boolean
    /// models whose first check was inconclusive.
    pub escalate: bool,
    /// Set by [`check`] when the nonlinear first pass left the check
    /// `Unknown` and some backend has a second pass that may settle it.
    pub escalable: bool,
}

/// Normalised internal form of a query: the prepared forms of its items,
/// sorted by what each path does with them.
#[derive(Default)]
struct Normalised<'a> {
    /// `(tag, constraint)` — must hold; affine ones also have a row below.
    nl_asserts: Vec<(usize, &'a NlConstraint)>,
    lin_asserts: Vec<(usize, &'a Arc<LinearConstraint>)>,
    /// `(tag, disequality)` — the affine equality must fail.
    lin_diseqs: Vec<(usize, &'a LinDiseq)>,
    /// `(tag, constraint)` with `op == Eq` — `≠` obligations whose LHS is
    /// nonlinear.
    nl_diseqs: Vec<(usize, &'a NlConstraint)>,
    /// Whether any genuinely nonlinear obligation exists.
    has_nonlinear: bool,
    /// The tag of an item no integer point satisfies.
    refuted: Option<usize>,
}

fn normalise(items: &[TheoryItem]) -> Normalised<'_> {
    let mut out = Normalised::default();
    for item in items {
        let tag = item.tag;
        match item.constraint.literal(item.positive) {
            Literal::Holds(c, row) => {
                match row {
                    Some(row) => out.lin_asserts.push((tag, row)),
                    None => out.has_nonlinear = true,
                }
                out.nl_asserts.push((tag, c.as_ref()));
            }
            Literal::DiffersAffine(diseq) => out.lin_diseqs.push((tag, diseq.as_ref())),
            Literal::Differs(c) => {
                out.nl_diseqs.push((tag, c.as_ref()));
                out.has_nonlinear = true;
            }
            Literal::Never => {
                out.refuted.get_or_insert(tag);
            }
            Literal::Always => {}
        }
    }
    out
}

/// Decides the conjunction of theory items.
pub fn check(items: &[TheoryItem], ctx: &mut TheoryContext<'_>) -> TheoryVerdict {
    let norm = normalise(items);

    // Phase 1: the affine subset (always, as a cheap filter — and as the
    // complete decision procedure when nothing nonlinear is present).
    let lin_started = Instant::now();
    let lin_verdict = solve_linear(&norm, ctx);
    let lin_elapsed = lin_started.elapsed();
    ctx.effort.linear_time += lin_elapsed;
    if let Some(sink) = ctx.sink.filter(|s| s.enabled()) {
        let effort = &ctx.effort;
        sink.emit(
            &TraceEvent::new("phase.linear")
                .field("start", if effort.warm { "warm" } else { "cold" })
                .field_u64("reused_rows", effort.reused_rows)
                .field_u64("pushed_rows", effort.pushed_rows)
                .field_u64("retracted_rows", effort.retracted_rows)
                .duration(lin_elapsed),
        );
    }
    match (&lin_verdict, norm.has_nonlinear) {
        (LinOutcome::Unsat(tags), _) => return TheoryVerdict::Unsat(tags.clone()),
        (LinOutcome::Sat(model), false) => {
            return TheoryVerdict::Sat(ArithModel::Exact(pad(model.clone(), ctx.num_vars)));
        }
        (LinOutcome::Unknown, false) => return TheoryVerdict::Unknown,
        _ => {} // nonlinear present: fall through to phase 2
    }

    // Phase 2: full system to the nonlinear backend(s).
    let nl_started = Instant::now();
    let verdict = solve_nonlinear(&norm, ctx);
    let nl_elapsed = nl_started.elapsed();
    ctx.effort.nonlinear_time += nl_elapsed;
    if let Some(sink) = ctx.sink.filter(|s| s.enabled()) {
        sink.emit(&TraceEvent::new("phase.nonlinear").duration(nl_elapsed));
        // Per-contractor and local-search effort of this check.
        let search = &ctx.effort.search;
        let counts = [
            ("contract.hc4", search.hc4_contractions),
            ("contract.bc3", search.bc3_contractions),
            ("contract.newton", search.newton_contractions),
            ("local_search.steps", search.local_search_steps),
        ];
        for (kind, count) in counts {
            if count > 0 {
                sink.emit(&TraceEvent::new(kind).field_u64("count", count));
            }
        }
    }
    verdict
}

fn pad(mut v: Vec<Rational>, n: usize) -> Vec<Rational> {
    v.resize(n, Rational::zero());
    v
}

// ---------------------------------------------------------------------------
// Linear path: simplex + integer branch-and-bound + lazy disequalities
// ---------------------------------------------------------------------------

enum LinOutcome {
    Sat(Vec<Rational>),
    Unsat(Vec<usize>),
    Unknown,
}

fn solve_linear(norm: &Normalised, ctx: &mut TheoryContext<'_>) -> LinOutcome {
    if let Some(tag) = norm.refuted {
        return LinOutcome::Unsat(vec![tag]);
    }
    if ctx.incremental.is_some() {
        // Temporarily move the session out so the recursion can borrow
        // both it and `ctx` independently.
        let inc = ctx.incremental.take().expect("checked above");
        let out = solve_linear_incremental(inc, norm, ctx);
        ctx.incremental = Some(inc);
        return out;
    }
    let mut constraints: Vec<LinearConstraint> = norm
        .lin_asserts
        .iter()
        .map(|(_, c)| LinearConstraint::clone(c))
        .collect();
    let base_len = constraints.len();
    let tags: Vec<usize> = norm.lin_asserts.iter().map(|(t, _)| *t).collect();
    let mut nodes = ctx.budget.max_nodes;
    rec_linear(
        &mut constraints,
        base_len,
        &tags,
        &norm.lin_diseqs,
        ctx,
        &mut nodes,
    )
}

/// The incremental linear path: delta assertion against the session's
/// previous rows, then warm-started branch-and-bound on the stack. Counts
/// the pivots and warm starts of this check into its effort.
fn solve_linear_incremental(
    inc: &mut IncrementalLinear,
    norm: &Normalised,
    ctx: &mut TheoryContext<'_>,
) -> LinOutcome {
    let warm = !inc.base.is_empty();
    ctx.effort.warm = warm;
    let (pivots, checks) = (inc.stack.pivots(), inc.stack.checks());
    let out = match assert_delta(inc, &norm.lin_asserts, &mut ctx.effort) {
        Err(tags) => LinOutcome::Unsat(tags),
        Ok(()) => {
            let mut nodes = ctx.budget.max_nodes;
            rec_linear_inc(inc, &norm.lin_diseqs, ctx, &mut nodes)
        }
    };
    let checks = inc.stack.checks() - checks;
    ctx.effort.pivots += inc.stack.pivots() - pivots;
    ctx.effort.warm_starts += if warm {
        checks
    } else {
        checks.saturating_sub(1)
    };
    out
}

/// Delta assertion: makes the session's base rows `desired`, in its order.
/// A wanted row the stack holds under the same tag is kept; the others on
/// the stack are retracted, and the missing ones pushed. On an assert-time
/// conflict, returns its tags: the rows pushed so far stay, with every
/// kept row, and the rest are left out.
fn assert_delta(
    inc: &mut IncrementalLinear,
    desired: &[(usize, &Arc<LinearConstraint>)],
    effort: &mut CheckEffort,
) -> Result<(), Vec<usize>> {
    // Chain the base rows by tag, then match each wanted row against its
    // tag's chain: by pointer first, by value for a row prepared again.
    const NONE: usize = usize::MAX;
    let width = inc.base.iter().map(|b| b.tag + 1).max().unwrap_or(0);
    let mut head = vec![NONE; width];
    let mut next = vec![NONE; inc.base.len()];
    for (i, b) in inc.base.iter().enumerate().rev() {
        next[i] = head[b.tag];
        head[b.tag] = i;
    }
    let mut kept = vec![false; inc.base.len()];
    let matched: Vec<Option<usize>> = desired
        .iter()
        .map(|(tag, row)| {
            let mut i = head.get(*tag).copied().unwrap_or(NONE);
            while i != NONE {
                let b = &inc.base[i];
                if !kept[i] && (Arc::ptr_eq(&b.row, row) || b.row == **row) {
                    kept[i] = true;
                    return Some(i);
                }
                i = next[i];
            }
            None
        })
        .collect();

    for (b, _) in inc.base.iter().zip(&kept).filter(|(_, &k)| !k) {
        inc.stack.retract(b.id);
        inc.owner[b.id] = None;
        effort.retracted_rows += 1;
    }
    let mut old: Vec<Option<BaseRow>> = std::mem::take(&mut inc.base)
        .into_iter()
        .map(Some)
        .collect();
    // Rank the kept rows by their place in this check's order before any
    // new row is pushed, so a tie at assertion names the earlier row.
    for (rank, i) in matched.iter().enumerate() {
        if let Some(b) = i.and_then(|i| old[i].as_mut()) {
            if b.rank != rank {
                b.rank = rank;
                inc.stack.set_rank(b.id, rank as u64);
            }
        }
    }
    effort.reused_rows = matched.iter().flatten().count() as u64;
    let mut conflict = None;
    for (rank, ((tag, row), i)) in desired.iter().zip(&matched).enumerate() {
        if let Some(i) = i {
            inc.base.push(old[*i].take().expect("matched once"));
            continue;
        }
        if conflict.is_some() {
            continue;
        }
        effort.pushed_rows += 1;
        match inc.stack.push_ranked(row, rank as u64) {
            Ok(id) => {
                if inc.owner.len() <= id {
                    inc.owner.resize(id + 1, None);
                }
                inc.owner[id] = Some(*tag);
                inc.base.push(BaseRow {
                    tag: *tag,
                    row: Arc::clone(row),
                    id,
                    rank,
                });
            }
            // The rows cited are base rows; the rejected one adds its tag.
            Err(rows) => {
                let mut tags = map_rows(inc, &rows);
                tags.push(*tag);
                tags.sort_unstable();
                tags.dedup();
                conflict = Some(tags);
            }
        }
    }
    conflict.map_or(Ok(()), Err)
}

/// Maps an unsat certificate (stack rows) back to literal tags. A branch
/// row in it widens the core to all base tags, exactly like the
/// from-scratch path (sound: supersets of an unsat set stay unsat).
fn map_rows(inc: &IncrementalLinear, rows: &[RowId]) -> Vec<usize> {
    let precise: Option<Vec<usize>> = rows
        .iter()
        .map(|&r| inc.owner.get(r).copied().flatten())
        .collect();
    let mut t = precise.unwrap_or_else(|| inc.base.iter().map(|b| b.tag).collect());
    t.sort_unstable();
    t.dedup();
    t
}

fn rec_linear_inc(
    inc: &mut IncrementalLinear,
    diseqs: &[(usize, &LinDiseq)],
    ctx: &mut TheoryContext<'_>,
    nodes: &mut usize,
) -> LinOutcome {
    if *nodes == 0 || ctx.budget.interrupt.interrupted() {
        return LinOutcome::Unknown;
    }
    *nodes -= 1;

    let model = match inc.stack.check() {
        StackResult::Unsat(rows) => return LinOutcome::Unsat(map_rows(inc, &rows)),
        StackResult::Sat => pad(inc.stack.model(), ctx.num_vars),
    };

    // Integrality: branch on the first int-typed variable with a
    // fractional value.
    for (v, kind) in ctx.kinds.iter().enumerate() {
        if *kind == VarKind::Int && !model[v].is_integer() {
            let below =
                LinearConstraint::new(LinExpr::var(v), CmpOp::Le, Rational::from(model[v].floor()));
            let above =
                LinearConstraint::new(LinExpr::var(v), CmpOp::Ge, Rational::from(model[v].ceil()));
            return branch_inc(inc, [below, above], diseqs, ctx, nodes, None);
        }
    }

    // Disequalities: find one the model violates (lhs = rhs exactly).
    for (tag, d) in diseqs {
        if d.expr.eval(&model) == d.rhs {
            return branch_inc(inc, d.split.clone(), diseqs, ctx, nodes, Some(*tag));
        }
    }

    LinOutcome::Sat(model)
}

/// [`branch`], incrementally: each alternative is pushed onto the stack
/// (a few pivots on re-check, not a full solve) and popped before the
/// sibling runs; the stack is back at `mark` on every exit path.
fn branch_inc(
    inc: &mut IncrementalLinear,
    alternatives: [LinearConstraint; 2],
    diseqs: &[(usize, &LinDiseq)],
    ctx: &mut TheoryContext<'_>,
    nodes: &mut usize,
    diseq_tag: Option<usize>,
) -> LinOutcome {
    let mut conflict: Vec<usize> = Vec::new();
    let mark = inc.stack.len();
    for alt in alternatives {
        let out = match inc.stack.push(&alt) {
            Ok(_) => {
                let out = rec_linear_inc(inc, diseqs, ctx, nodes);
                inc.stack.pop_to(mark);
                out
            }
            // Assert-time conflict with rows already on the stack (the
            // failed push leaves the stack unchanged).
            Err(rows) => LinOutcome::Unsat(map_rows(inc, &rows)),
        };
        match out {
            LinOutcome::Sat(m) => return LinOutcome::Sat(m),
            LinOutcome::Unknown => return LinOutcome::Unknown,
            LinOutcome::Unsat(t) => conflict.extend(t),
        }
    }
    conflict.extend(diseq_tag);
    conflict.sort_unstable();
    conflict.dedup();
    LinOutcome::Unsat(conflict)
}

fn rec_linear(
    constraints: &mut Vec<LinearConstraint>,
    base_len: usize,
    tags: &[usize],
    diseqs: &[(usize, &LinDiseq)],
    ctx: &mut TheoryContext<'_>,
    nodes: &mut usize,
) -> LinOutcome {
    if *nodes == 0 || ctx.budget.interrupt.interrupted() {
        return LinOutcome::Unknown;
    }
    *nodes -= 1;

    let (feasibility, pivots) = match ctx.linear.as_deref_mut() {
        Some(backend) => backend.check(constraints),
        None => (absolver_linear::check_conjunction(constraints), 0),
    };
    ctx.effort.pivots += pivots;

    let model = match feasibility {
        Feasibility::Infeasible(core) => {
            // Map core members back to literal tags; branch constraints
            // (index ≥ base_len) widen the core to all base tags (sound:
            // supersets of an unsat set stay unsat).
            let precise = core.iter().all(|&i| i < base_len);
            let out = if precise {
                let mut t: Vec<usize> = core.iter().map(|&i| tags[i]).collect();
                t.sort_unstable();
                t.dedup();
                t
            } else {
                let mut t = tags.to_vec();
                t.sort_unstable();
                t.dedup();
                t
            };
            return LinOutcome::Unsat(out);
        }
        Feasibility::Feasible(m) => pad(m, ctx.num_vars),
    };

    // Integrality: branch on the first int-typed variable with a
    // fractional value.
    for (v, kind) in ctx.kinds.iter().enumerate() {
        if *kind == VarKind::Int && !model[v].is_integer() {
            let below =
                LinearConstraint::new(LinExpr::var(v), CmpOp::Le, Rational::from(model[v].floor()));
            let above =
                LinearConstraint::new(LinExpr::var(v), CmpOp::Ge, Rational::from(model[v].ceil()));
            return branch(
                constraints,
                [below, above],
                base_len,
                tags,
                diseqs,
                ctx,
                nodes,
                None,
            );
        }
    }

    // Disequalities: find one the model violates (lhs = rhs exactly).
    for (tag, d) in diseqs {
        if d.expr.eval(&model) == d.rhs {
            return branch(
                constraints,
                d.split.clone(),
                base_len,
                tags,
                diseqs,
                ctx,
                nodes,
                Some(*tag),
            );
        }
    }

    LinOutcome::Sat(model)
}

/// Tries both branch constraints; SAT wins, two UNSATs merge cores (plus
/// the disequality's own tag when given), any Unknown propagates.
#[allow(clippy::too_many_arguments)]
fn branch(
    constraints: &mut Vec<LinearConstraint>,
    alternatives: [LinearConstraint; 2],
    base_len: usize,
    tags: &[usize],
    diseqs: &[(usize, &LinDiseq)],
    ctx: &mut TheoryContext<'_>,
    nodes: &mut usize,
    diseq_tag: Option<usize>,
) -> LinOutcome {
    let mut conflict: Vec<usize> = Vec::new();
    for alt in alternatives {
        constraints.push(alt);
        let out = rec_linear(constraints, base_len, tags, diseqs, ctx, nodes);
        constraints.pop();
        match out {
            LinOutcome::Sat(m) => return LinOutcome::Sat(m),
            LinOutcome::Unknown => return LinOutcome::Unknown,
            LinOutcome::Unsat(t) => conflict.extend(t),
        }
    }
    conflict.extend(diseq_tag);
    conflict.sort_unstable();
    conflict.dedup();
    LinOutcome::Unsat(conflict)
}

// ---------------------------------------------------------------------------
// Nonlinear path
// ---------------------------------------------------------------------------

fn solve_nonlinear(norm: &Normalised, ctx: &mut TheoryContext<'_>) -> TheoryVerdict {
    // All asserted constraints (linear ones included — the joint system
    // must be satisfied by one witness).
    let constraints: Vec<NlConstraint> =
        norm.nl_asserts.iter().map(|(_, c)| (**c).clone()).collect();
    let all_tags: Vec<usize> = norm
        .nl_asserts
        .iter()
        .map(|(t, _)| *t)
        .chain(norm.lin_diseqs.iter().map(|(t, _)| *t))
        .chain(norm.nl_diseqs.iter().map(|(t, _)| *t))
        .collect();
    let diseqs: Vec<(usize, NlConstraint)> = norm
        .lin_diseqs
        .iter()
        .map(|(t, d)| (*t, d.equality.clone()))
        .chain(norm.nl_diseqs.iter().map(|(t, c)| (*t, (**c).clone())))
        .collect();

    let mut splits = ctx.budget.max_nl_splits;
    let verdict = rec_nonlinear(constraints, &diseqs, &all_tags, ctx, &mut splits);
    if !ctx.escalate
        && verdict == TheoryVerdict::Unknown
        && !ctx.budget.interrupt.interrupted()
        && ctx.nonlinear.iter().any(|b| b.escalates())
    {
        ctx.escalable = true;
    }
    verdict
}

fn rec_nonlinear(
    constraints: Vec<NlConstraint>,
    diseqs: &[(usize, NlConstraint)],
    all_tags: &[usize],
    ctx: &mut TheoryContext<'_>,
    splits: &mut usize,
) -> TheoryVerdict {
    if ctx.budget.interrupt.interrupted() {
        return TheoryVerdict::Unknown;
    }
    let mut problem = NlProblem::new(ctx.num_vars);
    for c in &constraints {
        problem.add_constraint(c.clone());
    }
    for v in 0..ctx.num_vars {
        problem.bound_var(v, ctx.ranges[v]);
    }

    let mut verdict = NlVerdict::Unknown;
    for backend in ctx.nonlinear.iter_mut() {
        let (answer, effort) = if ctx.escalate {
            backend.escalate(&problem, &ctx.budget.interrupt)
        } else {
            backend.solve(&problem, &ctx.budget.interrupt)
        };
        ctx.effort.search.add(&effort);
        verdict = answer;
        if verdict != NlVerdict::Unknown {
            break; // "the preceding solvers failed to provide a decent result"
        }
    }

    match verdict {
        NlVerdict::Unsat => {
            let mut tags = all_tags.to_vec();
            tags.sort_unstable();
            tags.dedup();
            TheoryVerdict::Unsat(tags)
        }
        NlVerdict::Unknown => TheoryVerdict::Unknown,
        NlVerdict::Sat(witness) => {
            // Integer variables must come out integral on this path. Box
            // midpoints and descent steps rarely land on integers even when
            // an integral solution exists, so snap every one that is off
            // (`-0.0` included, to `0`) and re-verify the full system
            // before giving up: a point within tolerance of an integral one
            // need not satisfy the system there.
            let mut witness = witness;
            let mut snapped = false;
            for (v, kind) in ctx.kinds.iter().enumerate() {
                if *kind == VarKind::Int {
                    // `+ 0.0` turns a rounded `-0.0` into `0.0`.
                    let rounded = witness[v].round() + 0.0;
                    if witness[v].to_bits() != rounded.to_bits() {
                        witness[v] = rounded;
                        snapped = true;
                    }
                }
            }
            if snapped && !problem.is_satisfied(&witness, 1e-6) {
                return TheoryVerdict::Unknown;
            }
            // Check disequalities; split lazily on a violated one.
            for (tag, d) in diseqs {
                let lhs = d.lhs_f64(&witness);
                let rhs = d.rhs.to_f64();
                if (lhs - rhs).abs() <= 1e-9 {
                    if *splits == 0 {
                        return TheoryVerdict::Unknown;
                    }
                    *splits -= 1;
                    let mut any_unknown = false;
                    for op in [CmpOp::Lt, CmpOp::Gt] {
                        let mut branched = constraints.clone();
                        branched.push(d.with_op(op));
                        match rec_nonlinear(branched, diseqs, all_tags, ctx, splits) {
                            TheoryVerdict::Sat(m) => return TheoryVerdict::Sat(m),
                            TheoryVerdict::Unknown => any_unknown = true,
                            TheoryVerdict::Unsat(_) => {}
                        }
                    }
                    return if any_unknown {
                        TheoryVerdict::Unknown
                    } else {
                        let mut tags = all_tags.to_vec();
                        tags.push(*tag);
                        tags.sort_unstable();
                        tags.dedup();
                        TheoryVerdict::Unsat(tags)
                    };
                }
            }
            TheoryVerdict::Sat(ArithModel::Numeric(witness))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{CascadeNonlinear, SimplexLinear};
    use absolver_nonlinear::Expr;
    use absolver_testkit::{gen, property, Gen};

    fn q(n: i64) -> Rational {
        Rational::from_int(n)
    }

    /// An item prepared for no particular kinds; [`run`] and [`run_inc`]
    /// prepare it again for the case's kinds, as the orchestrator does
    /// once per solve.
    fn item(tag: usize, c: NlConstraint, positive: bool) -> TheoryItem {
        TheoryItem {
            tag,
            constraint: Arc::new(PreparedConstraint::new(c, &[])),
            positive,
        }
    }

    /// `items` prepared again for `kinds`.
    fn prepared(items: &[TheoryItem], kinds: &[VarKind]) -> Vec<TheoryItem> {
        items
            .iter()
            .map(|it| {
                // Prepared for no kinds, the positive literal is the
                // constraint as stated.
                let Literal::Holds(c, _) = &it.constraint.positive else {
                    panic!("not from `item`: {:?}", it.constraint);
                };
                TheoryItem {
                    constraint: Arc::new(PreparedConstraint::new((**c).clone(), kinds)),
                    ..it.clone()
                }
            })
            .collect()
    }

    fn run(items: &[TheoryItem], kinds: Vec<VarKind>, ranges: Vec<Interval>) -> TheoryVerdict {
        run_counted(None, items, kinds, ranges).0
    }

    /// Like [`run`], but through a caller-owned incremental session.
    fn run_inc(
        inc: &mut IncrementalLinear,
        items: &[TheoryItem],
        kinds: Vec<VarKind>,
        ranges: Vec<Interval>,
    ) -> TheoryVerdict {
        run_counted(Some(inc), items, kinds, ranges).0
    }

    /// [`SimplexLinear`], counting its checks.
    #[derive(Default)]
    struct CountingLinear {
        checks: u64,
    }

    impl LinearBackend for CountingLinear {
        fn name(&self) -> &str {
            "counting-simplex"
        }

        fn check(&mut self, constraints: &[LinearConstraint]) -> (Feasibility, u64) {
            self.checks += 1;
            SimplexLinear::new().check(constraints)
        }
    }

    /// Checks `items` from scratch or, given a session, incrementally.
    /// Returns the verdict, the simplex checks the linear phase made (one
    /// per node, so more than one means it branched) and the check's
    /// effort.
    fn run_counted(
        inc: Option<&mut IncrementalLinear>,
        items: &[TheoryItem],
        kinds: Vec<VarKind>,
        ranges: Vec<Interval>,
    ) -> (TheoryVerdict, u64, CheckEffort) {
        let items = prepared(items, &kinds);
        let stack_checks = inc.as_ref().map(|inc| inc.stack().checks());
        let mut linear = CountingLinear::default();
        let mut nonlinear: Vec<Box<dyn NonlinearBackend>> =
            vec![Box::new(CascadeNonlinear::default())];
        let mut ctx = TheoryContext {
            num_vars: kinds.len(),
            kinds: &kinds,
            ranges: &ranges,
            linear: Some(&mut linear),
            nonlinear: &mut nonlinear,
            budget: TheoryBudget::default(),
            effort: CheckEffort::default(),
            sink: None,
            incremental: inc,
            escalate: false,
            escalable: false,
        };
        let verdict = check(&items, &mut ctx);
        let effort = ctx.effort;
        let checks = match (stack_checks, &ctx.incremental) {
            (Some(before), Some(inc)) => inc.stack().checks() - before,
            _ => linear.checks,
        };
        (verdict, checks, effort)
    }

    fn reals(n: usize) -> (Vec<VarKind>, Vec<Interval>) {
        (
            vec![VarKind::Real; n],
            vec![Interval::new(-100.0, 100.0); n],
        )
    }

    fn ints(n: usize) -> (Vec<VarKind>, Vec<Interval>) {
        (vec![VarKind::Int; n], vec![Interval::new(-100.0, 100.0); n])
    }

    #[test]
    fn pure_linear_sat_and_unsat() {
        let (k, r) = reals(2);
        let c1 = NlConstraint::new(Expr::var(0) + Expr::var(1), CmpOp::Le, q(5));
        let c2 = NlConstraint::new(Expr::var(0), CmpOp::Ge, q(1));
        let sat = run(
            &[item(0, c1.clone(), true), item(1, c2.clone(), true)],
            k.clone(),
            r.clone(),
        );
        match sat {
            TheoryVerdict::Sat(ArithModel::Exact(m)) => {
                assert!(&m[0] + &m[1] <= q(5));
                assert!(m[0] >= q(1));
            }
            other => panic!("{other:?}"),
        }
        let c3 = NlConstraint::new(Expr::var(0), CmpOp::Lt, q(1));
        let unsat = run(&[item(0, c2, true), item(2, c3, true)], k, r);
        assert_eq!(unsat, TheoryVerdict::Unsat(vec![0, 2]));
    }

    #[test]
    fn negation_of_inequality() {
        // ¬(x ≥ 3) ≡ x < 3, combined with x ≥ 3 is unsat.
        let (k, r) = reals(1);
        let ge = NlConstraint::new(Expr::var(0), CmpOp::Ge, q(3));
        let verdict = run(&[item(7, ge.clone(), true), item(9, ge, false)], k, r);
        assert_eq!(verdict, TheoryVerdict::Unsat(vec![7, 9]));
    }

    #[test]
    fn lazy_disequality_split() {
        // 2 ≤ x ≤ 2 ∧ x ≠ 2 is unsat, and the conflict mentions the diseq.
        let (k, r) = reals(1);
        let le = NlConstraint::new(Expr::var(0), CmpOp::Le, q(2));
        let ge = NlConstraint::new(Expr::var(0), CmpOp::Ge, q(2));
        let eq = NlConstraint::new(Expr::var(0), CmpOp::Eq, q(2));
        let verdict = run(
            &[item(0, le, true), item(1, ge, true), item(2, eq, false)],
            k.clone(),
            r.clone(),
        );
        match verdict {
            TheoryVerdict::Unsat(tags) => assert!(tags.contains(&2)),
            other => panic!("{other:?}"),
        }
        // With slack (x ≤ 3) it is sat, and the witness avoids 2.
        let le3 = NlConstraint::new(Expr::var(0), CmpOp::Le, q(3));
        let ge2 = NlConstraint::new(Expr::var(0), CmpOp::Ge, q(2));
        let eq2 = NlConstraint::new(Expr::var(0), CmpOp::Eq, q(2));
        match run(
            &[item(0, le3, true), item(1, ge2, true), item(2, eq2, false)],
            k,
            r,
        ) {
            TheoryVerdict::Sat(ArithModel::Exact(m)) => assert_ne!(m[0], q(2)),
            other => panic!("{other:?}"),
        }
    }

    /// `2x + 3y = 1`: its coefficients are coprime and its bound is an
    /// integer, so the strengthening leaves it as it is, and over ℚ it
    /// holds at fractional points such as `(1/2, 0)`.
    fn coprime_row() -> NlConstraint {
        NlConstraint::new(
            Expr::int(2) * Expr::var(0) + Expr::int(3) * Expr::var(1),
            CmpOp::Eq,
            q(1),
        )
    }

    /// `lo ≤ x_v ≤ hi` as two asserted items tagged `tag` and `tag + 1`.
    fn boxed(tag: usize, v: usize, lo: i64, hi: i64) -> [TheoryItem; 2] {
        [
            item(tag, NlConstraint::new(Expr::var(v), CmpOp::Ge, q(lo)), true),
            item(
                tag + 1,
                NlConstraint::new(Expr::var(v), CmpOp::Le, q(hi)),
                true,
            ),
        ]
    }

    #[test]
    fn integer_branch_and_bound() {
        // 2x + 3y = 1 ∧ 0 ≤ x, y ≤ 1 has no integer solution, but its LP
        // relaxation holds at (1/2, 0): only branch-and-bound refutes it,
        // on either path.
        let (k, r) = ints(2);
        let mut items = vec![item(0, coprime_row(), true)];
        items.extend(boxed(1, 0, 0, 1));
        items.extend(boxed(3, 1, 0, 1));
        let mut inc = IncrementalLinear::new(AssertionStack::new(2));
        for (path, (verdict, lp_checks, _)) in [
            ("scratch", run_counted(None, &items, k.clone(), r.clone())),
            ("stack", run_counted(Some(&mut inc), &items, k, r)),
        ] {
            assert!(
                matches!(verdict, TheoryVerdict::Unsat(_)),
                "{path}: {verdict:?}"
            );
            assert!(lp_checks > 1, "{path}: refuted without branching");
        }
        // 2x = 3 has no integer solution (x = 3/2 over ℚ); preparation
        // already refutes it, with its own tag as the core.
        let (k, r) = ints(1);
        let c = NlConstraint::new(Expr::int(2) * Expr::var(0), CmpOp::Eq, q(3));
        assert_eq!(
            run(&[item(0, c, true)], k, r),
            TheoryVerdict::Unsat(vec![0])
        );
        // 1 ≤ x ≤ 2 ∧ x ≠ 1 ∧ x ≠ 2 has no integer solution either; the
        // disequality splits (x ≤ 0 | x ≥ 2, x ≤ 1 | x ≥ 3) refute it.
        let (k, r) = ints(1);
        let items = vec![
            item(0, NlConstraint::new(Expr::var(0), CmpOp::Ge, q(1)), true),
            item(1, NlConstraint::new(Expr::var(0), CmpOp::Le, q(2)), true),
            item(2, NlConstraint::new(Expr::var(0), CmpOp::Eq, q(1)), false),
            item(3, NlConstraint::new(Expr::var(0), CmpOp::Eq, q(2)), false),
        ];
        match run(&items, k, r) {
            TheoryVerdict::Unsat(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn integer_sat_gets_integral_witness() {
        // 2x + 3y = 1 ∧ −3 ≤ x ≤ 3: the relaxation's vertices (−3, 7/3)
        // and (3, −5/3) are fractional, and branch-and-bound reaches one
        // of the integer points (−1, 1) and (2, −1), on either path.
        let (k, r) = ints(2);
        let mut items = vec![item(0, coprime_row(), true)];
        items.extend(boxed(1, 0, -3, 3));
        let mut inc = IncrementalLinear::new(AssertionStack::new(2));
        for (path, (verdict, lp_checks, _)) in [
            ("scratch", run_counted(None, &items, k.clone(), r.clone())),
            ("stack", run_counted(Some(&mut inc), &items, k, r)),
        ] {
            match verdict {
                TheoryVerdict::Sat(ArithModel::Exact(m)) => {
                    assert!(
                        [[q(-1), q(1)], [q(2), q(-1)]].contains(&[m[0].clone(), m[1].clone()]),
                        "{path}: {m:?}"
                    );
                }
                other => panic!("{path}: {other:?}"),
            }
            assert!(lp_checks > 1, "{path}: integral without branching");
        }
        // 2 ≤ 3x ≤ 7 → x = 1 or 2 (preparation turns it into 1 ≤ x ≤ 2).
        let (k, r) = ints(1);
        let items = vec![
            item(
                0,
                NlConstraint::new(Expr::int(3) * Expr::var(0), CmpOp::Ge, q(2)),
                true,
            ),
            item(
                1,
                NlConstraint::new(Expr::int(3) * Expr::var(0), CmpOp::Le, q(7)),
                true,
            ),
        ];
        match run(&items, k, r) {
            TheoryVerdict::Sat(ArithModel::Exact(m)) => {
                assert!(m[0].is_integer());
                assert!(m[0] == q(1) || m[0] == q(2));
            }
            other => panic!("{other:?}"),
        }
    }

    /// The linear row that asserting `c` (or, with `positive` false, its
    /// negation) adds over variables of the given kinds.
    fn row(c: NlConstraint, kinds: &[VarKind], positive: bool) -> Option<LinearConstraint> {
        match PreparedConstraint::new(c, kinds).literal(positive) {
            Literal::Holds(_, row) => row.as_deref().cloned(),
            other => panic!("not a comparison: {other:?}"),
        }
    }

    /// The row `Σ aᵢ·xᵢ ⋈ rhs` over integer coefficients `(i, aᵢ)`.
    fn lin(terms: &[(usize, i64)], op: CmpOp, rhs: i64) -> LinearConstraint {
        let expr = LinExpr::from_terms(terms.iter().map(|&(v, a)| (v, q(a))));
        LinearConstraint::new(expr, op, q(rhs))
    }

    fn frac(num: i64, den: i64) -> Expr {
        Expr::constant(Rational::new(num, den))
    }

    #[test]
    fn integer_rows_are_strengthened() {
        let int = [VarKind::Int; 2];
        // x < 1 → x ≤ 0, and ¬(x ≥ 1) is the same row.
        let lt = NlConstraint::new(Expr::var(0), CmpOp::Lt, q(1));
        assert_eq!(row(lt, &int, true), Some(lin(&[(0, 1)], CmpOp::Le, 0)));
        let ge = NlConstraint::new(Expr::var(0), CmpOp::Ge, q(1));
        assert_eq!(row(ge, &int, false), Some(lin(&[(0, 1)], CmpOp::Le, 0)));
        // 2x + 4y ≤ 5 → x + 2y ≤ 2: divided by the gcd, bound rounded down.
        let gcd = NlConstraint::new(
            Expr::int(2) * Expr::var(0) + Expr::int(4) * Expr::var(1),
            CmpOp::Le,
            q(5),
        );
        assert_eq!(
            row(gcd, &int, true),
            Some(lin(&[(0, 1), (1, 2)], CmpOp::Le, 2))
        );
        // x/2 + y/3 < 1 → 3x + 2y ≤ 5: scaled to integers first.
        let rational = NlConstraint::new(
            frac(1, 2) * Expr::var(0) + frac(1, 3) * Expr::var(1),
            CmpOp::Lt,
            q(1),
        );
        assert_eq!(
            row(rational, &int, true),
            Some(lin(&[(0, 3), (1, 2)], CmpOp::Le, 5))
        );
        // −3x > 2 → x < −2/3 → x ≤ −1: the leading coefficient turns
        // positive, and the bound rounds away from zero.
        let negative = NlConstraint::new(Expr::int(-3) * Expr::var(0), CmpOp::Gt, q(2));
        assert_eq!(
            row(negative, &int, true),
            Some(lin(&[(0, 1)], CmpOp::Le, -1))
        );
    }

    #[test]
    fn fractional_integer_equality_is_unsat_alone_and_its_negation_dropped() {
        let (k, r) = ints(1);
        let two_x = NlConstraint::new(Expr::int(2) * Expr::var(0), CmpOp::Eq, q(3));
        let x_is_1 = NlConstraint::new(Expr::var(0), CmpOp::Eq, q(1));
        // 2x = 3 is unsat with its own tag as the core, on both paths.
        let items = [item(4, x_is_1.clone(), true), item(7, two_x.clone(), true)];
        assert_eq!(
            run(&items, k.clone(), r.clone()),
            TheoryVerdict::Unsat(vec![7])
        );
        let mut inc = IncrementalLinear::new(AssertionStack::new(1));
        assert_eq!(
            run_inc(&mut inc, &items, k.clone(), r.clone()),
            TheoryVerdict::Unsat(vec![7])
        );
        // ¬(2x = 3) holds at every integer: no row, no split.
        let negated = prepared(&[item(7, two_x.clone(), false)], &k);
        let norm = normalise(&negated);
        assert!(norm.lin_asserts.is_empty() && norm.lin_diseqs.is_empty());
        assert!(norm.nl_asserts.is_empty() && norm.nl_diseqs.is_empty());
        assert_eq!(norm.refuted, None);
        let items = [item(4, x_is_1, true), item(7, two_x, false)];
        assert!(matches!(run(&items, k, r), TheoryVerdict::Sat(_)));
    }

    #[test]
    fn integer_disequality_splits_past_the_excluded_value() {
        // ¬(2x + 2y = 4) over integers: x + y ≤ 1 or x + y ≥ 3.
        let c = NlConstraint::new(
            Expr::int(2) * Expr::var(0) + Expr::int(2) * Expr::var(1),
            CmpOp::Eq,
            q(4),
        );
        match PreparedConstraint::new(c.clone(), &[VarKind::Int; 2]).literal(false) {
            Literal::DiffersAffine(d) => {
                assert_eq!(
                    d.split,
                    [
                        lin(&[(0, 1), (1, 1)], CmpOp::Le, 1),
                        lin(&[(0, 1), (1, 1)], CmpOp::Ge, 3),
                    ]
                );
                // The nonlinear path splits the row as stated.
                let (expr, k) = d.equality.to_affine().expect("affine");
                let stated =
                    LinearConstraint::new(expr.clone(), d.equality.op, &d.equality.rhs - k);
                assert_eq!(stated, lin(&[(0, 2), (1, 2)], CmpOp::Eq, 4));
            }
            other => panic!("{other:?}"),
        }
        // Over reals the split stays strict.
        match PreparedConstraint::new(c, &[VarKind::Real; 2]).literal(false) {
            Literal::DiffersAffine(d) => assert_eq!(
                d.split,
                [
                    lin(&[(0, 2), (1, 2)], CmpOp::Lt, 4),
                    lin(&[(0, 2), (1, 2)], CmpOp::Gt, 4),
                ]
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rows_with_real_variables_are_untouched() {
        let c = NlConstraint::new(
            Expr::int(2) * Expr::var(0) + Expr::int(4) * Expr::var(1),
            CmpOp::Lt,
            q(5),
        );
        let original = Some(lin(&[(0, 2), (1, 4)], CmpOp::Lt, 5));
        let mixed = [VarKind::Int, VarKind::Real];
        assert_eq!(row(c.clone(), &mixed, true), original);
        assert_eq!(row(c.clone(), &[VarKind::Real; 2], true), original);
        assert_eq!(
            row(c, &mixed, false),
            Some(lin(&[(0, 2), (1, 4)], CmpOp::Ge, 5))
        );
        let half = NlConstraint::new(Expr::int(2) * Expr::var(1), CmpOp::Eq, q(3));
        assert_eq!(row(half, &mixed, true), Some(lin(&[(1, 2)], CmpOp::Eq, 3)));
    }

    #[test]
    fn nonlinear_joint_with_linear() {
        // x ≥ 2 (linear) ∧ x·y = 1 (nonlinear) ∧ y ≥ 1 (linear): unsat
        // because y = 1/x ≤ 1/2 < 1.
        let (k, r) = reals(2);
        let items = vec![
            item(0, NlConstraint::new(Expr::var(0), CmpOp::Ge, q(2)), true),
            item(
                1,
                NlConstraint::new(Expr::var(0) * Expr::var(1), CmpOp::Eq, q(1)),
                true,
            ),
            item(2, NlConstraint::new(Expr::var(1), CmpOp::Ge, q(1)), true),
        ];
        match run(&items, k.clone(), r.clone()) {
            TheoryVerdict::Unsat(tags) => assert_eq!(tags, vec![0, 1, 2]),
            other => panic!("{other:?}"),
        }
        // Dropping the y-bound makes it satisfiable.
        match run(&items[..2], k, r) {
            TheoryVerdict::Sat(ArithModel::Numeric(w)) => {
                assert!((w[0] * w[1] - 1.0).abs() < 1e-5);
                assert!(w[0] >= 2.0 - 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn nonlinear_negation() {
        // ¬(x² ≤ 4) ≡ x² > 4 with −1 ≤ x ≤ 1: unsat.
        let (k, r) = reals(1);
        let items = vec![
            item(0, NlConstraint::new(Expr::var(0), CmpOp::Ge, q(-1)), true),
            item(1, NlConstraint::new(Expr::var(0), CmpOp::Le, q(1)), true),
            item(
                2,
                NlConstraint::new(Expr::var(0).pow(2), CmpOp::Le, q(4)),
                false,
            ),
        ];
        match run(&items, k, r) {
            TheoryVerdict::Unsat(_) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn incremental_session_agrees_with_scratch() {
        // One persistent session across queries that share prefixes,
        // exercise integer branch-and-bound (the `2x + 3y = 1` queries)
        // and disequality splits, and shrink as well as grow the asserted
        // row set. Verdict kinds (and unsat cores) must match the
        // from-scratch path exactly.
        let mut inc = IncrementalLinear::new(AssertionStack::new(2));
        let (k, r) = ints(2);
        let mut refuted = vec![item(0, coprime_row(), true)];
        refuted.extend(boxed(1, 0, 0, 1));
        refuted.extend(boxed(3, 1, 0, 1));
        let mut integral = vec![item(0, coprime_row(), true)];
        integral.extend(boxed(1, 0, -3, 3));
        let mut queries: Vec<Vec<TheoryItem>> = vec![
            // 2 ≤ 3x ≤ 7: sat with integral witness.
            vec![
                item(
                    0,
                    NlConstraint::new(Expr::int(3) * Expr::var(0), CmpOp::Ge, q(2)),
                    true,
                ),
                item(
                    1,
                    NlConstraint::new(Expr::int(3) * Expr::var(0), CmpOp::Le, q(7)),
                    true,
                ),
            ],
            // Same prefix, extra diseqs: 1 ≤ x ≤ 2 ∧ x ≠ 1 ∧ x ≠ 2 unsat.
            vec![
                item(0, NlConstraint::new(Expr::var(0), CmpOp::Ge, q(1)), true),
                item(1, NlConstraint::new(Expr::var(0), CmpOp::Le, q(2)), true),
                item(2, NlConstraint::new(Expr::var(0), CmpOp::Eq, q(1)), false),
                item(3, NlConstraint::new(Expr::var(0), CmpOp::Eq, q(2)), false),
            ],
            // Shrink back to the shared prefix: sat again.
            vec![
                item(0, NlConstraint::new(Expr::var(0), CmpOp::Ge, q(1)), true),
                item(1, NlConstraint::new(Expr::var(0), CmpOp::Le, q(2)), true),
            ],
            // 2x = 3: no integer solution.
            vec![item(
                0,
                NlConstraint::new(Expr::int(2) * Expr::var(0), CmpOp::Eq, q(3)),
                true,
            )],
        ];
        // 2x + 3y = 1 over 0 ≤ x, y ≤ 1, then over −3 ≤ x ≤ 3: unsat, then
        // sat, both only after branching.
        let branching = queries.len();
        queries.extend([refuted, integral]);
        let mut warm_starts = 0;
        for (i, items) in queries.iter().enumerate() {
            let (scratch, scratch_checks, _) = run_counted(None, items, k.clone(), r.clone());
            let (incremental, stack_checks, effort) =
                run_counted(Some(&mut inc), items, k.clone(), r.clone());
            warm_starts += effort.warm_starts;
            match (&scratch, &incremental) {
                (TheoryVerdict::Sat(_), TheoryVerdict::Sat(_)) => {}
                (TheoryVerdict::Unsat(a), TheoryVerdict::Unsat(b)) => assert_eq!(a, b),
                other => panic!("scratch vs incremental disagree: {other:?}"),
            }
            if i >= branching {
                assert!(
                    scratch_checks > 1 && stack_checks > 1,
                    "query {i} did not branch: {scratch_checks} and {stack_checks} checks"
                );
            }
        }
        // The session really did warm-start: one cold check, then reuse.
        assert!(warm_starts > 0);
    }

    /// An affine item `Σ aᵢxᵢ ⋈ c` as `(terms (var, aᵢ), ⋈, c, positive)`.
    type RawItem = (Vec<(usize, i64)>, CmpOp, i64, bool);

    /// A random [`RawItem`] over variable indices `0..3` (reduced modulo
    /// the case's variable count), asserted or negated. Equalities are
    /// drawn twice as often, so negated ones exercise the lazy
    /// disequality split.
    fn affine_item() -> Gen<RawItem> {
        let term = {
            let var = gen::ints(0..3usize);
            let coeff = gen::ints(-3i64..=3);
            Gen::new(move |src| (var.generate(src), coeff.generate(src)))
        };
        let terms = gen::vec_of(term, 1..4);
        let ops = [
            CmpOp::Le,
            CmpOp::Ge,
            CmpOp::Lt,
            CmpOp::Gt,
            CmpOp::Eq,
            CmpOp::Eq,
        ];
        let op = gen::from_slice(&ops);
        let rhs = gen::ints(-4i64..=4);
        let positive = gen::bool_any();
        Gen::new(move |src| {
            (
                terms.generate(src),
                op.generate(src),
                rhs.generate(src),
                positive.generate(src),
            )
        })
    }

    /// The items whose tags `tags` names.
    fn tagged(items: &[TheoryItem], tags: &[usize]) -> Vec<TheoryItem> {
        items
            .iter()
            .filter(|it| tags.contains(&it.tag))
            .cloned()
            .collect()
    }

    property! {
        #![cases = 256]

        /// An unsat answer on either linear path names a non-empty subset
        /// of the input tags, and those items alone are still unsat. Every
        /// int variable is boxed to `[-4, 4]` by two extra items, so
        /// branch-and-bound stays finite.
        fn theory_conflicts_are_sound_on_both_paths(
            num_vars in gen::ints(1..=3usize),
            int_mask in gen::ints(0..8u32),
            raw in gen::vec_of(affine_item(), 1..5),
        ) {
            let kinds: Vec<VarKind> = (0..num_vars)
                .map(|v| if int_mask >> v & 1 == 1 { VarKind::Int } else { VarKind::Real })
                .collect();
            let ranges = vec![Interval::new(-100.0, 100.0); num_vars];
            let mut items: Vec<TheoryItem> = Vec::new();
            for (terms, op, rhs, positive) in &raw {
                let lhs = terms.iter().fold(Expr::int(0), |acc, &(v, a)| {
                    acc + Expr::int(a) * Expr::var(v % num_vars)
                });
                items.push(item(items.len(), NlConstraint::new(lhs, *op, q(*rhs)), *positive));
            }
            for (v, _) in kinds.iter().enumerate().filter(|(_, k)| **k == VarKind::Int) {
                for (op, bound) in [(CmpOp::Ge, -4), (CmpOp::Le, 4)] {
                    let c = NlConstraint::new(Expr::var(v), op, q(bound));
                    items.push(item(items.len(), c, true));
                }
            }
            let all_tags: Vec<usize> = items.iter().map(|it| it.tag).collect();
            let mut inc = IncrementalLinear::new(AssertionStack::new(num_vars));
            let scratch = run(&items, kinds.clone(), ranges.clone());
            let stack = run_inc(&mut inc, &items, kinds.clone(), ranges.clone());
            for (path, verdict) in [("scratch", scratch), ("stack", stack)] {
                let TheoryVerdict::Unsat(tags) = verdict else {
                    continue;
                };
                assert!(!tags.is_empty(), "{path}: empty conflict");
                assert!(
                    tags.iter().all(|t| all_tags.contains(t)),
                    "{path}: conflict {tags:?} names tags outside {all_tags:?}"
                );
                let core = tagged(&items, &tags);
                let again = if path == "scratch" {
                    run(&core, kinds.clone(), ranges.clone())
                } else {
                    run_inc(&mut inc, &core, kinds.clone(), ranges.clone())
                };
                assert!(
                    matches!(again, TheoryVerdict::Unsat(_)),
                    "{path}: conflict {tags:?} alone is {again:?}"
                );
            }
        }
    }

    /// A term `(variable, numerator, denominator)` over `x0..x2` with a
    /// small rational coefficient.
    fn rational_term() -> Gen<(usize, i64, i64)> {
        let var = gen::ints(0..3usize);
        let num = gen::ints(-4i64..=4);
        let den = gen::ints(1i64..=3);
        Gen::new(move |src| (var.generate(src), num.generate(src), den.generate(src)))
    }

    /// Whether the prepared literal holds at `point`.
    fn literal_holds(literal: &Literal, point: &[Rational]) -> bool {
        match literal {
            Literal::Holds(_, Some(row)) => row.eval(point),
            Literal::DiffersAffine(d) => d.expr.eval(point) != d.rhs,
            Literal::Never => false,
            Literal::Always => true,
            other => panic!("affine constraint without a row: {other:?}"),
        }
    }

    property! {
        #![cases = 256]

        /// Preparing an affine constraint keeps, for each polarity, the
        /// integer points of the box `[-4, 4]³` that satisfy it, and an
        /// all-integer disequality's split covers exactly those points. A
        /// strengthened row has coprime integer coefficients and an
        /// integer bound, and a row that mentions a `real` variable is
        /// left as it was.
        fn strengthened_rows_keep_the_integer_solutions(
            int_mask in gen::ints(0..8u32),
            terms in gen::vec_of(rational_term(), 1..4),
            op in gen::from_slice(&[CmpOp::Le, CmpOp::Ge, CmpOp::Lt, CmpOp::Gt, CmpOp::Eq]),
            rhs_num in gen::ints(-9i64..=9),
            rhs_den in gen::ints(1i64..=4),
        ) {
            let kinds: Vec<VarKind> = (0..3)
                .map(|v| if int_mask >> v & 1 == 1 { VarKind::Int } else { VarKind::Real })
                .collect();
            let lhs = terms.iter().fold(Expr::int(0), |acc, &(v, n, d)| {
                acc + frac(n, d) * Expr::var(v)
            });
            let c = NlConstraint::new(lhs, op, Rational::new(rhs_num, rhs_den));
            let (expr, k) = c.to_affine().expect("affine").clone();
            let original = LinearConstraint::new(expr.clone(), op, &c.rhs - &k);
            let prepared = PreparedConstraint::new(c, &kinds);
            let all_int = expr.terms().iter().all(|&(v, _)| kinds[v] == VarKind::Int);
            if !all_int || expr.is_zero() {
                assert!(
                    matches!(&prepared.positive, Literal::Holds(_, Some(r)) if **r == original),
                    "{original} changed: {:?}",
                    prepared.positive
                );
                return;
            }
            for literal in [&prepared.positive, &prepared.negative] {
                if let Literal::Holds(_, Some(row)) = literal {
                    assert!(!row.op.is_strict() && row.rhs.is_integer(), "{row}");
                    let gcd = row.expr.terms().iter().fold(BigInt::zero(), |g, (_, a)| {
                        assert!(a.is_integer(), "{row}");
                        g.gcd(a.numer())
                    });
                    assert!(gcd.is_one(), "{row}");
                }
            }
            let box_ = -4i64..=4;
            for x in box_.clone() {
                for y in box_.clone() {
                    for z in box_.clone() {
                        let point = [q(x), q(y), q(z)];
                        let holds = original.eval(&point);
                        assert_eq!(literal_holds(&prepared.positive, &point), holds, "{original} at {point:?}");
                        assert_eq!(literal_holds(&prepared.negative, &point), !holds, "¬({original}) at {point:?}");
                        if let Literal::DiffersAffine(d) = &prepared.negative {
                            let split = d.split.iter().any(|r| r.eval(&point));
                            assert_eq!(split, !holds, "split of ¬({original}) at {point:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_query_is_sat() {
        let (k, r) = reals(1);
        match run(&[], k, r) {
            TheoryVerdict::Sat(_) => {}
            other => panic!("{other:?}"),
        }
    }
}
