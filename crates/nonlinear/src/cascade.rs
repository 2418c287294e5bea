//! Composable contractor cascade: HC4 → BC3 → interval Newton,
//! scheduled cheapest-first, with worklist propagation.
//!
//! The cascade replaces the fixed `20 sweeps × all constraints` HC4 loop
//! of the original branch-and-prune with cooperating layers:
//!
//! 1. **HC4 worklist (AC-3 style)** — constraints are revised only when
//!    one of their variables changed. After a split the child box seeds
//!    the queue with just the constraints watching the split dimension
//!    (the parent was already at fixpoint), which removes the vast
//!    majority of no-op revise calls.
//! 2. **Entailment filtering** — a constraint whose forward enclosure
//!    already satisfies its comparison is *certainly true* on the whole
//!    box, and stays true on every sub-box; the search drops it from the
//!    [`ActiveSet`] for the whole subtree. Deep in the tree most
//!    inequalities are entailed and the per-box work collapses to the few
//!    constraints still in play.
//! 3. **BC3 bound shaving** — dichotomic probes discard boundary slices
//!    that interval evaluation proves infeasible. BC3 is *stall-gated*:
//!    it only runs when the HC4 fixpoint made no progress at all (e.g.
//!    multi-occurrence or periodic expressions HC4 is blind to), so its
//!    cost is paid exactly where the cheap stage fails.
//! 4. **Interval Newton** — quadratic-convergence narrowing of equality
//!    constraints near simple roots (see [`crate::newton`]); skipped
//!    entirely when the conjunction has no equalities.
//!
//! Any narrowing an expensive stage achieves is fed back to the HC4
//! worklist.

use crate::constraint::NlConstraint;
use crate::hc4::{hc4_revise_scratch, Contraction, ReviseScratch};
use crate::newton::NewtonConstraint;
use crate::solve::NlSearchStats;
use absolver_linear::CmpOp;
use absolver_num::Interval;
use std::fmt;
use std::str::FromStr;

/// Which contractors the cascade runs, in fixed cheapest-first order.
/// HC4 is always on (it is the propagation backbone); BC3 and Newton are
/// optional refinement stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContractorConfig {
    /// BC3-style dichotomic bound shaving.
    pub bc3: bool,
    /// Univariate parametric interval Newton on equalities.
    pub newton: bool,
}

impl Default for ContractorConfig {
    fn default() -> Self {
        ContractorConfig {
            bc3: true,
            newton: true,
        }
    }
}

impl ContractorConfig {
    /// HC4 only — the pre-cascade behaviour, kept for ablation and
    /// differential testing.
    pub fn hc4_only() -> ContractorConfig {
        ContractorConfig {
            bc3: false,
            newton: false,
        }
    }
}

impl FromStr for ContractorConfig {
    type Err = String;

    /// Parses a comma-separated contractor list, e.g. `hc4,bc3,newton`.
    /// `hc4` must be present (it is not optional, listing it merely
    /// documents the cascade order).
    fn from_str(s: &str) -> Result<ContractorConfig, String> {
        let mut cfg = ContractorConfig {
            bc3: false,
            newton: false,
        };
        let mut saw_hc4 = false;
        for part in s.split(',') {
            match part.trim() {
                "hc4" => saw_hc4 = true,
                "bc3" => cfg.bc3 = true,
                "newton" => cfg.newton = true,
                "" => {}
                other => {
                    return Err(format!(
                        "unknown contractor '{other}' (know hc4, bc3, newton)"
                    ))
                }
            }
        }
        if !saw_hc4 {
            return Err("contractor list must include hc4".to_string());
        }
        Ok(cfg)
    }
}

impl fmt::Display for ContractorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hc4")?;
        if self.bc3 {
            write!(f, ",bc3")?;
        }
        if self.newton {
            write!(f, ",newton")?;
        }
        Ok(())
    }
}

/// The constraints that can still prune the current box.
///
/// A constraint proven *certainly true* over a box stays true on every
/// sub-box (domains only shrink down the search tree), so it is removed
/// here and every later revise, box check, and midpoint evaluation in the
/// subtree skips it. The set travels with each box down the search.
/// Conjunctions of more than 128 constraints disable the filter (every
/// constraint stays active) — correctness never depends on removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveSet {
    mask: u128,
    unfiltered: bool,
}

impl ActiveSet {
    /// All of `n` constraints active.
    pub fn all(n: usize) -> ActiveSet {
        if n > 128 {
            ActiveSet {
                mask: !0,
                unfiltered: true,
            }
        } else {
            ActiveSet {
                mask: if n == 128 { !0 } else { (1u128 << n) - 1 },
                unfiltered: false,
            }
        }
    }

    /// Is constraint `i` still active?
    pub fn contains(&self, i: usize) -> bool {
        self.unfiltered || (i < 128 && (self.mask >> i) & 1 == 1)
    }

    /// Drops constraint `i` (no-op when filtering is disabled).
    pub fn remove(&mut self, i: usize) {
        if !self.unfiltered && i < 128 {
            self.mask &= !(1u128 << i);
        }
    }

    /// No constraints left — the box is certainly feasible.
    pub fn is_empty(&self) -> bool {
        !self.unfiltered && self.mask == 0
    }

    /// Whether entailment filtering is disabled (more than 128
    /// constraints): removals are no-ops and every constraint reads as
    /// active.
    pub fn is_unfiltered(&self) -> bool {
        self.unfiltered
    }
}

/// Maximum dichotomy probes per BC3 bound.
const BC3_PROBES: usize = 8;

/// Outer cascade cycles (HC4 fixpoint → BC3 → Newton) per contract call.
const MAX_CYCLES: usize = 3;

/// Entailment test: the forward enclosure `lhs` already satisfies
/// `⋈ rhs` for every point — mirrors the `CertainlyTrue` arms of
/// [`NlConstraint::check_interval`].
fn entailed_by(op: CmpOp, rhs: Interval, lhs: Interval) -> bool {
    if lhs.is_empty() {
        return false;
    }
    match op {
        CmpOp::Lt => lhs.hi() < rhs.lo(),
        CmpOp::Le => lhs.hi() <= rhs.lo(),
        CmpOp::Gt => lhs.lo() > rhs.hi(),
        CmpOp::Ge => lhs.lo() >= rhs.hi(),
        CmpOp::Eq => lhs.is_point() && rhs.is_point() && lhs == rhs,
    }
}

/// Refutation test: the forward enclosure `lhs` violates `⋈ rhs` at every
/// point — mirrors the `CertainlyFalse` arms of
/// [`NlConstraint::check_interval`]. HC4's backward pass works with closed
/// target intervals, so for *strict* comparisons it can reach a non-empty
/// fixpoint sitting exactly on the boundary (e.g. `x < 0` contracting
/// `[0, 5]` to the point `[0, 0]`); this classification catches that, so
/// the cascade's fixpoint invariant — every surviving active constraint is
/// genuinely `Unknown` — holds for strict operators too.
fn refuted_by(op: CmpOp, rhs: Interval, lhs: Interval) -> bool {
    if lhs.is_empty() {
        return true;
    }
    match op {
        CmpOp::Lt => lhs.lo() >= rhs.hi(),
        CmpOp::Le => lhs.lo() > rhs.hi(),
        CmpOp::Gt => lhs.hi() <= rhs.lo(),
        CmpOp::Ge => lhs.hi() < rhs.lo(),
        CmpOp::Eq => lhs.intersect(rhs).is_empty(),
    }
}

/// The cascade engine: one instance per branch-and-prune run (or per
/// worker thread), holding the per-constraint variable projections,
/// var→constraint watcher lists and compiled Newton forms.
#[derive(Debug)]
pub struct Cascade<'a> {
    constraints: &'a [NlConstraint],
    /// Sorted variable list of each constraint.
    vars: Vec<Vec<usize>>,
    /// For each variable, the constraints that mention it.
    watchers: Vec<Vec<usize>>,
    /// HC4 target interval of each constraint (precomputed — the rational
    /// RHS conversion is not free).
    targets: Vec<Interval>,
    /// RHS enclosure of each constraint, for entailment and refutation
    /// classification (HC4 revises and BC3 probes).
    rhs_ivs: Vec<Interval>,
    /// Constraints with trigonometric subterms — the ones HC4's backward
    /// pass cannot narrow through, so only BC3 can contract them.
    blind: Vec<bool>,
    has_blind: bool,
    newton: Vec<Option<NewtonConstraint>>,
    has_newton: bool,
    config: ContractorConfig,
    /// Per-contractor contraction counts so far (the other fields stay
    /// zero); the caller adds them to its run's after the run.
    pub stats: NlSearchStats,
    min_width: f64,
    // Reusable scratch to keep the hot path allocation-free.
    queue: Vec<usize>,
    in_queue: Vec<bool>,
    revise_scratch: ReviseScratch,
}

impl<'a> Cascade<'a> {
    /// Builds the engine for a constraint conjunction over `num_vars`
    /// variables.
    pub fn new(
        constraints: &'a [NlConstraint],
        num_vars: usize,
        config: ContractorConfig,
        min_width: f64,
    ) -> Cascade<'a> {
        let vars: Vec<Vec<usize>> = constraints.iter().map(|c| c.variables().to_vec()).collect();
        let mut watchers = vec![Vec::new(); num_vars];
        for (ci, cvars) in vars.iter().enumerate() {
            for &v in cvars {
                watchers[v].push(ci);
            }
        }
        let targets = constraints.iter().map(|c| c.target_interval()).collect();
        let rhs_ivs = constraints.iter().map(|c| c.rhs_interval()).collect();
        let blind: Vec<bool> = constraints.iter().map(|c| c.tape().has_trig).collect();
        let has_blind = blind.iter().any(|&b| b);
        let newton: Vec<Option<NewtonConstraint>> = if config.newton {
            constraints.iter().map(NewtonConstraint::build).collect()
        } else {
            vec![None; constraints.len()]
        };
        let has_newton = newton.iter().any(Option::is_some);
        Cascade {
            constraints,
            vars,
            watchers,
            targets,
            rhs_ivs,
            blind,
            has_blind,
            newton,
            has_newton,
            config,
            stats: NlSearchStats::default(),
            min_width,
            queue: Vec::new(),
            in_queue: vec![false; constraints.len()],
            revise_scratch: ReviseScratch::default(),
        }
    }

    /// Contracts `boxes` in place. `dirty` seeds the worklist: `None`
    /// revises every active constraint (root box); `Some(v)` only the
    /// watchers of `v` (child box after a split on `v` — the parent was
    /// at fixpoint, so nothing else can fire). Constraints found entailed
    /// are removed from `active` for the caller's whole subtree.
    pub fn contract(
        &mut self,
        boxes: &mut [Interval],
        dirty: Option<usize>,
        active: &mut ActiveSet,
    ) -> Contraction {
        let mut any_change = false;
        match self.hc4_fixpoint(boxes, dirty, active) {
            Contraction::Empty => return Contraction::Empty,
            Contraction::Changed => any_change = true,
            Contraction::Unchanged => {}
        }
        // Escalate only where the cheap stage provably needs help: BC3
        // shaves the HC4-blind (trigonometric) constraints once the HC4
        // fixpoint stalls — running it on constraints HC4 *can* propagate
        // through costs far more per box than the narrowing is worth
        // (measured on the steering workload). Newton runs whenever
        // equality constraints exist.
        let use_bc3 = self.config.bc3 && self.has_blind && !any_change;
        let use_newton = self.config.newton && self.has_newton;
        if !use_bc3 && !use_newton {
            return outcome(any_change);
        }
        for _ in 0..MAX_CYCLES {
            let mut refined = false;
            if use_bc3 {
                match self.bc3_pass(boxes, active) {
                    Contraction::Empty => return Contraction::Empty,
                    Contraction::Changed => refined = true,
                    Contraction::Unchanged => {}
                }
            }
            if use_newton {
                match self.newton_pass(boxes, active) {
                    Contraction::Empty => return Contraction::Empty,
                    Contraction::Changed => refined = true,
                    Contraction::Unchanged => {}
                }
            }
            if !refined {
                break;
            }
            any_change = true;
            // Feed the refinement back through cheap propagation.
            if self.hc4_fixpoint(boxes, None, active) == Contraction::Empty {
                return Contraction::Empty;
            }
        }
        outcome(any_change)
    }

    /// AC-3-style worklist propagation of HC4-revise to a fixpoint.
    fn hc4_fixpoint(
        &mut self,
        boxes: &mut [Interval],
        dirty: Option<usize>,
        active: &mut ActiveSet,
    ) -> Contraction {
        debug_assert!(self.queue.is_empty());
        match dirty {
            None => {
                for ci in 0..self.constraints.len() {
                    if active.contains(ci) {
                        self.queue.push(ci);
                        self.in_queue[ci] = true;
                    }
                }
            }
            Some(v) => {
                if let Some(ws) = self.watchers.get(v) {
                    for &ci in ws {
                        if active.contains(ci) && !self.in_queue[ci] {
                            self.queue.push(ci);
                            self.in_queue[ci] = true;
                        }
                    }
                }
            }
        }
        let mut any_change = false;
        // Monotone narrowing over floats terminates, but cap the pops
        // against pathological ulp-at-a-time drift.
        let budget = 64 * self.constraints.len().max(1) + 256;
        let mut pops = 0usize;
        let mut head = 0usize;
        while head < self.queue.len() {
            let ci = self.queue[head];
            head += 1;
            self.in_queue[ci] = false;
            pops += 1;
            let (contraction, entailed) = self.revise(ci, boxes);
            if entailed {
                active.remove(ci);
            }
            match contraction {
                Contraction::Empty => {
                    self.queue.clear();
                    self.in_queue.iter_mut().for_each(|f| *f = false);
                    return Contraction::Empty;
                }
                Contraction::Changed => {
                    any_change = true;
                    // Re-enqueue the active watchers of every var this
                    // constraint touches (we don't track which one moved;
                    // its own watcher set is the superset that matters).
                    for vi in 0..self.vars[ci].len() {
                        let v = self.vars[ci][vi];
                        for wi in 0..self.watchers[v].len() {
                            let w = self.watchers[v][wi];
                            if !self.in_queue[w] && active.contains(w) {
                                self.queue.push(w);
                                self.in_queue[w] = true;
                            }
                        }
                    }
                }
                Contraction::Unchanged => {}
            }
            if pops >= budget {
                break;
            }
            // Compact the drained prefix occasionally.
            if head > 4096 {
                self.queue.drain(..head);
                head = 0;
            }
        }
        // Unprocessed entries (budget break) must not poison later calls.
        for i in head..self.queue.len() {
            let ci = self.queue[i];
            self.in_queue[ci] = false;
        }
        self.queue.clear();
        outcome(any_change)
    }

    /// One HC4 revise of constraint `ci`. Returns the contraction plus
    /// whether the constraint is entailed (certainly true) over the box.
    fn revise(&mut self, ci: usize, boxes: &mut [Interval]) -> (Contraction, bool) {
        let c = &self.constraints[ci];
        let (out, lhs) = hc4_revise_scratch(c, self.targets[ci], boxes, &mut self.revise_scratch);
        if out != Contraction::Unchanged {
            self.stats.hc4_contractions += 1;
        }
        if out != Contraction::Empty && refuted_by(c.op, self.rhs_ivs[ci], lhs) {
            return (Contraction::Empty, false);
        }
        let entailed = out != Contraction::Empty && entailed_by(c.op, self.rhs_ivs[ci], lhs);
        (out, entailed)
    }

    /// One BC3 sweep: dichotomic bound shaving of every finite-width
    /// (active HC4-blind constraint, variable) pair.
    fn bc3_pass(&mut self, boxes: &mut [Interval], active: &ActiveSet) -> Contraction {
        let mut any_change = false;
        for ci in 0..self.constraints.len() {
            if !active.contains(ci) || !self.blind[ci] {
                continue;
            }
            for vi in 0..self.vars[ci].len() {
                let v = self.vars[ci][vi];
                match self.shave(ci, v, boxes) {
                    Contraction::Empty => return Contraction::Empty,
                    Contraction::Changed => any_change = true,
                    Contraction::Unchanged => {}
                }
            }
        }
        outcome(any_change)
    }

    /// Shaves provably-infeasible slices off both ends of `boxes[v]`
    /// w.r.t. constraint `ci`. Sound: a slice is removed only when the
    /// slice's enclosure of the LHS is refuted against the cached RHS
    /// enclosure — exactly where [`NlConstraint::check_box`] answers
    /// `CertainlyFalse`, without recomputing the RHS on every probe.
    fn shave(&mut self, ci: usize, v: usize, boxes: &mut [Interval]) -> Contraction {
        let domain = boxes[v];
        let w = domain.width();
        if domain.is_empty() || !w.is_finite() || w <= self.min_width {
            return Contraction::Unchanged;
        }
        let c = &self.constraints[ci];
        let rhs = self.rhs_ivs[ci];
        let refuted = |boxes: &[Interval]| refuted_by(c.op, rhs, c.tape().eval_interval(boxes));
        let (mut lo, mut hi) = (domain.lo(), domain.hi());
        // Lower bound: find the largest prefix proven infeasible.
        let mut frac = 0.5;
        for _ in 0..BC3_PROBES {
            let m = lo + (hi - lo) * frac;
            if !m.is_finite() || m <= lo || m >= hi {
                break;
            }
            boxes[v] = Interval::new(lo, m);
            if refuted(boxes) {
                lo = m;
                frac = 0.5;
            } else {
                frac /= 2.0;
            }
        }
        // Upper bound, mirrored.
        let mut frac = 0.5;
        for _ in 0..BC3_PROBES {
            let m = hi - (hi - lo) * frac;
            if !m.is_finite() || m <= lo || m >= hi {
                break;
            }
            boxes[v] = Interval::new(m, hi);
            if refuted(boxes) {
                hi = m;
                frac = 0.5;
            } else {
                frac /= 2.0;
            }
        }
        boxes[v] = Interval::checked(lo, hi);
        if boxes[v].is_empty() {
            self.stats.bc3_contractions += 1;
            return Contraction::Empty;
        }
        if lo > domain.lo() || hi < domain.hi() {
            self.stats.bc3_contractions += 1;
            Contraction::Changed
        } else {
            Contraction::Unchanged
        }
    }

    /// One Newton sweep over the compiled (still active) equality
    /// constraints.
    fn newton_pass(&mut self, boxes: &mut [Interval], active: &ActiveSet) -> Contraction {
        let mut any_change = false;
        for (ci, nc) in self.newton.iter().enumerate() {
            let Some(nc) = nc else { continue };
            if !active.contains(ci) {
                continue;
            }
            match nc.revise(boxes) {
                Contraction::Empty => {
                    self.stats.newton_contractions += 1;
                    return Contraction::Empty;
                }
                Contraction::Changed => {
                    self.stats.newton_contractions += 1;
                    any_change = true;
                }
                Contraction::Unchanged => {}
            }
        }
        outcome(any_change)
    }
}

fn outcome(changed: bool) -> Contraction {
    if changed {
        Contraction::Changed
    } else {
        Contraction::Unchanged
    }
}

/// Applies the full cascade once to a standalone box — the
/// single-constraint-set entry point used by the soundness test battery.
pub fn cascade_contract(
    constraints: &[NlConstraint],
    boxes: &mut [Interval],
    config: ContractorConfig,
) -> Contraction {
    let num_vars = boxes.len();
    let mut engine = Cascade::new(constraints, num_vars, config, 1e-9);
    let mut active = ActiveSet::all(constraints.len());
    engine.contract(boxes, None, &mut active)
}

/// BC3-revise of a single (constraint, variable) pair — exposed for the
/// property suite.
pub fn bc3_revise(constraint: &NlConstraint, v: usize, boxes: &mut [Interval]) -> Contraction {
    let constraints = std::slice::from_ref(constraint);
    let mut engine = Cascade::new(constraints, boxes.len(), ContractorConfig::default(), 1e-9);
    engine.shave(0, v, boxes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::IntervalVerdict;
    use crate::expr::Expr;
    use crate::hc4::hc4_revise;
    use crate::proptests::wild_expr_gen;
    use absolver_num::Rational;
    use absolver_testkit::{domain, gen, property, Gen};

    fn x() -> Expr {
        Expr::var(0)
    }

    fn y() -> Expr {
        Expr::var(1)
    }

    fn q(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn config_round_trips() {
        for s in ["hc4", "hc4,bc3", "hc4,newton", "hc4,bc3,newton"] {
            let cfg: ContractorConfig = s.parse().unwrap();
            assert_eq!(cfg.to_string(), s);
        }
        assert!("bc3".parse::<ContractorConfig>().is_err());
        assert!("hc4,fft".parse::<ContractorConfig>().is_err());
        assert_eq!(ContractorConfig::default().to_string(), "hc4,bc3,newton");
    }

    #[test]
    fn active_set_basics() {
        let mut a = ActiveSet::all(3);
        assert!(a.contains(0) && a.contains(2) && !a.contains(3));
        a.remove(1);
        assert!(!a.contains(1) && a.contains(0));
        assert!(!a.is_empty());
        a.remove(0);
        a.remove(2);
        assert!(a.is_empty());
        // Past the filtering cap everything stays active.
        let mut big = ActiveSet::all(200);
        assert!(big.contains(0) && big.contains(199));
        big.remove(0);
        assert!(big.contains(0), "no filtering above 128 constraints");
        assert!(!big.is_empty());
    }

    #[test]
    fn cascade_matches_propagate_on_simple_contraction() {
        // x² ≤ 4 over [-10, 10] → [-2, 2], with or without extras.
        for cfg in [ContractorConfig::hc4_only(), ContractorConfig::default()] {
            let c = NlConstraint::new(x().pow(2), CmpOp::Le, q(4));
            let mut bx = vec![Interval::new(-10.0, 10.0)];
            let out = cascade_contract(&[c], &mut bx, cfg);
            assert_eq!(out, Contraction::Changed);
            assert!(bx[0].lo() >= -2.0 - 1e-9 && bx[0].hi() <= 2.0 + 1e-9);
            assert!(bx[0].contains(2.0) && bx[0].contains(-2.0));
        }
    }

    #[test]
    fn strict_boundary_fixpoint_is_refuted() {
        // x < 0 over [0, 5]: the closed-interval backward pass contracts
        // to the point box [0, 0] instead of emptying it — the verdict
        // classification must still refute, or the search would keep
        // splitting a certainly-false box forever (and, worse, accept its
        // midpoint when every other constraint is entailed).
        let c = NlConstraint::new(x(), CmpOp::Lt, q(0));
        let mut bx = vec![Interval::new(0.0, 5.0)];
        assert_eq!(
            cascade_contract(&[c], &mut bx, ContractorConfig::default()),
            Contraction::Empty
        );
        // Same at the other end: x > 5 over [0, 5].
        let c = NlConstraint::new(x(), CmpOp::Gt, q(5));
        let mut bx = vec![Interval::new(0.0, 5.0)];
        assert_eq!(
            cascade_contract(&[c], &mut bx, ContractorConfig::default()),
            Contraction::Empty
        );
    }

    #[test]
    fn bc3_shaves_where_hc4_is_blind() {
        // sin(x) ≥ 1/2 over [0, π]: HC4 has no backward pass through
        // periodic functions, so a single revise learns nothing. BC3's
        // dichotomic probes prove the boundary slices infeasible and
        // shave toward [π/6, 5π/6].
        use std::f64::consts::PI;
        let c = NlConstraint::new(x().sin(), CmpOp::Ge, "0.5".parse().unwrap());
        let mut bx = vec![Interval::new(0.0, PI)];
        assert_eq!(
            hc4_revise(&c, &mut bx.clone()),
            Contraction::Unchanged,
            "premise: HC4 alone is blind here"
        );
        assert_eq!(bc3_revise(&c, 0, &mut bx), Contraction::Changed);
        // Both ends shaved, every solution kept.
        assert!(bx[0].lo() > 0.2, "lower bound shaved: {}", bx[0]);
        assert!(bx[0].hi() < PI - 0.2, "upper bound shaved: {}", bx[0]);
        assert!(bx[0].lo() <= PI / 6.0 + 1e-9, "no solution lost: {}", bx[0]);
        assert!(
            bx[0].hi() >= 5.0 * PI / 6.0 - 1e-9,
            "no solution lost: {}",
            bx[0]
        );
        assert!(bx[0].contains(PI / 2.0));
    }

    #[test]
    fn stall_gated_bc3_fires_through_cascade() {
        // The full cascade must reach the same shaving when HC4 stalls.
        use std::f64::consts::PI;
        let c = NlConstraint::new(x().sin(), CmpOp::Ge, "0.5".parse().unwrap());
        let mut bx = vec![Interval::new(0.0, PI)];
        let out = cascade_contract(
            &[c],
            &mut bx,
            "hc4,bc3".parse::<ContractorConfig>().unwrap(),
        );
        assert_eq!(out, Contraction::Changed, "BC3 must fire on HC4 stall");
        assert!(bx[0].lo() > 0.2 && bx[0].hi() < PI - 0.2, "{}", bx[0]);
        assert!(bx[0].contains(PI / 2.0));
    }

    #[test]
    fn worklist_matches_full_sweep() {
        // Chain x = y ∧ y ≤ 3 with dirty-seeded propagation after
        // narrowing x as if by a split.
        let c1 = NlConstraint::new(x() - y(), CmpOp::Eq, q(0));
        let c2 = NlConstraint::new(y(), CmpOp::Le, q(3));
        let constraints = vec![c1, c2];
        let mut full = vec![Interval::new(0.0, 10.0), Interval::new(0.0, 10.0)];
        let mut engine = Cascade::new(&constraints, 2, ContractorConfig::hc4_only(), 1e-9);
        let mut active = ActiveSet::all(2);
        engine.contract(&mut full, None, &mut active);
        // Fixpoint reached; now "split" x to [0, 1] and seed only x's
        // watchers.
        full[0] = Interval::new(0.0, 1.0);
        engine.contract(&mut full, Some(0), &mut active);
        assert!(full[1].hi() <= 1.0 + 1e-9, "y must follow x: {}", full[1]);
    }

    #[test]
    fn entailed_constraints_leave_the_active_set() {
        // x ≤ 5 over [0, 2] is certainly true: one contract call must
        // remove it from the active set without narrowing anything.
        let c = NlConstraint::new(x(), CmpOp::Le, q(5));
        let constraints = vec![c];
        let mut engine = Cascade::new(&constraints, 1, ContractorConfig::hc4_only(), 1e-9);
        let mut active = ActiveSet::all(1);
        let mut bx = vec![Interval::new(0.0, 2.0)];
        let out = engine.contract(&mut bx, None, &mut active);
        assert_eq!(out, Contraction::Unchanged);
        assert!(active.is_empty(), "entailed constraint must be dropped");
        assert_eq!(bx[0], Interval::new(0.0, 2.0));
    }

    /// One side of a box: empty, a point, or a range that may lie below,
    /// around or above zero, so `sqrt`, `ln` and quotients give empty,
    /// point and unbounded enclosures over it.
    fn box_side() -> Gen<Interval> {
        Gen::new(|src| match gen::ints(0u32..4).generate(src) {
            0 => Interval::EMPTY,
            1 => Interval::point(gen::ints(-3i64..=3).generate(src) as f64),
            2 => Interval::point(gen::f64_in(-4.0, 4.0).generate(src)),
            _ => {
                let (a, b) = (
                    gen::f64_in(-4.0, 4.0).generate(src),
                    gen::f64_in(-4.0, 4.0).generate(src),
                );
                Interval::new(a.min(b), a.max(b))
            }
        })
    }

    property! {
        #![cases = 256]

        /// The cascade's classification of an LHS enclosure against the
        /// RHS enclosure, which BC3's probes and HC4's revises use,
        /// refutes exactly where [`NlConstraint::check_box`] answers
        /// `CertainlyFalse` and entails exactly where it answers
        /// `CertainlyTrue`, empty enclosures and widened (non-dyadic)
        /// right-hand sides included.
        fn classification_matches_check_box(
            e in wild_expr_gen(3),
            op in domain::cmp_op(),
            rhs in gen::one_of(vec![domain::rational_int(-3..=3), domain::rational(-20..=20, 1..=7)]),
            bx in box_side(),
            by in box_side(),
        ) {
            let c = NlConstraint::new(e, op, rhs);
            let boxes = [bx, by];
            let lhs = c.tape().eval_interval(&boxes);
            let verdict = c.check_box(&boxes);
            let rhs = c.rhs_interval();
            assert_eq!(
                refuted_by(op, rhs, lhs),
                verdict == IntervalVerdict::CertainlyFalse,
                "{c} over {boxes:?}: enclosure {lhs}, check_box {verdict:?}"
            );
            assert_eq!(
                entailed_by(op, rhs, lhs),
                verdict == IntervalVerdict::CertainlyTrue,
                "{c} over {boxes:?}: enclosure {lhs}, check_box {verdict:?}"
            );
        }
    }

    #[test]
    fn newton_stage_tightens_equalities() {
        // x² = 2 over [1, 2]: the full cascade should reach near-point
        // precision without any splitting.
        let c = NlConstraint::new(x().pow(2), CmpOp::Eq, q(2));
        let mut bx = vec![Interval::new(1.0, 2.0)];
        cascade_contract(&[c], &mut bx, ContractorConfig::default());
        assert!(bx[0].contains(std::f64::consts::SQRT_2));
        assert!(bx[0].width() < 1e-3, "cascade should converge: {}", bx[0]);
    }
}
