//! Nonlinear arithmetic expression trees.
//!
//! The paper's class *AB* allows arithmetic expressions built from
//! `+ − * /` (Sec. 2), and notes that "extension to other operators, such
//! as sin, cos or exp is straightforward and not limited by a design
//! decision" — this reproduction implements those extensions too
//! ([`Expr::Sin`], [`Expr::Cos`], [`Expr::Exp`], plus `ln`, `sqrt`, `abs`
//! and integer powers).
//!
//! Every expression supports three interpretations: plain `f64` evaluation
//! (used by the local search), sound interval evaluation (used by the
//! branch-and-prune prover), and symbolic differentiation (the reference
//! for the gradients the term arena derives per node).

use absolver_linear::LinExpr;
use absolver_num::{Interval, Rational};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Identifier of a real-valued theory variable (dense 0-based index).
pub type VarId = usize;

/// A (possibly) nonlinear real arithmetic expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// An exact rational constant.
    Const(Rational),
    /// A variable reference.
    Var(VarId),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Division.
    Div(Box<Expr>, Box<Expr>),
    /// Integer power.
    Pow(Box<Expr>, i32),
    /// Sine.
    Sin(Box<Expr>),
    /// Cosine.
    Cos(Box<Expr>),
    /// Natural exponential.
    Exp(Box<Expr>),
    /// Natural logarithm.
    Ln(Box<Expr>),
    /// Square root.
    Sqrt(Box<Expr>),
    /// Absolute value.
    Abs(Box<Expr>),
}

impl Expr {
    /// The constant `0`.
    pub fn zero() -> Expr {
        Expr::Const(Rational::zero())
    }

    /// An exact rational constant.
    pub fn constant(value: Rational) -> Expr {
        Expr::Const(value)
    }

    /// An integer constant.
    pub fn int(value: i64) -> Expr {
        Expr::Const(Rational::from_int(value))
    }

    /// A variable reference.
    pub fn var(id: VarId) -> Expr {
        Expr::Var(id)
    }

    /// `self` raised to the integer power `n`.
    pub fn pow(self, n: i32) -> Expr {
        Expr::Pow(Box::new(self), n)
    }

    /// `sin(self)`.
    pub fn sin(self) -> Expr {
        Expr::Sin(Box::new(self))
    }

    /// `cos(self)`.
    pub fn cos(self) -> Expr {
        Expr::Cos(Box::new(self))
    }

    /// `exp(self)`.
    pub fn exp(self) -> Expr {
        Expr::Exp(Box::new(self))
    }

    /// `ln(self)`.
    pub fn ln(self) -> Expr {
        Expr::Ln(Box::new(self))
    }

    /// `sqrt(self)`.
    pub fn sqrt(self) -> Expr {
        Expr::Sqrt(Box::new(self))
    }

    /// `|self|`.
    pub fn abs(self) -> Expr {
        Expr::Abs(Box::new(self))
    }

    /// Evaluates in `f64` arithmetic; division by zero, `ln` of
    /// non-positives etc. follow IEEE semantics (±inf / NaN).
    pub fn eval_f64(&self, values: &[f64]) -> f64 {
        match self {
            Expr::Const(c) => c.to_f64(),
            Expr::Var(v) => values.get(*v).copied().unwrap_or(f64::NAN),
            Expr::Neg(e) => -e.eval_f64(values),
            Expr::Add(a, b) => a.eval_f64(values) + b.eval_f64(values),
            Expr::Sub(a, b) => a.eval_f64(values) - b.eval_f64(values),
            Expr::Mul(a, b) => a.eval_f64(values) * b.eval_f64(values),
            Expr::Div(a, b) => a.eval_f64(values) / b.eval_f64(values),
            Expr::Pow(e, n) => e.eval_f64(values).powi(*n),
            Expr::Sin(e) => e.eval_f64(values).sin(),
            Expr::Cos(e) => e.eval_f64(values).cos(),
            Expr::Exp(e) => e.eval_f64(values).exp(),
            Expr::Ln(e) => e.eval_f64(values).ln(),
            Expr::Sqrt(e) => e.eval_f64(values).sqrt(),
            Expr::Abs(e) => e.eval_f64(values).abs(),
        }
    }

    /// Sound interval evaluation over a box (one interval per variable).
    pub fn eval_interval(&self, boxes: &[Interval]) -> Interval {
        match self {
            Expr::Const(c) => {
                let v = c.to_f64();
                // Exactly representable constants stay points; one ulp of
                // widening covers rational→double rounding otherwise.
                if Rational::from_f64(v).as_ref() == Some(c) {
                    Interval::point(v)
                } else {
                    Interval::checked(v.next_down(), v.next_up())
                }
            }
            Expr::Var(v) => boxes.get(*v).copied().unwrap_or(Interval::ENTIRE),
            Expr::Neg(e) => e.eval_interval(boxes).neg(),
            Expr::Add(a, b) => a.eval_interval(boxes).add(b.eval_interval(boxes)),
            Expr::Sub(a, b) => a.eval_interval(boxes).sub(b.eval_interval(boxes)),
            Expr::Mul(a, b) => a.eval_interval(boxes).mul(b.eval_interval(boxes)),
            Expr::Div(a, b) => a.eval_interval(boxes).div(b.eval_interval(boxes)),
            Expr::Pow(e, n) => e.eval_interval(boxes).powi(*n),
            Expr::Sin(e) => e.eval_interval(boxes).sin(),
            Expr::Cos(e) => e.eval_interval(boxes).cos(),
            Expr::Exp(e) => e.eval_interval(boxes).exp(),
            Expr::Ln(e) => e.eval_interval(boxes).ln(),
            Expr::Sqrt(e) => e.eval_interval(boxes).sqrt(),
            Expr::Abs(e) => e.eval_interval(boxes).abs(),
        }
    }

    /// The set of variables occurring in the expression.
    pub fn variables(&self) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<VarId>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => {
                out.insert(*v);
            }
            Expr::Neg(e)
            | Expr::Pow(e, _)
            | Expr::Sin(e)
            | Expr::Cos(e)
            | Expr::Exp(e)
            | Expr::Ln(e)
            | Expr::Sqrt(e)
            | Expr::Abs(e) => e.collect_vars(out),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Largest variable id mentioned, if any.
    pub fn max_var(&self) -> Option<VarId> {
        self.variables().into_iter().max()
    }

    /// Symbolic partial derivative `∂self/∂x`.
    ///
    /// `abs` is differentiated as `sign`-free `e·e'/|e|`, which is correct
    /// away from zero (the local search only needs descent directions).
    ///
    /// The solver differentiates interned terms instead, once per arena
    /// node ([`crate::term::derivative_tape`]); this tree form, then
    /// [`Expr::simplify`], is the reference the arena's results are
    /// tested against.
    pub fn derivative(&self, x: VarId) -> Expr {
        match self {
            Expr::Const(_) => Expr::zero(),
            Expr::Var(v) => {
                if *v == x {
                    Expr::int(1)
                } else {
                    Expr::zero()
                }
            }
            Expr::Neg(e) => -e.derivative(x),
            Expr::Add(a, b) => a.derivative(x) + b.derivative(x),
            Expr::Sub(a, b) => a.derivative(x) - b.derivative(x),
            Expr::Mul(a, b) => a.derivative(x) * (**b).clone() + (**a).clone() * b.derivative(x),
            Expr::Div(a, b) => {
                (a.derivative(x) * (**b).clone() - (**a).clone() * b.derivative(x))
                    / ((**b).clone() * (**b).clone())
            }
            Expr::Pow(e, n) => Expr::int(*n as i64) * (**e).clone().pow(n - 1) * e.derivative(x),
            Expr::Sin(e) => (**e).clone().cos() * e.derivative(x),
            Expr::Cos(e) => -((**e).clone().sin() * e.derivative(x)),
            Expr::Exp(e) => (**e).clone().exp() * e.derivative(x),
            Expr::Ln(e) => e.derivative(x) / (**e).clone(),
            Expr::Sqrt(e) => e.derivative(x) / (Expr::int(2) * (**e).clone().sqrt()),
            Expr::Abs(e) => ((**e).clone() * e.derivative(x)) / (**e).clone().abs(),
        }
    }

    /// Constant-folds the expression and prunes trivial identities
    /// (`x + 0`, `x * 1`, `x * 0`, …).
    pub fn simplify(&self) -> Expr {
        self.simplify_in(false)
    }

    /// [`Expr::simplify`], except that it keeps every f64 value: constants
    /// keep the sign of a zero as f64 arithmetic gives it (`-0` and
    /// `-3 * 0` are −0.0, and `1 / -0` is −∞ where `1 / 0` is +∞), and
    /// `0 * s` and `s + 0` stay as written unless `s` is a constant: in
    /// f64 arithmetic the first is NaN where `s` is NaN or infinite and
    /// −0.0 where it is negative, the second +0.0 where `s` is −0.0. The
    /// parser normalises atoms with this.
    pub fn simplify_keeping_negative_zero(&self) -> Expr {
        self.simplify_in(true)
    }

    fn simplify_in(&self, keep: bool) -> Expr {
        match self {
            Expr::Const(_) | Expr::Var(_) => self.clone(),
            Expr::Neg(e) => match e.simplify_in(keep) {
                Expr::Const(c) if !(keep && c.is_zero()) => Expr::Const(-c),
                Expr::Neg(inner) => *inner,
                s => Expr::Neg(Box::new(s)),
            },
            Expr::Add(a, b) => match (a.simplify_in(keep), b.simplify_in(keep)) {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x + y),
                (Expr::Const(x), s) | (s, Expr::Const(x)) if x.is_zero() && !keep => s,
                (sa, sb) => Expr::Add(Box::new(sa), Box::new(sb)),
            },
            Expr::Sub(a, b) => match (a.simplify_in(keep), b.simplify_in(keep)) {
                (Expr::Const(x), Expr::Const(y)) => Expr::Const(x - y),
                (s, Expr::Const(x)) if x.is_zero() => s,
                (sa, sb) => Expr::Sub(Box::new(sa), Box::new(sb)),
            },
            Expr::Mul(a, b) => match (a.simplify_in(keep), b.simplify_in(keep)) {
                (Expr::Const(x), Expr::Const(y)) => {
                    folded(&x * &y, keep && x.is_negative() != y.is_negative())
                }
                (Expr::Const(x), _) | (_, Expr::Const(x)) if x.is_zero() && !keep => Expr::zero(),
                (Expr::Const(x), s) | (s, Expr::Const(x)) if x == Rational::one() => s,
                // e·e ⇒ e²: interval evaluation of Pow knows the result is
                // non-negative, which plain interval multiplication of two
                // (dependent) copies cannot see.
                (sa, sb) if sa == sb => Expr::Pow(Box::new(sa), 2),
                (sa, sb) => Expr::Mul(Box::new(sa), Box::new(sb)),
            },
            Expr::Div(a, b) => match (a.simplify_in(keep), b.simplify_in(keep)) {
                (Expr::Const(x), Expr::Const(y)) if !y.is_zero() => {
                    folded(&x / &y, keep && x.is_negative() != y.is_negative())
                }
                (s, Expr::Const(x)) if x == Rational::one() => s,
                (sa, sb) => Expr::Div(Box::new(sa), Box::new(sb)),
            },
            Expr::Pow(e, n) => match (e.simplify_in(keep), n) {
                (_, 0) => Expr::int(1),
                (s, 1) => s,
                (Expr::Const(c), n) if *n > 0 => Expr::Const(c.powi(*n)),
                (s, n) => Expr::Pow(Box::new(s), *n),
            },
            Expr::Sin(e) => Expr::Sin(Box::new(e.simplify_in(keep))),
            Expr::Cos(e) => Expr::Cos(Box::new(e.simplify_in(keep))),
            Expr::Exp(e) => Expr::Exp(Box::new(e.simplify_in(keep))),
            Expr::Ln(e) => Expr::Ln(Box::new(e.simplify_in(keep))),
            Expr::Sqrt(e) => Expr::Sqrt(Box::new(e.simplify_in(keep))),
            Expr::Abs(e) => match e.simplify_in(keep) {
                Expr::Const(c) => Expr::Const(c.abs()),
                s => Expr::Abs(Box::new(s)),
            },
        }
    }

    /// Attempts to view the expression as an affine form
    /// `Σ aᵢ·xᵢ + c` with exact rational coefficients.
    ///
    /// Returns `None` if the expression is genuinely nonlinear (products of
    /// variables, division by variables, transcendental functions). This is
    /// how `absolver-core` routes each constraint to the linear or the
    /// nonlinear solver.
    pub fn to_affine(&self) -> Option<(LinExpr, Rational)> {
        match self {
            Expr::Const(c) => Some((LinExpr::zero(), c.clone())),
            Expr::Var(v) => Some((LinExpr::var(*v), Rational::zero())),
            Expr::Neg(e) => {
                let (mut l, c) = e.to_affine()?;
                l.scale(&-Rational::one());
                Some((l, -c))
            }
            Expr::Add(a, b) => {
                let (mut la, ca) = a.to_affine()?;
                let (lb, cb) = b.to_affine()?;
                la.add_scaled(&lb, &Rational::one());
                Some((la, ca + cb))
            }
            Expr::Sub(a, b) => {
                let (mut la, ca) = a.to_affine()?;
                let (lb, cb) = b.to_affine()?;
                la.add_scaled(&lb, &-Rational::one());
                Some((la, ca - cb))
            }
            Expr::Mul(a, b) => {
                let (la, ca) = a.to_affine()?;
                let (lb, cb) = b.to_affine()?;
                if la.is_zero() {
                    let mut l = lb;
                    l.scale(&ca);
                    Some((l, &ca * &cb))
                } else if lb.is_zero() {
                    let mut l = la;
                    l.scale(&cb);
                    Some((l, &ca * &cb))
                } else {
                    None // variable × variable
                }
            }
            Expr::Div(a, b) => {
                let (la, ca) = a.to_affine()?;
                let (lb, cb) = b.to_affine()?;
                if lb.is_zero() && !cb.is_zero() {
                    let mut l = la;
                    l.scale(&cb.recip());
                    Some((l, &ca / &cb))
                } else {
                    None // division by a variable (or by zero)
                }
            }
            Expr::Pow(e, n) => match n {
                0 => Some((LinExpr::zero(), Rational::one())),
                1 => e.to_affine(),
                _ => {
                    let (l, c) = e.to_affine()?;
                    if l.is_zero() && *n > 0 {
                        Some((LinExpr::zero(), c.powi(*n)))
                    } else {
                        None
                    }
                }
            },
            Expr::Sin(_)
            | Expr::Cos(_)
            | Expr::Exp(_)
            | Expr::Ln(_)
            | Expr::Sqrt(_)
            | Expr::Abs(_) => None,
        }
    }

    /// Returns `true` if [`Expr::to_affine`] succeeds.
    pub fn is_linear(&self) -> bool {
        self.to_affine().is_some()
    }

    /// Whether the expression contains a trigonometric subterm. HC4's
    /// backward pass cannot invert the periodic functions, so constraints
    /// over such expressions need a bound-shaving contractor (BC3) to
    /// narrow at all; the cascade uses this to schedule BC3 where it is
    /// the only contractor that can make progress.
    pub fn has_trig(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Var(_) => false,
            Expr::Sin(_) | Expr::Cos(_) => true,
            Expr::Neg(a)
            | Expr::Pow(a, _)
            | Expr::Exp(a)
            | Expr::Ln(a)
            | Expr::Sqrt(a)
            | Expr::Abs(a) => a.has_trig(),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                a.has_trig() || b.has_trig()
            }
        }
    }

    /// The expression in the input syntax, with `names[v]` for variable
    /// `v` (`_unknown_` past the end), which the parser reads back as the
    /// same expression. `Display` prints the same text with `v<id>` names.
    pub fn with_names<'a>(&'a self, names: &'a [String]) -> impl fmt::Display + 'a {
        Printer {
            expr: self,
            names: Some(names),
        }
    }
}

/// The one printer of [`Expr`]: the input syntax, with `names[v]` for
/// variable `v`, or `v<id>` without names.
struct Printer<'a> {
    expr: &'a Expr,
    names: Option<&'a [String]>,
}

impl Printer<'_> {
    fn write(&self, e: &Expr, f: &mut fmt::Formatter<'_>, min_prec: u8) -> fmt::Result {
        let prec = match e {
            Expr::Add(..) | Expr::Sub(..) => 1,
            Expr::Mul(..) | Expr::Div(..) => 2,
            // Negative constants print with a leading minus, so they bind
            // like a negation (`-4 ^ 2` must not re-parse as `-(4^2)`).
            Expr::Neg(_) => 3,
            Expr::Const(c) if c.is_negative() => 3,
            // `^` does not chain in the grammar, so a Pow base must sit
            // strictly above it (atoms are 5).
            Expr::Pow(..) => 4,
            _ => 5,
        };
        let paren = prec < min_prec;
        if paren {
            f.write_str("( ")?;
        }
        let infix = |f: &mut fmt::Formatter<'_>, a: &Expr, op: &str, b: &Expr, left: u8| {
            self.write(a, f, left)?;
            f.write_str(op)?;
            self.write(b, f, left + 1)
        };
        let call = |f: &mut fmt::Formatter<'_>, name: &str, arg: &Expr| {
            write!(f, "{name} ( ")?;
            self.write(arg, f, 0)?;
            f.write_str(" )")
        };
        match e {
            Expr::Const(c) => write_const(c, f)?,
            Expr::Var(v) => match self.names {
                Some(names) => f.write_str(names.get(*v).map_or("_unknown_", String::as_str))?,
                None => write!(f, "v{v}")?,
            },
            Expr::Neg(a) => {
                f.write_str("-")?;
                self.write(a, f, 4)?;
            }
            Expr::Add(a, b) => infix(f, a, " + ", b, 1)?,
            Expr::Sub(a, b) => infix(f, a, " - ", b, 1)?,
            Expr::Mul(a, b) => infix(f, a, " * ", b, 2)?,
            Expr::Div(a, b) => infix(f, a, " / ", b, 2)?,
            Expr::Pow(a, n) => {
                self.write(a, f, 5)?;
                write!(f, " ^ {n}")?;
            }
            Expr::Sin(a) => call(f, "sin", a)?,
            Expr::Cos(a) => call(f, "cos", a)?,
            Expr::Exp(a) => call(f, "exp", a)?,
            Expr::Ln(a) => call(f, "ln", a)?,
            Expr::Sqrt(a) => call(f, "sqrt", a)?,
            Expr::Abs(a) => call(f, "abs", a)?,
        }
        if paren {
            f.write_str(" )")?;
        }
        Ok(())
    }
}

impl fmt::Display for Printer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(self.expr, f, 0)
    }
}

/// Writes a constant as source text: an integer as is, a decimal literal
/// when the denominator is of the form `2ᵃ·5ᵇ` (finite decimal
/// expansion), else the always-correct division form `( a / b )`.
fn write_const(q: &Rational, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    use absolver_num::BigInt;
    if q.is_integer() {
        return write!(f, "{q}");
    }
    // Count factors of 2 and 5 in the denominator.
    let mut rest = q.denom().clone();
    let mut digits = [0u32; 2];
    for (count, factor) in digits.iter_mut().zip([2u64, 5]) {
        let factor = BigInt::from(factor);
        loop {
            let (d, r) = rest.div_rem(&factor);
            if !r.is_zero() {
                break;
            }
            rest = d;
            *count += 1;
        }
    }
    let digits = digits[0].max(digits[1]);
    if !rest.is_one() || digits > 30 {
        // Parenthesised, because the text embeds a `/` operator that must
        // not associate with surrounding factors.
        return write!(f, "( {} / {} )", q.numer(), q.denom());
    }
    let scaled = q.numer() * &BigInt::from(10u64).pow(digits) / q.denom();
    let s = format!(
        "{:0>width$}",
        scaled.abs().to_string(),
        width = digits as usize + 1
    );
    let (int_part, frac_part) = s.split_at(s.len() - digits as usize);
    let sign = if scaled.is_negative() { "-" } else { "" };
    write!(f, "{sign}{int_part}.{frac_part}")
}

/// A folded constant: `value`, or −0.0 (a negated zero) when the value
/// is zero and `negative` says f64 arithmetic gives it a negative sign.
fn folded(value: Rational, negative: bool) -> Expr {
    if negative && value.is_zero() {
        Expr::Neg(Box::new(Expr::zero()))
    } else {
        Expr::Const(value)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Printer {
            expr: self,
            names: None,
        }
        .fmt(f)
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::Div(Box::new(self), Box::new(rhs))
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::Neg(Box::new(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Expr {
        Expr::var(0)
    }

    fn y() -> Expr {
        Expr::var(1)
    }

    #[test]
    fn eval_f64_basics() {
        let e = x() * x() + Expr::int(3) * y() - Expr::int(1);
        assert_eq!(e.eval_f64(&[2.0, 4.0]), 15.0);
        let d = Expr::int(1) / x();
        assert_eq!(d.eval_f64(&[2.0]), 0.5);
        assert!(d.eval_f64(&[0.0]).is_infinite());
    }

    #[test]
    fn eval_transcendentals() {
        let e = x().sin().pow(2) + x().cos().pow(2);
        assert!((e.eval_f64(&[0.7]) - 1.0).abs() < 1e-12);
        assert!((x().exp().ln().eval_f64(&[1.3]) - 1.3).abs() < 1e-12);
        assert_eq!(x().abs().eval_f64(&[-4.0]), 4.0);
        assert_eq!(x().sqrt().eval_f64(&[9.0]), 3.0);
    }

    #[test]
    fn interval_eval_encloses_point_eval() {
        let e = (x() * y() + Expr::int(1)) / (x() - y());
        let bx = [Interval::new(1.0, 2.0), Interval::new(3.0, 4.0)];
        let iv = e.eval_interval(&bx);
        for &(px, py) in &[(1.0, 3.0), (2.0, 4.0), (1.5, 3.5)] {
            let v = e.eval_f64(&[px, py]);
            assert!(iv.contains(v), "{v} not in {iv}");
        }
    }

    #[test]
    fn variables_and_max_var() {
        let e = x() + Expr::var(5).sin() * Expr::int(2);
        assert_eq!(e.variables().into_iter().collect::<Vec<_>>(), vec![0, 5]);
        assert_eq!(e.max_var(), Some(5));
        assert_eq!(Expr::int(3).max_var(), None);
    }

    #[test]
    fn derivative_polynomial() {
        // d/dx (x^3 + 2x) = 3x^2 + 2
        let e = x().pow(3) + Expr::int(2) * x();
        let d = e.derivative(0);
        for &v in &[-2.0, 0.0, 1.5] {
            let expect = 3.0 * v * v + 2.0;
            assert!((d.eval_f64(&[v]) - expect).abs() < 1e-9);
        }
        // ∂/∂y of an x-only expression is 0.
        assert_eq!(e.derivative(1).simplify(), Expr::zero());
    }

    #[test]
    fn derivative_quotient_and_transcendental() {
        // d/dx (sin x / x) = (cos x · x − sin x)/x².
        let e = x().sin() / x();
        let d = e.derivative(0);
        for &v in &[0.5f64, 1.0, 2.0] {
            let expect = (v * v.cos() - v.sin()) / (v * v);
            assert!((d.eval_f64(&[v]) - expect).abs() < 1e-9, "at {v}");
        }
        // d/dx exp(2x) = 2 exp(2x)
        let e = (Expr::int(2) * x()).exp();
        let d = e.derivative(0);
        assert!((d.eval_f64(&[0.3]) - 2.0 * (0.6f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn simplify_folds_constants() {
        let e = (Expr::int(2) + Expr::int(3)) * x() + Expr::int(0) * y();
        assert_eq!(e.simplify(), Expr::int(5) * x());
        assert_eq!((x() * Expr::int(1)).simplify(), x());
        assert_eq!((x() + Expr::int(0)).simplify(), x());
        assert_eq!((x().pow(1)).simplify(), x());
        assert_eq!((x().pow(0)).simplify(), Expr::int(1));
        assert_eq!(
            Expr::Neg(Box::new(Expr::Neg(Box::new(x())))).simplify(),
            x()
        );
    }

    #[test]
    fn affine_extraction() {
        // 2x + 3(y − 1) is affine: 2x + 3y − 3.
        let e = Expr::int(2) * x() + Expr::int(3) * (y() - Expr::int(1));
        let (lin, c) = e.to_affine().unwrap();
        assert_eq!(lin.coeff(0), Rational::from_int(2));
        assert_eq!(lin.coeff(1), Rational::from_int(3));
        assert_eq!(c, Rational::from_int(-3));
        // x/2 is affine, x·y and 1/x and sin x are not.
        assert!((x() / Expr::int(2)).is_linear());
        assert!(!(x() * y()).is_linear());
        assert!(!(Expr::int(1) / x()).is_linear());
        assert!(!x().sin().is_linear());
        // The paper's nonlinear constraint: a·x + 3.5/(4−y) + 2y.
        let paper = Expr::var(2) * x()
            + Expr::constant("3.5".parse().unwrap()) / (Expr::int(4) - y())
            + Expr::int(2) * y();
        assert!(!paper.is_linear());
    }

    #[test]
    fn display_precedence() {
        let e = (x() + y()) * Expr::int(2);
        assert_eq!(e.to_string(), "( v0 + v1 ) * 2");
        let d = x() / (y() - Expr::int(1));
        assert_eq!(d.to_string(), "v0 / ( v1 - 1 )");
        assert_eq!(x().sin().to_string(), "sin ( v0 )");
        assert_eq!((-x()).to_string(), "-v0");
        assert_eq!(x().pow(3).to_string(), "v0 ^ 3");
    }

    /// Symbolic derivatives of partial functions (√, ln, |·|, division)
    /// blow up exactly where the function's domain ends. The interval
    /// Newton contractor evaluates them on boxes that *touch* those
    /// boundaries, so the evaluation must stay panic-free and NaN-free
    /// (infinite endpoints are the correct answer there) while still
    /// enclosing the true derivative at interior points.
    #[test]
    fn derivative_eval_at_domain_boundaries() {
        let no_nan = |iv: Interval, what: &str| {
            assert!(
                !iv.lo().is_nan() && !iv.hi().is_nan(),
                "{what} produced NaN endpoint {iv}"
            );
        };
        // d/dx √x = 1/(2√x): singular at the included endpoint x = 0.
        let dsqrt = x().sqrt().derivative(0).simplify();
        let on_boundary = dsqrt.eval_interval(&[Interval::new(0.0, 1.0)]);
        no_nan(on_boundary, "(√x)' on [0,1]");
        assert!(on_boundary.contains(0.5), "(√x)'(1) = ½ must be enclosed");
        // d/dx ln x = 1/x on a box with the domain edge at 0.
        let dln = x().ln().derivative(0).simplify();
        let near_zero = dln.eval_interval(&[Interval::new(0.0, 2.0)]);
        no_nan(near_zero, "(ln x)' on [0,2]");
        assert!(near_zero.contains(0.5), "(ln x)'(2) = ½ must be enclosed");
        // d/dx |x| = x/|x|: undefined at 0, ±1 elsewhere; a straddling
        // box must keep both branches without manufacturing NaN.
        let dabs = x().abs().derivative(0).simplify();
        let straddle = dabs.eval_interval(&[Interval::new(-1.0, 1.0)]);
        no_nan(straddle, "(|x|)' on [-1,1]");
        if !straddle.is_empty() {
            assert!(straddle.contains(1.0) && straddle.contains(-1.0));
        }
        // d/dx 1/x = -1/x²: point-box exactly on the pole.
        let dinv = (Expr::int(1) / x()).derivative(0).simplify();
        no_nan(
            dinv.eval_interval(&[Interval::point(0.0)]),
            "(1/x)' at [0,0]",
        );
        // Entirely outside the domain: (√x)' still contains √x, so a
        // negative box yields empty. (ln x)' simplifies to the bare 1/x,
        // which is defined on negatives — the domain restriction does not
        // survive differentiation, and that is fine for Newton (it only
        // widens the enclosure); it must still be finite and NaN-free.
        assert!(dsqrt.eval_interval(&[Interval::new(-2.0, -1.0)]).is_empty());
        let dln_neg = dln.eval_interval(&[Interval::new(-2.0, -1.0)]);
        no_nan(dln_neg, "(ln x)' on [-2,-1]");
        assert!(dln_neg.contains(-0.5), "1/x at x = -2");
    }

    use absolver_testkit::{domain, gen, property, Gen};

    /// A box in `[-4, 4]` that may be empty, degenerate (a point), or
    /// pinned to 0 at either end — the shapes branch-and-prune actually
    /// produces next to domain boundaries.
    fn boundary_box() -> Gen<Interval> {
        Gen::new(|src| match gen::ints(0u32..6).generate(src) {
            0 => Interval::EMPTY,
            1 => Interval::point(gen::f64_in(-4.0, 4.0).generate(src)),
            2 => Interval::new(0.0, gen::f64_in(0.0, 4.0).generate(src)),
            3 => Interval::new(-gen::f64_in(0.0, 4.0).generate(src), 0.0),
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

        /// Fuzz: symbolic derivatives of random expressions evaluated on
        /// boundary-shaped boxes never panic or produce NaN endpoints,
        /// with or without simplification.
        fn derivative_interval_eval_is_total(
            e in domain::expr(2, 3, domain::ExprProfile::polyish()),
            bx in boundary_box(),
            by in boundary_box(),
            v in gen::ints(0usize..2),
        ) {
            let d = e.derivative(v);
            for d in [d.clone(), d.simplify()] {
                let iv = d.eval_interval(&[bx, by]);
                assert!(
                    !iv.lo().is_nan() && !iv.hi().is_nan(),
                    "derivative of {e} w.r.t. v{v} on [{bx}, {by}] gave NaN endpoint {iv}"
                );
            }
        }
    }
}
