//! Outward-rounded floating-point interval arithmetic.
//!
//! [`Interval`] underlies the nonlinear solver's branch-and-prune procedure:
//! every arithmetic operation returns an interval that is *guaranteed* to
//! contain the exact real result, by widening each computed endpoint one ulp
//! outward. That over-approximation is what makes "the constraint cannot be
//! satisfied anywhere in this box" a sound proof.
//!
//! ```
//! use absolver_num::Interval;
//!
//! let x = Interval::new(1.0, 2.0);
//! let y = Interval::new(-1.0, 3.0);
//! assert!((x + y).contains(4.9));
//! assert!(x.mul(y).encloses(Interval::new(-2.0, 6.0)));
//! ```

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A closed real interval `[lo, hi]` with `f64` endpoints.
///
/// The empty interval is represented canonically as `[+inf, -inf]`; every
/// constructor and operation preserves that canonical form. Endpoints may be
/// infinite (half-bounded or unbounded intervals).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

/// Widens a lower bound one ulp downward (no-op on infinities).
fn down(v: f64) -> f64 {
    if v.is_finite() {
        v.next_down()
    } else {
        v
    }
}

/// Widens an upper bound one ulp upward (no-op on infinities).
fn up(v: f64) -> f64 {
    if v.is_finite() {
        v.next_up()
    } else {
        v
    }
}

impl Interval {
    /// The empty interval.
    pub const EMPTY: Interval = Interval {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// The whole real line `(-inf, +inf)`.
    pub const ENTIRE: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Creates `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if either bound is NaN or if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Interval {
        assert!(!lo.is_nan() && !hi.is_nan(), "interval bound is NaN");
        assert!(lo <= hi, "interval bounds out of order: [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// Creates a degenerate point interval `[v, v]`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is NaN.
    pub fn point(v: f64) -> Interval {
        Interval::new(v, v)
    }

    /// Creates `[lo, hi]`, returning [`Interval::EMPTY`] when `lo > hi`
    /// instead of panicking.
    pub fn checked(lo: f64, hi: f64) -> Interval {
        if lo.is_nan() || hi.is_nan() || lo > hi {
            Interval::EMPTY
        } else {
            Interval { lo, hi }
        }
    }

    /// Lower endpoint (`+inf` for the empty interval).
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper endpoint (`-inf` for the empty interval).
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Returns `true` if the interval contains no points.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi
    }

    /// Returns `true` if the interval is a single point.
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Width `hi - lo` (`0` for points, `-inf` for empty, `+inf` if unbounded).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Midpoint; finite whenever the interval is non-empty, clamping
    /// half-bounded intervals to a large finite value.
    pub fn midpoint(&self) -> f64 {
        debug_assert!(!self.is_empty());
        if self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY {
            return 0.0;
        }
        if self.lo == f64::NEG_INFINITY {
            return if self.hi > 0.0 { 0.0 } else { self.hi - 1.0 };
        }
        if self.hi == f64::INFINITY {
            return if self.lo < 0.0 { 0.0 } else { self.lo + 1.0 };
        }
        let m = self.lo / 2.0 + self.hi / 2.0;
        m.clamp(self.lo, self.hi)
    }

    /// Returns `true` if `v` lies within the interval.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Returns `true` if `other` is a subset of `self`.
    pub fn encloses(&self, other: Interval) -> bool {
        other.is_empty() || (self.lo <= other.lo && other.hi <= self.hi)
    }

    /// Set intersection.
    pub fn intersect(&self, other: Interval) -> Interval {
        Interval::checked(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Convex hull (smallest interval containing both).
    pub fn hull(&self, other: Interval) -> Interval {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return *self;
        }
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Interval negation `[-hi, -lo]` (exact; no widening needed).
    pub fn neg(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    /// Sound interval addition.
    pub fn add(&self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        Interval {
            lo: down(self.lo + rhs.lo),
            hi: up(self.hi + rhs.hi),
        }
    }

    /// Sound interval subtraction.
    pub fn sub(&self, rhs: Interval) -> Interval {
        self.add(rhs.neg())
    }

    /// Sound interval multiplication.
    pub fn mul(&self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &a in &[self.lo, self.hi] {
            for &b in &[rhs.lo, rhs.hi] {
                // 0 * inf is NaN in IEEE; the correct interval product is 0.
                let p = if a == 0.0 || b == 0.0 { 0.0 } else { a * b };
                lo = lo.min(p);
                hi = hi.max(p);
            }
        }
        Interval {
            lo: down(lo),
            hi: up(hi),
        }
    }

    /// Sound interval division for denominators that do not contain zero.
    ///
    /// If `rhs` contains zero in its interior the quotient set is a union of
    /// two rays; use [`Interval::div_ext`] for that case. Here zero-straddling
    /// denominators conservatively yield [`Interval::ENTIRE`].
    pub fn div(&self, rhs: Interval) -> Interval {
        if self.is_empty() || rhs.is_empty() {
            return Interval::EMPTY;
        }
        if rhs.lo <= 0.0 && rhs.hi >= 0.0 {
            if rhs.lo == 0.0 && rhs.hi == 0.0 {
                return Interval::EMPTY;
            }
            let (a, b) = self.div_ext(rhs);
            return match (a, b) {
                (Some(x), Some(y)) => x.hull(y),
                (Some(x), None) | (None, Some(x)) => x,
                (None, None) => Interval::EMPTY,
            };
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &a in &[self.lo, self.hi] {
            for &b in &[rhs.lo, rhs.hi] {
                let q = if a == 0.0 { 0.0 } else { a / b };
                let q = if q.is_nan() { 0.0 } else { q };
                lo = lo.min(q);
                hi = hi.max(q);
            }
        }
        Interval {
            lo: down(lo),
            hi: up(hi),
        }
    }

    /// Extended division: the quotient as up to two intervals when the
    /// denominator straddles zero.
    ///
    /// Returns `(negative-side part, positive-side part)`; either may be
    /// `None`. Used by the HC4 contractor to propagate through `/`.
    pub fn div_ext(&self, rhs: Interval) -> (Option<Interval>, Option<Interval>) {
        if self.is_empty() || rhs.is_empty() || (rhs.lo == 0.0 && rhs.hi == 0.0) {
            return (None, None);
        }
        if rhs.lo > 0.0 || rhs.hi < 0.0 {
            return if rhs.hi < 0.0 {
                (Some(self.div(rhs)), None)
            } else {
                (None, Some(self.div(rhs)))
            };
        }
        // rhs contains zero with at least one side extending away from it.
        let neg_part = if rhs.lo < 0.0 {
            Some(self.div(Interval::new(rhs.lo, 0.0_f64.next_down())))
        } else {
            None
        };
        let pos_part = if rhs.hi > 0.0 {
            Some(self.div(Interval::new(0.0_f64.next_up(), rhs.hi)))
        } else {
            None
        };
        (neg_part, pos_part)
    }

    /// Sound integer power.
    pub fn powi(&self, n: i32) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if n == 0 {
            return Interval::point(1.0);
        }
        if n < 0 {
            return Interval::point(1.0).div(self.powi(-n));
        }
        if n % 2 == 1 || self.lo >= 0.0 {
            let lo = self.lo.powi(n);
            let hi = self.hi.powi(n);
            Interval {
                lo: down(lo.min(hi)),
                hi: up(lo.max(hi)),
            }
        } else if self.hi <= 0.0 {
            let lo = self.hi.powi(n);
            let hi = self.lo.powi(n);
            Interval {
                lo: down(lo),
                hi: up(hi),
            }
        } else {
            // Straddles zero with even power: minimum is 0.
            let hi = self.lo.powi(n).max(self.hi.powi(n));
            Interval {
                lo: 0.0,
                hi: up(hi),
            }
        }
    }

    /// Sound square root; negative parts of the domain are clipped.
    ///
    /// Returns [`Interval::EMPTY`] if the interval is entirely negative.
    pub fn sqrt(&self) -> Interval {
        if self.is_empty() || self.hi < 0.0 {
            return Interval::EMPTY;
        }
        let lo = self.lo.max(0.0).sqrt();
        let hi = self.hi.sqrt();
        Interval {
            lo: down(lo).max(0.0),
            hi: up(hi),
        }
    }

    /// Sound exponential (monotone).
    pub fn exp(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        Interval {
            lo: down(self.lo.exp()).max(0.0),
            hi: up(self.hi.exp()),
        }
    }

    /// Sound natural logarithm; non-positive parts of the domain are clipped.
    ///
    /// Returns [`Interval::EMPTY`] if the interval is entirely non-positive.
    pub fn ln(&self) -> Interval {
        if self.is_empty() || self.hi <= 0.0 {
            return Interval::EMPTY;
        }
        let lo = if self.lo <= 0.0 {
            f64::NEG_INFINITY
        } else {
            down(self.lo.ln())
        };
        Interval {
            lo,
            hi: up(self.hi.ln()),
        }
    }

    /// Sound sine.
    pub fn sin(&self) -> Interval {
        self.trig(f64::sin, std::f64::consts::FRAC_PI_2)
    }

    /// Sound cosine.
    pub fn cos(&self) -> Interval {
        self.trig(f64::cos, 0.0)
    }

    /// Returns `true` if some point `at + 2kπ` (k ∈ ℤ) lies in `[lo, hi]`,
    /// allowing one ulp of slack on the period multiples.
    fn contains_periodic(lo: f64, hi: f64, at: f64) -> bool {
        use std::f64::consts::TAU;
        let k = ((lo - at) / TAU).ceil();
        let x = at + k * TAU;
        // Slack: the floating computation of x may land just outside.
        x <= hi || (at + (k - 1.0) * TAU) >= lo
    }

    /// Shared sin/cos enclosure: evaluates endpoints, then extends to ±1 if
    /// a critical point lies inside the interval. `max_at` is an x where
    /// the function attains its maximum `1` (minima are at `max_at + π`).
    fn trig(&self, f: fn(f64) -> f64, max_at: f64) -> Interval {
        use std::f64::consts::{PI, TAU};
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if self.width() >= TAU {
            return Interval::new(-1.0, 1.0);
        }
        let flo = f(self.lo);
        let fhi = f(self.hi);
        let mut lo = flo.min(fhi);
        let mut hi = flo.max(fhi);
        if Self::contains_periodic(self.lo, self.hi, max_at) {
            hi = 1.0;
        }
        if Self::contains_periodic(self.lo, self.hi, max_at + PI) {
            lo = -1.0;
        }
        Interval {
            lo: down(lo).max(-1.0),
            hi: up(hi).min(1.0),
        }
    }

    /// Absolute-value image.
    pub fn abs(&self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        if self.lo >= 0.0 {
            *self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            Interval::new(0.0, self.hi.max(-self.lo))
        }
    }
}

impl Default for Interval {
    fn default() -> Self {
        Interval::ENTIRE
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("[empty]")
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

impl Add for Interval {
    type Output = Interval;
    fn add(self, rhs: Interval) -> Interval {
        Interval::add(&self, rhs)
    }
}

impl Sub for Interval {
    type Output = Interval;
    fn sub(self, rhs: Interval) -> Interval {
        Interval::sub(&self, rhs)
    }
}

impl Mul for Interval {
    type Output = Interval;
    fn mul(self, rhs: Interval) -> Interval {
        Interval::mul(&self, rhs)
    }
}

impl Neg for Interval {
    type Output = Interval;
    fn neg(self) -> Interval {
        Interval::neg(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absolver_testkit::{gen, property, Gen};

    #[test]
    fn construction_and_queries() {
        let i = Interval::new(-1.0, 2.0);
        assert!(i.contains(0.0) && i.contains(-1.0) && i.contains(2.0));
        assert!(!i.contains(2.5));
        assert_eq!(i.width(), 3.0);
        assert!(!i.is_empty());
        assert!(Interval::EMPTY.is_empty());
        assert!(Interval::point(3.0).is_point());
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn reversed_bounds_panic() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn intersection_and_hull() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        assert_eq!(a.intersect(b), Interval::new(1.0, 2.0));
        assert_eq!(a.hull(b), Interval::new(0.0, 3.0));
        let c = Interval::new(5.0, 6.0);
        assert!(a.intersect(c).is_empty());
        assert_eq!(a.hull(Interval::EMPTY), a);
        assert_eq!(Interval::EMPTY.intersect(a), Interval::EMPTY);
    }

    #[test]
    fn midpoint_always_inside() {
        for iv in [
            Interval::new(1.0, 2.0),
            Interval::new(-1.0e300, 1.0e300),
            Interval::new(f64::NEG_INFINITY, 5.0),
            Interval::new(5.0, f64::INFINITY),
            Interval::ENTIRE,
        ] {
            let m = iv.midpoint();
            assert!(m.is_finite());
            assert!(iv.contains(m), "{m} not in {iv}");
        }
    }

    #[test]
    fn multiplication_signs() {
        let pos = Interval::new(2.0, 3.0);
        let neg = Interval::new(-3.0, -2.0);
        let mix = Interval::new(-1.0, 2.0);
        assert!(pos.mul(neg).encloses(Interval::new(-9.0, -4.0)));
        assert!(mix.mul(mix).encloses(Interval::new(-2.0, 4.0)));
        assert!(Interval::point(0.0).mul(Interval::ENTIRE).contains(0.0));
    }

    #[test]
    fn division_simple_and_extended() {
        let a = Interval::new(1.0, 2.0);
        assert!(a
            .div(Interval::new(2.0, 4.0))
            .encloses(Interval::new(0.25, 1.0)));
        // Denominator straddles zero: result splits into two rays.
        let (n, p) = a.div_ext(Interval::new(-1.0, 1.0));
        let n = n.unwrap();
        let p = p.unwrap();
        assert!(n.hi() <= -1.0 + 1e-9);
        assert!(p.lo() >= 1.0 - 1e-9);
        // Degenerate zero denominator.
        assert!(a.div(Interval::point(0.0)).is_empty());
        let (n, p) = a.div_ext(Interval::point(0.0));
        assert!(n.is_none() && p.is_none());
    }

    #[test]
    fn powers() {
        let m = Interval::new(-2.0, 3.0);
        assert!(m.powi(2).encloses(Interval::new(0.0, 9.0)));
        assert!(m.powi(3).encloses(Interval::new(-8.0, 27.0)));
        assert_eq!(m.powi(0), Interval::point(1.0));
        let n = Interval::new(-3.0, -2.0);
        assert!(n.powi(2).encloses(Interval::new(4.0, 9.0)));
    }

    #[test]
    fn transcendental_enclosures() {
        let i = Interval::new(0.0, 1.0);
        assert!(i.exp().encloses(Interval::new(1.0, std::f64::consts::E)));
        assert!(Interval::new(1.0, std::f64::consts::E).ln().contains(0.5));
        assert!(Interval::new(-1.0, 4.0)
            .sqrt()
            .encloses(Interval::new(0.0, 2.0)));
        assert!(Interval::new(-3.0, -1.0).sqrt().is_empty());
        assert!(Interval::new(-1.0, -0.5).ln().is_empty());
    }

    #[test]
    fn trig_critical_points() {
        use std::f64::consts::{FRAC_PI_2, PI};
        // sin over [0, π] attains its max 1 at π/2.
        let s = Interval::new(0.0, PI).sin();
        assert!(s.contains(1.0));
        assert!(s.lo() <= 1e-9);
        // cos over [π/2, 3π/2] attains its min -1 at π.
        let c = Interval::new(FRAC_PI_2, 3.0 * FRAC_PI_2).cos();
        assert!(c.contains(-1.0));
        // Width ≥ 2π → [-1, 1].
        assert_eq!(Interval::new(0.0, 10.0).sin(), Interval::new(-1.0, 1.0));
    }

    #[test]
    fn abs_cases() {
        assert_eq!(Interval::new(1.0, 2.0).abs(), Interval::new(1.0, 2.0));
        assert_eq!(Interval::new(-2.0, -1.0).abs(), Interval::new(1.0, 2.0));
        assert_eq!(Interval::new(-2.0, 1.0).abs(), Interval::new(0.0, 2.0));
    }

    fn iv() -> Gen<Interval> {
        let lo = gen::f64_in(-1.0e6, 1.0e6);
        let hi = gen::f64_in(-1.0e6, 1.0e6);
        Gen::new(move |src| {
            let (a, b) = (lo.generate(src), hi.generate(src));
            Interval::new(a.min(b), a.max(b))
        })
    }

    property! {
        /// Soundness: for points x ∈ X, y ∈ Y, x∘y ∈ X∘Y.
        fn ops_contain_pointwise(a in iv(), b in iv(), ta in gen::f64_unit(), tb in gen::f64_unit()) {
            let x = a.lo() + ta * (a.hi() - a.lo());
            let y = b.lo() + tb * (b.hi() - b.lo());
            assert!(a.add(b).contains(x + y));
            assert!(a.sub(b).contains(x - y));
            assert!(a.mul(b).contains(x * y));
            if !b.contains(0.0) {
                assert!(a.div(b).contains(x / y));
            }
        }

        fn unary_contain_pointwise(a in iv(), t in gen::f64_unit()) {
            let x = a.lo() + t * (a.hi() - a.lo());
            assert!(a.powi(2).contains(x * x));
            assert!(a.powi(3).contains(x * x * x));
            assert!(a.sin().contains(x.sin()));
            assert!(a.cos().contains(x.cos()));
            assert!(a.abs().contains(x.abs()));
            if x >= 0.0 {
                assert!(a.sqrt().contains(x.sqrt()));
            }
            if x.abs() < 500.0 {
                assert!(a.exp().contains(x.exp()));
            }
            if x > 0.0 {
                assert!(a.ln().contains(x.ln()));
            }
        }

        fn intersect_is_subset(a in iv(), b in iv()) {
            let i = a.intersect(b);
            assert!(a.encloses(i));
            assert!(b.encloses(i));
            assert!(a.hull(b).encloses(a));
            assert!(a.hull(b).encloses(b));
        }

        fn div_ext_covers_division(a in iv(), b in iv(), ta in gen::f64_unit(), tb in gen::f64_unit()) {
            let x = a.lo() + ta * (a.hi() - a.lo());
            let y = b.lo() + tb * (b.hi() - b.lo());
            absolver_testkit::assume!(y != 0.0);
            let (n, p) = a.div_ext(b);
            let q = x / y;
            let inside = n.is_some_and(|i| i.contains(q)) || p.is_some_and(|i| i.contains(q));
            assert!(inside, "{q} escaped div_ext({a}, {b})");
        }
    }

    /// Adversarial endpoints: infinities, signed zeros, denormals, and
    /// extreme magnitudes mixed with ordinary values — the cases where
    /// IEEE rounding and special-value rules bite.
    fn adversarial_f64() -> Gen<f64> {
        const SPECIAL: [f64; 12] = [
            f64::NEG_INFINITY,
            -1e308,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            1.0,
            1e16,
            1e308,
            f64::INFINITY,
        ];
        Gen::new(|src| {
            if gen::bool_any().generate(src) {
                SPECIAL[gen::ints(0usize..SPECIAL.len()).generate(src)]
            } else {
                gen::f64_in(-1e6, 1e6).generate(src)
            }
        })
    }

    fn adversarial_iv() -> Gen<Interval> {
        Gen::new(|src| {
            if gen::ints(0u32..8).generate(src) == 0 {
                return Interval::EMPTY;
            }
            let (a, b) = (
                adversarial_f64().generate(src),
                adversarial_f64().generate(src),
            );
            Interval::new(a.min(b), a.max(b))
        })
    }

    property! {
        #![cases = 512]

        /// Randomised companion to `edge_case_operations_never_panic_or_nan`:
        /// every operation on adversarial intervals (zero-straddling,
        /// empty, infinite, denormal endpoints) must neither panic nor
        /// produce a NaN endpoint, and empty inputs must propagate.
        fn adversarial_ops_never_panic_or_nan(a in adversarial_iv(), b in adversarial_iv()) {
            let no_nan = |iv: Interval, what: &str| {
                assert!(
                    !iv.lo().is_nan() && !iv.hi().is_nan(),
                    "{what} on {a}, {b} produced NaN endpoint {iv}"
                );
            };
            no_nan(a.add(b), "add");
            no_nan(a.sub(b), "sub");
            no_nan(a.mul(b), "mul");
            no_nan(a.div(b), "div");
            no_nan(a.intersect(b), "intersect");
            no_nan(a.hull(b), "hull");
            let (n, p) = a.div_ext(b);
            if let Some(n) = n {
                no_nan(n, "div_ext.neg");
            }
            if let Some(p) = p {
                no_nan(p, "div_ext.pos");
            }
            if a.is_empty() || b.is_empty() {
                assert!(a.add(b).is_empty() && a.sub(b).is_empty());
                assert!(a.mul(b).is_empty() && a.div(b).is_empty());
                assert!(a.intersect(b).is_empty());
                assert!(n.is_none() && p.is_none(), "div_ext on empty must yield nothing");
            }
            for (what, r) in [
                ("abs", a.abs()),
                ("sqrt", a.sqrt()),
                ("exp", a.exp()),
                ("ln", a.ln()),
                ("sin", a.sin()),
                ("cos", a.cos()),
                ("neg", a.neg()),
                ("powi2", a.powi(2)),
                ("powi-3", a.powi(-3)),
                ("powi7", a.powi(7)),
            ] {
                no_nan(r, what);
                if a.is_empty() {
                    assert!(r.is_empty(), "{what} must propagate empty");
                }
            }
        }
    }

    /// Edge-case fuzz battery: adversarial intervals (zero-straddling,
    /// empty, infinite, denormal-adjacent) pushed through every operation.
    /// Any panic or NaN-shaped endpoint is a failure; empty inputs must
    /// propagate to empty (or a documented clipped result).
    #[test]
    fn edge_case_operations_never_panic_or_nan() {
        let specimens = [
            Interval::EMPTY,
            Interval::ENTIRE,
            Interval::point(0.0),
            Interval::new(-0.0, 0.0),
            Interval::new(-1.0, 1.0),
            Interval::new(f64::NEG_INFINITY, 0.0),
            Interval::new(0.0, f64::INFINITY),
            Interval::new(f64::NEG_INFINITY, -1.0),
            Interval::new(1.0, f64::INFINITY),
            Interval::new(f64::MIN, f64::MAX),
            Interval::new(-f64::MIN_POSITIVE, f64::MIN_POSITIVE),
            Interval::new(5e-324, 1e-300),
            Interval::new(-1e308, -1e300),
        ];
        let no_nan = |iv: Interval, what: &str, a: Interval, b: Interval| {
            assert!(
                !iv.lo().is_nan() && !iv.hi().is_nan(),
                "{what}({a}, {b}) produced NaN endpoint {iv}"
            );
        };
        for &a in &specimens {
            for &b in &specimens {
                no_nan(a.add(b), "add", a, b);
                no_nan(a.sub(b), "sub", a, b);
                no_nan(a.mul(b), "mul", a, b);
                no_nan(a.div(b), "div", a, b);
                no_nan(a.intersect(b), "intersect", a, b);
                no_nan(a.hull(b), "hull", a, b);
                let (n, p) = a.div_ext(b);
                if let Some(n) = n {
                    no_nan(n, "div_ext.neg", a, b);
                }
                if let Some(p) = p {
                    no_nan(p, "div_ext.pos", a, b);
                }
                // Empty absorbs through every binary op.
                if a.is_empty() || b.is_empty() {
                    assert!(a.add(b).is_empty());
                    assert!(a.sub(b).is_empty());
                    assert!(a.mul(b).is_empty());
                    assert!(a.div(b).is_empty());
                    assert!(a.intersect(b).is_empty());
                }
            }
            for op in [
                Interval::abs,
                Interval::sqrt,
                Interval::exp,
                Interval::ln,
                Interval::sin,
                Interval::cos,
                Interval::neg,
            ] {
                let r = op(&a);
                assert!(
                    !r.lo().is_nan() && !r.hi().is_nan(),
                    "unary op on {a} produced NaN endpoint {r}"
                );
                if a.is_empty() {
                    assert!(r.is_empty(), "empty must propagate through unary ops");
                }
            }
            for n in [-3, -2, -1, 0, 1, 2, 3, 4, 7, 8] {
                let r = a.powi(n);
                assert!(
                    !r.lo().is_nan() && !r.hi().is_nan(),
                    "powi({a}, {n}) produced NaN endpoint {r}"
                );
            }
        }
        // Division by an interval straddling zero covers the whole line
        // (hull of two rays) but never errors.
        let straddle = Interval::new(-1.0, 1.0);
        let q = Interval::new(1.0, 2.0).div(straddle);
        assert!(!q.is_empty());
        assert!(q.lo() == f64::NEG_INFINITY && q.hi() == f64::INFINITY);
        // [0,0] denominator: empty quotient, not a crash.
        assert!(Interval::new(1.0, 2.0).div(Interval::point(0.0)).is_empty());
    }
}
