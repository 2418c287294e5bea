//! Exact rational numbers over [`BigInt`].
//!
//! [`Rational`] is the coefficient domain of the simplex solvers in
//! `absolver-linear`: every value is kept fully reduced, so comparisons and
//! sign tests are exact no matter how many pivots have happened. Sums,
//! differences and products of two integers, and comparisons over one
//! denominator, skip the cross-multiplication and the gcd.
//!
//! ```
//! use absolver_num::Rational;
//!
//! let a: Rational = "3.5".parse().unwrap();
//! let b = Rational::new(7, 2);
//! assert_eq!(a, b);
//! assert_eq!((a / b).to_string(), "1");
//! ```

use crate::bigint::BigInt;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number.
///
/// Invariants: the denominator is strictly positive and `gcd(num, den) == 1`;
/// zero is `0/1`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    num: BigInt,
    den: BigInt,
}

impl Rational {
    /// The rational `0`.
    pub fn zero() -> Rational {
        Rational {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// The rational `1`.
    pub fn one() -> Rational {
        Rational {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Creates `num / den` from machine integers.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Rational {
        Rational::from_big(BigInt::from(num), BigInt::from(den))
    }

    /// Creates `num / den` from big integers, normalising the result.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_big(num: BigInt, den: BigInt) -> Rational {
        assert!(!den.is_zero(), "rational with zero denominator");
        let mut num = num;
        let mut den = den;
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        let g = num.gcd(&den);
        if !g.is_one() && !g.is_zero() {
            num = &num / &g;
            den = &den / &g;
        }
        if num.is_zero() {
            den = BigInt::one();
        }
        Rational { num, den }
    }

    /// Creates an integer rational.
    pub fn from_int(v: i64) -> Rational {
        Rational {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> &BigInt {
        &self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> &BigInt {
        &self.den
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Returns `true` if the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den.is_one()
    }

    /// Sign as `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        self.num.signum()
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den.clone(),
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        assert!(!self.is_zero(), "reciprocal of zero");
        Rational::from_big(self.den.clone(), self.num.clone())
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            q - BigInt::one()
        } else {
            q
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_positive() {
            q + BigInt::one()
        } else {
            q
        }
    }

    /// Nearest-`f64` approximation. Exact when numerator and denominator fit
    /// in the double mantissa, otherwise rounded by the two conversions.
    pub fn to_f64(&self) -> f64 {
        self.num.to_f64() / self.den.to_f64()
    }

    /// Exact conversion from a finite `f64` (every finite double is a
    /// dyadic rational).
    ///
    /// Returns `None` for NaN and infinities.
    pub fn from_f64(v: f64) -> Option<Rational> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(Rational::zero());
        }
        let bits = v.to_bits();
        let sign = if bits >> 63 == 1 { -1i64 } else { 1 };
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mantissa, exp) = if exp == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1u64 << 52), exp - 1075)
        };
        let num = BigInt::from(mantissa) * BigInt::from(sign);
        Some(if exp >= 0 {
            Rational::from_big(num.shl(exp as u64), BigInt::one())
        } else {
            Rational::from_big(num, BigInt::one().shl((-exp) as u64))
        })
    }

    /// Raises to an integer power (negative exponents via [`Rational::recip`]).
    ///
    /// # Panics
    ///
    /// Panics if the value is zero and `exp < 0`.
    pub fn powi(&self, exp: i32) -> Rational {
        if exp >= 0 {
            Rational {
                num: self.num.pow(exp as u32),
                den: self.den.pow(exp as u32),
            }
        } else {
            self.recip().powi(-exp)
        }
    }

    /// Returns the smaller of two rationals.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two rationals.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Rational {
        Rational::from_int(v)
    }
}

impl From<i32> for Rational {
    fn from(v: i32) -> Rational {
        Rational::from_int(v as i64)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Rational {
        Rational {
            num: v,
            den: BigInt::one(),
        }
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // a/b ? c/d  <=>  a*d ? c*b  (b, d > 0)
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -&self.num,
            den: self.den.clone(),
        }
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        if self.is_integer() && rhs.is_integer() {
            return Rational::from(&self.num + &rhs.num);
        }
        Rational::from_big(
            &self.num * &rhs.den + &rhs.num * &self.den,
            &self.den * &rhs.den,
        )
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if self.is_integer() && rhs.is_integer() {
            return Rational::from(&self.num - &rhs.num);
        }
        Rational::from_big(
            &self.num * &rhs.den - &rhs.num * &self.den,
            &self.den * &rhs.den,
        )
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if self.is_integer() && rhs.is_integer() {
            return Rational::from(&self.num * &rhs.num);
        }
        Rational::from_big(&self.num * &rhs.num, &self.den * &rhs.den)
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "rational division by zero");
        Rational::from_big(&self.num * &rhs.den, &self.den * &rhs.num)
    }
}

macro_rules! forward_binop {
    ($($tr:ident :: $m:ident),*) => {$(
        impl $tr for Rational {
            type Output = Rational;
            fn $m(self, rhs: Rational) -> Rational { (&self).$m(&rhs) }
        }
        impl $tr<&Rational> for Rational {
            type Output = Rational;
            fn $m(self, rhs: &Rational) -> Rational { (&self).$m(rhs) }
        }
        impl $tr<Rational> for &Rational {
            type Output = Rational;
            fn $m(self, rhs: Rational) -> Rational { self.$m(&rhs) }
        }
    )*};
}
forward_binop!(Add::add, Sub::sub, Mul::mul, Div::div);

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_one() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

/// Error returned when parsing a [`Rational`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRationalError {
    kind: &'static str,
}

impl fmt::Display for ParseRationalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.kind)
    }
}

impl std::error::Error for ParseRationalError {}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"3"`, `"-7/2"` and decimal notation `"3.5"` / `"-0.25"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let bad = |kind| ParseRationalError { kind };
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse().map_err(|_| bad("bad numerator"))?;
            let den: BigInt = d.trim().parse().map_err(|_| bad("bad denominator"))?;
            if den.is_zero() {
                return Err(bad("zero denominator"));
            }
            return Ok(Rational::from_big(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            let negative = int_part.trim_start().starts_with('-');
            let int: BigInt = if int_part.is_empty() || int_part == "-" || int_part == "+" {
                BigInt::zero()
            } else {
                int_part.parse().map_err(|_| bad("bad integer part"))?
            };
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad("bad fractional part"));
            }
            let frac: BigInt = frac_part.parse().map_err(|_| bad("bad fractional part"))?;
            let scale = BigInt::from(10u64).pow(frac_part.len() as u32);
            let mag = int.abs() * &scale + frac;
            let num = if negative { -mag } else { mag };
            return Ok(Rational::from_big(num, scale));
        }
        let num: BigInt = s.trim().parse().map_err(|_| bad("bad integer"))?;
        Ok(Rational::from(num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absolver_testkit::{gen, property};

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn normalisation() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, -7), Rational::zero());
        assert_eq!(r(0, 5).denom(), &BigInt::one());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(7, 7) == r(1, 1));
        assert_eq!(r(3, 2).min(r(1, 2)), r(1, 2));
        assert_eq!(r(3, 2).max(r(1, 2)), r(3, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), BigInt::from(3));
        assert_eq!(r(7, 2).ceil(), BigInt::from(4));
        assert_eq!(r(-7, 2).floor(), BigInt::from(-4));
        assert_eq!(r(-7, 2).ceil(), BigInt::from(-3));
        assert_eq!(r(6, 2).floor(), BigInt::from(3));
        assert_eq!(r(6, 2).ceil(), BigInt::from(3));
    }

    #[test]
    fn parse_forms() {
        assert_eq!("3".parse::<Rational>().unwrap(), r(3, 1));
        assert_eq!("-7/2".parse::<Rational>().unwrap(), r(-7, 2));
        assert_eq!("3.5".parse::<Rational>().unwrap(), r(7, 2));
        assert_eq!("-0.25".parse::<Rational>().unwrap(), r(-1, 4));
        assert_eq!(".5".parse::<Rational>().unwrap(), r(1, 2));
        assert_eq!("7.1".parse::<Rational>().unwrap(), r(71, 10));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("1.".parse::<Rational>().is_err());
        assert!("x".parse::<Rational>().is_err());
        assert!("1.2.3".parse::<Rational>().is_err());
    }

    #[test]
    fn from_f64_exact() {
        assert_eq!(Rational::from_f64(0.5).unwrap(), r(1, 2));
        assert_eq!(Rational::from_f64(-3.0).unwrap(), r(-3, 1));
        assert_eq!(Rational::from_f64(0.0).unwrap(), Rational::zero());
        assert!(Rational::from_f64(f64::NAN).is_none());
        assert!(Rational::from_f64(f64::INFINITY).is_none());
        // 0.1 is not exactly 1/10 in binary; conversion must reflect that.
        assert_ne!(Rational::from_f64(0.1).unwrap(), r(1, 10));
    }

    #[test]
    fn powi_and_recip() {
        assert_eq!(r(2, 3).powi(2), r(4, 9));
        assert_eq!(r(2, 3).powi(-1), r(3, 2));
        assert_eq!(r(2, 3).powi(0), Rational::one());
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
    }

    #[test]
    fn display() {
        assert_eq!(r(4, 2).to_string(), "2");
        assert_eq!(r(-1, 3).to_string(), "-1/3");
    }

    /// `n/d` reduced with a positive denominator, in `i128`.
    fn reduced(n: i128, d: i128) -> (i128, i128) {
        let (mut a, mut b) = (n.unsigned_abs(), d.unsigned_abs());
        while b != 0 {
            (a, b) = (b, a % b);
        }
        let g = a as i128;
        let (n, d) = (n / g, d / g);
        if d < 0 {
            (-n, -d)
        } else {
            (n, d)
        }
    }

    /// Checks `q` against the exact fraction `n/d`, and that it is
    /// reduced with a positive denominator.
    fn assert_exact(q: &Rational, n: i128, d: i128) {
        let (n, d) = reduced(n, d);
        assert_eq!((q.numer(), q.denom()), (&BigInt::from(n), &BigInt::from(d)));
        assert!(q.denom().is_positive());
        assert!(q.numer().gcd(q.denom()).is_one());
    }

    /// Rationals with small denominators, integers about half the time.
    /// Numerators are small or span `i64`, so integer sums and products
    /// cross into the heap form.
    fn operand() -> gen::Gen<(i64, i64)> {
        let num = gen::one_of(vec![gen::ints(-1000i64..=1000), gen::i64_any()]);
        let den = gen::one_of(vec![gen::ints(1i64..=1), gen::ints(-60i64..=60)]);
        gen::Gen::new(move |src| (num.generate(src), den.generate(src))).filter(|&(_, d)| d != 0)
    }

    property! {
        fn arithmetic_matches_an_exact_fraction(a in operand(), b in operand()) {
            let (an, ad) = (a.0 as i128, a.1 as i128);
            let (bn, bd) = (b.0 as i128, b.1 as i128);
            let (x, y) = (r(a.0, a.1), r(b.0, b.1));
            assert_exact(&x, an, ad);
            assert_exact(&(&x + &y), an * bd + bn * ad, ad * bd);
            assert_exact(&(&x - &y), an * bd - bn * ad, ad * bd);
            assert_exact(&(&x * &y), an * bn, ad * bd);
            if bn != 0 {
                assert_exact(&(&x / &y), an * bd, ad * bn);
            }
            let sign = if ad * bd > 0 { 1 } else { -1 };
            assert_eq!(x.cmp(&y), (sign * (an * bd)).cmp(&(sign * (bn * ad))));
        }

        fn field_axioms(
            an in gen::ints(-1000i64..1000), ad in gen::ints(1i64..100),
            bn in gen::ints(-1000i64..1000), bd in gen::ints(1i64..100),
            cn in gen::ints(-1000i64..1000), cd in gen::ints(1i64..100),
        ) {
            let a = r(an, ad);
            let b = r(bn, bd);
            let c = r(cn, cd);
            assert_eq!(&a + &b, &b + &a);
            assert_eq!((&a + &b) + &c, &a + &(&b + &c));
            assert_eq!(&a * &(&b + &c), &a * &b + &a * &c);
            if !a.is_zero() {
                assert_eq!(&a * &a.recip(), Rational::one());
            }
        }

        fn from_f64_round_trips(v in gen::f64_in(-1.0e12, 1.0e12)) {
            let q = Rational::from_f64(v).unwrap();
            assert_eq!(q.to_f64(), v);
        }

        fn cmp_matches_f64(
            an in gen::ints(-10_000i64..10_000), ad in gen::ints(1i64..1000),
            bn in gen::ints(-10_000i64..10_000), bd in gen::ints(1i64..1000),
        ) {
            let a = r(an, ad);
            let b = r(bn, bd);
            let fa = an as f64 / ad as f64;
            let fb = bn as f64 / bd as f64;
            if fa != fb {
                assert_eq!(a < b, fa < fb);
            }
        }

        fn floor_ceil_bracket(n in gen::ints(-10_000i64..10_000), d in gen::ints(1i64..1000)) {
            let q = r(n, d);
            let fl = Rational::from(q.floor());
            let ce = Rational::from(q.ceil());
            assert!(fl <= q && q <= ce);
            assert!(&ce - &fl <= Rational::one());
        }
    }
}
