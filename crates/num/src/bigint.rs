//! Arbitrary-precision signed integers.
//!
//! [`BigInt`] keeps every value in `i64` range inline, with no heap
//! allocation, and runs arithmetic on two inline operands in `i128`, which
//! cannot overflow. Only values outside `i64` range hold a sign and a heap
//! magnitude of 64-bit limbs (least-significant limb first). It implements
//! exactly the operations the exact-rational simplex in `absolver-linear`
//! needs — ring arithmetic, Euclidean division, gcd, comparisons and
//! decimal I/O — with no external dependencies.
//!
//! ```
//! use absolver_num::BigInt;
//!
//! let a: BigInt = "123456789012345678901234567890".parse().unwrap();
//! let b = BigInt::from(-42);
//! assert_eq!((&a * &b) / &b, a);
//! ```

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Deref, Div, Mul, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

/// Sign of a heap [`BigInt`], which is never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sign {
    Plus,
    Minus,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// The form is canonical: a value in `i64` range is always inline, so the
/// derived equality and hash are structural.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Every value in `i64` range.
    Small(i64),
    /// Only values outside `i64` range: the sign and the magnitude,
    /// least-significant limb first, with no trailing zero limbs.
    Large(Sign, Vec<u64>),
}

/// A magnitude viewed as limbs. An inline value's magnitude is one limb
/// held in the view, so looking at it allocates nothing.
enum Limbs<'a> {
    One(u64),
    Many(&'a [u64]),
}

impl Deref for Limbs<'_> {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            Limbs::One(0) => &[],
            Limbs::One(m) => std::slice::from_ref(m),
            Limbs::Many(mag) => mag,
        }
    }
}

impl BigInt {
    /// The integer `0`.
    pub fn zero() -> BigInt {
        BigInt(Repr::Small(0))
    }

    /// The integer `1`.
    pub fn one() -> BigInt {
        BigInt(Repr::Small(1))
    }

    /// Returns `true` if `self` is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small(0))
    }

    /// Returns `true` if `self` is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => *v < 0,
            Repr::Large(sign, _) => *sign == Sign::Minus,
        }
    }

    /// Returns `true` if `self` is strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.0 {
            Repr::Small(v) => *v > 0,
            Repr::Large(sign, _) => *sign == Sign::Plus,
        }
    }

    /// Returns `true` if `self` is `1`.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small(1))
    }

    /// Sign as `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        match &self.0 {
            Repr::Small(v) => v.signum() as i32,
            Repr::Large(Sign::Plus, _) => 1,
            Repr::Large(Sign::Minus, _) => -1,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        match &self.0 {
            Repr::Small(v) => BigInt::from((*v as i128).abs()),
            Repr::Large(_, mag) => BigInt::from_mag(Sign::Plus, mag.clone()),
        }
    }

    /// Number of bits in the magnitude (0 for zero).
    pub fn bits(&self) -> u64 {
        let (_, mag) = self.parts();
        match mag.last() {
            None => 0,
            Some(&top) => (mag.len() as u64 - 1) * 64 + (64 - top.leading_zeros() as u64),
        }
    }

    /// Converts to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.0 {
            Repr::Small(v) => Some(v),
            Repr::Large(..) => None,
        }
    }

    /// Converts to `f64`, rounding to nearest; very large values saturate to
    /// `±inf`.
    pub fn to_f64(&self) -> f64 {
        let (sign, mag) = match &self.0 {
            Repr::Small(v) => return *v as f64,
            Repr::Large(sign, mag) => (sign, mag),
        };
        let mut v = 0.0f64;
        for &limb in mag.iter().rev() {
            v = v * 1.8446744073709552e19 + limb as f64;
        }
        if *sign == Sign::Minus {
            -v
        } else {
            v
        }
    }

    /// The sign and the magnitude as limbs; zero is `Plus` with no limbs.
    fn parts(&self) -> (Sign, Limbs<'_>) {
        match &self.0 {
            Repr::Small(v) if *v < 0 => (Sign::Minus, Limbs::One(v.unsigned_abs())),
            Repr::Small(v) => (Sign::Plus, Limbs::One(v.unsigned_abs())),
            Repr::Large(sign, mag) => (*sign, Limbs::Many(mag)),
        }
    }

    /// The canonical form of a sign and a magnitude: trailing zero limbs
    /// trimmed, and inline when the value fits in `i64`.
    fn from_mag(sign: Sign, mut mag: Vec<u64>) -> BigInt {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        match *mag {
            [] => BigInt::zero(),
            [m] if sign == Sign::Plus && m <= i64::MAX as u64 => BigInt(Repr::Small(m as i64)),
            [m] if sign == Sign::Minus && m <= 1 << 63 => BigInt::from(-(m as i128)),
            _ => BigInt(Repr::Large(sign, mag)),
        }
    }

    fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            match x.cmp(y) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &limb) in long.iter().enumerate() {
            let s = limb as u128 + *short.get(i).unwrap_or(&0) as u128 + carry as u128;
            out.push(s as u64);
            carry = (s >> 64) as u64;
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    /// `a - b` assuming `a >= b` by magnitude.
    fn sub_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for (i, &limb) in a.iter().enumerate() {
            let (d1, b1) = limb.overflowing_sub(*b.get(i).unwrap_or(&0));
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 || b2) as u64;
        }
        debug_assert_eq!(borrow, 0);
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// `a + b` over signs and magnitudes (the limb path of `+` and `−`).
    fn add_parts(a_sign: Sign, a: &[u64], b_sign: Sign, b: &[u64]) -> BigInt {
        if a_sign == b_sign {
            return BigInt::from_mag(a_sign, BigInt::add_mag(a, b));
        }
        match BigInt::cmp_mag(a, b) {
            Ordering::Equal => BigInt::zero(),
            Ordering::Greater => BigInt::from_mag(a_sign, BigInt::sub_mag(a, b)),
            Ordering::Less => BigInt::from_mag(b_sign, BigInt::sub_mag(b, a)),
        }
    }

    fn mul_mag(a: &[u64], b: &[u64]) -> Vec<u64> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            if x == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let t = out[i + j] as u128 + x as u128 * y as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u128 + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Divides magnitude by a single limb, returning (quotient, remainder).
    fn divrem_mag_limb(a: &[u64], d: u64) -> (Vec<u64>, u64) {
        debug_assert!(d != 0);
        let mut q = vec![0u64; a.len()];
        let mut rem = 0u128;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | a[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        while q.last() == Some(&0) {
            q.pop();
        }
        (q, rem as u64)
    }

    fn shl_mag(a: &[u64], bits: u32) -> Vec<u64> {
        debug_assert!(bits < 64);
        if bits == 0 || a.is_empty() {
            return a.to_vec();
        }
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for &x in a {
            out.push((x << bits) | carry);
            carry = x >> (64 - bits);
        }
        if carry != 0 {
            out.push(carry);
        }
        out
    }

    fn shr_mag(a: &[u64], bits: u32) -> Vec<u64> {
        debug_assert!(bits < 64);
        if bits == 0 {
            return a.to_vec();
        }
        let mut out = vec![0u64; a.len()];
        let mut carry = 0u64;
        for i in (0..a.len()).rev() {
            out[i] = (a[i] >> bits) | carry;
            carry = a[i] << (64 - bits);
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    /// Knuth algorithm D on magnitudes; returns `(quotient, remainder)`.
    fn divrem_mag(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
        assert!(!b.is_empty(), "division by zero");
        if Self::cmp_mag(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            let (q, r) = Self::divrem_mag_limb(a, b[0]);
            return (q, if r == 0 { Vec::new() } else { vec![r] });
        }
        // Normalize so the top limb of the divisor has its high bit set.
        let shift = b.last().unwrap().leading_zeros();
        let mut u = Self::shl_mag(a, shift);
        let v = Self::shl_mag(b, shift);
        let n = v.len();
        let m = u.len() - n;
        u.push(0);
        let mut q = vec![0u64; m + 1];
        let v_top = v[n - 1];
        let v_next = v[n - 2];
        for j in (0..=m).rev() {
            // Estimate the quotient limb from the top two/three limbs.
            let num = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = num / v_top as u128;
            let mut rhat = num % v_top as u128;
            while qhat > u64::MAX as u128
                || qhat * v_next as u128 > ((rhat << 64) | u[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat > u64::MAX as u128 {
                    break;
                }
            }
            // Multiply-and-subtract.
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let sub = (u[j + i] as i128) - (p as u64 as i128) + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64;
            }
            let sub = (u[j + n] as i128) - (carry as i128) + borrow;
            u[j + n] = sub as u64;
            borrow = sub >> 64;
            // Add back if we overshot (at most once).
            if borrow < 0 {
                qhat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u[j + i] as u128 + v[i] as u128 + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            }
            q[j] = qhat as u64;
        }
        while q.last() == Some(&0) {
            q.pop();
        }
        let rem = Self::shr_mag(&u[..n], shift);
        (q, rem)
    }

    /// Truncated division with remainder: `self = q * other + r`, `|r| < |other|`,
    /// and `r` has the sign of `self` (C semantics).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &other.0) {
            assert!(*b != 0, "division by zero");
            // In i128 `i64::MIN / -1` is exact.
            let (a, b) = (*a as i128, *b as i128);
            return (BigInt::from(a / b), BigInt::from(a % b));
        }
        let (a_sign, a_mag) = self.parts();
        let (b_sign, b_mag) = other.parts();
        let (q_mag, r_mag) = Self::divrem_mag(&a_mag, &b_mag);
        let q_sign = if a_sign == b_sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        (
            BigInt::from_mag(q_sign, q_mag),
            BigInt::from_mag(a_sign, r_mag),
        )
    }

    /// Greatest common divisor of the magnitudes; always non-negative.
    ///
    /// `gcd(0, 0) == 0`.
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r.abs();
        }
        a
    }

    /// `self * 2^k`.
    pub fn shl(&self, k: u64) -> BigInt {
        if let Repr::Small(v) = self.0 {
            if k < 64 {
                // |v| ≤ 2^63, so the shifted value stays below 2^127.
                return BigInt::from((v as i128) << k);
            }
        }
        if self.is_zero() {
            return BigInt::zero();
        }
        let (sign, mag) = self.parts();
        let limbs = (k / 64) as usize;
        let bits = (k % 64) as u32;
        let mut shifted = vec![0u64; limbs];
        shifted.extend(Self::shl_mag(&mag, bits));
        BigInt::from_mag(sign, shifted)
    }

    /// Raises `self` to the power `exp`.
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                BigInt::from(v as u128)
            }
        }
    )*};
}
impl_from_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                BigInt(Repr::Small(v as i64))
            }
        }
    )*};
}
impl_from_signed!(i8, i16, i32, i64, isize);

/// The canonical form: inline when the value fits in `i64`.
impl From<i128> for BigInt {
    fn from(v: i128) -> BigInt {
        match i64::try_from(v) {
            Ok(small) => BigInt(Repr::Small(small)),
            Err(_) => {
                let sign = if v < 0 { Sign::Minus } else { Sign::Plus };
                let m = v.unsigned_abs();
                BigInt::from_mag(sign, vec![m as u64, (m >> 64) as u64])
            }
        }
    }
}

impl From<u128> for BigInt {
    fn from(v: u128) -> BigInt {
        i128::try_from(v).map_or_else(
            |_| BigInt::from_mag(Sign::Plus, vec![v as u64, (v >> 64) as u64]),
            BigInt::from,
        )
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.0, &other.0) {
            (Repr::Small(a), Repr::Small(b)) => a.cmp(b),
            // A heap value lies outside i64 range, beyond every inline one.
            (Repr::Small(_), Repr::Large(sign, _)) => match sign {
                Sign::Plus => Ordering::Less,
                Sign::Minus => Ordering::Greater,
            },
            (Repr::Large(sign, _), Repr::Small(_)) => match sign {
                Sign::Plus => Ordering::Greater,
                Sign::Minus => Ordering::Less,
            },
            (Repr::Large(a_sign, a), Repr::Large(b_sign, b)) => match (a_sign, b_sign) {
                (Sign::Plus, Sign::Minus) => Ordering::Greater,
                (Sign::Minus, Sign::Plus) => Ordering::Less,
                (Sign::Plus, Sign::Plus) => Self::cmp_mag(a, b),
                (Sign::Minus, Sign::Minus) => Self::cmp_mag(b, a),
            },
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match &self.0 {
            Repr::Small(v) => BigInt::from(-(*v as i128)),
            // −2^63 is inline again.
            Repr::Large(sign, mag) => BigInt::from_mag(sign.flip(), mag.clone()),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        match self.0 {
            Repr::Small(v) => BigInt::from(-(v as i128)),
            Repr::Large(sign, mag) => BigInt::from_mag(sign.flip(), mag),
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            return BigInt::from(*a as i128 + *b as i128);
        }
        let (a_sign, a) = self.parts();
        let (b_sign, b) = rhs.parts();
        BigInt::add_parts(a_sign, &a, b_sign, &b)
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            return BigInt::from(*a as i128 - *b as i128);
        }
        let (a_sign, a) = self.parts();
        let (b_sign, b) = rhs.parts();
        BigInt::add_parts(a_sign, &a, b_sign.flip(), &b)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if let (Repr::Small(a), Repr::Small(b)) = (&self.0, &rhs.0) {
            // |a·b| ≤ 2^126.
            return BigInt::from(*a as i128 * *b as i128);
        }
        let (a_sign, a) = self.parts();
        let (b_sign, b) = rhs.parts();
        let sign = if a_sign == b_sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        BigInt::from_mag(sign, BigInt::mul_mag(&a, &b))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

macro_rules! forward_binop {
    ($($tr:ident :: $m:ident),*) => {$(
        impl $tr for BigInt {
            type Output = BigInt;
            fn $m(self, rhs: BigInt) -> BigInt { (&self).$m(&rhs) }
        }
        impl $tr<&BigInt> for BigInt {
            type Output = BigInt;
            fn $m(self, rhs: &BigInt) -> BigInt { (&self).$m(rhs) }
        }
        impl $tr<BigInt> for &BigInt {
            type Output = BigInt;
            fn $m(self, rhs: BigInt) -> BigInt { self.$m(&rhs) }
        }
    )*};
}
forward_binop!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        *self = &*self - rhs;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (sign, mag) = match &self.0 {
            Repr::Small(v) => return write!(f, "{v}"),
            Repr::Large(sign, mag) => (sign, mag),
        };
        // Peel off 19 decimal digits at a time.
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut mag = mag.clone();
        let mut parts: Vec<u64> = Vec::new();
        while !mag.is_empty() {
            let (q, r) = BigInt::divrem_mag_limb(&mag, CHUNK);
            parts.push(r);
            mag = q;
        }
        let mut s = String::new();
        if *sign == Sign::Minus {
            s.push('-');
        }
        s.push_str(&parts.last().unwrap().to_string());
        for p in parts.iter().rev().skip(1) {
            s.push_str(&format!("{p:019}"));
        }
        f.write_str(&s)
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

/// Error returned when parsing a [`BigInt`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    kind: &'static str,
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid big integer literal: {}", self.kind)
    }
}

impl std::error::Error for ParseBigIntError {}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (sign, digits) = match s.as_bytes().first() {
            Some(b'-') => (Sign::Minus, &s[1..]),
            Some(b'+') => (Sign::Plus, &s[1..]),
            _ => (Sign::Plus, s),
        };
        if digits.is_empty() {
            return Err(ParseBigIntError { kind: "empty" });
        }
        if !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError {
                kind: "non-digit character",
            });
        }
        let mut acc = BigInt::zero();
        let bytes = digits.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let end = (i + 19).min(bytes.len());
            let chunk = &digits[i..end];
            let v: u64 = chunk.parse().map_err(|_| ParseBigIntError {
                kind: "non-digit character",
            })?;
            let scale = BigInt::from(10u64).pow((end - i) as u32);
            acc = &acc * &scale + BigInt::from(v);
            i = end;
        }
        if sign == Sign::Minus {
            acc = -acc;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use absolver_testkit::{gen, property};

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_properties() {
        let z = BigInt::zero();
        assert!(z.is_zero());
        assert!(!z.is_negative());
        assert!(!z.is_positive());
        assert_eq!(z.signum(), 0);
        assert_eq!(z.to_string(), "0");
        assert_eq!(-z.clone(), z);
    }

    #[test]
    fn small_arithmetic() {
        assert_eq!(bi(2) + bi(3), bi(5));
        assert_eq!(bi(2) - bi(3), bi(-1));
        assert_eq!(bi(-2) * bi(3), bi(-6));
        assert_eq!(bi(7) / bi(2), bi(3));
        assert_eq!(bi(7) % bi(2), bi(1));
        assert_eq!(bi(-7) / bi(2), bi(-3));
        assert_eq!(bi(-7) % bi(2), bi(-1));
        assert_eq!(bi(7) / bi(-2), bi(-3));
        assert_eq!(bi(7) % bi(-2), bi(1));
    }

    #[test]
    fn display_and_parse_round_trip() {
        for s in [
            "0",
            "1",
            "-1",
            "18446744073709551615",
            "18446744073709551616",
            "-340282366920938463463374607431768211456",
            "99999999999999999999999999999999999999999999",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12a3".parse::<BigInt>().is_err());
        assert!("1 2".parse::<BigInt>().is_err());
    }

    #[test]
    fn multi_limb_multiplication() {
        let a: BigInt = "340282366920938463463374607431768211456".parse().unwrap(); // 2^128
        assert_eq!(a, BigInt::one().shl(128));
        let sq = &a * &a;
        assert_eq!(sq, BigInt::one().shl(256));
    }

    #[test]
    fn knuth_division_edge_cases() {
        // Case that exercises the qhat correction loop.
        let a = BigInt::one().shl(192) - BigInt::one();
        let b = BigInt::one().shl(128) - BigInt::one();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r.abs() < b.abs());
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(bi(12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(-12).gcd(&bi(18)), bi(6));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
        assert_eq!(bi(0).gcd(&bi(0)), bi(0));
    }

    #[test]
    fn pow_and_bits() {
        assert_eq!(bi(2).pow(10), bi(1024));
        assert_eq!(bi(10).pow(0), bi(1));
        assert_eq!(bi(0).bits(), 0);
        assert_eq!(bi(1).bits(), 1);
        assert_eq!(bi(255).bits(), 8);
        assert_eq!(BigInt::one().shl(64).bits(), 65);
    }

    #[test]
    fn to_i64_boundaries() {
        assert_eq!(bi(i64::MAX as i128).to_i64(), Some(i64::MAX));
        assert_eq!(bi(i64::MIN as i128).to_i64(), Some(i64::MIN));
        assert_eq!(bi(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(bi(i64::MIN as i128 - 1).to_i64(), None);
    }

    #[test]
    fn to_f64_reasonable() {
        assert_eq!(bi(0).to_f64(), 0.0);
        assert_eq!(bi(-3).to_f64(), -3.0);
        let big = BigInt::one().shl(100);
        assert_eq!(big.to_f64(), 2f64.powi(100));
    }

    /// Checks the canonical form: a heap value is outside `i64` range and
    /// has no trailing zero limb.
    fn assert_canonical(v: &BigInt) {
        if let Repr::Large(sign, mag) = &v.0 {
            assert!(
                mag.last().is_some_and(|&top| top != 0),
                "{v:?} has trailing zero limbs"
            );
            let fits = match (sign, mag.as_slice()) {
                (Sign::Plus, [m]) => *m <= i64::MAX as u64,
                (Sign::Minus, [m]) => *m <= 1 << 63,
                _ => false,
            };
            assert!(!fits, "{v:?} is in i64 range but on the heap");
        }
    }

    /// The value as an `i128`, read off the limbs rather than computed by
    /// the arithmetic under test; `None` outside `i128` range.
    fn as_i128(v: &BigInt) -> Option<i128> {
        let (sign, mag) = v.parts();
        let m = match *mag {
            [] => 0,
            [lo] => lo as u128,
            [lo, hi] => (hi as u128) << 64 | lo as u128,
            _ => return None,
        };
        match sign {
            Sign::Plus => i128::try_from(m).ok(),
            Sign::Minus => 0i128.checked_sub_unsigned(m),
        }
    }

    fn hash_of(v: &BigInt) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    /// Operands near the inline/heap boundary — `i64::MIN`, `i64::MAX`,
    /// ±2^63 and ±2^64, each plus or minus a small offset — mixed with
    /// random values of 1 to 4 limbs.
    fn operand() -> gen::Gen<BigInt> {
        let anchor = gen::from_slice(&[
            0,
            i64::MIN as i128,
            i64::MAX as i128,
            1 << 63,
            -(1 << 63),
            1 << 64,
            -(1 << 64),
        ]);
        let offset = gen::ints(-3i64..=3);
        let near =
            gen::Gen::new(move |src| bi(anchor.generate(src) + offset.generate(src) as i128));
        let limbs = gen::vec_of(gen::u64_any(), 1..=4);
        let negative = gen::bool_any();
        let wide = gen::Gen::new(move |src| {
            let mag = limbs.generate(src);
            let sign = if negative.generate(src) {
                Sign::Minus
            } else {
                Sign::Plus
            };
            BigInt::from_mag(sign, mag)
        });
        gen::one_of(vec![near, wide])
    }

    #[test]
    fn inline_form_keeps_the_old_size() {
        assert_eq!(std::mem::size_of::<BigInt>(), 32);
    }

    #[test]
    fn limb_path_results_in_i64_range_are_inline() {
        let two_64 = BigInt::one().shl(64);
        let five = &(&two_64 + &bi(5)) - &two_64;
        assert!(matches!(five.0, Repr::Small(5)));
        assert_eq!(five, bi(5));
        assert_eq!(hash_of(&five), hash_of(&bi(5)));

        let min = BigInt::from(i64::MIN);
        let flipped = -&min;
        assert!(matches!(flipped.0, Repr::Large(Sign::Plus, _)));
        assert_eq!(flipped, bi(1 << 63));
        let back = -flipped;
        assert!(matches!(back.0, Repr::Small(i64::MIN)));
        assert_eq!(back, min);
        assert_eq!(hash_of(&back), hash_of(&min));

        let q = (&two_64 * &bi(-7)).div_rem(&two_64).0;
        assert!(matches!(q.0, Repr::Small(-7)));
        assert_eq!(
            BigInt::from(i64::MIN).div_rem(&bi(-1)),
            (bi(1 << 63), bi(0))
        );
        assert_eq!(BigInt::from(i64::MIN).gcd(&bi(0)), bi(1 << 63));
        assert_eq!(BigInt::from(u64::MAX).to_i64(), None);
    }

    property! {
        fn boundary_ring_ops_are_exact(a in operand(), b in operand()) {
            let sum = &a + &b;
            let diff = &a - &b;
            let prod = &a * &b;
            for v in [&sum, &diff, &prod] {
                assert_canonical(v);
            }
            if let (Some(x), Some(y)) = (as_i128(&a), as_i128(&b)) {
                if let Some(s) = x.checked_add(y) {
                    assert_eq!(sum, bi(s));
                }
                if let Some(d) = x.checked_sub(y) {
                    assert_eq!(diff, bi(d));
                }
                if let Some(p) = x.checked_mul(y) {
                    assert_eq!(prod, bi(p));
                }
            }
            assert_eq!(&sum - &b, a);
            assert_eq!(&diff + &b, a);
            assert_eq!(&b + &a, sum);
            assert_eq!(&b * &a, prod);
            if !b.is_zero() {
                assert_eq!(prod.div_rem(&b), (a.clone(), BigInt::zero()));
            }
        }

        fn boundary_div_rem_is_exact(a in operand(), b in operand()) {
            absolver_testkit::assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            assert_canonical(&q);
            assert_canonical(&r);
            if let (Some(x), Some(y)) = (as_i128(&a), as_i128(&b)) {
                if let Some(qi) = x.checked_div(y) {
                    assert_eq!((q.clone(), r.clone()), (bi(qi), bi(x % y)));
                }
            }
            assert_eq!(&(&q * &b) + &r, a);
            assert!(r.abs() < b.abs());
            assert!(r.is_zero() || r.is_negative() == a.is_negative());
        }

        fn boundary_gcd_is_the_greatest_divisor(a in operand(), b in operand()) {
            let g = a.gcd(&b);
            assert_canonical(&g);
            assert!(!g.is_negative());
            if let (Some(x), Some(y)) = (as_i128(&a), as_i128(&b)) {
                let (mut m, mut n) = (x.unsigned_abs(), y.unsigned_abs());
                while n != 0 {
                    (m, n) = (n, m % n);
                }
                assert_eq!(g, BigInt::from(m));
            }
            if g.is_zero() {
                assert!(a.is_zero() && b.is_zero());
            } else {
                assert!((&a % &g).is_zero() && (&b % &g).is_zero());
                assert!((&a / &g).gcd(&(&b / &g)).is_one());
            }
        }

        fn boundary_cmp_neg_abs_are_exact(a in operand(), b in operand()) {
            let neg = -&a;
            let abs = a.abs();
            assert_canonical(&neg);
            assert_canonical(&abs);
            if let (Some(x), Some(y)) = (as_i128(&a), as_i128(&b)) {
                assert_eq!(a.cmp(&b), x.cmp(&y));
                if let Some(n) = x.checked_neg() {
                    assert_eq!(neg, bi(n));
                    assert_eq!(abs, bi(n.max(x)));
                }
            }
            assert_eq!(a.cmp(&b), (&a - &b).signum().cmp(&0));
            assert_eq!(-neg.clone(), a);
            assert!((&a + &neg).is_zero());
            assert!(!abs.is_negative() && (abs == a || abs == neg));
        }

        fn boundary_shl_and_pow_are_exact(
            a in operand(),
            k in gen::ints(0u64..130),
            e in gen::ints(0u32..5),
        ) {
            let shifted = a.shl(k);
            let power = a.pow(e);
            assert_canonical(&shifted);
            assert_canonical(&power);
            if let Some(x) = as_i128(&a) {
                let scale = (k < 127).then(|| 1i128 << k);
                if let Some(s) = scale.and_then(|m| x.checked_mul(m)) {
                    assert_eq!(shifted, bi(s));
                }
                if let Some(p) = x.checked_pow(e) {
                    assert_eq!(power, bi(p));
                }
            }
            assert_eq!(shifted, &a * &bi(2).pow(k as u32));
            if e > 0 {
                assert_eq!(power, &a * &a.pow(e - 1));
            }
        }

        fn boundary_conversions_round_trip(a in operand()) {
            let x = as_i128(&a);
            assert_eq!(a.to_i64(), x.and_then(|x| i64::try_from(x).ok()));
            if let Some(x) = x {
                let exact = x as f64;
                if i64::try_from(x).is_ok() {
                    assert_eq!(a.to_f64(), exact);
                } else {
                    assert!((a.to_f64() - exact).abs() <= exact.abs() * f64::EPSILON);
                }
                assert_eq!(a.to_string(), x.to_string());
            }
            assert_eq!((-&a).to_f64(), -a.to_f64());
            let parsed: BigInt = a.to_string().parse().unwrap();
            assert_canonical(&parsed);
            assert_eq!(parsed, a);
        }

        fn add_matches_i128(a in gen::i64_any(), b in gen::i64_any()) {
            assert_eq!(bi(a as i128) + bi(b as i128), bi(a as i128 + b as i128));
        }

        fn mul_matches_i128(a in gen::i64_any(), b in gen::i64_any()) {
            assert_eq!(bi(a as i128) * bi(b as i128), bi(a as i128 * b as i128));
        }

        fn div_rem_invariant(a in gen::i128_any(), b in gen::i128_any().filter(|v| *v != 0)) {
            let (q, r) = bi(a).div_rem(&bi(b));
            assert_eq!(&q * &bi(b) + &r, bi(a));
            assert!(r.abs() < bi(b).abs());
        }

        fn ord_matches_i128(a in gen::i128_any(), b in gen::i128_any()) {
            assert_eq!(bi(a).cmp(&bi(b)), a.cmp(&b));
        }

        fn string_round_trip(a in gen::i128_any()) {
            let v = bi(a);
            let s = v.to_string();
            assert_eq!(s.parse::<BigInt>().unwrap(), v);
            assert_eq!(s, a.to_string());
        }

        fn big_div_rem_invariant(
            a in gen::vec_of(gen::u64_any(), 1..6),
            b in gen::vec_of(gen::u64_any(), 1..4),
            neg_a in gen::bool_any(),
            neg_b in gen::bool_any(),
        ) {
            let a = BigInt::from_mag(if neg_a { Sign::Minus } else { Sign::Plus }, a);
            let b = BigInt::from_mag(if neg_b { Sign::Minus } else { Sign::Plus }, b);
            absolver_testkit::assume!(!b.is_zero());
            let (q, r) = a.div_rem(&b);
            assert_eq!(&q * &b + &r, a);
            assert!(r.abs() < b.abs());
        }

        fn gcd_divides_both(a in gen::i64_any(), b in gen::i64_any()) {
            let g = bi(a as i128).gcd(&bi(b as i128));
            if !g.is_zero() {
                assert!((bi(a as i128) % &g).is_zero());
                assert!((bi(b as i128) % &g).is_zero());
            } else {
                assert_eq!(a, 0);
                assert_eq!(b, 0);
            }
        }
    }
}
