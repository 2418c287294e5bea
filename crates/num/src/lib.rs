//! Numeric foundations for the ABsolver constraint-solving library.
//!
//! This crate provides the three number domains the solver stack is built
//! on, with no external dependencies:
//!
//! * [`BigInt`] — arbitrary-precision signed integers: inline for every
//!   value in `i64` range, sign + 64-bit heap limbs beyond it.
//! * [`Rational`] — exact rationals, the coefficient field of the simplex
//!   solvers in `absolver-linear`.
//! * [`Interval`] — outward-rounded `f64` intervals, the sound evaluation
//!   domain of the nonlinear branch-and-prune solver in
//!   `absolver-nonlinear`.
//!
//! # Example
//!
//! ```
//! use absolver_num::{BigInt, Interval, Rational};
//!
//! let big: BigInt = "340282366920938463463374607431768211456".parse()?;
//! assert_eq!(big, BigInt::one().shl(128));
//!
//! let q = Rational::new(7, 2) - Rational::new(1, 2);
//! assert!(q.is_integer());
//!
//! let iv = Interval::new(1.0, 2.0).mul(Interval::new(-1.0, 1.0));
//! assert!(iv.encloses(Interval::new(-2.0, 2.0)));
//! # Ok::<(), absolver_num::ParseBigIntError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bigint;
mod interval;
mod rational;

pub use bigint::{BigInt, ParseBigIntError};
pub use interval::Interval;
pub use rational::{ParseRationalError, Rational};
