//! # efm-numeric — exact arithmetic substrate for EFM computation
//!
//! Elementary-flux-mode enumeration is a combinatorial geometry problem: the
//! *support* (zero/nonzero pattern) of every intermediate vector decides which
//! candidates survive. A single wrong zero flips supports and corrupts the
//! whole enumeration, so the default arithmetic must be exact.
//!
//! This crate provides, dependency-free:
//!
//! * [`BigUint`] — arbitrary-precision unsigned integers (limb vector),
//! * [`DynInt`] — signed integers living in `i64` until overflow promotes
//!   them to a boxed big integer,
//! * [`Rational`] — reduced exact rationals over [`DynInt`],
//! * [`F64Tol`] — tolerance-based `f64` (the efmtool-style fast mode),
//! * [`Scalar`] — the trait the rest of the workspace is generic over.

#![warn(missing_docs)]

mod biguint;
mod dynint;
mod f64tol;
mod rational;
mod scalar;

pub use biguint::BigUint;
pub use dynint::{BigInt, DynInt};
pub use f64tol::{F64Tol, DEFAULT_TOLERANCE};
pub use rational::{to_primitive_integer_vec, Rational};
pub use scalar::Scalar;
