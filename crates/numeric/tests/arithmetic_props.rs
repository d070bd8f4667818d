//! Property-based tests for the arithmetic substrate: ring/field laws,
//! small-vs-big path consistency, gcd/normalization invariants, and the
//! `i64` boundary of `DynInt`'s small path.

use efm_numeric::{BigInt, BigUint, DynInt, Rational, Scalar};
use proptest::prelude::*;

fn di(v: i128) -> DynInt {
    DynInt::from_i128(v)
}

/// A DynInt that may be forced onto the big path.
fn any_dynint() -> impl Strategy<Value = DynInt> {
    (any::<i128>(), any::<u8>()).prop_map(|(v, shift)| {
        let base = di(v);
        if shift % 4 == 0 {
            // Promote by squaring-ish: multiply by a big constant.
            base.mul(&di(i128::MAX)).add(&base)
        } else {
            base
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn dynint_add_commutes(a in any_dynint(), b in any_dynint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn dynint_add_associates(a in any_dynint(), b in any_dynint(), c in any_dynint()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn dynint_mul_distributes(a in any_dynint(), b in any_dynint(), c in any_dynint()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn dynint_sub_then_add_roundtrips(a in any_dynint(), b in any_dynint()) {
        prop_assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn dynint_neg_involution(a in any_dynint()) {
        prop_assert_eq!(a.neg().neg(), a.clone());
        prop_assert!(a.add(&a.neg()).is_zero());
    }

    #[test]
    fn dynint_divrem_identity(a in any_dynint(), b in any_dynint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.divrem(&b);
        prop_assert_eq!(q.mul(&b).add(&r), a.clone());
        // |r| < |b|
        prop_assert!(r.abs() < b.abs());
    }

    #[test]
    fn dynint_gcd_divides_both(a in any_dynint(), b in any_dynint()) {
        let g = a.gcd(&b);
        if !g.is_zero() {
            prop_assert!(a.divrem(&g).1.is_zero());
            prop_assert!(b.divrem(&g).1.is_zero());
        } else {
            prop_assert!(a.is_zero() && b.is_zero());
        }
    }

    #[test]
    fn dynint_small_path_matches_i128(a in -1_000_000_000i128..1_000_000_000, b in -1_000_000_000i128..1_000_000_000) {
        prop_assert_eq!(di(a).add(&di(b)), di(a + b));
        prop_assert_eq!(di(a).sub(&di(b)), di(a - b));
        prop_assert_eq!(di(a).mul(&di(b)), di(a * b));
        if b != 0 {
            prop_assert_eq!(di(a).divrem(&di(b)), (di(a / b), di(a % b)));
        }
    }

    #[test]
    fn dynint_ordering_is_consistent_with_sub(a in any_dynint(), b in any_dynint()) {
        let cmp = a.cmp(&b);
        let diff = a.sub(&b);
        prop_assert_eq!(cmp == std::cmp::Ordering::Greater, diff.signum() > 0);
        prop_assert_eq!(cmp == std::cmp::Ordering::Equal, diff.is_zero());
    }

    #[test]
    fn biguint_divrem_roundtrip(a in any::<u128>(), b in 1u128..) {
        let ba = BigUint::from_u128(a);
        let bb = BigUint::from_u128(b);
        let big = ba.mul(&bb); // exceeds u128 for large inputs
        let (q, r) = big.divrem(&bb);
        prop_assert_eq!(q.mul(&bb).add(&r), big);
        prop_assert!(r < bb);
    }

    #[test]
    fn biguint_decimal_roundtrip_via_display(a in any::<u128>()) {
        prop_assert_eq!(BigUint::from_u128(a).to_string(), a.to_string());
    }

    #[test]
    fn biguint_shifts(a in any::<u128>(), s in 0u32..200) {
        let v = BigUint::from_u128(a);
        prop_assert_eq!(v.shl(s).shr(s), v);
    }

    #[test]
    fn rational_field_laws(an in -10_000i64..10_000, ad in 1i64..100,
                           bn in -10_000i64..10_000, bd in 1i64..100) {
        let a = Rational::new(DynInt::from_i64(an), DynInt::from_i64(ad));
        let b = Rational::new(DynInt::from_i64(bn), DynInt::from_i64(bd));
        prop_assert_eq!(a.add(&b), b.add(&a));
        prop_assert_eq!(a.mul(&b), b.mul(&a));
        prop_assert_eq!(a.sub(&b).add(&b), a.clone());
        if !b.is_zero() {
            prop_assert_eq!(a.div(&b).mul(&b), a.clone());
        }
        // Normalized invariants.
        prop_assert!(a.denom().signum() > 0);
        prop_assert!(a.numer().gcd(a.denom()).is_one() || a.is_zero());
    }

    #[test]
    fn normalize_vec_preserves_direction(xs in proptest::collection::vec(-1000i64..1000, 1..8)) {
        let mut v: Vec<DynInt> = xs.iter().map(|&x| DynInt::from_i64(x)).collect();
        let orig = v.clone();
        DynInt::normalize_vec(&mut v);
        // Signs and zero pattern unchanged; proportional to the original.
        for (a, b) in orig.iter().zip(&v) {
            prop_assert_eq!(a.signum(), b.signum());
        }
        // Cross-ratios preserved: orig[i]*v[j] == orig[j]*v[i].
        for i in 0..v.len() {
            for j in 0..v.len() {
                prop_assert_eq!(orig[i].mul(&v[j]), orig[j].mul(&v[i]));
            }
        }
        // Content is 1 (or the vector is all zero).
        let mut g = DynInt::zero();
        for x in &v {
            g = g.gcd(x);
        }
        prop_assert!(g.is_one() || g.is_zero());
    }

    #[test]
    fn fused_comb_matches_expansion(a in -100_000i64..100_000, x in -100_000i64..100_000,
                                    b in -100_000i64..100_000, y in -100_000i64..100_000) {
        let (da, dx, db, dy) =
            (DynInt::from_i64(a), DynInt::from_i64(x), DynInt::from_i64(b), DynInt::from_i64(y));
        prop_assert_eq!(DynInt::fused_comb(&da, &dx, &db, &dy), da.mul(&dx).sub(&db.mul(&dy)));
    }
}

/// An operand within 2^12 of `-2^63`, of `2^63`, of zero, or any `i64`
/// widened: the cases straddle both ends of the small path.
fn near_i64_boundary() -> impl Strategy<Value = i128> {
    (0u8..4, -4096i128..4096, any::<i64>()).prop_map(|(kind, off, any)| match kind {
        0 => i128::from(i64::MIN) + off,
        1 => i128::from(i64::MAX) + 1 + off,
        2 => off,
        _ => i128::from(any),
    })
}

/// `v` on the big path even when it fits in `i64`: every operation with a
/// big operand runs on `BigUint` magnitudes, so this is the reference the
/// small path is held to.
fn forced_big(v: &DynInt) -> DynInt {
    let w = v.to_i128().expect("operands fit in i128");
    DynInt::Big(Box::new(BigInt {
        negative: w < 0,
        magnitude: BigUint::from_u128(w.unsigned_abs()),
    }))
}

/// The canonical form the derived `Eq`/`Hash` rely on: promoted exactly
/// when the value does not fit in `i64`.
fn canonical(v: &DynInt) -> bool {
    let fits = v.to_i128().is_some_and(|w| i64::try_from(w).is_ok());
    v.is_promoted() != fits
}

proptest! {
    // Default config so `PROPTEST_CASES` can raise the case count.

    #[test]
    fn i64_boundary_ring_ops_match_reference(a in near_i64_boundary(), b in near_i64_boundary()) {
        let (da, db) = (di(a), di(b));
        prop_assert!(canonical(&da) && canonical(&db));
        let (ba, bb) = (forced_big(&da), forced_big(&db));
        for (got, want, wide) in [
            (da.add(&db), ba.add(&bb), a.checked_add(b)),
            (da.sub(&db), ba.sub(&bb), a.checked_sub(b)),
            (da.mul(&db), ba.mul(&bb), a.checked_mul(b)),
            (da.neg(), ba.neg(), Some(-a)),
            (da.abs(), ba.abs(), Some(a.abs())),
        ] {
            prop_assert!(canonical(&got), "{} not canonical", got);
            prop_assert_eq!(&got, &want);
            if let Some(w) = wide {
                prop_assert_eq!(got, di(w));
            }
        }
    }

    #[test]
    fn i64_boundary_divrem_and_gcd_match_reference(a in near_i64_boundary(), b in near_i64_boundary()) {
        let (da, db) = (di(a), di(b));
        let (ba, bb) = (forced_big(&da), forced_big(&db));
        let g = da.gcd(&db);
        prop_assert!(canonical(&g));
        prop_assert_eq!(&g, &ba.gcd(&bb));
        if b != 0 {
            let (q, r) = da.divrem(&db);
            prop_assert!(canonical(&q) && canonical(&r));
            prop_assert_eq!((q.clone(), r.clone()), ba.divrem(&bb));
            prop_assert_eq!((q, r), (di(a / b), di(a % b)));
        }
        if !g.is_zero() {
            let back = da.exact_div(&g).mul(&g);
            prop_assert_eq!(back, da);
        }
    }

    #[test]
    fn i64_boundary_fused_comb_matches_reference(a in near_i64_boundary(), x in near_i64_boundary(),
                                                 b in near_i64_boundary(), y in near_i64_boundary()) {
        let (da, dx, db, dy) = (di(a), di(x), di(b), di(y));
        let got = DynInt::fused_comb(&da, &dx, &db, &dy);
        prop_assert!(canonical(&got), "{} not canonical", got);
        let want = forced_big(&forced_big(&da).mul(&forced_big(&dx)))
            .sub(&forced_big(&forced_big(&db).mul(&forced_big(&dy))));
        prop_assert_eq!(&got, &want);
        if let Some(w) = a.checked_mul(x).zip(b.checked_mul(y)).and_then(|(p, q)| p.checked_sub(q)) {
            prop_assert_eq!(got, di(w));
        }
    }
}
