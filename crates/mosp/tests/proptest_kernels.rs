//! Differential kernel tests: for every numeric kernel the vectorized
//! `chunks_exact(8)` implementation must be **bit-identical** to the
//! scalar reference — across lengths 0..=257 (covering empty input, the
//! exact lane width, and every non-multiple-of-8 remainder shape) and
//! across adversarial values (NaN, ±inf, ±0.0, mixed magnitudes).
//!
//! Bit identity (`to_bits` equality, not approximate closeness) is what
//! lets a kernel body be rewritten for speed without changing any result;
//! these properties are the proof obligation behind that claim.

use proptest::prelude::*;
use wavemin_mosp::kernels::{self, scalar};

/// f64s weighted toward the values that break naive SIMD rewrites: NaN,
/// ±inf, ±0.0, plus finite magnitudes spanning many exponents.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0u32..12, -1e3..1e3f64).prop_map(|(tag, x)| match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => x * 1e-300,
        6 => x * 1e300,
        _ => x,
    })
}

/// Equal-length pairs across all remainder shapes: 0..=257 covers empty,
/// sub-lane, exactly `LANES`, multi-chunk, and every `len % 8` residue.
fn arb_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0usize..=257).prop_flat_map(|len| {
        (
            proptest::collection::vec(arb_f64(), len),
            proptest::collection::vec(arb_f64(), len),
        )
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_into_is_bit_identical((a, b) in arb_pair()) {
        let mut out_s = vec![0.0; a.len()];
        let mut out_v = vec![0.0; a.len()];
        scalar::add_into(&mut out_s, &a, &b);
        kernels::add_into(&mut out_v, &a, &b);
        prop_assert_eq!(bits(&out_s), bits(&out_v));
    }

    #[test]
    fn add_assign_is_bit_identical((a, b) in arb_pair()) {
        let mut acc_s = a.clone();
        let mut acc_v = a.clone();
        scalar::add_assign(&mut acc_s, &b);
        kernels::add_assign(&mut acc_v, &b);
        prop_assert_eq!(bits(&acc_s), bits(&acc_v));
    }

    #[test]
    fn repeated_accumulation_is_bit_identical(
        (a, b) in arb_pair(),
        rounds in 1usize..4,
    ) {
        // `SamplePlan::accumulate_into` folds several waveform rows into
        // one accumulator; chained adds must stay bit-identical too.
        let mut acc_s = a.clone();
        let mut acc_v = a;
        for _ in 0..rounds {
            scalar::add_assign(&mut acc_s, &b);
            kernels::add_assign(&mut acc_v, &b);
        }
        prop_assert_eq!(bits(&acc_s), bits(&acc_v));
    }

    #[test]
    fn max_component_and_add_max_are_bit_identical((a, b) in arb_pair()) {
        prop_assert_eq!(
            scalar::max_component(&a).to_bits(),
            kernels::max_component(&a).to_bits()
        );
        prop_assert_eq!(
            scalar::add_max(&a, &b).to_bits(),
            kernels::add_max(&a, &b).to_bits()
        );
        // add_max must also agree with the two-step add-then-max route.
        let mut sum = vec![0.0; a.len()];
        kernels::add_into(&mut sum, &a, &b);
        prop_assert_eq!(
            kernels::add_max(&a, &b).to_bits(),
            kernels::max_component(&sum).to_bits()
        );
    }

    #[test]
    fn dominance_families_agree((a, b) in arb_pair()) {
        prop_assert_eq!(scalar::dominates(&a, &b), kernels::dominates(&a, &b));
        prop_assert_eq!(scalar::dominates(&b, &a), kernels::dominates(&b, &a));
        prop_assert_eq!(
            scalar::dominates_or_eq(&a, &b),
            kernels::dominates_or_eq(&a, &b)
        );
        // Self-comparison: never strict, always weak (on any input,
        // including NaN/±inf — a == a is false for NaN components, but
        // that makes `unequal` true, never `strict`).
        prop_assert_eq!(scalar::dominates(&a, &a), kernels::dominates(&a, &a));
        prop_assert!(!kernels::dominates(&a, &a));
    }

    #[test]
    fn scaled_dominance_families_agree(
        len in 0usize..=257,
        seed_a in proptest::collection::vec(-1_000_000i64..1_000_000, 257),
        seed_b in proptest::collection::vec(-1_000_000i64..1_000_000, 257),
    ) {
        let a = &seed_a[..len];
        let b = &seed_b[..len];
        prop_assert_eq!(scalar::scaled_leq(a, b), kernels::scaled_leq(a, b));
        prop_assert_eq!(scalar::scaled_leq(b, a), kernels::scaled_leq(b, a));
        prop_assert!(kernels::scaled_leq(a, a), "weak dominance is reflexive");
    }

    #[test]
    fn ingest_guard_families_agree_and_reject_every_poison(
        len in 0usize..=257,
        seed in proptest::collection::vec(0.0f64..1e6, 257),
        poison_at in 0usize..520,
        poison_tag in 0u32..4,
    ) {
        // Clean non-negative finite vectors pass both families; planting
        // a single NaN/±inf/negative anywhere (any chunk residue, any
        // lane) makes both families report the same first offender,
        // bit-for-bit. A `poison_at` beyond the vector means "no poison",
        // so roughly half the cases exercise the clean path.
        let mut v: Vec<f64> = seed[..len].to_vec();
        let planted = (poison_at < len).then(|| {
            let i = poison_at;
            let bad = match poison_tag {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => -1.5,
            };
            v[i] = bad;
            bad
        });
        let s = scalar::invalid_weight(&v);
        let vec_ = kernels::invalid_weight(&v);
        prop_assert_eq!(s.map(f64::to_bits), vec_.map(f64::to_bits));
        match planted {
            None => prop_assert!(s.is_none(), "clean vector flagged: {:?}", s),
            Some(bad) => prop_assert_eq!(s.map(f64::to_bits), Some(bad.to_bits())),
        }
    }

    #[test]
    fn ingest_guard_finds_the_first_of_many_offenders(
        len in 1usize..=257,
        offenders in proptest::collection::vec((0usize..257, 0u32..4), 1..6),
        seed in proptest::collection::vec(0.0f64..1e6, 257),
    ) {
        let mut v: Vec<f64> = seed[..len].to_vec();
        for &(pos, tag) in &offenders {
            v[pos % len] = match tag {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => -0.25,
            };
        }
        // The reference answer is the first offender in the final vector.
        let expect = v
            .iter()
            .copied()
            .find(|w| !w.is_finite() || *w < 0.0)
            .map(f64::to_bits);
        prop_assert!(expect.is_some(), "at least one offender was planted");
        prop_assert_eq!(scalar::invalid_weight(&v).map(f64::to_bits), expect);
        prop_assert_eq!(kernels::invalid_weight(&v).map(f64::to_bits), expect);
    }

    #[test]
    fn slab_scans_agree(
        dim in 1usize..24,
        rows in 0usize..12,
        seed in proptest::collection::vec(arb_f64(), 24 * 12),
        cand_seed in proptest::collection::vec(arb_f64(), 24),
    ) {
        let slab = &seed[..dim * rows];
        let cand = &cand_seed[..dim];
        prop_assert_eq!(
            scalar::dominated_weakly_by_any(slab, dim, rows, cand),
            kernels::dominated_weakly_by_any(slab, dim, rows, cand)
        );
        let islab: Vec<i64> = slab.iter().map(|x| if x.is_finite() { *x as i64 } else { 0 }).collect();
        let icand: Vec<i64> = cand.iter().map(|x| if x.is_finite() { *x as i64 } else { 0 }).collect();
        prop_assert_eq!(
            scalar::scaled_leq_any(&islab, dim, rows, &icand),
            kernels::scaled_leq_any(&islab, dim, rows, &icand)
        );
    }
}
