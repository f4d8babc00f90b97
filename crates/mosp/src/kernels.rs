//! Vectorization-friendly numeric kernels for the MOSP hot loops.
//!
//! Every `|S|`-dimensional cost-vector operation the solvers perform per
//! label attempt — the label-extension add, Pareto dominance tests, the
//! min–max reduction, and background accumulation — lives here. The
//! entry points are `chunks_exact(8)` bodies with branchless lane
//! accumulators, written so LLVM's autovectorizer turns each chunk into
//! SIMD at whatever width the target offers (SSE2 at the x86-64 baseline,
//! wider with `-C target-cpu=native`), plus a scalar loop for the
//! `len % 8` remainder.
//!
//! [`scalar`] holds the plain one-element-at-a-time reference of every
//! entry point, kept as the differential-testing and benchmarking oracle.
//! The two are **bit-identical** by construction, not merely
//! approximately equal:
//!
//! * `add_into`/`add_assign` are elementwise, so the per-element IEEE
//!   result cannot depend on chunking (Rust never contracts `a + b` into
//!   an FMA).
//! * `dominates`/`dominates_or_eq`/`scaled_leq` reduce pure elementwise
//!   comparisons with `|`/`&`, which are order-independent.
//! * `max_component`/`add_max` use the NaN-skipping `if x > m` recurrence
//!   in both; a lane-split max can differ from the sequential fold only in
//!   the sign bit of a `±0.0` result, so both canonicalize `-0.0` to
//!   `+0.0` on output.

use scalar::canonical_zero;

/// SIMD-friendly chunk width (f64 lanes per unrolled iteration).
pub const LANES: usize = 8;

/// The scalar reference implementations — the permanent differential
/// oracle. Every function here defines the semantics its vectorized
/// counterpart in the parent module must reproduce bit-for-bit.
pub mod scalar {
    /// `out[i] = a[i] + b[i]` (the label-extension add).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn add_into(out: &mut [f64], a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
        assert_eq!(out.len(), a.len(), "kernel output length mismatch");
        for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
            *o = x + y;
        }
    }

    /// `acc[i] += x[i]` (background accumulation).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    pub fn add_assign(acc: &mut [f64], x: &[f64]) {
        assert_eq!(acc.len(), x.len(), "kernel operand length mismatch");
        for (a, v) in acc.iter_mut().zip(x) {
            *a += v;
        }
    }

    /// The maximum component of `v` under the NaN-skipping `if x > m`
    /// recurrence; `-0.0` results are canonicalized to `+0.0` and the
    /// empty slice yields `-inf`. NaN components are skipped (an all-NaN
    /// slice also yields `-inf`).
    #[inline]
    #[must_use]
    pub fn max_component(v: &[f64]) -> f64 {
        let mut m = f64::NEG_INFINITY;
        for &x in v {
            if x > m {
                m = x;
            }
        }
        canonical_zero(m)
    }

    /// Fused `max_component` of the elementwise sum `a + b`, without
    /// materializing the sum. Same conventions as [`max_component`].
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ.
    #[inline]
    #[must_use]
    pub fn add_max(a: &[f64], b: &[f64]) -> f64 {
        assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
        let mut m = f64::NEG_INFINITY;
        for (x, y) in a.iter().zip(b) {
            let s = x + y;
            if s > m {
                m = s;
            }
        }
        canonical_zero(m)
    }

    /// `true` when `a` Pareto-dominates `b`: componentwise `a <= b` with
    /// at least one strict `<`.
    ///
    /// Edge cases, pinned by unit tests so kernel rewrites cannot drift:
    ///
    /// * **Equal vectors never dominate** — in particular `dominates(a, a)`
    ///   is `false` for every `a`: there is no strict component.
    /// * **Empty vectors never dominate**: with zero components there is
    ///   no strict inequality, so `dominates(&[], &[])` is `false`.
    /// * **NaN components are incomparable**: a NaN is neither `>` nor `<`
    ///   anything, so a NaN pair neither disqualifies dominance nor counts
    ///   as the required strict inequality. `[NaN]` vs `[1.0]` is `false`
    ///   both ways, while `[NaN, 1.0]` still dominates `[NaN, 2.0]`.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    #[inline]
    #[must_use]
    pub fn dominates(a: &[f64], b: &[f64]) -> bool {
        assert_eq!(a.len(), b.len(), "dominance requires equal dimensions");
        let mut strict = false;
        for (x, y) in a.iter().zip(b) {
            if x > y {
                return false;
            }
            strict |= x < y;
        }
        strict
    }

    /// `true` when `a` dominates **or equals** `b` (the frontier's weak
    /// rejection test: a candidate matching an incumbent exactly is a
    /// duplicate, not an improvement). Equality is componentwise `==`, so
    /// a NaN anywhere in both vectors makes them unequal.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    #[inline]
    #[must_use]
    pub fn dominates_or_eq(a: &[f64], b: &[f64]) -> bool {
        assert_eq!(a.len(), b.len(), "dominance requires equal dimensions");
        let mut strict = false;
        let mut unequal = false;
        for (x, y) in a.iter().zip(b) {
            if x > y {
                return false;
            }
            strict |= x < y;
            unequal |= x != y;
        }
        strict || !unequal
    }

    /// Componentwise `a <= b` on the ε-grid (Warburton's weak dominance).
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    #[inline]
    #[must_use]
    pub fn scaled_leq(a: &[i32], b: &[i32]) -> bool {
        assert_eq!(a.len(), b.len(), "dominance requires equal dimensions");
        a.iter().zip(b).all(|(x, y)| x <= y)
    }

    /// The ingest guard: the first component of `v` that is not a valid
    /// arc weight (NaN, ±inf, or negative), or `None` when every
    /// component is finite and non-negative. `-0.0` passes (it compares
    /// `>= 0.0`).
    #[inline]
    #[must_use]
    pub fn invalid_weight(v: &[f64]) -> Option<f64> {
        v.iter().copied().find(|w| !w.is_finite() || *w < 0.0)
    }

    #[inline]
    pub(super) fn canonical_zero(m: f64) -> f64 {
        // `-0.0 == 0.0`, so this maps both zeros to `+0.0` and leaves
        // every other value (including ±inf) untouched.
        if m == 0.0 {
            0.0
        } else {
            m
        }
    }
}

/// `out[i] = a[i] + b[i]`; see [`scalar::add_into`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn add_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
    assert_eq!(out.len(), a.len(), "kernel output length mismatch");
    let mut co = out.chunks_exact_mut(LANES);
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for ((o, x), y) in (&mut co).zip(&mut ca).zip(&mut cb) {
        for i in 0..LANES {
            o[i] = x[i] + y[i];
        }
    }
    for ((o, x), y) in co
        .into_remainder()
        .iter_mut()
        .zip(ca.remainder())
        .zip(cb.remainder())
    {
        *o = x + y;
    }
}

/// `acc[i] += x[i]`; see [`scalar::add_assign`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn add_assign(acc: &mut [f64], x: &[f64]) {
    assert_eq!(acc.len(), x.len(), "kernel operand length mismatch");
    let mut ca = acc.chunks_exact_mut(LANES);
    let mut cx = x.chunks_exact(LANES);
    for (a, v) in (&mut ca).zip(&mut cx) {
        for i in 0..LANES {
            a[i] += v[i];
        }
    }
    for (a, v) in ca.into_remainder().iter_mut().zip(cx.remainder()) {
        *a += v;
    }
}

/// Lane-parallel max reduction; see [`scalar::max_component`].
/// The per-lane `if x > m` recurrence skips NaN exactly like the
/// sequential form, and the final `-0.0` canonicalization erases the
/// only bit the lane split could change. Up to one chunk the lane body
/// is pure overhead (a lane fold on top of the same compares), so short
/// vectors take the sequential path, as in [`scaled_leq`].
#[inline]
#[must_use]
pub fn max_component(v: &[f64]) -> f64 {
    if v.len() <= LANES {
        return scalar::max_component(v);
    }
    let chunks = v.chunks_exact(LANES);
    let rem = chunks.remainder();
    let mut lanes = [f64::NEG_INFINITY; LANES];
    for c in chunks {
        for i in 0..LANES {
            if c[i] > lanes[i] {
                lanes[i] = c[i];
            }
        }
    }
    let mut m = f64::NEG_INFINITY;
    for &l in &lanes {
        if l > m {
            m = l;
        }
    }
    for &x in rem {
        if x > m {
            m = x;
        }
    }
    canonical_zero(m)
}

/// Fused lane-parallel `max(a + b)`; see [`scalar::add_max`].
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
#[must_use]
pub fn add_max(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "kernel operand length mismatch");
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    let mut lanes = [f64::NEG_INFINITY; LANES];
    for (x, y) in (&mut ca).zip(&mut cb) {
        for i in 0..LANES {
            let s = x[i] + y[i];
            if s > lanes[i] {
                lanes[i] = s;
            }
        }
    }
    let mut m = f64::NEG_INFINITY;
    for &l in &lanes {
        if l > m {
            m = l;
        }
    }
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        let s = x + y;
        if s > m {
            m = s;
        }
    }
    canonical_zero(m)
}

/// Branchless per-chunk comparison masks; see
/// [`scalar::dominates`]. Each chunk folds its comparisons
/// with `|` (order-independent booleans), then bails out early on a
/// disqualifying `>` so reject-heavy frontiers stay cheap.
///
/// # Panics
///
/// Panics if the vectors differ in length.
#[inline]
#[must_use]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "dominance requires equal dimensions");
    let ca = a.chunks_exact(LANES);
    let cb = b.chunks_exact(LANES);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let mut strict = false;
    for (x, y) in ca.zip(cb) {
        let mut gt = false;
        let mut lt = false;
        for i in 0..LANES {
            gt |= x[i] > y[i];
            lt |= x[i] < y[i];
        }
        if gt {
            return false;
        }
        strict |= lt;
    }
    for (x, y) in ra.iter().zip(rb) {
        if x > y {
            return false;
        }
        strict |= x < y;
    }
    strict
}

/// Weak rejection test; see [`scalar::dominates_or_eq`].
///
/// # Panics
///
/// Panics if the vectors differ in length.
#[inline]
#[must_use]
pub fn dominates_or_eq(a: &[f64], b: &[f64]) -> bool {
    assert_eq!(a.len(), b.len(), "dominance requires equal dimensions");
    let ca = a.chunks_exact(LANES);
    let cb = b.chunks_exact(LANES);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let mut strict = false;
    let mut unequal = false;
    for (x, y) in ca.zip(cb) {
        let mut gt = false;
        let mut lt = false;
        let mut ne = false;
        for i in 0..LANES {
            gt |= x[i] > y[i];
            lt |= x[i] < y[i];
            ne |= x[i] != y[i];
        }
        if gt {
            return false;
        }
        strict |= lt;
        unequal |= ne;
    }
    for (x, y) in ra.iter().zip(rb) {
        if x > y {
            return false;
        }
        strict |= x < y;
        unequal |= x != y;
    }
    strict || !unequal
}

/// ε-grid weak dominance; see [`scalar::scaled_leq`]. Grid cells are
/// `i32`, so a chunk is two SSE2 `pcmpgtd` compares at the x86-64
/// baseline.
///
/// Integer compares are single cheap ops, so below one full chunk the
/// branchless lane body costs more than the sequential early exit
/// saves; short ε-grid rows take the scalar path (same boolean either
/// way).
///
/// # Panics
///
/// Panics if the vectors differ in length.
#[inline]
#[must_use]
pub fn scaled_leq(a: &[i32], b: &[i32]) -> bool {
    assert_eq!(a.len(), b.len(), "dominance requires equal dimensions");
    if a.len() <= LANES {
        return a.iter().zip(b).all(|(x, y)| x <= y);
    }
    let ca = a.chunks_exact(LANES);
    let cb = b.chunks_exact(LANES);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        let mut ok = true;
        for i in 0..LANES {
            ok &= x[i] <= y[i];
        }
        if !ok {
            return false;
        }
    }
    ra.iter().zip(rb).all(|(x, y)| x <= y)
}

/// Ingest guard; see [`scalar::invalid_weight`]. Chunks fold a
/// branchless validity mask (`is_finite & >= 0`, order-independent
/// booleans); only a failing chunk pays a sequential re-scan to
/// locate the first offender, so the clean path stays branch-free.
#[inline]
#[must_use]
pub fn invalid_weight(v: &[f64]) -> Option<f64> {
    let chunks = v.chunks_exact(LANES);
    let rem = chunks.remainder();
    for c in chunks {
        let mut ok = true;
        for &w in c {
            ok &= w.is_finite() & (w >= 0.0);
        }
        if !ok {
            return c.iter().copied().find(|w| !w.is_finite() || *w < 0.0);
        }
    }
    rem.iter().copied().find(|w| !w.is_finite() || *w < 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both_max(v: &[f64]) -> f64 {
        let s = scalar::max_component(v);
        let vv = super::max_component(v);
        assert_eq!(s.to_bits(), vv.to_bits(), "families disagree on {v:?}");
        s
    }

    #[test]
    fn max_component_canonicalizes_negative_zero() {
        // [-1, +0 in lane 1, -0 in lane 8]: a sequential fold picks the
        // +0.0 seen first, a lane-reduced max can pick the -0.0 from the
        // colliding lane — canonicalization makes both return +0.0.
        let mut v = vec![-1.0; 9];
        v[1] = 0.0;
        v[8] = -0.0;
        assert_eq!(both_max(&v).to_bits(), 0.0_f64.to_bits());
        assert_eq!(both_max(&[-0.0]).to_bits(), 0.0_f64.to_bits());
    }

    #[test]
    fn max_component_edge_values() {
        assert_eq!(both_max(&[]), f64::NEG_INFINITY);
        assert_eq!(both_max(&[f64::NAN, 3.0, f64::NAN]), 3.0);
        assert!(both_max(&[f64::NAN; 12]) == f64::NEG_INFINITY);
        assert_eq!(both_max(&[f64::NEG_INFINITY, f64::INFINITY]), f64::INFINITY);
    }

    #[test]
    fn add_max_matches_add_then_max() {
        let a: Vec<f64> = (0..13).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..13).map(|i| 6.0 - i as f64).collect();
        let mut sum = vec![0.0; 13];
        scalar::add_into(&mut sum, &a, &b);
        let expect = scalar::max_component(&sum);
        assert_eq!(scalar::add_max(&a, &b).to_bits(), expect.to_bits());
        assert_eq!(super::add_max(&a, &b).to_bits(), expect.to_bits());
    }

    #[test]
    fn dominates_families_agree_on_edges() {
        for (a, b, want) in [
            (vec![1.0, 2.0], vec![2.0, 2.0], true),
            (vec![2.0, 2.0], vec![2.0, 2.0], false),
            (vec![f64::NAN], vec![1.0], false),
            (vec![1.0], vec![f64::NAN], false),
            (vec![f64::NAN, 1.0], vec![f64::NAN, 2.0], true),
        ] {
            assert_eq!(scalar::dominates(&a, &b), want, "scalar {a:?} {b:?}");
            assert_eq!(super::dominates(&a, &b), want, "vector {a:?} {b:?}");
        }
        assert!(!scalar::dominates(&[], &[]));
        assert!(!super::dominates(&[], &[]));
    }

    #[test]
    fn dominates_or_eq_adds_exact_equality() {
        let a = [1.0, 2.0, 3.0];
        assert!(scalar::dominates_or_eq(&a, &a));
        assert!(super::dominates_or_eq(&a, &a));
        assert!(scalar::dominates_or_eq(&[], &[]), "empty slices are equal");
        assert!(super::dominates_or_eq(&[], &[]));
        // NaN != NaN, so a NaN pair is neither dominated nor a duplicate.
        let n = [f64::NAN];
        assert!(!scalar::dominates_or_eq(&n, &n));
        assert!(!super::dominates_or_eq(&n, &n));
    }

    #[test]
    fn scaled_leq_families_agree() {
        let a: Vec<i32> = (0..17).collect();
        let mut b = a.clone();
        assert!(scalar::scaled_leq(&a, &b));
        assert!(super::scaled_leq(&a, &b));
        b[11] -= 1;
        assert!(!scalar::scaled_leq(&a, &b));
        assert!(!super::scaled_leq(&a, &b));
    }

    #[test]
    fn invalid_weight_families_agree() {
        // Clean vectors of every chunking shape pass both families.
        for len in [0usize, 1, 7, 8, 9, 16, 17] {
            let v: Vec<f64> = (0..len).map(|i| i as f64 * 0.25).collect();
            assert_eq!(scalar::invalid_weight(&v), None, "scalar len {len}");
            assert_eq!(super::invalid_weight(&v), None, "vector len {len}");
        }
        // First offender wins, wherever the chunk boundary falls.
        for (pos, bad) in [
            (0usize, f64::NAN),
            (3, -1.0),
            (8, f64::INFINITY),
            (12, -0.5),
        ] {
            let mut v = vec![1.0; 13];
            v[pos] = bad;
            v[12] = if pos == 12 { bad } else { f64::NEG_INFINITY };
            let s = scalar::invalid_weight(&v);
            let vv = super::invalid_weight(&v);
            assert_eq!(s.map(f64::to_bits), vv.map(f64::to_bits), "pos {pos}");
            assert_eq!(s.map(f64::to_bits), Some(bad.to_bits()), "pos {pos}");
        }
        // -0.0 is a valid (zero) weight in both families.
        assert_eq!(scalar::invalid_weight(&[-0.0; 9]), None);
        assert_eq!(super::invalid_weight(&[-0.0; 9]), None);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_into_rejects_length_mismatch() {
        let mut out = [0.0; 2];
        super::add_into(&mut out, &[1.0, 2.0], &[1.0]);
    }
}
