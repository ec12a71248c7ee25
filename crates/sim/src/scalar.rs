//! The abstract scalar domain the cost models are generic over.
//!
//! The analytical device models in this crate are straight-line
//! arithmetic: products of efficiencies, a handful of guarded integer
//! divisions, min/max combines and data-dependent branches. Writing that
//! arithmetic once against the [`Scalar`] trait gives two model
//! instantiations from a single body:
//!
//! * [`f64`] — the production models. The trait implementation performs
//!   the exact IEEE-754 operation the hand-written row models perform, in
//!   the same order, so the generic path is **bit-identical** to them
//!   (pinned by the differential tests in `crate::generic`, where the row
//!   models survive as the test-only reference).
//! * [`Interval`] — outward-rounding interval arithmetic. Evaluating a
//!   model over intervals yields a *sound enclosure* of every concrete
//!   `f64` result reachable from member inputs, which is what powers the
//!   region-level branch-and-bound pruning in `flextensor-analyze`.
//!
//! # Comparisons are three-valued
//!
//! A branch like `if shared > 0` is decided for a point but may be
//! *undecided* for an interval that straddles the threshold, so
//! comparisons return a [`Trilean`] and branches are expressed as
//! [`Scalar::select`], which hulls both arms when the condition is
//! [`Trilean::Unknown`]. `select` is **strict** — both arms are always
//! evaluated — so model bodies guard the divisors of untaken arms
//! (mirroring the `.max(1)` guards of the concrete models).

/// A three-valued truth value: the result of comparing abstract scalars.
///
/// For the point domain (`f64`) comparisons always return
/// [`Trilean::True`] or [`Trilean::False`]; [`Trilean::Unknown`] arises
/// only for set domains ([`Interval`]) whose members disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trilean {
    /// The predicate holds for every member.
    True,
    /// The predicate fails for every member.
    False,
    /// Members disagree (or the domain cannot decide).
    Unknown,
}

/// The abstract-scalar interface of the cost models.
///
/// Implementations must satisfy, for every operation, the *soundness
/// contract*: the result of the abstract operation contains (or, for
/// point domains, equals) every value obtainable by applying the concrete
/// `f64` operation to member values. The `f64` implementation is the
/// identity instantiation: each method performs exactly one concrete
/// IEEE-754 operation (or `i64` integer division), which is what makes
/// the generic model bodies bit-identical to the hand-written ones.
///
/// All model inputs are non-negative integers materialized exactly in
/// `f64` (they are far below 2^53); the integer-division methods rely on
/// that exactness.
pub trait Scalar: Copy + Sized + core::fmt::Debug {
    /// Embeds an exact integer constant.
    fn from_i64(v: i64) -> Self;
    /// Embeds a finite `f64` constant (must not be NaN).
    fn from_f64(v: f64) -> Self;
    /// IEEE-754 addition.
    fn add(self, rhs: Self) -> Self;
    /// IEEE-754 subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// IEEE-754 multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// IEEE-754 division. The divisor must not contain zero unless the
    /// result is discarded by an enclosing [`Scalar::select`] arm.
    fn div(self, rhs: Self) -> Self;
    /// Pointwise minimum (`f64::min`).
    fn min(self, rhs: Self) -> Self;
    /// Pointwise maximum (`f64::max`).
    fn max(self, rhs: Self) -> Self;
    /// Truncating integer division `(self as i64) / (rhs as i64)`.
    ///
    /// Both operands must hold exact non-negative integers and the
    /// divisor must be at least one (model bodies guard with
    /// `.max(one)` exactly where the concrete models guard with
    /// `.max(1)`).
    fn floor_int_div(self, rhs: Self) -> Self;
    /// Ceiling integer division `(self + rhs - 1) / rhs` over exact
    /// non-negative integers with `rhs >= 1`.
    fn ceil_int_div(self, rhs: Self) -> Self {
        self.add(rhs).sub(Self::from_i64(1)).floor_int_div(rhs)
    }
    /// Three-valued `self < rhs`.
    fn lt(self, rhs: Self) -> Trilean;
    /// Three-valued `self <= rhs`.
    fn le(self, rhs: Self) -> Trilean;
    /// Branch on a comparison: `t` when `cond` is true, `f` when false,
    /// and a sound join of both arms when undecided. Strict in both
    /// arms.
    fn select(cond: Trilean, t: Self, f: Self) -> Self;
    /// Keeps only the members satisfying `self >= bound` (`bound` must be
    /// a point). Returns `None` when no member does — for point domains
    /// this is exactly the concrete `if self < bound { return None }`
    /// feasibility check.
    fn constrain_ge(self, bound: Self) -> Option<Self>;
    /// Keeps only the members satisfying `self <= bound` (`bound` must be
    /// a point); `None` when no member does.
    fn constrain_le(self, bound: Self) -> Option<Self>;
    /// Three-valued "`self` is an exact multiple of `m`" over integer
    /// members, for `m >= 1`.
    fn is_multiple_of(self, m: i64) -> Trilean;
}

// ---------------------------------------------------------------------------
// f64: the identity instantiation
// ---------------------------------------------------------------------------

impl Scalar for f64 {
    fn from_i64(v: i64) -> f64 {
        v as f64
    }
    fn from_f64(v: f64) -> f64 {
        v
    }
    fn add(self, rhs: f64) -> f64 {
        self + rhs
    }
    fn sub(self, rhs: f64) -> f64 {
        self - rhs
    }
    fn mul(self, rhs: f64) -> f64 {
        self * rhs
    }
    fn div(self, rhs: f64) -> f64 {
        self / rhs
    }
    fn min(self, rhs: f64) -> f64 {
        f64::min(self, rhs)
    }
    fn max(self, rhs: f64) -> f64 {
        f64::max(self, rhs)
    }
    fn floor_int_div(self, rhs: f64) -> f64 {
        ((self as i64) / (rhs as i64)) as f64
    }
    fn lt(self, rhs: f64) -> Trilean {
        if self < rhs {
            Trilean::True
        } else {
            Trilean::False
        }
    }
    fn le(self, rhs: f64) -> Trilean {
        if self <= rhs {
            Trilean::True
        } else {
            Trilean::False
        }
    }
    fn select(cond: Trilean, t: f64, f: f64) -> f64 {
        match cond {
            Trilean::True => t,
            Trilean::False => f,
            Trilean::Unknown => f64::min(t, f), // unreachable for points; any sound pick
        }
    }
    fn constrain_ge(self, bound: f64) -> Option<f64> {
        if self < bound {
            None
        } else {
            Some(self)
        }
    }
    fn constrain_le(self, bound: f64) -> Option<f64> {
        if self > bound {
            None
        } else {
            Some(self)
        }
    }
    fn is_multiple_of(self, m: i64) -> Trilean {
        if (self as i64) % m == 0 {
            Trilean::True
        } else {
            Trilean::False
        }
    }
}

// ---------------------------------------------------------------------------
// Interval: outward-rounding enclosures
// ---------------------------------------------------------------------------

/// Error from [`Interval::new`]: the requested bounds do not describe a
/// non-empty interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntervalError {
    /// One of the bounds was NaN.
    Nan,
    /// The lower bound exceeded the upper bound.
    Inverted {
        /// The offending lower bound.
        lo: f64,
        /// The offending upper bound.
        hi: f64,
    },
}

impl core::fmt::Display for IntervalError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IntervalError::Nan => write!(f, "interval bound is NaN"),
            IntervalError::Inverted { lo, hi } => {
                write!(f, "inverted interval bounds: lo {lo} > hi {hi}")
            }
        }
    }
}

impl std::error::Error for IntervalError {}

/// A closed, non-empty `f64` interval `[lo, hi]`.
///
/// # Rounding contract
///
/// Arithmetic on intervals is *outward rounding with respect to concrete
/// `f64` arithmetic*: for any members `x ∈ a`, `y ∈ b`, the concrete
/// IEEE-754 result `x ⊙ y` lies inside `a ⊙ b`. Two mechanisms provide
/// this:
///
/// * corner evaluation — round-to-nearest is monotone in each operand,
///   so the min/max over the interval corners already encloses every
///   member result of a monotone operation;
/// * one-ulp outward widening on `add`/`sub`/`mul`/`div` as a defensive
///   margin (exact operations `min`/`max`/integer division are
///   corner-exact and not widened).
///
/// Note the contract encloses concrete **f64** results, not real-number
/// results; that is the direction the region analysis needs (its oracle
/// is the concrete model, not exact arithmetic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    lo: f64,
    hi: f64,
}

/// The next representable `f64` above `x` (saturates at infinity).
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return x;
    }
    if x == 0.0 {
        return f64::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits + 1)
    } else {
        f64::from_bits(bits - 1)
    }
}

/// The next representable `f64` below `x` (saturates at negative
/// infinity).
fn next_down(x: f64) -> f64 {
    if x.is_nan() || x == f64::NEG_INFINITY {
        return x;
    }
    if x == 0.0 {
        return -f64::from_bits(1);
    }
    let bits = x.to_bits();
    if x > 0.0 {
        f64::from_bits(bits - 1)
    } else {
        f64::from_bits(bits + 1)
    }
}

impl Interval {
    /// Builds `[lo, hi]`, rejecting NaN bounds and `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Result<Interval, IntervalError> {
        if lo.is_nan() || hi.is_nan() {
            return Err(IntervalError::Nan);
        }
        if lo > hi {
            return Err(IntervalError::Inverted { lo, hi });
        }
        Ok(Interval { lo, hi })
    }

    /// The degenerate interval `[v, v]` (`v` must not be NaN).
    pub fn point(v: f64) -> Interval {
        assert!(!v.is_nan(), "NaN cannot be an interval member");
        Interval { lo: v, hi: v }
    }

    /// Builds the enclosure of two samples in either order (never fails
    /// on finite inputs).
    pub fn spanning(a: f64, b: f64) -> Interval {
        assert!(
            !a.is_nan() && !b.is_nan(),
            "NaN cannot be an interval member"
        );
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Whether `v` lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// The smallest interval containing both operands.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Widens by one ulp on each side — the outward-rounding margin
    /// applied after inexact arithmetic.
    fn widened(lo: f64, hi: f64) -> Interval {
        Interval {
            lo: next_down(lo),
            hi: next_up(hi),
        }
    }
}

impl Scalar for Interval {
    fn from_i64(v: i64) -> Interval {
        Interval::point(v as f64)
    }
    fn from_f64(v: f64) -> Interval {
        Interval::point(v)
    }
    fn add(self, rhs: Interval) -> Interval {
        Interval::widened(self.lo + rhs.lo, self.hi + rhs.hi)
    }
    fn sub(self, rhs: Interval) -> Interval {
        Interval::widened(self.lo - rhs.hi, self.hi - rhs.lo)
    }
    fn mul(self, rhs: Interval) -> Interval {
        let c = [
            self.lo * rhs.lo,
            self.lo * rhs.hi,
            self.hi * rhs.lo,
            self.hi * rhs.hi,
        ];
        let mut lo = c[0];
        let mut hi = c[0];
        for &v in &c[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval::widened(lo, hi)
    }
    fn div(self, rhs: Interval) -> Interval {
        if rhs.lo <= 0.0 && rhs.hi >= 0.0 {
            // Divisor straddles zero: no finite enclosure. The model
            // bodies guard divisors, so this arises only in discarded
            // select arms; top is a sound (if useless) answer.
            return Interval {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
            };
        }
        let c = [
            self.lo / rhs.lo,
            self.lo / rhs.hi,
            self.hi / rhs.lo,
            self.hi / rhs.hi,
        ];
        let mut lo = c[0];
        let mut hi = c[0];
        for &v in &c[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval::widened(lo, hi)
    }
    fn min(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo.min(rhs.lo),
            hi: self.hi.min(rhs.hi),
        }
    }
    fn max(self, rhs: Interval) -> Interval {
        Interval {
            lo: self.lo.max(rhs.lo),
            hi: self.hi.max(rhs.hi),
        }
    }
    fn floor_int_div(self, rhs: Interval) -> Interval {
        // Exact 4-corner evaluation over i64 quotients. Sound for
        // non-negative numerators and divisors >= 1: truncating division
        // is monotone non-decreasing in the numerator and non-increasing
        // in the divisor, so the extrema sit at corners. Bounds widened
        // outward to integers first so non-integral (ulp-widened) bounds
        // still cover all integer members.
        let n_lo = self.lo.floor() as i64;
        let n_hi = self.hi.ceil() as i64;
        let d_lo = (rhs.lo.floor() as i64).max(1);
        let d_hi = (rhs.hi.ceil() as i64).max(1);
        let c = [n_lo / d_lo, n_lo / d_hi, n_hi / d_lo, n_hi / d_hi];
        let mut lo = c[0];
        let mut hi = c[0];
        for &v in &c[1..] {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Interval {
            lo: lo as f64,
            hi: hi as f64,
        }
    }
    fn lt(self, rhs: Interval) -> Trilean {
        if self.hi < rhs.lo {
            Trilean::True
        } else if self.lo >= rhs.hi {
            Trilean::False
        } else {
            Trilean::Unknown
        }
    }
    fn le(self, rhs: Interval) -> Trilean {
        if self.hi <= rhs.lo {
            Trilean::True
        } else if self.lo > rhs.hi {
            Trilean::False
        } else {
            Trilean::Unknown
        }
    }
    fn select(cond: Trilean, t: Interval, f: Interval) -> Interval {
        match cond {
            Trilean::True => t,
            Trilean::False => f,
            Trilean::Unknown => t.hull(f),
        }
    }
    fn constrain_ge(self, bound: Interval) -> Option<Interval> {
        let b = bound.lo;
        if self.hi < b {
            None
        } else {
            Some(Interval {
                lo: self.lo.max(b),
                hi: self.hi,
            })
        }
    }
    fn constrain_le(self, bound: Interval) -> Option<Interval> {
        let b = bound.hi;
        if self.lo > b {
            None
        } else {
            Some(Interval {
                lo: self.lo,
                hi: self.hi.min(b),
            })
        }
    }
    fn is_multiple_of(self, m: i64) -> Trilean {
        // Integer members of the (possibly ulp-widened) interval.
        let lo = self.lo.ceil() as i64;
        let hi = self.hi.floor() as i64;
        if lo > hi {
            return Trilean::Unknown; // no integer members: degenerate, stay safe
        }
        let has_multiple = (hi.div_euclid(m)) * m >= lo;
        let has_non_multiple = if lo == hi {
            lo % m != 0
        } else {
            // Two or more consecutive integers: for m > 1 at least one is
            // not a multiple; for m == 1 every integer is.
            m > 1
        };
        match (has_multiple, has_non_multiple) {
            (true, false) => Trilean::True,
            (false, _) => Trilean::False,
            (true, true) => Trilean::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi).unwrap()
    }

    #[test]
    fn construction_rejects_nan_and_inverted_bounds() {
        assert_eq!(Interval::new(f64::NAN, 1.0), Err(IntervalError::Nan));
        assert_eq!(Interval::new(0.0, f64::NAN), Err(IntervalError::Nan));
        assert_eq!(
            Interval::new(2.0, 1.0),
            Err(IntervalError::Inverted { lo: 2.0, hi: 1.0 })
        );
        assert!(Interval::new(1.0, 1.0).is_ok());
        assert!(Interval::new(-3.0, 7.0).is_ok());
    }

    #[test]
    fn interval_error_messages_render() {
        assert_eq!(IntervalError::Nan.to_string(), "interval bound is NaN");
        assert_eq!(
            IntervalError::Inverted { lo: 2.0, hi: 1.0 }.to_string(),
            "inverted interval bounds: lo 2 > hi 1"
        );
    }

    #[test]
    fn arithmetic_encloses_member_results() {
        let a = iv(2.0, 5.0);
        let b = iv(3.0, 4.0);
        for x in [2.0, 3.5, 5.0] {
            for y in [3.0, 3.7, 4.0] {
                assert!(a.add(b).contains(x + y));
                assert!(a.sub(b).contains(x - y));
                assert!(a.mul(b).contains(x * y));
                assert!(a.div(b).contains(x / y));
                assert!(Scalar::min(a, b).contains(x.min(y)));
                assert!(Scalar::max(a, b).contains(x.max(y)));
            }
        }
    }

    #[test]
    fn integer_division_is_corner_exact() {
        let n = iv(7.0, 20.0);
        let d = iv(2.0, 3.0);
        let q = n.floor_int_div(d);
        for num in 7..=20i64 {
            for den in 2..=3i64 {
                assert!(q.contains((num / den) as f64), "{num}/{den} not in {q:?}");
            }
        }
        assert_eq!(q.lo(), 2.0); // 7/3
        assert_eq!(q.hi(), 10.0); // 20/2
    }

    #[test]
    fn comparisons_are_three_valued() {
        assert_eq!(iv(1.0, 2.0).lt(iv(3.0, 4.0)), Trilean::True);
        assert_eq!(iv(3.0, 4.0).lt(iv(1.0, 2.0)), Trilean::False);
        assert_eq!(iv(1.0, 3.0).lt(iv(2.0, 4.0)), Trilean::Unknown);
        assert_eq!(iv(1.0, 2.0).le(iv(2.0, 4.0)), Trilean::True);
        assert_eq!(iv(3.0, 4.0).le(iv(1.0, 2.0)), Trilean::False);
    }

    #[test]
    fn select_hulls_undecided_branches() {
        let t = iv(1.0, 2.0);
        let f = iv(10.0, 20.0);
        assert_eq!(Interval::select(Trilean::True, t, f), t);
        assert_eq!(Interval::select(Trilean::False, t, f), f);
        let h = Interval::select(Trilean::Unknown, t, f);
        assert_eq!((h.lo(), h.hi()), (1.0, 20.0));
    }

    #[test]
    fn constrain_clips_or_rejects() {
        let one = Interval::point(1.0);
        assert_eq!(iv(0.0, 5.0).constrain_ge(one).unwrap(), iv(1.0, 5.0));
        assert!(iv(0.0, 0.5).constrain_ge(one).is_none());
        assert_eq!(
            iv(0.0, 5.0).constrain_le(Interval::point(3.0)).unwrap(),
            iv(0.0, 3.0)
        );
        assert!(iv(4.0, 5.0).constrain_le(Interval::point(3.0)).is_none());
    }

    #[test]
    fn multiple_of_distinguishes_points_and_ranges() {
        assert_eq!(Interval::point(8.0).is_multiple_of(4), Trilean::True);
        assert_eq!(Interval::point(9.0).is_multiple_of(4), Trilean::False);
        assert_eq!(iv(5.0, 7.0).is_multiple_of(4), Trilean::False);
        assert_eq!(iv(5.0, 9.0).is_multiple_of(4), Trilean::Unknown);
        assert_eq!(iv(3.0, 9.0).is_multiple_of(1), Trilean::True);
    }

    #[test]
    fn widening_steps_one_ulp() {
        assert!(next_up(1.0) > 1.0);
        assert!(next_down(1.0) < 1.0);
        assert_eq!(next_up(next_down(1.0)), 1.0);
        assert!(next_up(0.0) > 0.0);
        assert!(next_down(0.0) < 0.0);
        assert_eq!(next_up(f64::INFINITY), f64::INFINITY);
        assert_eq!(next_down(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn f64_scalar_ops_match_native_arithmetic() {
        let a = 7.0f64;
        let b = 3.0f64;
        assert_eq!(Scalar::add(a, b), a + b);
        assert_eq!(Scalar::mul(a, b), a * b);
        assert_eq!(Scalar::div(a, b).to_bits(), (a / b).to_bits());
        assert_eq!(a.floor_int_div(b), 2.0);
        assert_eq!(a.ceil_int_div(b), 3.0);
        assert_eq!(a.constrain_ge(8.0), None);
        assert_eq!(a.constrain_le(8.0), Some(a));
    }
}
