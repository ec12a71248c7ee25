//! Conservative interval analysis over index expressions.
//!
//! Lowering sizes *tile footprints* with it: given the range each loop
//! variable sweeps inside a tile, the interval of each tensor index
//! expression bounds how many distinct elements the tile touches per
//! dimension. Footprints drive shared-memory sizing (features and the
//! GPU `StageIn` statements alike), cache-fit estimation, and
//! register-pressure proxies in the performance models.
//!
//! There is one evaluator. `compile_slot_expr` resolves an index
//! expression against a root op's axes once, at template-build time, into
//! a `SlotExpr` whose variables are dense slot numbers; `eval_slot`
//! then evaluates it against a flat `&[Interval]` holding one tile range
//! per axis. `crate::template` builds those slot vectors per candidate
//! (`SlotScratch::set_tile`), and its `eval_slot_bounds` lifts the same
//! arithmetic to boxes of slot vectors for region analysis.

use flextensor_ir::expr::{BinOp, Expr};
use flextensor_ir::graph::ComputeOp;

/// An inclusive integer interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (inclusive).
    pub lo: i64,
    /// Upper bound (inclusive).
    pub hi: i64,
}

impl Interval {
    /// A single point.
    pub fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]`, normalizing a reversed pair.
    pub fn new(lo: i64, hi: i64) -> Interval {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// Number of integers covered.
    pub fn len(&self) -> i64 {
        self.hi - self.lo + 1
    }

    /// Whether the interval covers exactly one point.
    pub fn is_empty(&self) -> bool {
        false // intervals are always non-empty by construction
    }

    /// Smallest interval containing both.
    pub fn hull(&self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// An index expression compiled against a root op's axes: every variable
/// is resolved at template-build time to a dense *slot* — spatial axis `i`
/// occupies slot `i`, reduce axis `j` occupies slot `ns + j` — so the hot
/// feature kernels evaluate intervals against a flat `&[Interval]`
/// without looking up axis names for every tile of every candidate.
///
/// Any variable that is not one of the root's axes, and any load used as
/// an index, is the fixed point 0 (the tile origin: outer loops do not
/// vary inside a tile); float constants truncate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SlotExpr {
    /// A constant index: `IConst`, truncated `FConst`, a variable outside
    /// the root's axes, or a load used as an index (origin convention).
    Const(i64),
    /// The tile interval of one root axis (spatial `i` → `i`, reduce `j`
    /// → `spatial_len + j`).
    Slot(usize),
    /// Binary index arithmetic, evaluated with interval semantics.
    Bin(BinOp, Box<SlotExpr>, Box<SlotExpr>),
    /// A `Select`'s interval is the hull of its arms (the condition never
    /// contributes), so only the arms survive compilation.
    Hull(Box<SlotExpr>, Box<SlotExpr>),
}

/// Compiles one index expression to slot form against `root`'s axes.
pub(crate) fn compile_slot_expr(e: &Expr, root: &ComputeOp) -> SlotExpr {
    match e {
        Expr::IConst(v) => SlotExpr::Const(*v),
        Expr::FConst(v) => SlotExpr::Const(*v as i64),
        Expr::Var(name) => {
            if let Some(i) = root.spatial.iter().position(|a| &a.name == name) {
                SlotExpr::Slot(i)
            } else if let Some(j) = root.reduce.iter().position(|a| &a.name == name) {
                SlotExpr::Slot(root.spatial.len() + j)
            } else {
                SlotExpr::Const(0)
            }
        }
        Expr::Bin(op, a, b) => SlotExpr::Bin(
            *op,
            Box::new(compile_slot_expr(a, root)),
            Box::new(compile_slot_expr(b, root)),
        ),
        Expr::Select(_, a, b) => SlotExpr::Hull(
            Box::new(compile_slot_expr(a, root)),
            Box::new(compile_slot_expr(b, root)),
        ),
        Expr::Load { .. } => SlotExpr::Const(0),
    }
}

/// Evaluates a compiled index expression over the slot intervals.
pub(crate) fn eval_slot(e: &SlotExpr, slots: &[Interval]) -> Interval {
    match e {
        SlotExpr::Const(v) => Interval::point(*v),
        SlotExpr::Slot(i) => slots[*i],
        SlotExpr::Bin(op, a, b) => {
            let x = eval_slot(a, slots);
            let y = eval_slot(b, slots);
            match op {
                BinOp::Add => Interval::new(x.lo + y.lo, x.hi + y.hi),
                BinOp::Sub => Interval::new(x.lo - y.hi, x.hi - y.lo),
                BinOp::Mul => {
                    let c = [x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi];
                    Interval::new(
                        *c.iter().min().expect("non-empty"),
                        *c.iter().max().expect("non-empty"),
                    )
                }
                BinOp::Div => {
                    if y.lo == y.hi && y.lo != 0 {
                        let d = y.lo;
                        let c = [x.lo / d, x.hi / d];
                        Interval::new(*c.iter().min().unwrap(), *c.iter().max().unwrap())
                    } else {
                        // Unknown divisor: be conservative.
                        Interval::new(-x.lo.abs().max(x.hi.abs()), x.lo.abs().max(x.hi.abs()))
                    }
                }
                BinOp::Mod => {
                    if y.lo == y.hi && y.lo > 0 {
                        let m = y.lo;
                        if x.lo >= 0 && x.hi < m {
                            x // already within [0, m)
                        } else {
                            // The result wraps, so a single interval cannot
                            // be exact. Since intervals here size tile
                            // *footprints*, bound the result's length by the
                            // argument's length: a wrap-around index (e.g. a
                            // circulant `(r - s + k) % k`) touches at most
                            // as many distinct elements as its argument has
                            // values.
                            Interval::new(0, (m - 1).min(x.len() - 1))
                        }
                    } else {
                        Interval::new(x.lo.min(0), x.hi.max(0))
                    }
                }
                BinOp::Min => Interval::new(x.lo.min(y.lo), x.hi.min(y.hi)),
                BinOp::Max => Interval::new(x.lo.max(y.lo), x.hi.max(y.hi)),
            }
        }
        SlotExpr::Hull(a, b) => eval_slot(a, slots).hull(eval_slot(b, slots)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{group_footprint_bytes, LoadGroup};
    use flextensor_ir::graph::Axis;
    use proptest::prelude::*;

    /// A root op whose spatial axes are the named variables, in order,
    /// and the slot vector binding each to its `[lo, hi]`.
    fn bind(vars: &[(&str, i64, i64)]) -> (ComputeOp, Vec<Interval>) {
        let op = ComputeOp {
            name: "t".into(),
            output: "t".into(),
            spatial: vars.iter().map(|&(n, _, _)| Axis::new(n, 1)).collect(),
            reduce: vec![],
            body: Expr::int(0),
            combiner: Default::default(),
        };
        let slots = vars
            .iter()
            .map(|&(_, lo, hi)| Interval::new(lo, hi))
            .collect();
        (op, slots)
    }

    fn eval(e: &Expr, vars: &[(&str, i64, i64)]) -> Interval {
        let (op, slots) = bind(vars);
        eval_slot(&compile_slot_expr(e, &op), &slots)
    }

    #[test]
    fn affine_conv_index() {
        // i*2 + rx where i in [0,7], rx in [0,2] -> [0, 16].
        let e = Expr::var("i") * 2 + Expr::var("rx");
        let iv = eval(&e, &[("i", 0, 7), ("rx", 0, 2)]);
        assert_eq!((iv.lo, iv.hi), (0, 16));
        assert_eq!(iv.len(), 17);
    }

    #[test]
    fn missing_vars_are_origin() {
        let e = Expr::var("outer") * 100 + Expr::var("inner");
        let iv = eval(&e, &[("inner", 0, 3)]);
        assert_eq!((iv.lo, iv.hi), (0, 3));
    }

    #[test]
    fn sub_flips_bounds() {
        let e = Expr::int(10) - Expr::var("i");
        let iv = eval(&e, &[("i", 0, 4)]);
        assert_eq!((iv.lo, iv.hi), (6, 10));
    }

    #[test]
    fn mod_with_constant_divisor() {
        let e = Expr::var("i").rem(Expr::int(8));
        let iv = eval(&e, &[("i", 0, 100)]);
        assert_eq!((iv.lo, iv.hi), (0, 7));
        // Tight when the argument already fits.
        let iv2 = eval(&e, &[("i", 2, 5)]);
        assert_eq!((iv2.lo, iv2.hi), (2, 5));
    }

    #[test]
    fn div_by_constant() {
        let e = Expr::var("i") / 4;
        let iv = eval(&e, &[("i", 0, 15)]);
        assert_eq!((iv.lo, iv.hi), (0, 3));
    }

    #[test]
    fn select_takes_hull() {
        let e = Expr::select(
            Expr::var("i").lt(Expr::int(2)),
            Expr::var("i"),
            Expr::int(0),
        );
        let iv = eval(&e, &[("i", 0, 9)]);
        assert_eq!((iv.lo, iv.hi), (0, 9));
    }

    #[test]
    fn footprint_is_product_of_dims() {
        // A[i, j*1 + rx] with i in [0,3], j in [0,7], rx in [0,2]:
        // 4 * 10 elements of 4 bytes.
        let (op, slots) = bind(&[("i", 0, 3), ("j", 0, 7), ("rx", 0, 2)]);
        let site = [Expr::var("i"), Expr::var("j") + Expr::var("rx")];
        let group = LoadGroup {
            tensor: "A".into(),
            sites: vec![site.iter().map(|e| compile_slot_expr(e, &op)).collect()],
            total_bytes: None,
        };
        assert_eq!(group_footprint_bytes(&group, &slots), 4 * 10 * 4);
    }

    #[test]
    fn mul_handles_negatives() {
        let e = Expr::var("i") * -3;
        let iv = eval(&e, &[("i", 0, 4)]);
        assert_eq!((iv.lo, iv.hi), (-12, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Interval analysis soundly bounds concrete evaluations of affine
        /// conv-style index expressions.
        #[test]
        fn interval_analysis_is_sound_for_affine_indices(
            stride in 1i64..4,
            dil in 1i64..3,
            hi_i in 0i64..8,
            hi_r in 0i64..4,
            offset in -3i64..4,
        ) {
            let e = Expr::var("i") * stride + Expr::var("r") * dil + offset;
            let iv = eval(&e, &[("i", 0, hi_i), ("r", 0, hi_r)]);
            for i in 0..=hi_i {
                for r in 0..=hi_r {
                    let v = i * stride + r * dil + offset;
                    prop_assert!(iv.lo <= v && v <= iv.hi, "{v} outside [{}, {}]", iv.lo, iv.hi);
                }
            }
        }
    }
}
