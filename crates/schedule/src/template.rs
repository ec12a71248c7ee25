//! Split-phase lowering: the config-independent half of
//! [`crate::lower::lower`], computed once per (graph, target) and reused
//! across every candidate.
//!
//! Full lowering does two kinds of work per schedule point:
//!
//! 1. **Config-independent**: inlining data-movement producers into the
//!    root body (a fixpoint of expression cloning and substitution),
//!    collecting the body's load sites, and deriving graph constants
//!    (FLOPs, input bytes, producer sizes). None of this depends on the
//!    candidate being evaluated — only on the graph and, binarily, on the
//!    `inline_data` flag.
//! 2. **Config-dependent**: split-factor products, interval footprints of
//!    the cached load sites, and — only when the loop nest itself is
//!    needed — the statement tree with all its substitutions.
//!
//! Exploration evaluates thousands of candidates per trial and only ever
//! consumes [`KernelFeatures`] (the cost models never look at the nest).
//! [`LoweredTemplate`] therefore precomputes phase 1 for *both*
//! `inline_data` variants and exposes [`LoweredTemplate::features`], a
//! cheap apply step that never clones or re-walks the expression tree.
//! [`crate::lower::lower`] is built on the same `compute_features` helper,
//! so the two paths agree bit-for-bit by construction (see
//! `tests/fastpath.rs` for the differential check).

use flextensor_ir::expr::{BinOp, Expr};
use flextensor_ir::graph::{ComputeOp, Graph};

use crate::config::{NodeConfig, TargetKind};
use crate::features::{FpgaFeatures, KernelFeatures};
use crate::interval::{compile_slot_expr, eval_slot, Interval, SlotExpr};
use crate::lower::LowerError;

/// Returns the data-movement producer chain of the root op: compute nodes
/// with no reduce axes whose outputs the root (transitively) reads.
pub(crate) fn data_producers<'g>(graph: &'g Graph, root: &ComputeOp) -> Vec<&'g ComputeOp> {
    let mut out: Vec<&ComputeOp> = Vec::new();
    let mut frontier = root.input_tensors();
    while let Some(t) = frontier.pop() {
        if let Some(p) = graph
            .compute_ops()
            .find(|c| c.output == t && c.reduce.is_empty() && c.name != root.name)
        {
            if !out.iter().any(|o| o.name == p.name) {
                out.push(p);
                frontier.extend(p.input_tensors());
            }
        }
    }
    // Topological order (producers of producers first).
    out.reverse();
    out
}

/// Substitutes loads of producer tensors with the producer's body, with the
/// producer's spatial variables replaced by the load's index expressions.
/// Applied to fixpoint so chains (dilate → pad → conv) inline fully.
pub(crate) fn inline_producers(graph: &Graph, root: &ComputeOp, body: &Expr) -> Expr {
    fn rewrite(graph: &Graph, root_name: &str, e: &Expr) -> (Expr, bool) {
        match e {
            Expr::Load { tensor, indices } => {
                // First rewrite inside the indices themselves.
                let mut changed = false;
                let new_indices: Vec<Expr> = indices
                    .iter()
                    .map(|ix| {
                        let (r, c) = rewrite(graph, root_name, ix);
                        changed |= c;
                        r
                    })
                    .collect();
                if let Some(p) = graph
                    .compute_ops()
                    .find(|c| &c.output == tensor && c.reduce.is_empty() && c.name != root_name)
                {
                    // Rename producer vars to fresh temporaries, then
                    // substitute the temporaries with the index expressions
                    // (avoids capture when index exprs mention names that
                    // collide with producer axis names).
                    let mut b = p.body.clone();
                    let temps: Vec<String> = (0..p.spatial.len())
                        .map(|i| format!("__inl_{}_{i}", p.name))
                        .collect();
                    for (axis, tmp) in p.spatial.iter().zip(&temps) {
                        b = b.substitute(&axis.name, &Expr::Var(tmp.clone()));
                    }
                    for (tmp, ix) in temps.iter().zip(&new_indices) {
                        b = b.substitute(tmp, ix);
                    }
                    (b, true)
                } else {
                    (
                        Expr::Load {
                            tensor: tensor.clone(),
                            indices: new_indices,
                        },
                        changed,
                    )
                }
            }
            Expr::Bin(op, a, bx) => {
                let (ra, ca) = rewrite(graph, root_name, a);
                let (rb, cb) = rewrite(graph, root_name, bx);
                (Expr::Bin(*op, Box::new(ra), Box::new(rb)), ca || cb)
            }
            Expr::Select(c, a, bx) => {
                let (ra, ca) = rewrite(graph, root_name, a);
                let (rb, cb) = rewrite(graph, root_name, bx);
                // Conditions only contain index arithmetic; no loads there.
                (
                    Expr::Select(c.clone(), Box::new(ra), Box::new(rb)),
                    ca || cb,
                )
            }
            _ => (e.clone(), false),
        }
    }
    let mut cur = body.clone();
    for _ in 0..8 {
        let (next, changed) = rewrite(graph, &root.name, &cur);
        cur = next;
        if !changed {
            break;
        }
    }
    cur
}

/// All load sites of one tensor in the (possibly inlined) root body,
/// with their index expressions compiled to slot form against the root's
/// axes — the representation the per-candidate feature kernels consume —
/// together with the tensor's whole-graph byte size when declared.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoadGroup {
    /// Tensor name.
    pub tensor: String,
    /// Compiled index expressions of every load site of this tensor.
    pub sites: Vec<Vec<SlotExpr>>,
    /// Total bytes of the declared tensor (`None` when the graph has no
    /// declaration, e.g. a fully inlined intermediate).
    pub total_bytes: Option<i64>,
}

/// Collects the distinct loads of a body, keyed by tensor name in
/// first-occurrence order, compiles their index expressions against
/// `root`'s axis slots, and resolves each tensor's declared byte size
/// from the graph.
pub(crate) fn load_groups(graph: &Graph, root: &ComputeOp, body: &Expr) -> Vec<LoadGroup> {
    let mut groups: Vec<(String, Vec<Vec<Expr>>)> = Vec::new();
    fn walk(e: &Expr, groups: &mut Vec<(String, Vec<Vec<Expr>>)>) {
        match e {
            Expr::Load { tensor, indices } => {
                for ix in indices {
                    walk(ix, groups);
                }
                match groups.iter_mut().find(|(t, _)| t == tensor) {
                    Some((_, v)) => v.push(indices.clone()),
                    None => groups.push((tensor.clone(), vec![indices.clone()])),
                }
            }
            Expr::Bin(_, a, b) => {
                walk(a, groups);
                walk(b, groups);
            }
            Expr::Select(_, a, b) => {
                walk(a, groups);
                walk(b, groups);
            }
            _ => {}
        }
    }
    walk(body, &mut groups);
    groups
        .into_iter()
        .map(|(tensor, sites)| LoadGroup {
            total_bytes: graph.tensor(&tensor).map(|t| t.bytes()),
            sites: sites
                .iter()
                .map(|ix| ix.iter().map(|e| compile_slot_expr(e, root)).collect())
                .collect(),
            tensor,
        })
        .collect()
}

/// Arena-style scratch for tile-interval environments in slot form: one
/// flat `Vec<Interval>` (spatial axes first, then reduce axes) overwritten
/// in place for each environment variant, instead of a fresh map
/// allocation for every one of the four-plus environments a candidate
/// needs. [`compute_features`] reuses a single scratch across its
/// environments, and the delta evaluator (`crate::delta`) carries one
/// across candidates.
#[derive(Debug, Default)]
pub(crate) struct SlotScratch {
    slots: Vec<Interval>,
}

impl SlotScratch {
    /// An empty scratch; the slot vector is sized on first use.
    pub(crate) fn new() -> SlotScratch {
        SlotScratch::default()
    }

    /// Overwrites the scratch with the tile intervals of `cfg` at the
    /// given levels and returns the slot slice: each axis varies over
    /// `[0, tile - 1]`, where `tile` is the product of its factors at
    /// those levels (e.g. spatial levels {1,2,3} give a per-block tile).
    pub(crate) fn set_tile(
        &mut self,
        root: &ComputeOp,
        cfg: &NodeConfig,
        spatial_levels: &[usize],
        reduce_levels: &[usize],
    ) -> &[Interval] {
        self.slots.clear();
        for i in 0..root.spatial.len() {
            let tile: i64 = spatial_levels
                .iter()
                .map(|&l| cfg.spatial_splits[i][l])
                .product();
            self.slots.push(Interval::new(0, tile - 1));
        }
        for i in 0..root.reduce.len() {
            let tile: i64 = reduce_levels
                .iter()
                .map(|&l| cfg.reduce_splits[i][l])
                .product();
            self.slots.push(Interval::new(0, tile - 1));
        }
        &self.slots
    }
}

/// Footprint (bytes) of one tensor's loads under the slot intervals: the
/// largest per-site product of index interval lengths, 4 bytes per
/// element. Shared by the feature kernels and the GPU `StageIn`
/// statements of [`crate::lower::lower`].
#[inline]
pub(crate) fn group_footprint_bytes(g: &LoadGroup, slots: &[Interval]) -> i64 {
    g.sites
        .iter()
        .map(|ix| {
            ix.iter()
                .map(|e| eval_slot(e, slots).len())
                .product::<i64>()
        })
        .max()
        .unwrap_or(0)
        * 4
}

/// Sum over tensors of [`group_footprint_bytes`].
pub(crate) fn loads_footprint_bytes(groups: &[LoadGroup], slots: &[Interval]) -> i64 {
    let mut total = 0i64;
    for g in groups {
        total += group_footprint_bytes(g, slots);
    }
    total
}

/// Config-independent graph constants shared by every candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FeatureConsts {
    /// FLOPs of the root (anchor) compute node.
    pub root_flops: u64,
    /// Summed FLOPs of the fused epilogue chain.
    pub epilogue_flops: u64,
    /// Output elements of the root node.
    pub output_elements: i64,
    /// Reduce-domain iterations per output element.
    pub reduce_size: i64,
    /// Total bytes of all graph input tensors.
    pub input_bytes_total: i64,
    /// Extra DRAM bytes when data-movement producers are materialized
    /// (write + read back of every intermediate).
    pub materialized_data_bytes: i64,
}

impl FeatureConsts {
    /// The constants of `graph` scheduled at its anchor op `root`.
    pub(crate) fn new(graph: &Graph, root: &ComputeOp) -> FeatureConsts {
        FeatureConsts {
            root_flops: root.flops(),
            epilogue_flops: graph.epilogue_chain().iter().map(|e| e.flops()).sum(),
            output_elements: root.spatial_size(),
            reduce_size: root.reduce_size(),
            input_bytes_total: graph.inputs().map(|t| t.bytes()).sum(),
            materialized_data_bytes: data_producers(graph, root)
                .iter()
                .map(|p| 2 * (p.spatial_size() * 4)) // write once + read back
                .sum(),
        }
    }
}

// Per-feature kernels. Each computes exactly one config-dependent feature
// (or one tightly coupled group) from the candidate config and the cached
// load groups. `compute_features` composes all of them; the delta
// evaluator (`crate::delta`) calls only the ones whose inputs changed.
// Because both paths run the *same* helper for a given feature, delta
// results are bit-identical to a full recompute by construction.

/// Shared-memory bytes staged per block: footprint over spatial levels
/// {1,2,3} and reduce levels {1,2}.
pub(crate) fn feat_shared_bytes_per_block(
    root: &ComputeOp,
    cfg: &NodeConfig,
    groups: &[LoadGroup],
    scratch: &mut SlotScratch,
) -> i64 {
    loads_footprint_bytes(groups, scratch.set_tile(root, cfg, &[1, 2, 3], &[1, 2]))
}

/// Register bytes per thread: accumulators plus the operands of one reduce
/// iteration (two when unrolling interleaves iterations) — not the whole
/// staged tile, which lives in shared memory / cache.
pub(crate) fn feat_thread_reg_bytes(
    root: &ComputeOp,
    cfg: &NodeConfig,
    groups: &[LoadGroup],
    scratch: &mut SlotScratch,
) -> i64 {
    let thread_input_bytes = loads_footprint_bytes(groups, scratch.set_tile(root, cfg, &[3], &[]));
    cfg.spatial_level_product(3) * cfg.spatial_level_product(1) * 4
        + thread_input_bytes * if cfg.unroll { 2 } else { 1 }
}

/// L1-resident tile bytes: footprint over spatial level 3 / reduce level 2
/// plus the per-thread output tile.
pub(crate) fn feat_l1_tile_bytes(
    root: &ComputeOp,
    cfg: &NodeConfig,
    groups: &[LoadGroup],
    scratch: &mut SlotScratch,
) -> i64 {
    loads_footprint_bytes(groups, scratch.set_tile(root, cfg, &[3], &[2]))
        + cfg.spatial_level_product(3) * 4
}

/// L2-resident tile bytes: footprint over spatial levels {2,3} / reduce
/// levels {1,2} plus the per-core output tile.
pub(crate) fn feat_l2_tile_bytes(
    root: &ComputeOp,
    cfg: &NodeConfig,
    groups: &[LoadGroup],
    scratch: &mut SlotScratch,
) -> i64 {
    loads_footprint_bytes(groups, scratch.set_tile(root, cfg, &[2, 3], &[1, 2]))
        + cfg.spatial_level_product(2) * cfg.spatial_level_product(3) * 4
}

/// Iterations of the fused parallel loop: level-0 factors of the first
/// `fuse_outer` axes in reorder order.
pub(crate) fn feat_parallel_chunks(cfg: &NodeConfig) -> i64 {
    cfg.reorder
        .iter()
        .take(cfg.fuse_outer)
        .map(|&ax| cfg.spatial_splits[ax][0])
        .product()
}

/// Innermost-contiguity: the fastest-varying spatial sub-loop belongs to
/// the reorder-last axis; it is contiguous iff that axis is the last
/// output dimension.
pub(crate) fn feat_contiguous_inner(root: &ComputeOp, cfg: &NodeConfig) -> bool {
    cfg.reorder
        .last()
        .is_some_and(|&ax| ax == root.spatial.len() - 1)
}

/// Vector width of the innermost sub-loop (1 when vectorization is off).
pub(crate) fn feat_vector_len(cfg: &NodeConfig) -> i64 {
    if cfg.vectorize {
        cfg.reorder
            .last()
            .map(|&ax| cfg.spatial_splits[ax][3])
            .unwrap_or(1)
    } else {
        1
    }
}

/// DDR refetch bound of the FPGA stream model: a tensor is fetched from
/// DDR at most this many times over the whole run (on-chip reuse across
/// rounds, e.g. weights stay resident while spatial rounds advance).
/// Shared by [`feat_fpga`] and the region-bounds path so the two cannot
/// drift.
pub(crate) const DDR_REFETCH_CAP: f64 = 8.0;

/// The full FPGA feature block: PE array size, sequential rounds, BRAM
/// buffer and DDR stream bytes under the per-round tile environment.
pub(crate) fn feat_fpga(
    root: &ComputeOp,
    cfg: &NodeConfig,
    groups: &[LoadGroup],
    scratch: &mut SlotScratch,
) -> FpgaFeatures {
    // PE array: levels 2 and 3 are spatial hardware parallelism;
    // levels 0 and 1 are sequential rounds.
    let pe: i64 = cfg.spatial_level_product(2) * cfg.spatial_level_product(3);
    let rounds: i64 = cfg.spatial_level_product(0) * cfg.spatial_level_product(1);
    let round_slots = scratch.set_tile(root, cfg, &[2, 3], &[0, 1, 2]);
    // BRAM must hold the full per-round tile; DDR streaming is
    // cheaper (see DDR_REFETCH_CAP).
    let mut buffer_bytes = 0i64;
    let mut stream_bytes = 0i64;
    for g in groups {
        let fp = group_footprint_bytes(g, round_slots);
        buffer_bytes += fp;
        let total = g.total_bytes.unwrap_or(fp);
        let amortized =
            ((total as f64 * DDR_REFETCH_CAP / rounds.max(1) as f64).ceil() as i64).max(1);
        stream_bytes += fp.min(amortized);
    }
    let write_bytes = pe * 4;
    FpgaFeatures {
        pe,
        rounds,
        buffer_bytes,
        stream_bytes,
        write_bytes,
        partition: cfg.fpga_partition,
        pipeline: cfg.fpga_pipeline,
    }
}

/// Computes [`KernelFeatures`] for a validated config from precomputed
/// load groups and graph constants. This is the single source of truth for
/// feature computation: [`crate::lower::lower`],
/// [`LoweredTemplate::features`], and the delta evaluator's full-recompute
/// fallback all call it (and the delta fast path calls the same `feat_*`
/// kernels it is composed of), so no path can drift from another.
pub(crate) fn compute_features(
    root: &ComputeOp,
    cfg: &NodeConfig,
    target: TargetKind,
    groups: &[LoadGroup],
    consts: &FeatureConsts,
) -> KernelFeatures {
    // One scratch slot vector serves every tile env below (arena reuse).
    let mut scratch = SlotScratch::new();

    let shared_bytes_per_block = feat_shared_bytes_per_block(root, cfg, groups, &mut scratch);
    let thread_reg_bytes = feat_thread_reg_bytes(root, cfg, groups, &mut scratch);
    let l1_tile_bytes = feat_l1_tile_bytes(root, cfg, groups, &mut scratch);
    let l2_tile_bytes = feat_l2_tile_bytes(root, cfg, groups, &mut scratch);

    let data_node_bytes: i64 = if cfg.inline_data {
        0
    } else {
        consts.materialized_data_bytes
    };

    let mut features = KernelFeatures {
        target,
        flops: consts.root_flops,
        output_elements: consts.output_elements,
        output_bytes: consts.output_elements * 4,
        input_bytes_total: consts.input_bytes_total,
        body_loads: groups.len(),
        reduce_size: consts.reduce_size,
        grid: cfg.spatial_level_product(0),
        parallel_chunks: feat_parallel_chunks(cfg),
        vthreads: cfg.spatial_level_product(1),
        block_threads: cfg.spatial_level_product(2),
        thread_tile: cfg.spatial_level_product(3),
        reduce_outer: cfg.reduce_level_product(0),
        reduce_mid: cfg.reduce_level_product(1),
        reduce_inner: cfg.reduce_level_product(2),
        unroll: cfg.unroll,
        vector_len: feat_vector_len(cfg),
        contiguous_inner: feat_contiguous_inner(root, cfg),
        cache_shared: cfg.cache_shared,
        shared_bytes_per_block,
        thread_reg_bytes,
        l1_tile_bytes,
        l2_tile_bytes,
        inline_data: cfg.inline_data,
        data_node_bytes,
        fpga: None,
    };

    if target == TargetKind::Fpga {
        features.fpga = Some(feat_fpga(root, cfg, groups, &mut scratch));
    }

    // Fused epilogue consumers (bias, activation) add FLOPs but no extra
    // DRAM round trip — same accounting as full lowering.
    features.flops += consts.epilogue_flops;
    features
}

// ---------------------------------------------------------------------
// Region bounds: abstract transfer functions of the feature kernels over
// a *box* of configs (per-(axis,level) factor ranges with all discrete
// coordinates fixed). Every member config's tile slots satisfy
// `lo_slot ⊆ member_slot ⊆ hi_slot`, and the evaluator below propagates
// that nesting through the index arithmetic, so the resulting feature
// bounds enclose every member's concrete features.
// ---------------------------------------------------------------------

/// Inner/outer interval bounds of one compiled index expression over a box
/// of slot environments.
///
/// Invariant: for every member slot assignment with
/// `lo[i] ⊆ member[i] ⊆ hi[i]`, the member's [`eval_slot`] result `r`
/// satisfies `inner ⊆ r ⊆ outer` (when `inner` is `Some`; `None` means no
/// inner bound could be maintained, and callers fall back to the trivial
/// "every interval is non-empty" length bound of 1).
///
/// `Add`/`Sub`/`Mul`/`Min`/`Max`/`Hull` are inclusion-monotone, so nesting
/// propagates directly. `Div` and `Mod` in [`eval_slot`] branch on the
/// divisor being a known point, which members inside the box may or may
/// not satisfy; those arms widen the outer bound to cover every branch a
/// member could take and drop the inner bound unless every member
/// provably takes the same branch.
pub(crate) fn eval_slot_bounds(
    e: &SlotExpr,
    lo: &[Interval],
    hi: &[Interval],
) -> (Option<Interval>, Interval) {
    match e {
        SlotExpr::Const(v) => (Some(Interval::point(*v)), Interval::point(*v)),
        SlotExpr::Slot(i) => (Some(lo[*i]), hi[*i]),
        SlotExpr::Bin(op, a, b) => {
            let (xin, xout) = eval_slot_bounds(a, lo, hi);
            let (yin, yout) = eval_slot_bounds(b, lo, hi);
            let lift = |f: fn(Interval, Interval) -> Interval| {
                (
                    match (xin, yin) {
                        (Some(x), Some(y)) => Some(f(x, y)),
                        _ => None,
                    },
                    f(xout, yout),
                )
            };
            // Arithmetic here saturates: huge region boxes (factor ranges up
            // to the full axis extent on every level) can push products past
            // i64. Saturation equals exact arithmetic whenever the exact
            // value fits — every valid member's does — and otherwise only
            // loosens the *outer* bound, which stays a sound enclosure.
            match op {
                BinOp::Add => {
                    lift(|x, y| Interval::new(x.lo.saturating_add(y.lo), x.hi.saturating_add(y.hi)))
                }
                BinOp::Sub => {
                    lift(|x, y| Interval::new(x.lo.saturating_sub(y.hi), x.hi.saturating_sub(y.lo)))
                }
                BinOp::Mul => lift(|x, y| {
                    let c = [
                        x.lo.saturating_mul(y.lo),
                        x.lo.saturating_mul(y.hi),
                        x.hi.saturating_mul(y.lo),
                        x.hi.saturating_mul(y.hi),
                    ];
                    Interval::new(
                        *c.iter().min().expect("non-empty"),
                        *c.iter().max().expect("non-empty"),
                    )
                }),
                BinOp::Min => lift(|x, y| Interval::new(x.lo.min(y.lo), x.hi.min(y.hi))),
                BinOp::Max => lift(|x, y| Interval::new(x.lo.max(y.lo), x.hi.max(y.hi))),
                BinOp::Div => {
                    if yout.lo == yout.hi && yout.lo != 0 {
                        // Every member divisor is this exact point, so every
                        // member takes eval_slot's point-divisor arm, which
                        // is inclusion-monotone in the numerator.
                        let d = yout.lo;
                        let div_pt = |x: Interval| {
                            let c = [x.lo.saturating_div(d), x.hi.saturating_div(d)];
                            Interval::new(*c.iter().min().unwrap(), *c.iter().max().unwrap())
                        };
                        (xin.map(div_pt), div_pt(xout))
                    } else {
                        // Members may take either arm. Both arms' results
                        // have magnitude at most max(|x.lo|, |x.hi|) of the
                        // member numerator, which xout's magnitude bounds.
                        let m = xout.lo.saturating_abs().max(xout.hi.saturating_abs());
                        (None, Interval::new(m.saturating_neg(), m))
                    }
                }
                BinOp::Mod => {
                    if yout.lo == yout.hi && yout.lo > 0 {
                        let md = yout.lo;
                        if xout.lo >= 0 && xout.hi < md {
                            // Every member numerator already lies in
                            // [0, md): eval_slot passes it through.
                            (xin, xout)
                        } else {
                            // Members either pass through (⊆ xout) or clamp
                            // to [0, min(md-1, len-1)] ⊆ [0, md-1].
                            (None, Interval::new(xout.lo.min(0), xout.hi.max(md - 1)))
                        }
                    } else {
                        // Member divisors may be points (pass-through or
                        // clamp to [0, md-1] with md ≤ yout.hi) or wide
                        // (eval_slot's zero-anchored fallback ⊆
                        // [min(x.lo,0), max(x.hi,0)]).
                        (
                            None,
                            Interval::new(
                                xout.lo.min(0),
                                xout.hi.max(yout.hi.saturating_sub(1)).max(0),
                            ),
                        )
                    }
                }
            }
        }
        SlotExpr::Hull(a, b) => {
            let (xin, xout) = eval_slot_bounds(a, lo, hi);
            let (yin, yout) = eval_slot_bounds(b, lo, hi);
            (
                match (xin, yin) {
                    (Some(x), Some(y)) => Some(x.hull(y)),
                    _ => None,
                },
                xout.hull(yout),
            )
        }
    }
}

/// Bounds on one tensor's load footprint in bytes over a slot box: the
/// `(lower, upper)` pair encloses [`loads_footprint_bytes`]' per-group
/// contribution for every member slot assignment. When an index lacks an
/// inner bound, its length contributes the trivial lower bound 1.
pub(crate) fn group_footprint_bounds(
    g: &LoadGroup,
    lo: &[Interval],
    hi: &[Interval],
) -> (i64, i64) {
    // Saturating length/products: outer intervals of a huge region box can
    // exceed i64; saturation only raises the upper bound (sound) and is
    // exact whenever the true footprint fits.
    let sat_len = |iv: Interval| iv.hi.saturating_sub(iv.lo).saturating_add(1);
    let (fp_lo, fp_hi) = g
        .sites
        .iter()
        .map(|ix| {
            ix.iter().fold((1i64, 1i64), |(pl, ph), e| {
                let (inner, outer) = eval_slot_bounds(e, lo, hi);
                (
                    pl.saturating_mul(inner.map_or(1, sat_len)),
                    ph.saturating_mul(sat_len(outer)),
                )
            })
        })
        .fold((0i64, 0i64), |(ml, mh), (pl, ph)| (ml.max(pl), mh.max(ph)));
    (fp_lo.saturating_mul(4), fp_hi.saturating_mul(4))
}

/// Bounds on the summed load footprint ([`loads_footprint_bytes`]) over a
/// slot box: sums the per-group bounds.
pub(crate) fn loads_footprint_bounds(
    groups: &[LoadGroup],
    lo: &[Interval],
    hi: &[Interval],
) -> (i64, i64) {
    groups.iter().fold((0i64, 0i64), |(tl, th), g| {
        let (gl, gh) = group_footprint_bounds(g, lo, hi);
        (tl.saturating_add(gl), th.saturating_add(gh))
    })
}

/// Computes per-field bounds on [`compute_features`] over a box of
/// configs: `lo_cfg` carries every split factor at its range minimum,
/// `hi_cfg` at its range maximum, and both agree on every discrete
/// coordinate (reorder, fuse, flags, FPGA partition/pipeline). Returns
/// `(lo, hi)` feature rows such that every member config's features lie
/// componentwise between them.
///
/// Product-of-factor features (grid, threads, tiles, reduce levels,
/// vector length, PE/rounds) are monotone in each factor, so their bounds
/// are the corner values. Footprint features go through
/// [`eval_slot_bounds`], and the FPGA stream term — `min` of a footprint
/// and a rounds-antitone amortization — pairs the footprint corner with
/// the *opposite* rounds corner.
pub(crate) fn compute_feature_bounds(
    root: &ComputeOp,
    lo_cfg: &NodeConfig,
    hi_cfg: &NodeConfig,
    target: TargetKind,
    groups: &[LoadGroup],
    consts: &FeatureConsts,
) -> (KernelFeatures, KernelFeatures) {
    debug_assert_eq!(lo_cfg.reorder, hi_cfg.reorder);
    debug_assert_eq!(lo_cfg.fuse_outer, hi_cfg.fuse_outer);
    debug_assert_eq!(lo_cfg.unroll, hi_cfg.unroll);
    debug_assert_eq!(lo_cfg.vectorize, hi_cfg.vectorize);
    debug_assert_eq!(lo_cfg.cache_shared, hi_cfg.cache_shared);
    debug_assert_eq!(lo_cfg.inline_data, hi_cfg.inline_data);

    // Saturating level products: a root-region corner can carry the full
    // axis extent on every level, whose product across axes may exceed
    // i64. Saturation matches `NodeConfig::spatial_level_product` exactly
    // whenever the product fits (every valid member's does) and otherwise
    // only inflates the hi corner — a sound, looser upper bound.
    let sp = |cfg: &NodeConfig, k: usize| -> i64 {
        cfg.spatial_splits
            .iter()
            .fold(1i64, |p, f| p.saturating_mul(f[k]))
    };
    let rp = |cfg: &NodeConfig, k: usize| -> i64 {
        cfg.reduce_splits
            .iter()
            .fold(1i64, |p, f| p.saturating_mul(f[k]))
    };
    let chunks = |cfg: &NodeConfig| -> i64 {
        cfg.reorder
            .iter()
            .take(cfg.fuse_outer)
            .fold(1i64, |p, &ax| p.saturating_mul(cfg.spatial_splits[ax][0]))
    };

    let mut s_lo = SlotScratch::new();
    let mut s_hi = SlotScratch::new();

    let (shared_lo, shared_hi) = loads_footprint_bounds(
        groups,
        s_lo.set_tile(root, lo_cfg, &[1, 2, 3], &[1, 2]),
        s_hi.set_tile(root, hi_cfg, &[1, 2, 3], &[1, 2]),
    );
    let (ti_lo, ti_hi) = loads_footprint_bounds(
        groups,
        s_lo.set_tile(root, lo_cfg, &[3], &[]),
        s_hi.set_tile(root, hi_cfg, &[3], &[]),
    );
    let unroll_mult = if lo_cfg.unroll { 2 } else { 1 };
    let treg_lo = sp(lo_cfg, 3)
        .saturating_mul(sp(lo_cfg, 1))
        .saturating_mul(4)
        .saturating_add(ti_lo.saturating_mul(unroll_mult));
    let treg_hi = sp(hi_cfg, 3)
        .saturating_mul(sp(hi_cfg, 1))
        .saturating_mul(4)
        .saturating_add(ti_hi.saturating_mul(unroll_mult));
    let (l1f_lo, l1f_hi) = loads_footprint_bounds(
        groups,
        s_lo.set_tile(root, lo_cfg, &[3], &[2]),
        s_hi.set_tile(root, hi_cfg, &[3], &[2]),
    );
    let l1_lo = l1f_lo.saturating_add(sp(lo_cfg, 3).saturating_mul(4));
    let l1_hi = l1f_hi.saturating_add(sp(hi_cfg, 3).saturating_mul(4));
    let (l2f_lo, l2f_hi) = loads_footprint_bounds(
        groups,
        s_lo.set_tile(root, lo_cfg, &[2, 3], &[1, 2]),
        s_hi.set_tile(root, hi_cfg, &[2, 3], &[1, 2]),
    );
    let l2_lo = l2f_lo.saturating_add(
        sp(lo_cfg, 2)
            .saturating_mul(sp(lo_cfg, 3))
            .saturating_mul(4),
    );
    let l2_hi = l2f_hi.saturating_add(
        sp(hi_cfg, 2)
            .saturating_mul(sp(hi_cfg, 3))
            .saturating_mul(4),
    );

    let data_node_bytes: i64 = if lo_cfg.inline_data {
        0
    } else {
        consts.materialized_data_bytes
    };
    let flops = consts.root_flops + consts.epilogue_flops;

    let corner = |cfg: &NodeConfig, shared: i64, treg: i64, l1: i64, l2: i64| KernelFeatures {
        target,
        flops,
        output_elements: consts.output_elements,
        output_bytes: consts.output_elements * 4,
        input_bytes_total: consts.input_bytes_total,
        body_loads: groups.len(),
        reduce_size: consts.reduce_size,
        grid: sp(cfg, 0),
        parallel_chunks: chunks(cfg),
        vthreads: sp(cfg, 1),
        block_threads: sp(cfg, 2),
        thread_tile: sp(cfg, 3),
        reduce_outer: rp(cfg, 0),
        reduce_mid: rp(cfg, 1),
        reduce_inner: rp(cfg, 2),
        unroll: cfg.unroll,
        vector_len: feat_vector_len(cfg),
        contiguous_inner: feat_contiguous_inner(root, cfg),
        cache_shared: cfg.cache_shared,
        shared_bytes_per_block: shared,
        thread_reg_bytes: treg,
        l1_tile_bytes: l1,
        l2_tile_bytes: l2,
        inline_data: cfg.inline_data,
        data_node_bytes,
        fpga: None,
    };
    let mut f_lo = corner(lo_cfg, shared_lo, treg_lo, l1_lo, l2_lo);
    let mut f_hi = corner(hi_cfg, shared_hi, treg_hi, l1_hi, l2_hi);

    if target == TargetKind::Fpga {
        let pe_lo = sp(lo_cfg, 2).saturating_mul(sp(lo_cfg, 3));
        let pe_hi = sp(hi_cfg, 2).saturating_mul(sp(hi_cfg, 3));
        let rounds_lo = sp(lo_cfg, 0).saturating_mul(sp(lo_cfg, 1));
        let rounds_hi = sp(hi_cfg, 0).saturating_mul(sp(hi_cfg, 1));
        let rs_lo = s_lo.set_tile(root, lo_cfg, &[2, 3], &[0, 1, 2]);
        let rs_hi = s_hi.set_tile(root, hi_cfg, &[2, 3], &[0, 1, 2]);
        let amortized = |total: i64, rounds: i64| {
            ((total as f64 * DDR_REFETCH_CAP / rounds.max(1) as f64).ceil() as i64).max(1)
        };
        let (mut buffer_lo, mut buffer_hi) = (0i64, 0i64);
        let (mut stream_lo, mut stream_hi) = (0i64, 0i64);
        for g in groups {
            let (fp_lo, fp_hi) = group_footprint_bounds(g, rs_lo, rs_hi);
            buffer_lo = buffer_lo.saturating_add(fp_lo);
            buffer_hi = buffer_hi.saturating_add(fp_hi);
            let (total_lo, total_hi) = match g.total_bytes {
                Some(t) => (t, t),
                None => (fp_lo, fp_hi),
            };
            // The amortized term grows with the tensor total and shrinks
            // as rounds grow, so each stream corner pairs its footprint
            // corner with the opposite rounds corner.
            stream_lo = stream_lo.saturating_add(fp_lo.min(amortized(total_lo, rounds_hi)));
            stream_hi = stream_hi.saturating_add(fp_hi.min(amortized(total_hi, rounds_lo)));
        }
        f_lo.fpga = Some(FpgaFeatures {
            pe: pe_lo,
            rounds: rounds_lo,
            buffer_bytes: buffer_lo,
            stream_bytes: stream_lo,
            write_bytes: pe_lo.saturating_mul(4),
            partition: lo_cfg.fpga_partition,
            pipeline: lo_cfg.fpga_pipeline,
        });
        f_hi.fpga = Some(FpgaFeatures {
            pe: pe_hi,
            rounds: rounds_hi,
            buffer_bytes: buffer_hi,
            stream_bytes: stream_hi,
            write_bytes: pe_hi.saturating_mul(4),
            partition: hi_cfg.fpga_partition,
            pipeline: hi_cfg.fpga_pipeline,
        });
    }

    (f_lo, f_hi)
}

/// The config-independent half of lowering for one (graph, target) pair.
///
/// Build it once per search (the evaluation pool does this for its
/// workers) and call [`LoweredTemplate::features`] per candidate: the
/// apply step validates the config and derives [`KernelFeatures`] from the
/// cached load groups without cloning or re-walking any expression tree.
/// Both `inline_data` variants of the body are precomputed, so every point
/// of the schedule space is covered.
///
/// # Examples
///
/// ```
/// use flextensor_ir::ops;
/// use flextensor_schedule::config::{NodeConfig, TargetKind};
/// use flextensor_schedule::lower::lower;
/// use flextensor_schedule::template::LoweredTemplate;
///
/// let g = ops::gemm(64, 32, 16);
/// let tpl = LoweredTemplate::new(&g, TargetKind::Gpu);
/// let cfg = NodeConfig::naive(g.root_op());
/// let fast = tpl.features(&cfg).unwrap();
/// let full = lower(&g, &cfg, TargetKind::Gpu).unwrap();
/// assert_eq!(fast, full.features);
/// ```
#[derive(Debug, Clone)]
pub struct LoweredTemplate {
    pub(crate) target: TargetKind,
    pub(crate) root: ComputeOp,
    /// Slot-compiled load groups per `inline_data` variant:
    /// `[false, true]`.
    pub(crate) groups: [Vec<LoadGroup>; 2],
    pub(crate) consts: FeatureConsts,
    pub(crate) graph_flops: u64,
}

impl LoweredTemplate {
    /// Precomputes the config-independent lowering state for a graph on a
    /// target: both body variants' load groups and the graph constants.
    pub fn new(graph: &Graph, target: TargetKind) -> LoweredTemplate {
        let root = graph.anchor_op().clone();
        let raw_groups = load_groups(graph, &root, &root.body);
        let inlined_body = inline_producers(graph, &root, &root.body);
        let inlined_groups = load_groups(graph, &root, &inlined_body);
        LoweredTemplate {
            target,
            consts: FeatureConsts::new(graph, &root),
            root,
            groups: [raw_groups, inlined_groups],
            graph_flops: graph.flops(),
        }
    }

    /// The target this template lowers for.
    pub fn target(&self) -> TargetKind {
        self.target
    }

    /// The anchor compute op the template schedules.
    pub fn root(&self) -> &ComputeOp {
        &self.root
    }

    /// Total FLOPs of the whole graph (what cost consumers report
    /// throughput against).
    pub fn graph_flops(&self) -> u64 {
        self.graph_flops
    }

    /// The cheap apply step: validates `cfg` and computes the exact
    /// [`KernelFeatures`] full lowering would produce, without building
    /// the loop nest.
    ///
    /// # Errors
    ///
    /// Returns [`LowerError`] when the configuration does not validate
    /// against the template's root op — the same failures (and messages)
    /// as [`crate::lower::lower`].
    pub fn features(&self, cfg: &NodeConfig) -> Result<KernelFeatures, LowerError> {
        cfg.validate(&self.root).map_err(LowerError)?;
        let groups = &self.groups[cfg.inline_data as usize];
        Ok(compute_features(
            &self.root,
            cfg,
            self.target,
            groups,
            &self.consts,
        ))
    }

    /// Sound per-field feature bounds over a *box* of configs.
    ///
    /// `lo` and `hi` are the box corners: every split factor of `lo` is at
    /// its range minimum and every factor of `hi` at its range maximum,
    /// while all discrete coordinates (reorder, `fuse_outer`, the four
    /// flags, FPGA partition/pipeline) agree between the two. The corners
    /// themselves need not be valid schedules — their factor products need
    /// not divide the axis extents — but the returned `(lo, hi)` feature
    /// rows componentwise enclose [`LoweredTemplate::features`] of **every
    /// valid config inside the box** (see `eval_slot_bounds` for the
    /// index-arithmetic argument). The rows carry identical flags, so they
    /// feed directly into interval cost evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`LowerError`] when the corners do not describe a box:
    /// split shapes that do not match the root op, factors below 1, a
    /// `lo` factor above its `hi` partner, or discrete coordinates that
    /// differ between the corners. Spans follow the
    /// [`NodeConfig::validate`] format (`spatial_splits[i]: ...`).
    pub fn feature_bounds(
        &self,
        lo: &NodeConfig,
        hi: &NodeConfig,
    ) -> Result<(KernelFeatures, KernelFeatures), LowerError> {
        check_box(&self.root, lo, hi).map_err(LowerError)?;
        let groups = &self.groups[lo.inline_data as usize];
        Ok(compute_feature_bounds(
            &self.root,
            lo,
            hi,
            self.target,
            groups,
            &self.consts,
        ))
    }
}

/// Structural validation of a config box: matching split shapes, factors
/// ≥ 1, `lo ≤ hi` componentwise, and equal discrete coordinates. Spans
/// mirror [`NodeConfig::validate`].
fn check_box(root: &ComputeOp, lo: &NodeConfig, hi: &NodeConfig) -> Result<(), String> {
    use crate::config::{REDUCE_PARTS, SPATIAL_PARTS};
    for (name, cfg) in [("lo", lo), ("hi", hi)] {
        if cfg.spatial_splits.len() != root.spatial.len() {
            return Err(format!(
                "spatial_splits: {name} corner has {} entries, op has {} spatial axes",
                cfg.spatial_splits.len(),
                root.spatial.len()
            ));
        }
        if cfg.reduce_splits.len() != root.reduce.len() {
            return Err(format!(
                "reduce_splits: {name} corner has {} entries, op has {} reduce axes",
                cfg.reduce_splits.len(),
                root.reduce.len()
            ));
        }
        for (i, f) in cfg.spatial_splits.iter().enumerate() {
            if f.len() != SPATIAL_PARTS {
                return Err(format!(
                    "spatial_splits[{i}]: {name} corner needs {SPATIAL_PARTS} factors, got {}",
                    f.len()
                ));
            }
            if f.iter().any(|&x| x < 1) {
                return Err(format!(
                    "spatial_splits[{i}]: {name} corner factors {f:?} contain a factor below 1"
                ));
            }
        }
        for (i, f) in cfg.reduce_splits.iter().enumerate() {
            if f.len() != REDUCE_PARTS {
                return Err(format!(
                    "reduce_splits[{i}]: {name} corner needs {REDUCE_PARTS} factors, got {}",
                    f.len()
                ));
            }
            if f.iter().any(|&x| x < 1) {
                return Err(format!(
                    "reduce_splits[{i}]: {name} corner factors {f:?} contain a factor below 1"
                ));
            }
        }
    }
    for (i, (fl, fh)) in lo.spatial_splits.iter().zip(&hi.spatial_splits).enumerate() {
        if fl.iter().zip(fh).any(|(a, b)| a > b) {
            return Err(format!(
                "spatial_splits[{i}]: corners {fl:?} and {fh:?} are not a box (lo > hi)"
            ));
        }
    }
    for (i, (fl, fh)) in lo.reduce_splits.iter().zip(&hi.reduce_splits).enumerate() {
        if fl.iter().zip(fh).any(|(a, b)| a > b) {
            return Err(format!(
                "reduce_splits[{i}]: corners {fl:?} and {fh:?} are not a box (lo > hi)"
            ));
        }
    }
    if lo.reorder != hi.reorder
        || lo.fuse_outer != hi.fuse_outer
        || lo.unroll != hi.unroll
        || lo.vectorize != hi.vectorize
        || lo.cache_shared != hi.cache_shared
        || lo.inline_data != hi.inline_data
        || lo.fpga_partition != hi.fpga_partition
        || lo.fpga_pipeline != hi.fpga_pipeline
    {
        return Err(
            "reorder: box corners must agree on every discrete coordinate \
             (reorder, fuse_outer, flags, fpga_partition, fpga_pipeline)"
                .to_string(),
        );
    }
    // The shared discrete coordinates must themselves be well-formed, or
    // the feature kernels would index out of bounds.
    lo.check_reorder(root)?;
    lo.check_fuse(root)?;
    lo.check_fpga_partition()?;
    lo.check_fpga_pipeline()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use flextensor_ir::ops::{self, ConvParams};

    fn tiled_gemm_cfg(op: &ComputeOp) -> NodeConfig {
        let mut c = NodeConfig::naive(op);
        c.spatial_splits = vec![vec![4, 2, 4, 2], vec![2, 2, 4, 2]];
        c.reduce_splits = vec![vec![4, 2, 2]];
        c.cache_shared = true;
        c.unroll = true;
        c.vectorize = true;
        c
    }

    #[test]
    fn template_features_match_full_lowering_gemm() {
        let g = ops::gemm(64, 32, 16);
        let cfg = tiled_gemm_cfg(g.root_op());
        for target in [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga] {
            let tpl = LoweredTemplate::new(&g, target);
            let fast = tpl.features(&cfg).unwrap();
            let full = lower(&g, &cfg, target).unwrap();
            assert_eq!(fast, full.features, "{target}");
        }
    }

    #[test]
    fn template_features_match_for_materialized_producers() {
        let g = ops::conv2d(ConvParams::same(1, 4, 8, 3), 8, 8);
        for inline_data in [true, false] {
            let mut cfg = NodeConfig::naive(g.root_op());
            cfg.inline_data = inline_data;
            let tpl = LoweredTemplate::new(&g, TargetKind::Gpu);
            let fast = tpl.features(&cfg).unwrap();
            let full = lower(&g, &cfg, TargetKind::Gpu).unwrap();
            assert_eq!(fast, full.features, "inline_data = {inline_data}");
        }
    }

    #[test]
    fn template_rejects_invalid_configs_like_lower() {
        let g = ops::gemm(64, 32, 16);
        let tpl = LoweredTemplate::new(&g, TargetKind::Gpu);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.spatial_splits[0] = vec![3, 1, 1, 1];
        let fast_err = tpl.features(&cfg).unwrap_err();
        let full_err = lower(&g, &cfg, TargetKind::Gpu).unwrap_err();
        assert_eq!(fast_err, full_err);
    }

    /// Componentwise `lo ≤ m ≤ hi` over every numeric feature field, with
    /// flags equal across all three rows.
    fn assert_enclosed(lo: &KernelFeatures, m: &KernelFeatures, hi: &KernelFeatures, tag: &str) {
        let fields = |f: &KernelFeatures| {
            let mut v = vec![
                ("grid", f.grid),
                ("parallel_chunks", f.parallel_chunks),
                ("vthreads", f.vthreads),
                ("block_threads", f.block_threads),
                ("thread_tile", f.thread_tile),
                ("reduce_outer", f.reduce_outer),
                ("reduce_mid", f.reduce_mid),
                ("reduce_inner", f.reduce_inner),
                ("vector_len", f.vector_len),
                ("shared_bytes_per_block", f.shared_bytes_per_block),
                ("thread_reg_bytes", f.thread_reg_bytes),
                ("l1_tile_bytes", f.l1_tile_bytes),
                ("l2_tile_bytes", f.l2_tile_bytes),
                ("data_node_bytes", f.data_node_bytes),
                ("flops", f.flops as i64),
                ("input_bytes_total", f.input_bytes_total),
                ("output_bytes", f.output_bytes),
            ];
            if let Some(fp) = &f.fpga {
                v.extend([
                    ("fpga.pe", fp.pe),
                    ("fpga.rounds", fp.rounds),
                    ("fpga.buffer_bytes", fp.buffer_bytes),
                    ("fpga.stream_bytes", fp.stream_bytes),
                    ("fpga.write_bytes", fp.write_bytes),
                ]);
            }
            v
        };
        assert_eq!(lo.unroll, m.unroll, "{tag}");
        assert_eq!(lo.contiguous_inner, m.contiguous_inner, "{tag}");
        assert_eq!(lo.cache_shared, m.cache_shared, "{tag}");
        assert_eq!(lo.fpga.is_some(), m.fpga.is_some(), "{tag}");
        for ((name, l), ((_, mv), (_, h))) in fields(lo)
            .into_iter()
            .zip(fields(m).into_iter().zip(fields(hi)))
        {
            assert!(l <= mv && mv <= h, "{tag}: {name}: {l} <= {mv} <= {h}");
        }
    }

    /// Joins valid configs into box corners (componentwise factor min/max)
    /// and checks every input config's features land inside the bounds.
    fn check_bounds_enclose(g: &flextensor_ir::graph::Graph, cfgs: &[NodeConfig]) {
        for target in [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga] {
            let tpl = LoweredTemplate::new(g, target);
            let mut lo = cfgs[0].clone();
            let mut hi = cfgs[0].clone();
            for c in &cfgs[1..] {
                for (i, f) in c.spatial_splits.iter().enumerate() {
                    for (l, &x) in f.iter().enumerate() {
                        lo.spatial_splits[i][l] = lo.spatial_splits[i][l].min(x);
                        hi.spatial_splits[i][l] = hi.spatial_splits[i][l].max(x);
                    }
                }
                for (i, f) in c.reduce_splits.iter().enumerate() {
                    for (l, &x) in f.iter().enumerate() {
                        lo.reduce_splits[i][l] = lo.reduce_splits[i][l].min(x);
                        hi.reduce_splits[i][l] = hi.reduce_splits[i][l].max(x);
                    }
                }
            }
            let (b_lo, b_hi) = tpl.feature_bounds(&lo, &hi).unwrap();
            for (k, c) in cfgs.iter().enumerate() {
                let m = tpl.features(c).unwrap();
                assert_enclosed(&b_lo, &m, &b_hi, &format!("{target} member {k}"));
            }
        }
    }

    #[test]
    fn feature_bounds_enclose_member_configs() {
        let g = ops::gemm(64, 32, 16);
        let op = g.root_op();
        let mut a = NodeConfig::naive(op);
        a.spatial_splits = vec![vec![4, 2, 4, 2], vec![2, 2, 4, 2]];
        a.reduce_splits = vec![vec![4, 2, 2]];
        a.cache_shared = true;
        let mut b = a.clone();
        b.spatial_splits = vec![vec![2, 2, 2, 8], vec![8, 1, 2, 2]];
        b.reduce_splits = vec![vec![2, 4, 2]];
        let mut c = a.clone();
        c.spatial_splits = vec![vec![1, 4, 16, 1], vec![4, 4, 1, 2]];
        c.reduce_splits = vec![vec![16, 1, 1]];
        check_bounds_enclose(&g, &[a, b, c]);
    }

    #[test]
    fn feature_bounds_enclose_members_with_inlined_padding() {
        // Padded conv exercises Select (hull) and Sub index arithmetic
        // through the inlined producer chain.
        let g = ops::conv2d(ConvParams::same(1, 4, 8, 3), 8, 8);
        let op = g.root_op();
        let mut a = NodeConfig::naive(op);
        a.spatial_splits = vec![
            vec![1, 1, 1, 1],
            vec![2, 1, 2, 2],
            vec![2, 2, 2, 1],
            vec![1, 2, 1, 4],
        ];
        a.reduce_splits = vec![vec![2, 2, 1], vec![3, 1, 1], vec![1, 1, 3]];
        let mut b = a.clone();
        b.spatial_splits = vec![
            vec![1, 1, 1, 1],
            vec![4, 2, 1, 1],
            vec![1, 1, 4, 2],
            vec![2, 1, 2, 2],
        ];
        b.reduce_splits = vec![vec![1, 4, 1], vec![1, 3, 1], vec![3, 1, 1]];
        check_bounds_enclose(&g, &[a, b]);
    }

    #[test]
    fn feature_bounds_degenerate_box_matches_features_exactly() {
        let g = ops::gemm(64, 32, 16);
        let cfg = tiled_gemm_cfg(g.root_op());
        for target in [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga] {
            let tpl = LoweredTemplate::new(&g, target);
            let (lo, hi) = tpl.feature_bounds(&cfg, &cfg).unwrap();
            let exact = tpl.features(&cfg).unwrap();
            assert_eq!(lo, exact, "{target}");
            assert_eq!(hi, exact, "{target}");
        }
    }

    #[test]
    fn feature_bounds_rejects_malformed_boxes() {
        let g = ops::gemm(64, 32, 16);
        let tpl = LoweredTemplate::new(&g, TargetKind::Gpu);
        let base = NodeConfig::naive(g.root_op());

        let mut inverted = base.clone();
        inverted.spatial_splits[0][3] = 128; // lo factor above hi's 64
        let err = tpl.feature_bounds(&inverted, &base).unwrap_err();
        assert!(err.0.starts_with("spatial_splits[0]:"), "{err}");
        assert!(err.0.contains("not a box"), "{err}");

        let mut flagged = base.clone();
        flagged.unroll = true;
        let err = tpl.feature_bounds(&base, &flagged).unwrap_err();
        assert!(err.0.contains("discrete coordinate"), "{err}");

        let mut short = base.clone();
        short.spatial_splits[1] = vec![1, 64];
        let err = tpl.feature_bounds(&short, &base).unwrap_err();
        assert!(err.0.starts_with("spatial_splits[1]:"), "{err}");

        let mut zero = base.clone();
        zero.reduce_splits[0][1] = 0;
        let err = tpl.feature_bounds(&zero, &base).unwrap_err();
        assert!(err.0.contains("below 1"), "{err}");
    }

    #[test]
    fn template_reports_graph_flops() {
        let g = ops::gemm(64, 32, 16);
        let tpl = LoweredTemplate::new(&g, TargetKind::Cpu);
        assert_eq!(tpl.graph_flops(), g.flops());
        assert_eq!(tpl.root().name, g.anchor_op().name);
        assert_eq!(tpl.target(), TargetKind::Cpu);
    }
}
