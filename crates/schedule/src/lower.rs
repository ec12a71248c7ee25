//! Lowering: (mini-graph, schedule config, target) → loop nest + features.
//!
//! This implements §5.3 of the paper — the "optimized schedule
//! implementation" — producing the target-specific structures of Fig. 4:
//!
//! * **CPU** (Fig. 4a): multi-level tiling via recursive split/reorder, a
//!   fused+parallelized outermost loop, unroll, and a vectorized innermost
//!   loop.
//! * **GPU** (Fig. 4b): outer factors fused and bound to `blockIdx`,
//!   virtual-thread register tiling, a fused `threadIdx` level, optional
//!   shared-memory staging of input tiles per outer-reduce step, and
//!   register accumulation.
//! * **FPGA** (Fig. 4c): a PE array (`#PE` = product of inner spatial
//!   factors) executing the workload in rounds under the three-stage
//!   read/compute/write pipeline; buffering and partitioning are recorded
//!   for the §5.2 analytical model.
//!
//! Data-movement producers (pad / dilate nodes) are inlined into the root
//! body by default (`inline` / `compute_at` primitives); with
//! `inline_data = false` they are materialized as separate naive nests.

use flextensor_ir::expr::Expr;
use flextensor_ir::graph::{ComputeOp, Graph};

use crate::config::{NodeConfig, TargetKind};
use crate::features::KernelFeatures;
use crate::nest::{LoopKind, Stmt};
use crate::template::{
    compute_features, data_producers, group_footprint_bytes, inline_producers, load_groups,
    FeatureConsts, SlotScratch,
};

/// A fully lowered kernel: an executable statement sequence plus the
/// feature summary consumed by the performance models.
#[derive(Debug, Clone, PartialEq)]
pub struct LoweredKernel {
    /// Target the kernel was lowered for.
    pub target: TargetKind,
    /// Top-level statements, executed in order (materialized producers
    /// first, then the scheduled root nest).
    pub stmts: Vec<Stmt>,
    /// Cost-model features.
    pub features: KernelFeatures,
}

impl LoweredKernel {
    /// Pretty-prints the lowered code.
    pub fn render(&self) -> String {
        self.stmts.iter().map(|s| s.to_string()).collect()
    }
}

/// Errors produced during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError(pub String);

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lowering failed: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

/// Builds a naive serial nest executing a data-movement producer.
fn naive_producer_nest(op: &ComputeOp) -> Stmt {
    let mut stmt = Stmt::Store {
        tensor: op.output.clone(),
        indices: op.spatial.iter().map(|a| Expr::var(&a.name)).collect(),
        value: op.body.clone(),
        reduce: false,
        combiner: op.combiner,
    };
    for a in op.spatial.iter().rev() {
        stmt = Stmt::loop_(&a.name, a.extent, LoopKind::Serial, vec![stmt]);
    }
    stmt
}

/// Per-axis sub-loop variable names for spatial level `k`.
fn svar(axis: &str, level: usize) -> String {
    format!("{axis}.{level}")
}

/// Reconstructs the original axis index from its per-level variables:
/// `((v0*f1 + v1)*f2 + v2)*f3 + v3`.
fn rebuild_index(axis: &str, factors: &[i64]) -> Expr {
    let mut e = Expr::var(svar(axis, 0));
    for (level, &f) in factors.iter().enumerate().skip(1) {
        e = e * f + Expr::var(svar(axis, level));
    }
    e
}

/// Replaces fused-level variables: decomposes `fused_var` into the level-
/// `level` variables of `axes` (in the given order, last axis fastest).
/// Returns substitutions var-name → expression.
fn decompose_fused(
    fused_var: &str,
    axes: &[(String, i64)], // (axis name, factor at this level)
    level: usize,
) -> Vec<(String, Expr)> {
    let mut subs = Vec::new();
    let mut stride = 1i64;
    // Build from fastest (last) to slowest.
    for (name, f) in axes.iter().rev() {
        let e = if stride == 1 {
            Expr::var(fused_var).rem(Expr::int(*f))
        } else {
            (Expr::var(fused_var) / stride).rem(Expr::int(*f))
        };
        subs.push((svar(name, level), e));
        stride *= f;
    }
    subs
}

struct LowerCtx<'g> {
    root: &'g ComputeOp,
    cfg: &'g NodeConfig,
    body: Expr,
    /// Spatial axis order per the reorder permutation.
    order: Vec<usize>,
}

impl<'g> LowerCtx<'g> {
    fn new(graph: &'g Graph, cfg: &'g NodeConfig) -> Result<LowerCtx<'g>, LowerError> {
        // Schedule the anchor (the arithmetic core); element-wise consumer
        // nodes are fused as epilogue passes after the main nest.
        let root = graph.anchor_op();
        cfg.validate(root).map_err(LowerError)?;
        let body = if cfg.inline_data {
            inline_producers(graph, root, &root.body)
        } else {
            root.body.clone()
        };
        Ok(LowerCtx {
            root,
            cfg,
            body,
            order: cfg.reorder.clone(),
        })
    }

    fn spatial_factor(&self, axis_idx: usize, level: usize) -> i64 {
        self.cfg.spatial_splits[axis_idx][level]
    }

    /// The store statement with all axis variables rewritten into their
    /// per-level reconstruction.
    fn store_stmt(&self) -> Stmt {
        let mut value = self.body.clone();
        let mut indices: Vec<Expr> = Vec::new();
        for (i, a) in self.root.spatial.iter().enumerate() {
            let idx = rebuild_index(&a.name, &self.cfg.spatial_splits[i]);
            value = value.substitute(&a.name, &idx);
            indices.push(idx);
        }
        for (i, a) in self.root.reduce.iter().enumerate() {
            let idx = rebuild_index(&a.name, &self.cfg.reduce_splits[i]);
            value = value.substitute(&a.name, &idx);
        }
        Stmt::Store {
            tensor: self.root.output.clone(),
            indices: indices
                .iter()
                .map(flextensor_ir::simplify::simplify)
                .collect(),
            value: flextensor_ir::simplify::simplify(&value),
            reduce: !self.root.reduce.is_empty(),
            combiner: self.root.combiner,
        }
    }

    /// Wraps `inner` in per-axis spatial loops at `level` (reorder order,
    /// outermost first), with the given loop kind.
    fn wrap_spatial_level(&self, inner: Vec<Stmt>, level: usize, kind: LoopKind) -> Vec<Stmt> {
        let mut body = inner;
        for &ax in self.order.iter().rev() {
            let f = self.spatial_factor(ax, level);
            let name = svar(&self.root.spatial[ax].name, level);
            body = vec![Stmt::loop_(name, f, kind, body)];
        }
        body
    }

    /// Wraps `inner` in per-axis reduce loops at `level`.
    fn wrap_reduce_level(&self, inner: Vec<Stmt>, level: usize, kind: LoopKind) -> Vec<Stmt> {
        let mut body = inner;
        for (i, a) in self.root.reduce.iter().enumerate().rev() {
            let f = self.cfg.reduce_splits[i][level];
            body = vec![Stmt::loop_(svar(&a.name, level), f, kind, body)];
        }
        body
    }

    /// Wraps `inner` in a fused loop over the level-`level` factors of the
    /// axes `axes_subset` (indices into spatial axes, reorder order), and
    /// substitutes the decomposition into every statement below.
    fn wrap_fused(
        &self,
        inner: Vec<Stmt>,
        axes_subset: &[usize],
        level: usize,
        fused_name: &str,
        kind: LoopKind,
    ) -> Vec<Stmt> {
        let pairs: Vec<(String, i64)> = axes_subset
            .iter()
            .map(|&ax| {
                (
                    self.root.spatial[ax].name.clone(),
                    self.spatial_factor(ax, level),
                )
            })
            .collect();
        let extent: i64 = pairs.iter().map(|(_, f)| f).product();
        let subs = decompose_fused(fused_name, &pairs, level);
        let inner = inner
            .into_iter()
            .map(|s| substitute_stmt(s, &subs))
            .collect();
        vec![Stmt::loop_(fused_name, extent, kind, inner)]
    }
}

/// Substitutes variables in every expression of a statement tree.
fn substitute_stmt(stmt: Stmt, subs: &[(String, Expr)]) -> Stmt {
    let sub_expr = |mut e: Expr| {
        for (name, val) in subs {
            e = e.substitute(name, val);
        }
        e
    };
    match stmt {
        Stmt::For {
            var,
            extent,
            kind,
            body,
        } => Stmt::For {
            var,
            extent,
            kind,
            body: body.into_iter().map(|s| substitute_stmt(s, subs)).collect(),
        },
        Stmt::Store {
            tensor,
            indices,
            value,
            reduce,
            combiner,
        } => Stmt::Store {
            tensor,
            indices: indices.into_iter().map(sub_expr).collect(),
            value: sub_expr(value),
            reduce,
            combiner,
        },
        s @ Stmt::StageIn { .. } => s,
    }
}

/// Lowers a mini-graph under a schedule configuration for a target.
///
/// # Errors
///
/// Returns [`LowerError`] when the configuration does not validate against
/// the graph's root op.
pub fn lower(
    graph: &Graph,
    cfg: &NodeConfig,
    target: TargetKind,
) -> Result<LoweredKernel, LowerError> {
    let ctx = LowerCtx::new(graph, cfg)?;
    let root = ctx.root;

    // ---- common feature material -------------------------------------
    // Shared with the split-phase fast path (`crate::template`): both
    // paths call `compute_features` on identical inputs, so features agree
    // bit-for-bit by construction.
    let groups = load_groups(graph, root, &ctx.body);
    let features = compute_features(root, cfg, target, &groups, &FeatureConsts::new(graph, root));

    // ---- build the nest ------------------------------------------------
    let store = ctx.store_stmt();
    let inner_kind = if cfg.unroll {
        LoopKind::Unrolled
    } else {
        LoopKind::Serial
    };

    let nest = match target {
        TargetKind::Cpu => {
            // innermost: vectorized last-axis inner loop.
            let mut body = vec![store];
            // a.3 loops (reorder order); last one vectorized when requested.
            for (pos, &ax) in ctx.order.iter().enumerate().rev() {
                let f = ctx.spatial_factor(ax, 3);
                let kind = if pos == ctx.order.len() - 1 && cfg.vectorize {
                    LoopKind::Vectorized
                } else {
                    inner_kind
                };
                body = vec![Stmt::loop_(svar(&root.spatial[ax].name, 3), f, kind, body)];
            }
            body = ctx.wrap_reduce_level(body, 2, inner_kind);
            body = ctx.wrap_reduce_level(body, 1, LoopKind::Serial);
            body = ctx.wrap_spatial_level(body, 2, LoopKind::Serial);
            body = ctx.wrap_reduce_level(body, 0, LoopKind::Serial);
            body = ctx.wrap_spatial_level(body, 1, LoopKind::Serial);
            // Unfused level-0 loops (axes beyond fuse_outer) stay serial.
            for &ax in ctx.order.iter().skip(cfg.fuse_outer).rev() {
                let f = ctx.spatial_factor(ax, 0);
                body = vec![Stmt::loop_(
                    svar(&root.spatial[ax].name, 0),
                    f,
                    LoopKind::Serial,
                    body,
                )];
            }
            let fused_axes: Vec<usize> = ctx.order.iter().take(cfg.fuse_outer).copied().collect();
            ctx.wrap_fused(body, &fused_axes, 0, "par", LoopKind::Parallel)
        }
        TargetKind::Gpu => {
            let mut body = vec![store];
            body = ctx.wrap_reduce_level(body, 2, inner_kind);
            body = ctx.wrap_spatial_level(body, 3, inner_kind);
            body = ctx.wrap_reduce_level(body, 1, LoopKind::Serial);
            // Shared-memory staging once per outer reduce step.
            if cfg.cache_shared {
                let mut scratch = SlotScratch::new();
                let block = scratch.set_tile(root, cfg, &[1, 2, 3], &[1, 2]);
                let mut staged: Vec<Stmt> = groups
                    .iter()
                    .map(|g| Stmt::StageIn {
                        tensor: g.tensor.clone(),
                        bytes: group_footprint_bytes(g, block),
                    })
                    .collect();
                staged.extend(body);
                body = staged;
            }
            body = ctx.wrap_reduce_level(body, 0, LoopKind::Serial);
            body = ctx.wrap_fused(body, &ctx.order.clone(), 2, "thread", LoopKind::ThreadIdx);
            body = ctx.wrap_spatial_level(body, 1, LoopKind::VThread);
            ctx.wrap_fused(body, &ctx.order.clone(), 0, "block", LoopKind::BlockIdx)
        }
        TargetKind::Fpga => {
            // PE-array feature accounting (pe/rounds/buffer/stream bytes)
            // lives in `compute_features`; only the pipelined round nest is
            // built here.
            let mut body = vec![store];
            body = ctx.wrap_reduce_level(body, 2, inner_kind);
            body = ctx.wrap_spatial_level(body, 3, LoopKind::Unrolled);
            body = ctx.wrap_spatial_level(body, 2, LoopKind::Unrolled);
            body = ctx.wrap_reduce_level(body, 1, LoopKind::Serial);
            body = ctx.wrap_reduce_level(body, 0, LoopKind::Serial);
            body = ctx.wrap_spatial_level(body, 1, LoopKind::Serial);
            ctx.wrap_fused(body, &ctx.order.clone(), 0, "round", LoopKind::Pipelined)
        }
    };

    // Materialized producers execute first; epilogue consumers (bias,
    // activation) run after the main nest. At the model level the epilogue
    // is fused at writeback — its FLOPs are already counted by
    // `compute_features`, but it adds no extra DRAM round trip (the
    // anchor's intermediate stays in registers).
    let mut stmts: Vec<Stmt> = Vec::new();
    if !cfg.inline_data {
        for p in data_producers(graph, root) {
            stmts.push(naive_producer_nest(p));
        }
    }
    stmts.extend(nest);
    for e in graph.epilogue_chain() {
        stmts.push(naive_producer_nest(e));
    }

    Ok(LoweredKernel {
        target,
        stmts,
        features,
    })
}

/// Convenience: lower with the naive (identity) schedule.
pub fn lower_naive(graph: &Graph, target: TargetKind) -> LoweredKernel {
    let cfg = NodeConfig::naive(graph.anchor_op());
    lower(graph, &cfg, target).expect("naive config always validates")
}

/// Intermediate tensors that must be materialized (allocated) when running
/// the kernel: producer outputs when `inline_data` is false.
pub fn materialized_intermediates(graph: &Graph, cfg: &NodeConfig) -> Vec<String> {
    if cfg.inline_data {
        return Vec::new();
    }
    data_producers(graph, graph.anchor_op())
        .iter()
        .map(|p| p.output.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn gpu_gemm_nest_structure() {
        let g = ops::gemm(64, 32, 16);
        let cfg = tiled_gemm_cfg(g.root_op());
        let k = lower(&g, &cfg, TargetKind::Gpu).unwrap();
        assert_eq!(k.stmts.len(), 1);
        // block(8) * vthread(2*2) * thread(16) * inner(2*2) = 64*32 stores
        // per full reduce... store executions = spatial * reduce = 64*32*16.
        assert_eq!(k.stmts[0].store_executions(), 64 * 32 * 16);
        let txt = k.render();
        assert!(txt.contains("blockIdx block in 0..8"), "{txt}");
        assert!(txt.contains("threadIdx thread in 0..16"), "{txt}");
        assert!(txt.contains("stage A"), "{txt}");
        assert!(txt.contains("stage B"), "{txt}");
    }

    #[test]
    fn gpu_features_products() {
        let g = ops::gemm(64, 32, 16);
        let cfg = tiled_gemm_cfg(g.root_op());
        let k = lower(&g, &cfg, TargetKind::Gpu).unwrap();
        let f = &k.features;
        assert_eq!(f.grid, 8);
        assert_eq!(f.vthreads, 4);
        assert_eq!(f.block_threads, 16);
        assert_eq!(f.thread_tile, 4);
        assert_eq!(f.reduce_outer, 4);
        assert_eq!(f.reduce_mid, 2);
        assert_eq!(f.reduce_inner, 2);
        assert!(f.contiguous_inner);
        // Shared tile per block per r0 step: block tiles are i:2*4*2=16,
        // j:2*4*2=16, k per step:2*2=4, so A is 16x4 and B is 4x16 elems.
        assert_eq!(f.shared_bytes_per_block, (16 * 4 + 4 * 16) * 4);
    }

    #[test]
    fn cpu_nest_has_parallel_and_vectorized_loops() {
        let g = ops::gemm(64, 32, 16);
        let mut cfg = tiled_gemm_cfg(g.root_op());
        cfg.fuse_outer = 2;
        let k = lower(&g, &cfg, TargetKind::Cpu).unwrap();
        let txt = k.render();
        assert!(txt.contains("parallel par in 0..8"), "{txt}");
        assert!(txt.contains("vectorize j.3 in 0..2"), "{txt}");
        assert_eq!(k.stmts[0].store_executions(), 64 * 32 * 16);
    }

    #[test]
    fn fpga_features_pipeline_model_inputs() {
        let g = ops::gemm(64, 32, 16);
        let mut cfg = tiled_gemm_cfg(g.root_op());
        cfg.fpga_partition = 4;
        cfg.fpga_pipeline = 3;
        let k = lower(&g, &cfg, TargetKind::Fpga).unwrap();
        let f = k.features.fpga.expect("fpga features");
        assert_eq!(f.pe, (4 * 2) * (4 * 2)); // level2 * level3 products
        assert_eq!(f.rounds, (4 * 2) * (2 * 2));
        assert_eq!(f.partition, 4);
        assert_eq!(f.pipeline, 3);
        assert!(f.buffer_bytes > 0);
    }

    #[test]
    fn conv_inlines_padding_by_default() {
        let g = ops::conv2d(ConvParams::same(1, 4, 8, 3), 8, 8);
        let k = lower_naive(&g, TargetKind::Gpu);
        // Single nest (pad inlined), body reads I directly via select.
        assert_eq!(k.stmts.len(), 1);
        let txt = k.render();
        assert!(txt.contains("select"), "{txt}");
        assert!(txt.contains("I["), "{txt}");
        assert!(!txt.contains("P["), "padding must be inlined:\n{txt}");
    }

    #[test]
    fn conv_materializes_padding_when_asked() {
        let g = ops::conv2d(ConvParams::same(1, 4, 8, 3), 8, 8);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.inline_data = false;
        let k = lower(&g, &cfg, TargetKind::Gpu).unwrap();
        assert_eq!(k.stmts.len(), 2); // pad nest + conv nest
        assert!(k.features.data_node_bytes > 0);
        assert_eq!(materialized_intermediates(&g, &cfg), vec!["P".to_string()]);
    }

    #[test]
    fn transposed_conv_inlines_two_producers() {
        let p = ConvParams {
            batch: 1,
            in_channels: 4,
            out_channels: 4,
            kernel: 4,
            stride: 2,
            padding: 1,
            dilation: 1,
            groups: 1,
        };
        let g = ops::conv_transpose2d(p, 6, 6);
        let k = lower_naive(&g, TargetKind::Cpu);
        let txt = k.render();
        assert!(!txt.contains("P["), "{txt}");
        assert!(!txt.contains("D["), "{txt}");
        assert!(txt.contains("I["), "{txt}");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let g = ops::gemm(64, 32, 16);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.spatial_splits[0] = vec![3, 1, 1, 1];
        assert!(lower(&g, &cfg, TargetKind::Gpu).is_err());
    }

    #[test]
    fn grid_accounts_reorder() {
        let g = ops::gemm(64, 32, 16);
        let mut cfg = tiled_gemm_cfg(g.root_op());
        cfg.reorder = vec![1, 0];
        cfg.fuse_outer = 1;
        let k = lower(&g, &cfg, TargetKind::Cpu).unwrap();
        // parallel loop fuses only axis j's level-0 factor (2).
        assert_eq!(k.features.parallel_chunks, 2);
        // reorder makes axis i innermost; i is not the last output dim.
        assert!(!k.features.contiguous_inner);
    }
}
