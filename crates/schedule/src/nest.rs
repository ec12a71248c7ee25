//! The loop-nest IR that schedules lower to.
//!
//! A scheduled kernel is a tree of [`Stmt`]s: annotated `for` loops around
//! stores. This is the common representation consumed by both the
//! interpreter (`flextensor-interp`, which executes it to verify that a
//! schedule preserves the operator's semantics) and the performance models
//! (`flextensor-sim`).

use std::fmt;

use flextensor_ir::expr::Expr;
use flextensor_ir::graph::Combiner;

/// How a loop executes on the target (the lowered form of the Table 2
/// primitives `parallel`, `vectorize`, `unroll`, `bind`, `pipeline`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopKind {
    /// Ordinary sequential loop.
    Serial,
    /// CPU multithreaded loop (`parallel` primitive).
    Parallel,
    /// SIMD-vectorized loop (`vectorize` primitive).
    Vectorized,
    /// Fully unrolled loop (`unroll` primitive).
    Unrolled,
    /// GPU grid dimension (`bind` to `blockIdx`).
    BlockIdx,
    /// GPU virtual thread (register-tile) dimension.
    VThread,
    /// GPU thread dimension (`bind` to `threadIdx`).
    ThreadIdx,
    /// FPGA pipelined loop (`pipeline` primitive).
    Pipelined,
}

impl LoopKind {
    /// Whether iterations of this loop may execute concurrently.
    pub fn is_concurrent(&self) -> bool {
        !matches!(self, LoopKind::Serial | LoopKind::Unrolled)
    }
}

impl fmt::Display for LoopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LoopKind::Serial => "for",
            LoopKind::Parallel => "parallel",
            LoopKind::Vectorized => "vectorize",
            LoopKind::Unrolled => "unroll",
            LoopKind::BlockIdx => "blockIdx",
            LoopKind::VThread => "vthread",
            LoopKind::ThreadIdx => "threadIdx",
            LoopKind::Pipelined => "pipeline",
        };
        f.write_str(s)
    }
}

/// A statement in the lowered kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `for var in 0..extent { body }` with an execution annotation.
    For {
        /// Loop variable name, unique within the kernel.
        var: String,
        /// Trip count.
        extent: i64,
        /// Execution annotation.
        kind: LoopKind,
        /// Loop body, executed in order.
        body: Vec<Stmt>,
    },
    /// `tensor[indices] = value`, or an accumulation when `reduce` is true:
    /// `tensor[indices] = combine(tensor[indices], value)`.
    Store {
        /// Destination tensor.
        tensor: String,
        /// One index expression per tensor dimension.
        indices: Vec<Expr>,
        /// Value to store / accumulate.
        value: Expr,
        /// Whether this is a reduction update.
        reduce: bool,
        /// Combiner used when `reduce` is true.
        combiner: Combiner,
    },
    /// Cost-model annotation: this block stages `bytes` of `tensor` into
    /// GPU shared memory (or an FPGA BRAM buffer) cooperatively, once per
    /// execution of the annotation. Semantically a no-op.
    StageIn {
        /// Source tensor being staged.
        tensor: String,
        /// Bytes staged per execution.
        bytes: i64,
    },
}

impl Stmt {
    /// Convenience constructor for a loop.
    pub fn loop_(var: impl Into<String>, extent: i64, kind: LoopKind, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var: var.into(),
            extent,
            kind,
            body,
        }
    }

    /// Total number of times the store statements inside this statement
    /// execute (the dynamic iteration count).
    pub fn store_executions(&self) -> u64 {
        match self {
            Stmt::For { extent, body, .. } => {
                (*extent as u64) * body.iter().map(Stmt::store_executions).sum::<u64>()
            }
            Stmt::Store { .. } => 1,
            Stmt::StageIn { .. } => 0,
        }
    }

    /// Maximum loop depth below (and including) this statement.
    pub fn depth(&self) -> usize {
        match self {
            Stmt::For { body, .. } => 1 + body.iter().map(Stmt::depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    /// Visits every statement in the tree, outer-first.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        if let Stmt::For { body, .. } = self {
            for s in body {
                s.visit(f);
            }
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            Stmt::For {
                var,
                extent,
                kind,
                body,
            } => {
                writeln!(f, "{pad}{kind} {var} in 0..{extent} {{")?;
                for s in body {
                    s.fmt_indented(f, indent + 1)?;
                }
                writeln!(f, "{pad}}}")
            }
            Stmt::Store {
                tensor,
                indices,
                value,
                reduce,
                ..
            } => {
                let ix: Vec<String> = indices.iter().map(|e| e.to_string()).collect();
                let op = if *reduce { "+=" } else { "=" };
                writeln!(f, "{pad}{tensor}[{}] {op} {value}", ix.join(", "))
            }
            Stmt::StageIn { tensor, bytes } => {
                writeln!(f, "{pad}// stage {tensor} ({bytes} B) into on-chip memory")
            }
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Stmt {
        Stmt::loop_(
            "i",
            4,
            LoopKind::Parallel,
            vec![
                Stmt::StageIn {
                    tensor: "A".into(),
                    bytes: 64,
                },
                Stmt::loop_(
                    "j",
                    8,
                    LoopKind::Vectorized,
                    vec![Stmt::Store {
                        tensor: "O".into(),
                        indices: vec![Expr::var("i"), Expr::var("j")],
                        value: Expr::load("A", vec![Expr::var("i"), Expr::var("j")]),
                        reduce: false,
                        combiner: Combiner::Sum,
                    }],
                ),
            ],
        )
    }

    #[test]
    fn store_executions_multiply_extents() {
        assert_eq!(sample().store_executions(), 32);
    }

    #[test]
    fn depth_counts_loops() {
        assert_eq!(sample().depth(), 2);
    }

    #[test]
    fn display_renders_nest() {
        let s = format!("{}", sample());
        assert!(s.contains("parallel i in 0..4"));
        assert!(s.contains("vectorize j in 0..8"));
        assert!(s.contains("O[i, j] = A[i, j]"));
    }

    #[test]
    fn visit_reaches_all_nodes() {
        let mut n = 0;
        sample().visit(&mut |_| n += 1);
        assert_eq!(n, 4);
    }
}
