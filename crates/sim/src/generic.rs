//! The device cost models, written once over the abstract [`Scalar`]
//! domain.
//!
//! These bodies are the only production definition of each model: the
//! public entry points ([`crate::gpu::gpu_time`], [`crate::cpu::cpu_time`],
//! [`crate::fpga::fpga_time`]) and therefore
//! [`crate::model::Evaluator::time_features`] run them at `S = f64`. Each
//! body mirrors a hand-written row model (`gpu_time_row`, `cpu_time_row`,
//! `fpga_time_row`, compiled only under `cfg(test)`) operation for
//! operation, in the same order and association. Instantiated at
//! `S = f64` every trait method performs exactly the IEEE-754 operation
//! the row model performs, so the generic path is **bit-identical** to it
//! — pinned by the differential tests in this module over hand-picked and
//! seeded random feature rows on every device.
//!
//! Instantiated at `S =` [`Interval`] the same bodies compute a sound
//! enclosure of every concrete result reachable from member inputs
//! (see the [`Interval`] rounding contract), which
//! [`crate::model::Evaluator::time_features_interval`] exposes to the
//! region analysis in `flextensor-analyze`.
//!
//! Two translation rules keep the `f64` instantiation exact:
//!
//! * concrete `if`s on *flags* stay concrete (`GpuIn` carries `bool`
//!   flags — a region analysis fixes flags per query); `if`s on *data*
//!   become [`Scalar::select`], whose strict arms are guarded with
//!   `.max(one)` exactly where the concrete models guard with `.max(1)`
//!   (plus on divisors only reachable in a taken branch, where the guard
//!   is the identity);
//! * concrete early-return feasibility checks become
//!   [`Scalar::constrain_ge`]/[`Scalar::constrain_le`], which for `f64`
//!   are the identical comparison and for [`Interval`] clip to the
//!   feasible members (members that fail are exactly those the concrete
//!   model rejects with `None`, so the enclosure still covers every
//!   member with a `Some` cost).

use flextensor_schedule::features::{FpgaFeatures, KernelFeatures};

use crate::gpu::UNCACHED_TRAFFIC_PENALTY;
use crate::scalar::{Interval, Scalar};
use crate::spec::{CpuSpec, FpgaSpec, GpuSpec};

/// The GPU model's inputs over an abstract scalar: the numeric columns of
/// the concrete row as `S`, the branch flags concrete (a region query
/// fixes its flag assignment).
#[derive(Debug, Clone, Copy)]
pub struct GpuIn<S> {
    /// Workload floating-point operations.
    pub flops: S,
    /// Grid size (thread blocks).
    pub grid: S,
    /// Threads per block.
    pub block_threads: S,
    /// Spatial points per thread.
    pub thread_tile: S,
    /// Virtual-thread (register-tile) product.
    pub vthreads: S,
    /// Outer reduce factor product.
    pub reduce_outer: S,
    /// Shared-memory bytes staged per block per outer step.
    pub shared_bytes_per_block: S,
    /// Register bytes per thread.
    pub thread_reg_bytes: S,
    /// Compulsory input traffic in bytes.
    pub input_bytes_total: S,
    /// Output bytes.
    pub output_bytes: S,
    /// Materialized-producer traffic in bytes.
    pub data_node_bytes: S,
    /// Whether inner loops are unrolled.
    pub unroll: bool,
    /// Whether the innermost loop is contiguous in the output.
    pub contiguous_inner: bool,
    /// Whether tiles are staged through shared memory.
    pub cache_shared: bool,
}

impl<S: Scalar> GpuIn<S> {
    /// Embeds one concrete feature row as points.
    pub fn of(f: &KernelFeatures) -> GpuIn<S> {
        GpuIn {
            flops: S::from_i64(f.flops as i64),
            grid: S::from_i64(f.grid),
            block_threads: S::from_i64(f.block_threads),
            thread_tile: S::from_i64(f.thread_tile),
            vthreads: S::from_i64(f.vthreads),
            reduce_outer: S::from_i64(f.reduce_outer),
            shared_bytes_per_block: S::from_i64(f.shared_bytes_per_block),
            thread_reg_bytes: S::from_i64(f.thread_reg_bytes),
            input_bytes_total: S::from_i64(f.input_bytes_total),
            output_bytes: S::from_i64(f.output_bytes),
            data_node_bytes: S::from_i64(f.data_node_bytes),
            unroll: f.unroll,
            contiguous_inner: f.contiguous_inner,
            cache_shared: f.cache_shared,
        }
    }
}

impl GpuIn<Interval> {
    /// Builds interval inputs enclosing two corner feature rows (in
    /// either componentwise order). The flags of both corners must
    /// agree — they come from the fixed flag assignment of one region
    /// query.
    pub fn enclosing(lo: &KernelFeatures, hi: &KernelFeatures) -> GpuIn<Interval> {
        debug_assert_eq!(
            (lo.unroll, lo.contiguous_inner, lo.cache_shared),
            (hi.unroll, hi.contiguous_inner, hi.cache_shared),
        );
        let iv = |a: i64, b: i64| Interval::spanning(a as f64, b as f64);
        GpuIn {
            flops: iv(lo.flops as i64, hi.flops as i64),
            grid: iv(lo.grid, hi.grid),
            block_threads: iv(lo.block_threads, hi.block_threads),
            thread_tile: iv(lo.thread_tile, hi.thread_tile),
            vthreads: iv(lo.vthreads, hi.vthreads),
            reduce_outer: iv(lo.reduce_outer, hi.reduce_outer),
            shared_bytes_per_block: iv(lo.shared_bytes_per_block, hi.shared_bytes_per_block),
            thread_reg_bytes: iv(lo.thread_reg_bytes, hi.thread_reg_bytes),
            input_bytes_total: iv(lo.input_bytes_total, hi.input_bytes_total),
            output_bytes: iv(lo.output_bytes, hi.output_bytes),
            data_node_bytes: iv(lo.data_node_bytes, hi.data_node_bytes),
            unroll: lo.unroll,
            contiguous_inner: lo.contiguous_inner,
            cache_shared: lo.cache_shared,
        }
    }
}

/// The GPU model over an abstract scalar — see [`crate::gpu::gpu_time`]
/// for the model itself. `None` means no member is feasible.
pub fn gpu_time_generic<S: Scalar>(spec: &GpuSpec, f: &GpuIn<S>, code_quality: f64) -> Option<S> {
    let one = S::from_i64(1);
    let tpb = f
        .block_threads
        .constrain_ge(one)?
        .constrain_le(S::from_i64(spec.max_threads_per_block))?;
    let shared_pb = if f.cache_shared {
        f.shared_bytes_per_block
    } else {
        S::from_i64(0)
    };
    let shared_pb = shared_pb.constrain_le(S::from_i64(spec.shared_per_block))?;

    // ---- occupancy --------------------------------------------------
    let warps_pb = tpb.add(S::from_i64(31)).floor_int_div(S::from_i64(32));
    let blocks_by_warps = S::from_i64(spec.max_warps_per_sm).floor_int_div(warps_pb);
    let blocks_by_shared = S::select(
        S::from_i64(0).lt(shared_pb),
        S::from_i64(spec.shared_per_sm).floor_int_div(shared_pb.max(one)),
        S::from_i64(spec.max_blocks_per_sm),
    );
    let reg_bytes_pt = f.thread_reg_bytes.max(S::from_i64(128));
    let blocks_by_regs =
        S::from_i64(spec.regfile_per_sm).floor_int_div(reg_bytes_pt.mul(tpb).max(one));
    let blocks_per_sm = blocks_by_warps
        .min(blocks_by_shared)
        .min(blocks_by_regs)
        .min(S::from_i64(spec.max_blocks_per_sm))
        .constrain_ge(one)?;
    let occupancy = blocks_per_sm
        .mul(warps_pb)
        .div(S::from_i64(spec.max_warps_per_sm));

    // ---- compute efficiency ------------------------------------------
    let warp_eff = tpb.div(warps_pb.mul(S::from_i64(32)));
    let ilp = f
        .thread_tile
        .mul(f.vthreads)
        .mul(S::from_f64(if f.unroll { 2.0 } else { 1.0 }));
    let needed_occupancy = S::from_f64(1.0)
        .div(S::from_f64(1.0).add(ilp.div(S::from_f64(4.0))))
        .add(S::from_f64(0.15));
    let latency_util = occupancy.div(needed_occupancy).min(S::from_f64(1.0));
    let slots = S::from_i64(spec.sms).mul(blocks_per_sm);
    let waves = f.grid.add(slots).sub(one).floor_int_div(slots);
    let tail_eff = S::select(
        S::from_i64(0).lt(waves),
        f.grid.div(waves.mul(slots).max(one)),
        S::from_f64(0.0),
    );
    let spill_penalty = S::select(
        S::from_i64(1024).lt(reg_bytes_pt),
        S::from_f64(1024.0).div(reg_bytes_pt),
        S::from_f64(1.0),
    );

    let eff = S::from_f64(code_quality)
        .mul(warp_eff)
        .mul(latency_util)
        .mul(tail_eff.max(S::from_f64(1e-3)))
        .mul(spill_penalty);
    let compute_s = S::select(
        S::from_i64(0).lt(f.flops),
        f.flops
            .div(S::from_f64(spec.peak_flops()).mul(eff.max(S::from_f64(1e-4)))),
        S::from_f64(0.0),
    );

    // ---- memory time -------------------------------------------------
    let tile_traffic = f.grid.mul(f.reduce_outer).mul(f.shared_bytes_per_block);
    let read_traffic = if f.cache_shared {
        tile_traffic
    } else {
        tile_traffic.mul(S::from_f64(UNCACHED_TRAFFIC_PENALTY))
    };
    let read_traffic = read_traffic.max(f.input_bytes_total);
    let write_traffic = f.output_bytes;
    let coalesce = match (f.cache_shared, f.contiguous_inner) {
        (true, true) => 1.0,
        (true, false) => 0.6,
        (false, true) => 0.8,
        (false, false) => 0.25,
    };
    let bw = spec.mem_bw_gbps * 1e9 * coalesce;
    let mem_s = read_traffic.add(write_traffic).div(S::from_f64(bw));
    let mem_s = mem_s.add(f.data_node_bytes.div(S::from_f64(spec.mem_bw_gbps * 1e9)));

    let kernel_s = compute_s
        .max(mem_s)
        .add(S::from_f64(0.2).mul(compute_s.min(mem_s)));
    let launches = S::select(
        S::from_i64(0).lt(f.data_node_bytes),
        S::from_f64(2.0),
        S::from_f64(1.0),
    );
    Some(kernel_s.add(launches.mul(S::from_f64(spec.launch_overhead_s))))
}

/// The CPU model's inputs over an abstract scalar (flags concrete, as in
/// [`GpuIn`]).
#[derive(Debug, Clone, Copy)]
pub struct CpuIn<S> {
    /// Workload floating-point operations.
    pub flops: S,
    /// Total outer chunks (tile count).
    pub grid: S,
    /// Extent of the parallel (fused outermost) loop.
    pub parallel_chunks: S,
    /// Spatial points per innermost tile.
    pub thread_tile: S,
    /// Outer reduce factor product.
    pub reduce_outer: S,
    /// Vector length of the innermost loop.
    pub vector_len: S,
    /// Per-tile footprint bytes (L2 refetch proxy).
    pub shared_bytes_per_block: S,
    /// Innermost tile footprint bytes (L1 proxy).
    pub l1_tile_bytes: S,
    /// Middle tile footprint bytes (L2 proxy).
    pub l2_tile_bytes: S,
    /// Compulsory input traffic in bytes.
    pub input_bytes_total: S,
    /// Output bytes.
    pub output_bytes: S,
    /// Materialized-producer traffic in bytes.
    pub data_node_bytes: S,
    /// Whether inner loops are unrolled.
    pub unroll: bool,
    /// Whether the innermost loop is unit-stride.
    pub contiguous_inner: bool,
}

impl<S: Scalar> CpuIn<S> {
    /// Embeds one concrete feature row as points.
    pub fn of(f: &KernelFeatures) -> CpuIn<S> {
        CpuIn {
            flops: S::from_i64(f.flops as i64),
            grid: S::from_i64(f.grid),
            parallel_chunks: S::from_i64(f.parallel_chunks),
            thread_tile: S::from_i64(f.thread_tile),
            reduce_outer: S::from_i64(f.reduce_outer),
            vector_len: S::from_i64(f.vector_len),
            shared_bytes_per_block: S::from_i64(f.shared_bytes_per_block),
            l1_tile_bytes: S::from_i64(f.l1_tile_bytes),
            l2_tile_bytes: S::from_i64(f.l2_tile_bytes),
            input_bytes_total: S::from_i64(f.input_bytes_total),
            output_bytes: S::from_i64(f.output_bytes),
            data_node_bytes: S::from_i64(f.data_node_bytes),
            unroll: f.unroll,
            contiguous_inner: f.contiguous_inner,
        }
    }
}

impl CpuIn<Interval> {
    /// Builds interval inputs enclosing two corner feature rows (flags
    /// must agree; see [`GpuIn::enclosing`]).
    pub fn enclosing(lo: &KernelFeatures, hi: &KernelFeatures) -> CpuIn<Interval> {
        debug_assert_eq!(
            (lo.unroll, lo.contiguous_inner),
            (hi.unroll, hi.contiguous_inner),
        );
        let iv = |a: i64, b: i64| Interval::spanning(a as f64, b as f64);
        CpuIn {
            flops: iv(lo.flops as i64, hi.flops as i64),
            grid: iv(lo.grid, hi.grid),
            parallel_chunks: iv(lo.parallel_chunks, hi.parallel_chunks),
            thread_tile: iv(lo.thread_tile, hi.thread_tile),
            reduce_outer: iv(lo.reduce_outer, hi.reduce_outer),
            vector_len: iv(lo.vector_len, hi.vector_len),
            shared_bytes_per_block: iv(lo.shared_bytes_per_block, hi.shared_bytes_per_block),
            l1_tile_bytes: iv(lo.l1_tile_bytes, hi.l1_tile_bytes),
            l2_tile_bytes: iv(lo.l2_tile_bytes, hi.l2_tile_bytes),
            input_bytes_total: iv(lo.input_bytes_total, hi.input_bytes_total),
            output_bytes: iv(lo.output_bytes, hi.output_bytes),
            data_node_bytes: iv(lo.data_node_bytes, hi.data_node_bytes),
            unroll: lo.unroll,
            contiguous_inner: lo.contiguous_inner,
        }
    }
}

/// The CPU model over an abstract scalar — see [`crate::cpu::cpu_time`].
/// Total like the concrete model: every input is feasible on CPU.
pub fn cpu_time_generic<S: Scalar>(spec: &CpuSpec, f: &CpuIn<S>, code_quality: f64) -> S {
    let one = S::from_i64(1);
    // ---- threading ----------------------------------------------------
    let chunks = f.parallel_chunks.max(one);
    let cores = S::from_i64(spec.cores);
    let used_cores = chunks.min(cores);
    let rounds = chunks.add(cores).sub(one).floor_int_div(cores);
    let balance = chunks.div(rounds.mul(cores.min(chunks.max(one))));
    let effective_cores = used_cores.mul(balance.min(S::from_f64(1.0)));

    // ---- vectorization -------------------------------------------------
    let vw = spec.vector_width;
    let scalar_eff = S::from_f64(1.0 / vw as f64);
    let vec_eff = if f.contiguous_inner {
        let v = f.vector_len;
        let ceil_mult = v
            .add(S::from_i64(vw - 1))
            .floor_int_div(S::from_i64(vw))
            .mul(S::from_i64(vw));
        let vectorized = S::select(
            v.is_multiple_of(vw),
            S::from_f64(1.0),
            S::select(
                S::from_i64(vw).lt(v),
                v.div(ceil_mult.max(one)),
                v.div(S::from_i64(vw)),
            ),
        );
        S::select(one.lt(v), vectorized, scalar_eff)
    } else {
        scalar_eff
    };

    // ---- locality -------------------------------------------------------
    let l1_eff = S::select(
        f.l1_tile_bytes.le(S::from_i64(spec.l1_bytes)),
        S::from_f64(1.0),
        S::select(
            f.l1_tile_bytes.le(S::from_i64(spec.l2_bytes)),
            S::from_f64(0.75),
            S::from_f64(0.45),
        ),
    );
    let l2_eff = S::select(
        f.l2_tile_bytes.le(S::from_i64(spec.l2_bytes)),
        S::from_f64(1.0),
        S::select(
            f.l2_tile_bytes.le(S::from_i64(spec.l3_bytes / spec.cores)),
            S::from_f64(0.85),
            S::from_f64(0.6),
        ),
    );

    // ---- loop overhead ---------------------------------------------------
    let inner_trip = f.thread_tile.max(one);
    let overhead_eff = if f.unroll {
        S::from_f64(1.0)
    } else {
        S::select(
            S::from_i64(8).le(inner_trip),
            S::from_f64(1.0),
            S::from_f64(0.55).add(S::from_f64(0.05).mul(inner_trip)),
        )
    };

    let per_core_peak = spec.peak_flops() / spec.cores as f64;
    let eff = S::from_f64(code_quality)
        .mul(vec_eff)
        .mul(l1_eff)
        .mul(l2_eff)
        .mul(overhead_eff);
    let compute_s = S::select(
        S::from_i64(0).lt(f.flops),
        f.flops
            .div(S::from_f64(per_core_peak).mul(eff.max(S::from_f64(1e-4))))
            .div(effective_cores.max(S::from_f64(1.0))),
        S::from_f64(0.0),
    );

    // ---- memory -----------------------------------------------------------
    let chunk_count = f.grid.max(one);
    let refetch = S::select(
        f.shared_bytes_per_block.le(S::from_i64(spec.l2_bytes)),
        S::from_f64(0.5),
        S::from_f64(1.0),
    );
    let tile_traffic = chunk_count
        .mul(f.reduce_outer)
        .mul(f.shared_bytes_per_block)
        .mul(refetch);
    let compulsory = f.input_bytes_total;
    let read_traffic = S::select(
        f.input_bytes_total.le(S::from_i64(spec.l3_bytes)),
        compulsory.add(S::from_f64(0.35).mul(tile_traffic.sub(compulsory).max(S::from_f64(0.0)))),
        tile_traffic.max(compulsory),
    );
    let bw = spec.mem_bw_gbps * 1e9;
    let mem_s = read_traffic.add(f.output_bytes).div(S::from_f64(bw));
    let mem_s = mem_s.add(f.data_node_bytes.div(S::from_f64(bw)));

    let spawn = S::select(
        one.lt(chunks),
        S::from_f64(spec.spawn_overhead_s),
        S::from_f64(0.0),
    );
    compute_s
        .max(mem_s)
        .add(S::from_f64(0.2).mul(compute_s.min(mem_s)))
        .add(spawn)
}

/// The FPGA model's inputs over an abstract scalar. `partition` and
/// `pipeline` are schedule knobs a region fixes per query, so they stay
/// concrete.
#[derive(Debug, Clone, Copy)]
pub struct FpgaIn<S> {
    /// Workload floating-point operations.
    pub flops: S,
    /// Parallel processing elements.
    pub pe: S,
    /// Sequential execution rounds.
    pub rounds: S,
    /// On-chip input-buffer bytes per round.
    pub buffer_bytes: S,
    /// DDR bytes streamed per round.
    pub stream_bytes: S,
    /// Output bytes drained per round.
    pub write_bytes: S,
    /// Memory partition factor.
    pub partition: i64,
    /// Pipeline stages overlapped (1–3).
    pub pipeline: i64,
}

impl<S: Scalar> FpgaIn<S> {
    /// Embeds one concrete feature row as points.
    pub fn of(flops: u64, fp: &FpgaFeatures) -> FpgaIn<S> {
        FpgaIn {
            flops: S::from_i64(flops as i64),
            pe: S::from_i64(fp.pe),
            rounds: S::from_i64(fp.rounds),
            buffer_bytes: S::from_i64(fp.buffer_bytes),
            stream_bytes: S::from_i64(fp.stream_bytes),
            write_bytes: S::from_i64(fp.write_bytes),
            partition: fp.partition,
            pipeline: fp.pipeline,
        }
    }
}

impl FpgaIn<Interval> {
    /// Builds interval inputs enclosing two corner rows. `partition` and
    /// `pipeline` must agree between the corners.
    pub fn enclosing(
        lo_flops: u64,
        lo: &FpgaFeatures,
        hi_flops: u64,
        hi: &FpgaFeatures,
    ) -> FpgaIn<Interval> {
        debug_assert_eq!((lo.partition, lo.pipeline), (hi.partition, hi.pipeline));
        let iv = |a: i64, b: i64| Interval::spanning(a as f64, b as f64);
        FpgaIn {
            flops: iv(lo_flops as i64, hi_flops as i64),
            pe: iv(lo.pe, hi.pe),
            rounds: iv(lo.rounds, hi.rounds),
            buffer_bytes: iv(lo.buffer_bytes, hi.buffer_bytes),
            stream_bytes: iv(lo.stream_bytes, hi.stream_bytes),
            write_bytes: iv(lo.write_bytes, hi.write_bytes),
            partition: lo.partition,
            pipeline: lo.pipeline,
        }
    }
}

/// The FPGA pipeline model over an abstract scalar — see
/// [`crate::fpga::fpga_time`]. `None` means no member fits the DSP/BRAM
/// budgets.
pub fn fpga_time_generic<S: Scalar>(
    spec: &FpgaSpec,
    f: &FpgaIn<S>,
    code_quality: f64,
) -> Option<S> {
    let one = S::from_i64(1);
    let pe = f.pe.constrain_le(S::from_i64(spec.max_pe()))?;
    let buffers = f.buffer_bytes.add(f.write_bytes);
    let bram_need = if f.pipeline >= 2 {
        buffers.mul(S::from_i64(2))
    } else {
        buffers
    };
    bram_need.constrain_le(S::from_i64(spec.bram_bytes))?;

    let rounds = f.rounds.max(one);

    let total_macs = f.flops.floor_int_div(S::from_i64(2));
    let macs_per_round = total_macs.div(rounds);
    let c = S::select(
        S::from_i64(0).lt(total_macs),
        macs_per_round
            .div(pe.mul(S::from_f64(code_quality.max(1e-3))))
            .div(S::from_f64(spec.clock_ghz * 1e9)),
        S::from_f64(0.0),
    );

    let onchip_bw = spec.bank_bw_gbps * f.partition as f64;
    let read_bw = spec.ddr_bw_gbps.min(onchip_bw) * 1e9;
    let r = f.stream_bytes.div(S::from_f64(read_bw));
    let w = f.write_bytes.div(S::from_f64(read_bw));

    let per_round = match f.pipeline {
        1 => r.add(c).add(w),
        2 => r.max(c).add(w),
        _ => r.max(c).max(w),
    };
    Some(rounds.mul(per_round).add(r.add(c).add(w)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuRow;
    use crate::fpga::FpgaRow;
    use crate::gpu::GpuRow;
    use crate::model::Evaluator;
    use crate::spec::{v100, vu9p, xeon_e5_2699_v4, Device};
    use flextensor_ir::ops;
    use flextensor_schedule::config::{NodeConfig, TargetKind};
    use flextensor_schedule::lower::lower;

    /// A spread of lowered feature rows per target: tuned, naive,
    /// infeasible and FPGA-flavored schedules over a few ops.
    fn sample_features(target: TargetKind) -> Vec<KernelFeatures> {
        let mut out = Vec::new();
        let g = ops::gemm(256, 256, 256);
        let mut cfgs = vec![NodeConfig::naive(g.root_op())];
        {
            let mut c = NodeConfig::naive(g.root_op());
            c.spatial_splits = vec![vec![8, 1, 16, 2], vec![8, 1, 16, 2]];
            c.reduce_splits = vec![vec![64, 2, 2]];
            c.cache_shared = true;
            c.unroll = true;
            c.vectorize = true;
            cfgs.push(c);
        }
        {
            // 64x64 threads per block: infeasible on GPU.
            let mut c = NodeConfig::naive(g.root_op());
            c.spatial_splits = vec![vec![1, 1, 64, 4], vec![1, 1, 64, 4]];
            cfgs.push(c);
        }
        {
            let mut c = NodeConfig::naive(g.root_op());
            c.spatial_splits = vec![vec![16, 2, 4, 2], vec![4, 2, 8, 4]];
            c.reduce_splits = vec![vec![16, 4, 4]];
            c.fuse_outer = 2;
            c.fpga_partition = 4;
            c.fpga_pipeline = 2;
            c.vectorize = true;
            cfgs.push(c);
        }
        for cfg in &cfgs {
            out.push(lower(&g, cfg, target).unwrap().features);
        }
        let conv = ops::conv2d(ops::ConvParams::same(1, 64, 64, 3), 28, 28);
        let mut c = NodeConfig::naive(conv.root_op());
        c.spatial_splits = vec![
            vec![1, 1, 1, 1],
            vec![4, 1, 16, 1],
            vec![28, 1, 1, 1],
            vec![4, 1, 1, 7],
        ];
        c.fpga_pipeline = 3;
        c.fpga_partition = 8;
        out.push(lower(&conv, &c, target).unwrap().features);
        out
    }

    /// Deterministic xorshift so the random rows need no external RNG.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
            &xs[(self.next() % xs.len() as u64) as usize]
        }
    }

    /// `count` feature rows from seeded random (but always valid)
    /// gemm/conv tilings with every flag drawn at random, so feasible and
    /// infeasible rows mix on every device.
    fn random_features(target: TargetKind, seed: u64, count: usize) -> Vec<KernelFeatures> {
        let gemm = ops::gemm(256, 192, 128);
        let conv = ops::conv2d(ops::ConvParams::same(1, 32, 64, 3), 14, 14);
        let mut rng = Rng(seed | 1);
        let gemm_i: [Vec<i64>; 4] = [
            vec![8, 1, 16, 2],
            vec![16, 1, 16, 1],
            vec![1, 1, 256, 1],
            vec![4, 4, 4, 4],
        ];
        let gemm_j: [Vec<i64>; 3] = [vec![6, 1, 16, 2], vec![12, 1, 16, 1], vec![192, 1, 1, 1]];
        let gemm_k: [Vec<i64>; 3] = [vec![64, 1, 2], vec![32, 2, 2], vec![128, 1, 1]];
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let (g, mut cfg) = if rng.next().is_multiple_of(4) {
                (&conv, NodeConfig::naive(conv.root_op()))
            } else {
                let mut c = NodeConfig::naive(gemm.root_op());
                c.spatial_splits = vec![rng.pick(&gemm_i).clone(), rng.pick(&gemm_j).clone()];
                c.reduce_splits = vec![rng.pick(&gemm_k).clone()];
                (&gemm, c)
            };
            cfg.cache_shared = rng.next().is_multiple_of(2);
            cfg.unroll = rng.next().is_multiple_of(2);
            cfg.vectorize = rng.next().is_multiple_of(2);
            if let Ok(kernel) = lower(g, &cfg, target) {
                out.push(kernel.features);
            }
        }
        out
    }

    /// The differential inputs: the hand-picked spread plus seeded random
    /// tilings.
    fn differential_features(target: TargetKind) -> Vec<KernelFeatures> {
        let mut out = sample_features(target);
        for seed in [0x9e37_79b9, 11, 22] {
            out.extend(random_features(target, seed, 200));
        }
        out
    }

    /// The production scorer ([`Evaluator::time_features`], which runs the
    /// generic bodies at `S = f64`) must equal the row reference bit for
    /// bit on every differential input of `dev`'s target.
    fn assert_matches_reference(
        dev: Device,
        code_quality: f64,
        reference: impl Fn(&KernelFeatures) -> Option<f64>,
    ) {
        let ev = Evaluator::new(dev).with_code_quality(code_quality);
        for f in differential_features(ev.target()) {
            assert_eq!(
                ev.time_features(&f).map(f64::to_bits),
                reference(&f).map(f64::to_bits),
                "diverged on {f:?}"
            );
        }
    }

    #[test]
    fn generic_f64_gpu_is_bit_identical_to_row_path() {
        let spec = v100();
        assert_matches_reference(Device::Gpu(spec.clone()), 0.75, |f| {
            crate::gpu::gpu_time_row(&spec, GpuRow::of(f), 0.75)
        });
    }

    #[test]
    fn generic_f64_cpu_is_bit_identical_to_row_path() {
        let spec = xeon_e5_2699_v4();
        assert_matches_reference(Device::Cpu(spec.clone()), 0.75, |f| {
            Some(crate::cpu::cpu_time_row(&spec, CpuRow::of(f), 0.75))
        });
    }

    #[test]
    fn generic_f64_fpga_is_bit_identical_to_row_path() {
        let spec = vu9p();
        assert_matches_reference(Device::Fpga(spec.clone()), 0.85, |f| {
            let fp = f.fpga.as_ref().expect("lowered for the FPGA target");
            crate::fpga::fpga_time_row(&spec, FpgaRow::of(f.flops, fp), 0.85)
        });
    }

    #[test]
    fn generic_f64_survives_adversarial_rows() {
        // Direct row construction: edge values the lowered samples do not
        // reach (zero flops, zero shared bytes, spill-sized register
        // tiles, single-thread blocks, materialized producers).
        let spec = v100();
        let base = GpuRow {
            flops: 0,
            grid: 1,
            block_threads: 1,
            thread_tile: 1,
            vthreads: 1,
            reduce_outer: 1,
            shared_bytes_per_block: 0,
            thread_reg_bytes: 0,
            input_bytes_total: 0,
            output_bytes: 4,
            data_node_bytes: 0,
            unroll: false,
            contiguous_inner: false,
            cache_shared: false,
        };
        let mut rows = vec![base];
        for (reg, dnb, flops, tpb) in [
            (4096i64, 1_000_000i64, 1_u64 << 33, 1024i64),
            (2000, 0, 12345, 33),
            (100, 7, 2, 1025), // infeasible: too many threads
        ] {
            let mut r = base;
            r.thread_reg_bytes = reg;
            r.data_node_bytes = dnb;
            r.flops = flops;
            r.block_threads = tpb;
            r.unroll = true;
            r.cache_shared = true;
            r.shared_bytes_per_block = 4096;
            rows.push(r);
        }
        for r in rows {
            let concrete = crate::gpu::gpu_time_row(&spec, r, 0.75);
            let f = GpuIn {
                flops: r.flops as i64 as f64,
                grid: r.grid as f64,
                block_threads: r.block_threads as f64,
                thread_tile: r.thread_tile as f64,
                vthreads: r.vthreads as f64,
                reduce_outer: r.reduce_outer as f64,
                shared_bytes_per_block: r.shared_bytes_per_block as f64,
                thread_reg_bytes: r.thread_reg_bytes as f64,
                input_bytes_total: r.input_bytes_total as f64,
                output_bytes: r.output_bytes as f64,
                data_node_bytes: r.data_node_bytes as f64,
                unroll: r.unroll,
                contiguous_inner: r.contiguous_inner,
                cache_shared: r.cache_shared,
            };
            let generic = gpu_time_generic::<f64>(&spec, &f, 0.75);
            assert_eq!(concrete.map(f64::to_bits), generic.map(f64::to_bits));
        }
    }

    #[test]
    fn interval_evaluation_encloses_member_rows() {
        // Corner rows plus interpolated members must land inside the
        // interval result on every device.
        let gpu = v100();
        let cpu = xeon_e5_2699_v4();
        let fpga = vu9p();
        for target in [TargetKind::Gpu, TargetKind::Cpu, TargetKind::Fpga] {
            let feats = sample_features(target);
            for a in &feats {
                for b in &feats {
                    if (a.unroll, a.contiguous_inner, a.cache_shared)
                        != (b.unroll, b.contiguous_inner, b.cache_shared)
                    {
                        continue;
                    }
                    match target {
                        TargetKind::Gpu => {
                            let iv = gpu_time_generic(&gpu, &GpuIn::enclosing(a, b), 0.75);
                            for m in [a, b] {
                                if let Some(t) = crate::gpu::gpu_time(&gpu, m, 0.75) {
                                    let iv = iv.expect("feasible member but interval infeasible");
                                    assert!(iv.contains(t), "{t} outside {iv:?}");
                                }
                            }
                        }
                        TargetKind::Cpu => {
                            let iv = cpu_time_generic(&cpu, &CpuIn::enclosing(a, b), 0.75);
                            for m in [a, b] {
                                let t = crate::cpu::cpu_time(&cpu, m, 0.75).unwrap();
                                assert!(iv.contains(t), "{t} outside {iv:?}");
                            }
                        }
                        TargetKind::Fpga => {
                            let (fa, fb) = (a.fpga.as_ref().unwrap(), b.fpga.as_ref().unwrap());
                            if (fa.partition, fa.pipeline) != (fb.partition, fb.pipeline) {
                                continue;
                            }
                            let iv = fpga_time_generic(
                                &fpga,
                                &FpgaIn::enclosing(a.flops, fa, b.flops, fb),
                                0.85,
                            );
                            for m in [a, b] {
                                if let Some(t) = crate::fpga::fpga_time(&fpga, m, 0.85) {
                                    let iv = iv.expect("feasible member but interval infeasible");
                                    assert!(iv.contains(t), "{t} outside {iv:?}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
