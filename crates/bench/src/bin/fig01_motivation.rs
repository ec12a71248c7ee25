//! Figure 1 — the motivation experiments (§2.3).
//!
//! (a) Three hand-written schedules for 2D convolution on the same GPU
//!     (V100), on YOLO layers C2, C8, C13 at batch 8: schedule-a splits
//!     the batch dimension for tiling, schedule-b binds the batch
//!     dimension to thread blocks, schedule-c simply fuses all loops flat.
//!     Small schedule differences → noticeably different performance, and
//!     the best schedule differs per shape.
//!
//! (b) One loop-split factor swept from 8 to 512 for a 2D convolution on
//!     V100, Xeon E5 and VU9P: the performance trend and the optimal
//!     factor differ per platform.

use flextensor_bench::harness::{save_csv, Table};
use flextensor_ir::yolo::yolo_layer;
use flextensor_schedule::config::NodeConfig;
use flextensor_sim::library::{split_axis, split_reduce};
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, vu9p, xeon_e5_2699_v4, Device};

/// schedule-a: split the batch dimension for tiling (batch ends up in the
/// per-thread inner tile).
fn schedule_a(op: &flextensor_ir::graph::ComputeOp) -> NodeConfig {
    let mut c = NodeConfig::naive(op);
    for (i, a) in op.spatial.iter().enumerate() {
        c.spatial_splits[i] = match i {
            0 => split_axis(a.extent, [1, 1, 4]), // batch tiled into threads' registers
            1 => split_axis(a.extent, [1, 8, 2]),
            _ => split_axis(a.extent, [1, 8, 1]),
        };
    }
    for (i, a) in op.reduce.iter().enumerate() {
        c.reduce_splits[i] = split_reduce(a.extent, [1, 4]);
    }
    c.cache_shared = true;
    c.unroll = true;
    c.vectorize = true;
    c
}

/// schedule-b: bind the batch dimension to thread blocks (batch stays at
/// the grid level).
fn schedule_b(op: &flextensor_ir::graph::ComputeOp) -> NodeConfig {
    let mut c = NodeConfig::naive(op);
    for (i, a) in op.spatial.iter().enumerate() {
        c.spatial_splits[i] = match i {
            0 => {
                let mut f = vec![1; 4];
                f[0] = a.extent; // whole batch -> blockIdx
                f
            }
            1 => split_axis(a.extent, [1, 8, 2]),
            _ => split_axis(a.extent, [1, 8, 1]),
        };
    }
    for (i, a) in op.reduce.iter().enumerate() {
        c.reduce_splits[i] = split_reduce(a.extent, [1, 4]);
    }
    c.cache_shared = true;
    c.unroll = true;
    c.vectorize = true;
    c
}

/// schedule-c: fuse all loops flat (one thread per output point, no
/// tiling, no staging).
fn schedule_c(op: &flextensor_ir::graph::ComputeOp) -> NodeConfig {
    let mut c = NodeConfig::naive(op);
    for (i, a) in op.spatial.iter().enumerate() {
        c.spatial_splits[i] = if i == op.spatial.len() - 1 {
            split_axis(a.extent, [1, 256, 1])
        } else {
            let mut f = vec![1; 4];
            f[0] = a.extent;
            f
        };
    }
    c
}

fn main() {
    flextensor_bench::harness::declare_flags(&[]);
    let gpu_ev = Evaluator::new(Device::Gpu(v100()));

    println!("== Figure 1(a): three schedules for C2D on V100, batch 8 ==\n");
    let mut ta = Table::new(&["layer", "schedule-a", "schedule-b", "schedule-c", "best"]);
    for name in ["C2", "C8", "C13"] {
        let g = yolo_layer(name).unwrap().graph(8);
        let op = g.root_op().clone();
        let times: Vec<Option<f64>> = [schedule_a(&op), schedule_b(&op), schedule_c(&op)]
            .iter()
            .map(|cfg| gpu_ev.evaluate(&g, cfg).map(|c| c.seconds))
            .collect();
        let best_t = times
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let rel: Vec<f64> = times
            .iter()
            .map(|t| t.map(|t| best_t / t).unwrap_or(0.0))
            .collect();
        let best_idx = rel
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| ["a", "b", "c"][i])
            .unwrap_or("-");
        ta.row(vec![
            name.to_string(),
            format!("{:.2}", rel[0]),
            format!("{:.2}", rel[1]),
            format!("{:.2}", rel[2]),
            best_idx.to_string(),
        ]);
    }
    println!("{}", ta.render());
    save_csv("fig01a", &ta);

    println!("\n== Figure 1(b): split-factor sweep for C2D (C9) on three platforms ==\n");
    // Sweep the thread/vector-level split factor of the output-channel
    // loop (k = 512 on C9) from 8 to 512.
    let layer = yolo_layer("C9").unwrap();
    let factors = [512i64, 256, 128, 64, 32, 16, 8];
    let devices: Vec<(&str, Evaluator)> = vec![
        ("V100", Evaluator::new(Device::Gpu(v100()))),
        ("Xeon", Evaluator::new(Device::Cpu(xeon_e5_2699_v4()))),
        ("VU9P", Evaluator::new(Device::Fpga(vu9p()))),
    ];
    let mut tb = Table::new(&["factor", "V100", "Xeon", "VU9P"]);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); devices.len()];
    for &f in &factors {
        for (d, (_, ev)) in devices.iter().enumerate() {
            let g = layer.graph(1);
            let op = g.root_op().clone();
            let mut cfg = NodeConfig::naive(&op);
            // k axis: `f` at the parallel-hardware level, rest outside.
            cfg.spatial_splits[1] = vec![512 / f, 1, f, 1];
            cfg.spatial_splits[2] = split_axis(28, [1, 4, 1]);
            cfg.spatial_splits[3] = split_axis(28, [1, 1, 4]);
            for (i, a) in op.reduce.iter().enumerate() {
                cfg.reduce_splits[i] = split_reduce(a.extent, [1, 4]);
            }
            cfg.cache_shared = ev.target() == flextensor_schedule::config::TargetKind::Gpu;
            cfg.unroll = true;
            cfg.vectorize = true;
            cfg.fuse_outer = 2;
            let t = ev
                .evaluate(&g, &cfg)
                .map(|c| c.seconds)
                .unwrap_or(f64::INFINITY);
            series[d].push(if t.is_finite() { 1.0 / t } else { 0.0 });
        }
    }
    // Normalize each platform's series to its own maximum.
    for s in &mut series {
        let m = s.iter().copied().fold(0.0f64, f64::max).max(1e-30);
        for v in s.iter_mut() {
            *v /= m;
        }
    }
    for (i, &f) in factors.iter().enumerate() {
        tb.row(vec![
            f.to_string(),
            format!("{:.2}", series[0][i]),
            format!("{:.2}", series[1][i]),
            format!("{:.2}", series[2][i]),
        ]);
    }
    println!("{}", tb.render());
    save_csv("fig01b", &tb);
    println!("\nNote: per-platform normalized; optimal factors differ per platform.");
}
