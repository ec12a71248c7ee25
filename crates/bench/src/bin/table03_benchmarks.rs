//! Table 3 — benchmark specifications: each operator with its static-
//! analysis results (#sl/#rl, #node), library support, FLOP range and
//! test-case count, regenerated from the actual suite graphs.

use flextensor_bench::harness::{save_csv, Table};
use flextensor_ir::analysis::analyze;
use flextensor_ir::suite::{test_cases, OperatorKind};

fn library_support(kind: OperatorKind) -> (&'static str, &'static str) {
    use OperatorKind::*;
    match kind {
        Gemv | Gemm | Bilinear => ("MKL", "cuBlas"),
        Conv1d | Conv2d | GroupConv | Depthwise | Dilated => ("MKL-DNN", "cuDNN"),
        ConvTranspose1d | ConvTranspose2d => ("PyTorch", "cuDNN"),
        Conv3d | ConvTranspose3d => ("PyTorch", "cuDNN"),
        Bcm | Shift => ("-", "-"),
    }
}

fn fmt_flops(f: u64) -> String {
    if f >= 1_000_000_000 {
        format!("{:.1}G", f as f64 / 1e9)
    } else if f >= 1_000_000 {
        format!("{:.0}M", f as f64 / 1e6)
    } else {
        format!("{:.0}K", f as f64 / 1e3)
    }
}

fn main() {
    flextensor_bench::harness::declare_flags(&[]);
    println!("== Table 3: benchmark specifications ==\n");
    let mut t = Table::new(&[
        "Operator", "Abbr", "#sl/rl", "#node", "CPU lib", "GPU lib", "FLOPs", "Cases",
    ]);
    for kind in OperatorKind::table3() {
        let cases = test_cases(kind);
        let analyses: Vec<_> = cases.iter().map(analyze).collect();
        let a0 = &analyses[0];
        let fmin = analyses.iter().map(|a| a.flops).min().unwrap_or(0);
        let fmax = analyses.iter().map(|a| a.flops).max().unwrap_or(0);
        let (cpu, gpu) = library_support(kind);
        t.row(vec![
            format!("{kind:?}"),
            kind.abbr().to_string(),
            format!("{}/{}", a0.total_spatial, a0.root_reduce),
            a0.num_compute_nodes.to_string(),
            cpu.to_string(),
            gpu.to_string(),
            format!("{}-{}", fmt_flops(fmin), fmt_flops(fmax)),
            cases.len().to_string(),
        ]);
    }
    println!("{}", t.render());
    save_csv("table03", &t);

    println!("\nPer-node statistical information of the first case of each operator:");
    for kind in OperatorKind::table3() {
        let g = &test_cases(kind)[0];
        let a = analyze(g);
        println!("\n{} ({}):", kind.abbr(), g.name);
        for s in &a.stats {
            println!("  {s}");
        }
    }
}
