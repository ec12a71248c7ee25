//! §6.4 — performance for new operators without library support: block
//! circulant matrix multiply (BCM) on V100 and the shift operation (SHO)
//! on Titan X, compared against a hand-tuned implementation (fixed 4-level
//! tiling, deep unrolling, same code generator).
//!
//! Flags: `--trials N` (default 120).

use flextensor::{optimize, Method, OptimizeOptions, SearchOptions, Task};
use flextensor_bench::harness::{arg, geomean, save_csv, Table};
use flextensor_ir::suite::{test_cases, OperatorKind};
use flextensor_sim::library;
use flextensor_sim::spec::{titan_x, v100, Device, GpuSpec};

fn run_op(kind: OperatorKind, gpu: &GpuSpec, trials: usize) -> (Table, f64) {
    let opts = OptimizeOptions {
        method: Method::QMethod,
        search: SearchOptions {
            trials,
            starts: 8,
            initial_samples: 16,
            ..SearchOptions::default()
        },
    };
    let mut t = Table::new(&["case", "hand-tuned(ms)", "FlexTensor(ms)", "speedup"]);
    let mut speedups = Vec::new();
    for g in test_cases(kind) {
        let hand = library::hand_tuned_gpu_time(&g, gpu).expect("hand-tuned baseline");
        let task = Task::new(g.clone(), Device::Gpu(gpu.clone()));
        let r = optimize(&task, &opts).expect("optimize");
        let sp = hand / r.cost.seconds;
        speedups.push(sp);
        t.row(vec![
            g.name.clone(),
            format!("{:.3}", hand * 1e3),
            format!("{:.3}", r.cost.seconds * 1e3),
            format!("{sp:.2}"),
        ]);
    }
    let avg = geomean(&speedups);
    (t, avg)
}

fn main() {
    flextensor_bench::harness::declare_flags(&["trials"]);
    let trials: usize = arg("trials", 120);
    println!("== §6.4: BCM (block circulant matrix) on V100 ==\n");
    let (t, avg) = run_op(OperatorKind::Bcm, &v100(), trials);
    println!("{}", t.render());
    save_csv("sec64_bcm", &t);
    println!("average speedup vs hand-tuned: {avg:.2}x (paper: 2.11x)\n");

    println!("== §6.4: SHO (shift operation) on Titan X ==\n");
    let (t, avg) = run_op(OperatorKind::Shift, &titan_x(), trials);
    println!("{}", t.render());
    save_csv("sec64_sho", &t);
    println!("average speedup vs hand-tuned: {avg:.2}x (paper: 1.53x)");
}
