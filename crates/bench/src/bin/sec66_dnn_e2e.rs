//! §6.6 — case study of full DNNs: YOLO-v1 (24 conv layers) and OverFeat
//! (5 conv layers) end-to-end on V100 at batch 1, FlexTensor vs AutoTVM.
//!
//! Flags: `--trials N` (FlexTensor per-layer budget, default 120),
//! `--rounds N` (AutoTVM rounds per layer, default 12).

use flextensor::dnn::{autotvm_network, optimize_network, overfeat, yolo_v1, LayerSpec};
use flextensor::{Method, OptimizeOptions, SearchOptions};
use flextensor_autotvm::tuner::TuneOptions;
use flextensor_bench::harness::{arg, fmt_time, save_csv, Table};
use flextensor_sim::spec::{v100, Device};

fn run(name: &str, specs: &[LayerSpec], device: &Device, trials: usize, rounds: usize) {
    let opts = OptimizeOptions {
        method: Method::QMethod,
        search: SearchOptions {
            trials,
            starts: 8,
            initial_samples: 16,
            ..SearchOptions::default()
        },
    };
    let topts = TuneOptions {
        rounds,
        batch: 64,
        ..TuneOptions::default()
    };
    let ft = optimize_network(specs, device, 1, &opts).expect("flextensor network");
    let at = autotvm_network(specs, device, 1, &topts).expect("autotvm network");
    println!(
        "== §6.6: {name} end-to-end on {} (batch 1) ==\n",
        device.name()
    );
    let mut t = Table::new(&["layer", "count", "AutoTVM", "FlexTensor", "speedup"]);
    for (f, a) in ft.layers.iter().zip(&at.layers) {
        t.row(vec![
            f.name.to_string(),
            f.count.to_string(),
            fmt_time(a.seconds),
            fmt_time(f.seconds),
            format!("{:.2}", a.seconds / f.seconds),
        ]);
    }
    t.row(vec![
        "TOTAL".into(),
        "".into(),
        fmt_time(at.total_seconds),
        fmt_time(ft.total_seconds),
        format!("{:.2}", at.total_seconds / ft.total_seconds),
    ]);
    println!("{}", t.render());
    save_csv(
        &format!("sec66_{}", name.to_lowercase().replace('-', "_")),
        &t,
    );
    println!(
        "\n{name} end-to-end speedup vs AutoTVM: {:.2}x\n",
        at.total_seconds / ft.total_seconds
    );
}

fn main() {
    flextensor_bench::harness::declare_flags(&["trials", "rounds"]);
    let trials: usize = arg("trials", 120);
    let rounds: usize = arg("rounds", 12);
    let device = Device::Gpu(v100());
    run("YOLO-v1", &yolo_v1(), &device, trials, rounds);
    run("OverFeat", &overfeat(), &device, trials, rounds);
    println!("(paper: 1.07x for YOLO-v1, 1.39x for OverFeat)");
}
