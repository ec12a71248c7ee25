//! §6.5 — comparison to the state of the art (AutoTVM) on C1D, T1D, C2D,
//! T2D, C3D, T3D and GRP (V100): final performance ratio and the schedule
//! space-size ratio (the paper measures FlexTensor's C2D space 2027x
//! larger than AutoTVM's on average).
//!
//! Flags: `--trials N` (FlexTensor search budget, default 150),
//! `--rounds N` (AutoTVM rounds, default 16), `--cases N` (cases per
//! operator, default 3).

use flextensor::{optimize, Method, OptimizeOptions, SearchOptions, Task};
use flextensor_autotvm::template::Template;
use flextensor_autotvm::tuner::{tune, TuneOptions};
use flextensor_bench::harness::{arg, geomean, save_csv, Table};
use flextensor_explore::space::Space;
use flextensor_ir::suite::{test_cases, OperatorKind};
use flextensor_schedule::config::TargetKind;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};

fn main() {
    flextensor_bench::harness::declare_flags(&["trials", "rounds", "cases"]);
    let trials: usize = arg("trials", 150);
    let rounds: usize = arg("rounds", 16);
    let ncases: usize = arg("cases", 3);
    let gpu = v100();
    let ev = Evaluator::new(Device::Gpu(gpu.clone()));
    let kinds = [
        OperatorKind::Conv1d,
        OperatorKind::ConvTranspose1d,
        OperatorKind::Conv2d,
        OperatorKind::ConvTranspose2d,
        OperatorKind::Conv3d,
        OperatorKind::ConvTranspose3d,
        OperatorKind::GroupConv,
    ];
    let opts = OptimizeOptions {
        method: Method::QMethod,
        search: SearchOptions {
            trials,
            starts: 8,
            initial_samples: 16,
            ..SearchOptions::default()
        },
    };
    println!("== §6.5: FlexTensor vs AutoTVM on V100 ==\n");
    let mut t = Table::new(&[
        "op",
        "AutoTVM GF",
        "FlexTensor GF",
        "speedup",
        "space ratio",
    ]);
    let mut all_speedups = Vec::new();
    let mut c2d_ratios = Vec::new();
    for kind in kinds {
        // Sample cases evenly across the suite (shapes range from
        // power-of-two-friendly to odd; the first few alone are not
        // representative).
        let all = test_cases(kind);
        let n = ncases.min(all.len());
        let idx: Vec<usize> = (0..n)
            .map(|i| {
                if n == 1 {
                    0
                } else {
                    i * (all.len() - 1) / (n - 1)
                }
            })
            .collect();
        let cases: Vec<_> = idx.into_iter().map(|i| all[i].clone()).collect();
        let (mut at_g, mut ft_g, mut sp, mut ratios) = (vec![], vec![], vec![], vec![]);
        for g in &cases {
            let at = tune(
                &g.clone(),
                &ev,
                &TuneOptions {
                    rounds,
                    batch: 64,
                    ..TuneOptions::default()
                },
            )
            .expect("autotvm");
            let task = Task::new(g.clone(), Device::Gpu(gpu.clone()));
            let ft = optimize(&task, &opts).expect("optimize");
            at_g.push(at.best_cost.gflops());
            ft_g.push(ft.gflops());
            sp.push(ft.gflops() / at.best_cost.gflops().max(1e-9));
            let ratio =
                Space::new(g, TargetKind::Gpu).size() / Template::new(g, TargetKind::Gpu).size();
            ratios.push(ratio);
        }
        if kind == OperatorKind::Conv2d {
            c2d_ratios = ratios.clone();
        }
        all_speedups.extend(sp.clone());
        t.row(vec![
            kind.abbr().to_string(),
            format!("{:.0}", geomean(&at_g)),
            format!("{:.0}", geomean(&ft_g)),
            format!("{:.2}", geomean(&sp)),
            format!("{:.0}x", geomean(&ratios)),
        ]);
    }
    t.row(vec![
        "AVG".into(),
        "".into(),
        "".into(),
        format!("{:.2}", geomean(&all_speedups)),
        "".into(),
    ]);
    println!("{}", t.render());
    save_csv("sec65", &t);
    println!(
        "\naverage speedup over AutoTVM: {:.2}x (paper: 2.21x)",
        geomean(&all_speedups)
    );
    println!(
        "C2D space ratio FlexTensor/AutoTVM: {:.0}x (paper: 2027x on average)",
        geomean(&c2d_ratios)
    );
}
