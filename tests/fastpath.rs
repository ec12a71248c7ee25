//! Differential tests for the split-phase lowering fast path.
//!
//! The invariant: for every operator of the Table 3 suite, every target,
//! and every sampled config, evaluating through a cached
//! [`LoweredTemplate`] must produce *identical* `KernelFeatures` and
//! `Cost` to a full `lower()` — including identical rejections of invalid
//! configs. The exploration layers (EvalPool, search drivers) rely on
//! this to switch to the fast path without changing a single result.

use flextensor_explore::pool::EvalPool;
use flextensor_explore::space::Space;
use flextensor_ir::graph::Graph;
use flextensor_ir::ops;
use flextensor_ir::suite::{small_case, OperatorKind};
use flextensor_schedule::config::{NodeConfig, TargetKind};
use flextensor_schedule::delta::{delta_features_with, DeltaScratch};
use flextensor_schedule::lower::lower;
use flextensor_schedule::nest::Stmt;
use flextensor_schedule::template::LoweredTemplate;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, vu9p, xeon_e5_2699_v4, Device};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn device_for(target: TargetKind) -> Device {
    match target {
        TargetKind::Cpu => Device::Cpu(xeon_e5_2699_v4()),
        TargetKind::Gpu => Device::Gpu(v100()),
        TargetKind::Fpga => Device::Fpga(vu9p()),
    }
}

/// Sampled configs for a graph: the naive start point, random points, and
/// the full one-step neighborhood of the start (covers every direction
/// kind, including `inline_data` toggles).
fn sample_configs(graph: &Graph, target: TargetKind, seed: u64) -> Vec<NodeConfig> {
    let space = Space::new(graph, target);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfgs = vec![space.start_point().clone()];
    for _ in 0..12 {
        cfgs.push(space.random_point(&mut rng));
    }
    let start = space.start_point().clone();
    for &dir in space.directions() {
        if let Some(n) = space.apply(&start, dir) {
            cfgs.push(n);
        }
    }
    cfgs
}

#[test]
fn template_features_match_lower_for_every_suite_op() {
    let mut staged_checked = 0;
    for kind in OperatorKind::all() {
        let graph = small_case(kind);
        for target in [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga] {
            let template = LoweredTemplate::new(&graph, target);
            for (ci, cfg) in sample_configs(&graph, target, 0xFA57).iter().enumerate() {
                let fast = template.features(cfg);
                let full = lower(&graph, cfg, target);
                // The GPU nest's `StageIn` annotations size the same
                // per-block footprint as the shared-memory feature.
                if let (TargetKind::Gpu, true, Ok(k)) = (target, cfg.cache_shared, &full) {
                    let mut staged = 0;
                    for s in &k.stmts {
                        s.visit(&mut |st| {
                            if let Stmt::StageIn { bytes, .. } = st {
                                staged += bytes;
                            }
                        });
                    }
                    assert_eq!(
                        staged, k.features.shared_bytes_per_block,
                        "{kind:?} config #{ci}: staged bytes"
                    );
                    staged_checked += 1;
                }
                let full = full.map(|k| k.features);
                assert_eq!(fast, full, "{kind:?} on {target} config #{ci}");
            }
        }
    }
    assert!(
        staged_checked > 0,
        "no GPU config stages into shared memory"
    );
}

#[test]
fn template_evaluation_cost_matches_full_evaluation() {
    for kind in OperatorKind::all() {
        let graph = small_case(kind);
        for target in [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga] {
            let ev = Evaluator::new(device_for(target));
            let template = LoweredTemplate::new(&graph, target);
            for (ci, cfg) in sample_configs(&graph, target, 0xBEEF).iter().enumerate() {
                assert_eq!(
                    ev.evaluate_template(&template, cfg),
                    ev.evaluate(&graph, cfg),
                    "{kind:?} on {target} config #{ci}"
                );
            }
        }
    }
}

#[test]
fn template_rejections_match_lower_rejections() {
    let graph = small_case(OperatorKind::Gemm);
    let template = LoweredTemplate::new(&graph, TargetKind::Gpu);
    let mut bad = NodeConfig::naive(graph.anchor_op());
    bad.spatial_splits[0] = vec![7, 1, 1, 1]; // product mismatch
    assert_eq!(
        template.features(&bad).unwrap_err(),
        lower(&graph, &bad, TargetKind::Gpu).unwrap_err()
    );
}

/// Delta-vs-full differential sweep: for every Table 3 suite operator and
/// every target, walk ~50 seeded single-move neighbor steps and check at
/// each step that the incremental feature patch is **bit-identical** to a
/// full `template.features()` recompute — features, modeled costs, and
/// error verdicts alike. The walk rolls its base forward through the
/// *delta-produced* features, so any drift would compound and be caught.
#[test]
fn delta_walk_matches_full_recompute_for_every_suite_op() {
    for (ki, kind) in OperatorKind::all().into_iter().enumerate() {
        let graph = small_case(kind);
        for target in [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga] {
            let ev = Evaluator::new(device_for(target));
            let template = LoweredTemplate::new(&graph, target);
            let space = Space::new(&graph, target);
            let mut rng = StdRng::seed_from_u64(0xDE17A ^ ((ki as u64) << 8) ^ target as u64);
            let dirs = space.directions();
            let mut scratch = DeltaScratch::new();
            let mut base = space.start_point().clone();
            let mut base_feats = template
                .features(&base)
                .expect("the naive start point always lowers");
            let mut compared = 0usize;
            for step in 0..50 {
                let dir = dirs[rng.next_u32() as usize % dirs.len()];
                let Some(neighbor) = space.apply(&base, dir) else {
                    continue;
                };
                let full = template.features(&neighbor);
                let delta =
                    delta_features_with(&template, &base, &base_feats, &neighbor, &mut scratch);
                match (full, delta) {
                    (Ok(f), Ok((d, _took_delta))) => {
                        assert_eq!(f, d, "{kind:?} on {target} step {step}: features diverged");
                        assert_eq!(
                            ev.time_features(&f).map(f64::to_bits),
                            ev.time_features(&d).map(f64::to_bits),
                            "{kind:?} on {target} step {step}: costs diverged"
                        );
                        base = neighbor;
                        base_feats = d;
                        compared += 1;
                    }
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{kind:?} on {target} step {step}: errors diverged");
                    }
                    (f, d) => panic!(
                        "{kind:?} on {target} step {step}: verdicts diverged \
                         (full {f:?}, delta {d:?})"
                    ),
                }
            }
            assert!(
                compared >= 10,
                "{kind:?} on {target}: walk compared only {compared} steps"
            );
        }
    }
}

#[test]
fn pool_fast_path_equals_reference_pool_across_workers() {
    let graph = ops::gemm(64, 64, 64);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let space = Space::new(&graph, ev.target());
    let mut rng = StdRng::seed_from_u64(42);
    let cands: Vec<NodeConfig> = (0..48).map(|_| space.random_point(&mut rng)).collect();
    let baseline = EvalPool::new_reference(&graph, &ev, 1, 1 << 16).evaluate_batch(&cands);
    for workers in [1, 4] {
        let fast = EvalPool::new(&graph, &ev, workers, 1 << 16).evaluate_batch(&cands);
        assert_eq!(fast, baseline, "workers = {workers}");
    }
}
