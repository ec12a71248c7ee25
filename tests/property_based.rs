//! Property-based tests (proptest) over the core invariants:
//!
//! * any divisible split configuration lowers to a kernel that computes
//!   the operator's definition exactly (the schedule-correctness property);
//! * config encode/decode is a bijection on valid configs;
//! * space directions preserve validity and factor products;
//! * interval analysis soundly bounds concrete index values.

use flextensor_explore::space::Space;
use flextensor_interp::machine::check_against_reference;
use flextensor_interp::reference::random_inputs;
use flextensor_ir::expr::Expr;
use flextensor_ir::ops;
use flextensor_ir::suite;
use flextensor_schedule::config::{NodeConfig, TargetKind};
use flextensor_schedule::interval::{eval_interval, Interval, IntervalEnv};
use flextensor_schedule::lower::lower;
use proptest::prelude::*;

/// Strategy: an ordered 4-way factorization of `n` (by scattering prime
/// factors over the levels).
fn factorization(n: i64, parts: usize) -> impl Strategy<Value = Vec<i64>> {
    let primes = prime_factors(n);
    proptest::collection::vec(0..parts, primes.len()).prop_map(move |slots| {
        let mut f = vec![1i64; parts];
        for (&p, &s) in primes.iter().zip(&slots) {
            f[s] *= p;
        }
        f
    })
}

fn prime_factors(mut n: i64) -> Vec<i64> {
    let mut out = Vec::new();
    let mut d = 2;
    while d * d <= n {
        while n % d == 0 {
            out.push(d);
            n /= d;
        }
        d += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any divisible split of a small GEMM computes the right product on
    /// every target.
    #[test]
    fn scheduled_gemm_is_always_correct(
        fi in factorization(8, 4),
        fj in factorization(12, 4),
        fk in factorization(10, 3),
        reorder_swap in any::<bool>(),
        unroll in any::<bool>(),
        cache in any::<bool>(),
        target_idx in 0usize..3,
    ) {
        let g = ops::gemm(8, 12, 10);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.spatial_splits = vec![fi, fj];
        cfg.reduce_splits = vec![fk];
        if reorder_swap {
            cfg.reorder = vec![1, 0];
        }
        cfg.unroll = unroll;
        cfg.cache_shared = cache;
        cfg.vectorize = true;
        let target = [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga][target_idx];
        let kernel = lower(&g, &cfg, target).expect("valid config lowers");
        let inputs = random_inputs(&g, 5);
        let diff = check_against_reference(&g, &kernel, &inputs).expect("runs");
        prop_assert!(diff < 1e-9, "diff {diff}");
    }

    /// Any divisible split of a small padded conv2d is correct (exercises
    /// producer inlining + select-guarded loads under arbitrary tiling).
    #[test]
    fn scheduled_conv_is_always_correct(
        fk in factorization(4, 4),
        fi in factorization(6, 4),
        fj in factorization(6, 4),
        frc in factorization(3, 3),
        inline in any::<bool>(),
    ) {
        let g = ops::conv2d(ops::ConvParams::same(1, 3, 4, 3), 6, 6);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.spatial_splits[1] = fk;
        cfg.spatial_splits[2] = fi;
        cfg.spatial_splits[3] = fj;
        cfg.reduce_splits[0] = frc;
        cfg.inline_data = inline;
        let kernel = lower(&g, &cfg, TargetKind::Gpu).expect("valid config lowers");
        let inputs = random_inputs(&g, 6);
        let diff = check_against_reference(&g, &kernel, &inputs).expect("runs");
        prop_assert!(diff < 1e-9, "diff {diff}");
    }

    /// encode -> decode is the identity on valid configs.
    #[test]
    fn config_encoding_roundtrips(
        fi in factorization(16, 4),
        fj in factorization(24, 4),
        fk in factorization(12, 3),
        unroll in any::<bool>(),
        cache in any::<bool>(),
        inline in any::<bool>(),
        fuse in 1usize..=2,
        partition in prop::sample::select(vec![1i64, 2, 4, 8, 16]),
        pipeline in 1i64..=3,
    ) {
        let g = ops::gemm(16, 24, 12);
        let op = g.root_op();
        let mut cfg = NodeConfig::naive(op);
        cfg.spatial_splits = vec![fi, fj];
        cfg.reduce_splits = vec![fk];
        cfg.unroll = unroll;
        cfg.cache_shared = cache;
        cfg.inline_data = inline;
        cfg.fuse_outer = fuse;
        cfg.fpga_partition = partition;
        cfg.fpga_pipeline = pipeline;
        prop_assert!(cfg.validate(op).is_ok());
        let decoded = NodeConfig::decode(op, &cfg.encode()).expect("decodes");
        prop_assert_eq!(cfg, decoded);
    }

    /// Every applicable direction from a random point yields another valid
    /// point, with split products conserved.
    #[test]
    fn directions_preserve_validity(seed in any::<u64>(), target_idx in 0usize..3) {
        use rand::SeedableRng;
        let g = ops::conv2d(ops::ConvParams::same(1, 8, 16, 3), 12, 12);
        let target = [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga][target_idx];
        let space = Space::new(&g, target);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = space.random_point(&mut rng);
        prop_assert!(p.validate(space.op()).is_ok());
        for &d in space.directions() {
            if let Some(n) = space.apply(&p, d) {
                prop_assert!(n.validate(space.op()).is_ok(), "direction {d:?}");
            }
        }
    }

    /// Interval analysis soundly bounds concrete evaluations of affine
    /// conv-style index expressions.
    #[test]
    fn interval_analysis_is_sound_for_affine_indices(
        stride in 1i64..4,
        dil in 1i64..3,
        hi_i in 0i64..8,
        hi_r in 0i64..4,
        offset in -3i64..4,
    ) {
        let e = Expr::var("i") * stride + Expr::var("r") * dil + offset;
        let mut env = IntervalEnv::new();
        env.insert("i".into(), Interval::new(0, hi_i));
        env.insert("r".into(), Interval::new(0, hi_r));
        let iv = eval_interval(&e, &env);
        for i in 0..=hi_i {
            for r in 0..=hi_r {
                let v = i * stride + r * dil + offset;
                prop_assert!(iv.lo <= v && v <= iv.hi, "{v} outside [{}, {}]", iv.lo, iv.hi);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Delta-evaluation properties: incremental features equal fresh features.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary seeded single-move mutation sequences: evaluating each
    /// step's config incrementally from its predecessor (rolling the base
    /// forward through the delta-produced features) is bit-for-bit
    /// identical to a fresh full `features()` computation at every step —
    /// features, costs, and rejection verdicts alike.
    #[test]
    fn delta_features_match_fresh_compute_under_arbitrary_mutations(
        seed in any::<u64>(),
        target_idx in 0usize..3,
        steps in 10usize..40,
    ) {
        use flextensor_schedule::delta::{delta_features_with, DeltaScratch};
        use flextensor_schedule::template::LoweredTemplate;
        use rand::{RngCore, SeedableRng};

        let g = ops::conv2d(ops::ConvParams::same(1, 4, 8, 3), 8, 8);
        let target = [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga][target_idx];
        let template = LoweredTemplate::new(&g, target);
        let space = Space::new(&g, target);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dirs = space.directions();
        let mut scratch = DeltaScratch::new();
        let mut base = space.random_point(&mut rng);
        let mut base_feats = template
            .features(&base)
            .expect("random points are valid");
        for _ in 0..steps {
            let dir = dirs[rng.next_u32() as usize % dirs.len()];
            let Some(next) = space.apply(&base, dir) else { continue };
            let fresh = template.features(&next);
            let delta =
                delta_features_with(&template, &base, &base_feats, &next, &mut scratch);
            match (fresh, delta) {
                (Ok(f), Ok((d, _))) => {
                    prop_assert_eq!(&f, &d, "features diverged");
                    base = next;
                    base_feats = d;
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "errors diverged"),
                (f, d) => {
                    prop_assert!(false, "verdicts diverged: fresh {:?} vs delta {:?}", f, d);
                }
            }
        }
    }

    /// Arbitrary seeded neighbor batches through delta pools: outcomes
    /// (costs bit for bit) and delta counters are invariant in the worker
    /// count and match a plain pool on the same candidates.
    #[test]
    fn delta_pool_outcomes_are_worker_count_invariant(
        seed in any::<u64>(),
        n_bases in 2usize..5,
    ) {
        use flextensor_explore::pool::{EvalPool, PoolOptions};
        use flextensor_sim::model::Evaluator;
        use flextensor_sim::spec::{v100, Device};
        use rand::SeedableRng;

        let g = ops::gemm(32, 32, 32);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let space = Space::new(&g, ev.target());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bases: Vec<NodeConfig> =
            (0..n_bases).map(|_| space.random_point(&mut rng)).collect();
        let mut cands = Vec::new();
        let mut base_of = Vec::new();
        for (bi, b) in bases.iter().enumerate() {
            for &d in space.directions() {
                if let Some(n) = space.apply(b, d) {
                    cands.push(n);
                    base_of.push(bi);
                }
            }
        }
        prop_assert!(!cands.is_empty());
        let plain = EvalPool::new(&g, &ev, 1, 1 << 16).evaluate_batch(&cands);
        let mut counters = Vec::new();
        for workers in [1usize, 4] {
            let delta = PoolOptions {
                delta_eval: true,
                ..PoolOptions::default()
            };
            let mut pool = EvalPool::with_options(&g, &ev, workers, 1 << 16, delta);
            let out = pool.evaluate_batch_delta(&cands, &base_of, &bases);
            prop_assert_eq!(&out, &plain, "workers {}", workers);
            let s = pool.stats();
            prop_assert_eq!(s.delta_hits + s.delta_full, s.evaluated);
            counters.push((s.delta_hits, s.delta_full, s.evaluated));
        }
        prop_assert_eq!(counters[0], counters[1]);
    }
}

/// The trivial point of the schedule space exists for *every* shape the
/// paper benchmarks: `NodeConfig::naive` validates against the anchor of
/// each suite test case of each operator kind (checked exhaustively, not
/// sampled — this is the floor the explorers start from).
#[test]
fn naive_config_validates_for_every_suite_case() {
    for kind in suite::OperatorKind::all() {
        let cases = suite::test_cases(kind);
        assert!(!cases.is_empty(), "{} has no test cases", kind.abbr());
        for g in cases {
            let op = g.anchor_op();
            let cfg = NodeConfig::naive(op);
            cfg.validate(op).unwrap_or_else(|e| {
                panic!(
                    "naive config invalid for {} case {}: {e}",
                    kind.abbr(),
                    g.name
                )
            });
        }
    }
}

/// A three-op chain of matrix products over all-ones inputs has the
/// closed form `O[i,j] = k1·k2·k3`, computed here independently of any
/// interpreter code path: the reference evaluator must reproduce it
/// bit-exactly (integer-valued sums are exact in f64 at these sizes).
#[test]
fn reference_matches_closed_form_on_a_three_gemm_chain() {
    use flextensor_interp::eval::{Buffer, Store};
    use flextensor_interp::reference::run_reference;
    use flextensor_ir::graph::{Axis, Combiner, GraphBuilder};

    let (n, k1, k2, k3, m) = (3i64, 4i64, 5i64, 6i64, 2i64);
    let mut b = GraphBuilder::new("gemm_chain3");
    b.placeholder("A", vec![n, k1]);
    b.placeholder("B", vec![k1, k2]);
    b.placeholder("C", vec![k2, k3]);
    b.placeholder("D", vec![k3, m]);
    b.compute(
        "t1",
        "T1",
        vec![Axis::new("i", n), Axis::new("j", k2)],
        vec![Axis::new("k", k1)],
        Expr::load("A", vec![Expr::var("i"), Expr::var("k")])
            * Expr::load("B", vec![Expr::var("k"), Expr::var("j")]),
        Combiner::Sum,
    );
    b.compute(
        "t2",
        "T2",
        vec![Axis::new("i", n), Axis::new("j", k3)],
        vec![Axis::new("k", k2)],
        Expr::load("T1", vec![Expr::var("i"), Expr::var("k")])
            * Expr::load("C", vec![Expr::var("k"), Expr::var("j")]),
        Combiner::Sum,
    );
    b.compute(
        "t3",
        "O",
        vec![Axis::new("i", n), Axis::new("j", m)],
        vec![Axis::new("k", k3)],
        Expr::load("T2", vec![Expr::var("i"), Expr::var("k")])
            * Expr::load("D", vec![Expr::var("k"), Expr::var("j")]),
        Combiner::Sum,
    );
    let g = b.finish().expect("chain graph is well-formed");

    let mut inputs = Store::new();
    for (name, shape) in [
        ("A", vec![n, k1]),
        ("B", vec![k1, k2]),
        ("C", vec![k2, k3]),
        ("D", vec![k3, m]),
    ] {
        inputs.insert(name.to_string(), Buffer::filled(&shape, 1.0));
    }
    let store = run_reference(&g, &inputs).expect("reference run succeeds");
    let out = store.get("O").expect("output produced");
    let expect = (k1 * k2 * k3) as f64;
    for i in 0..n {
        for j in 0..m {
            let got = out.get(&[i, j]).expect("in bounds");
            assert_eq!(got, expect, "O[{i},{j}]");
        }
    }
}

// ---------------------------------------------------------------------------
// Tuning-database properties: the neighbor metric and warm-started search.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The shape metric is a deterministic pure function and symmetric —
    /// including across mismatched dimensionality (prefix slices).
    #[test]
    fn shape_distance_is_deterministic_and_symmetric(
        a_full in proptest::collection::vec(1..1024i64, 5),
        b_full in proptest::collection::vec(1..1024i64, 5),
        len_a in 0..5usize,
        len_b in 0..5usize,
    ) {
        use flextensor_tunedb::shape_distance;
        let a = &a_full[..len_a];
        let b = &b_full[..len_b];
        let d1 = shape_distance(a, b);
        let d2 = shape_distance(a, b);
        prop_assert_eq!(d1.to_bits(), d2.to_bits(), "not deterministic");
        prop_assert_eq!(
            d1.to_bits(),
            shape_distance(b, a).to_bits(),
            "not symmetric"
        );
        prop_assert!(d1.is_finite() && d1 >= 0.0);
    }

    /// Exact shape match has distance zero, and a key is always its own
    /// nearest candidate at distance zero (when offered).
    #[test]
    fn exact_key_distance_is_zero(
        shape in proptest::collection::vec(1..1024i64, 4),
        other in proptest::collection::vec(1..1024i64, 4),
    ) {
        use flextensor_tunedb::{key_distance, shape_distance, TuneKey};
        prop_assert_eq!(shape_distance(&shape, &shape), 0.0);
        let key = TuneKey::new("gemm", shape.clone(), "V100");
        prop_assert_eq!(key_distance(&key, &key), 0.0);
        // Mismatched op or target is never a neighbor, whatever the shape.
        let foreign = TuneKey::new("c2d", other, "V100");
        prop_assert!(key_distance(&key, &foreign).is_infinite());
    }
}

proptest! {
    // Each case runs two real searches; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Warm-starting with any stored config is never worse than the cold
    /// run at the same budget and seed: the warm seeds join the trial-0
    /// batch (leaving the RNG sequence untouched), so the cold run's
    /// whole candidate set is still evaluated and the incumbent can only
    /// improve.
    #[test]
    fn warm_started_search_is_never_worse_than_cold(
        size_idx in 0..3usize,
        seed in 0..1000u64,
    ) {
        use flextensor_explore::methods::{search, Method, SearchOptions};
        use flextensor_sim::model::Evaluator;
        use flextensor_sim::spec::{v100, Device};

        let n = [32, 48, 64][size_idx];
        let g = ops::gemm(n, n, n);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let opts = SearchOptions {
            trials: 4,
            starts: 2,
            initial_samples: 4,
            seed,
            ..SearchOptions::default()
        };
        let cold = search(&g, &ev, Method::PMethod, &opts).expect("cold search");
        // Warm-start from the larger sibling's best config (a realistic
        // neighbor transfer), plus the cold best itself (the worst case
        // for the property: it must at least tie).
        let sibling = ops::gemm(2 * n, 2 * n, 2 * n);
        let sib = search(&sibling, &ev, Method::PMethod, &opts).expect("sibling search");
        let warm_opts = SearchOptions {
            warm_start: vec![sib.best.encode(), cold.best.encode()],
            ..opts
        };
        let warm = search(&g, &ev, Method::PMethod, &warm_opts).expect("warm search");
        prop_assert!(warm.warm_seeds >= 1);
        prop_assert!(
            warm.best_cost.seconds <= cold.best_cost.seconds,
            "warm {} worse than cold {}",
            warm.best_cost.seconds,
            cold.best_cost.seconds
        );
    }
}
