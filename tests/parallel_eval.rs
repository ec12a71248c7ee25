//! The parallel, memoized evaluation layer: determinism in the worker
//! count, cache-key invariants, and statistics plumbing.
//!
//! The central contract under test: `eval_workers` changes *wall-clock
//! time only*. Every search result — best config, best cost, measurement
//! count, modeled exploration time, full trace — must be bit-for-bit
//! identical whether candidates are evaluated serially or fanned out
//! over a worker pool.

use std::collections::BTreeSet;

use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_explore::pool::EvalPool;
use flextensor_explore::space::{Direction, Space};
use flextensor_ir::ops;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};
use proptest::prelude::*;
use rand::SeedableRng;

fn opts(trials: usize, eval_workers: usize) -> SearchOptions {
    SearchOptions {
        trials,
        starts: 4,
        initial_samples: 8,
        eval_workers,
        ..SearchOptions::default()
    }
}

/// Searching with 1 worker and with 8 returns identical results — cost,
/// config, measurements, modeled time, and the whole trace — for all
/// three methods. (The pool reduces outcomes in fixed candidate order and
/// evaluation never touches the RNG, so thread scheduling cannot leak in.)
///
/// Template-path batches of at most 1024 fresh candidates (the pool's
/// inline threshold) run on the coordinator, so the small GEMM searches
/// never reach a worker thread. The last case does: a P-method search on
/// YOLO C6 from 32 starts proposes over a thousand fresh candidates in
/// one trial, and the `pool_stats` deltas prove that batch crossed the
/// threshold.
#[test]
fn search_is_deterministic_in_worker_count() {
    use flextensor_explore::{MemorySink, Telemetry, TraceEvent};
    use std::sync::Arc;

    let gemm = ops::gemm(128, 128, 128);
    let c6 = flextensor_ir::yolo::yolo_layer("C6").unwrap().graph(1);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let wide = SearchOptions {
        trials: 3,
        starts: 32,
        initial_samples: 64,
        ..SearchOptions::default()
    };
    let cases = [
        (&gemm, Method::QMethod, opts(6, 0)),
        (&gemm, Method::PMethod, opts(6, 0)),
        (&gemm, Method::RandomWalk, opts(6, 0)),
        (&c6, Method::PMethod, wide),
    ];
    // The result, plus the most fresh evaluations in one batch: the
    // largest step of the cumulative `evaluated` counter between
    // consecutive `pool_stats` records.
    let run = |g, m, o: &SearchOptions, eval_workers| {
        let sink = Arc::new(MemorySink::new());
        let o = SearchOptions {
            eval_workers,
            telemetry: Telemetry::new(sink.clone()),
            ..o.clone()
        };
        let r = search(g, &ev, m, &o).unwrap();
        let mut prev = 0;
        let widest = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::PoolStats { evaluated, .. } => {
                    let fresh = evaluated - prev;
                    prev = *evaluated;
                    Some(fresh)
                }
                _ => None,
            })
            .max();
        (r, widest.unwrap())
    };
    let mut widest = 0;
    for (g, m, o) in &cases {
        let (serial, w) = run(g, *m, o, 1);
        let (parallel, _) = run(g, *m, o, 8);
        assert_eq!(serial.best.encode(), parallel.best.encode(), "{m}");
        assert_eq!(
            serial.best_cost.seconds.to_bits(),
            parallel.best_cost.seconds.to_bits(),
            "{m}"
        );
        assert_eq!(serial.measurements, parallel.measurements, "{m}");
        assert_eq!(
            serial.exploration_time_s.to_bits(),
            parallel.exploration_time_s.to_bits(),
            "{m}"
        );
        assert_eq!(serial.trace, parallel.trace, "{m}");
        assert_eq!(
            serial.eval_stats.evaluated, parallel.eval_stats.evaluated,
            "{m}"
        );
        assert_eq!(
            serial.eval_stats.cache_hits, parallel.eval_stats.cache_hits,
            "{m}"
        );
        assert_eq!(serial.eval_stats.workers, 1, "{m}");
        assert_eq!(parallel.eval_stats.workers, 8, "{m}");
        widest = w;
    }
    assert!(
        widest > 1024,
        "the C6 case's widest batch {widest} never fans out"
    );
}

/// `eval_workers: 0` means "all cores" and is likewise result-identical.
#[test]
fn auto_worker_count_is_result_identical() {
    let g = ops::gemm(64, 64, 64);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let serial = search(&g, &ev, Method::RandomWalk, &opts(8, 1)).unwrap();
    let auto = search(&g, &ev, Method::RandomWalk, &opts(8, 0)).unwrap();
    assert_eq!(serial.best.encode(), auto.best.encode());
    assert_eq!(serial.trace, auto.trace);
    assert!(auto.eval_stats.workers >= 1);
}

/// On a space where the exploration budget dwarfs the number of distinct
/// reachable points, the stats must show the memo layer working: a
/// positive cache hit rate, and a fresh-evaluation count that equals the
/// distinct-key count (every point pays for evaluation exactly once).
#[test]
fn tiny_space_search_reports_cache_hits() {
    let g = ops::gemm(2, 2, 2);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let r = search(
        &g,
        &ev,
        Method::PMethod,
        &SearchOptions {
            trials: 60,
            starts: 8,
            initial_samples: 64,
            ..SearchOptions::default()
        },
    )
    .unwrap();
    let s = r.eval_stats;
    assert!(s.hit_rate() > 0.0, "expected cache hits, got {s:?}");
    assert!(s.cache_hits > 0, "{s:?}");
    // Every distinct key misses exactly once; repeats are hits. So fresh
    // evaluations == distinct keys == misses, and without early stopping
    // every fresh evaluation is absorbed as a measurement.
    assert_eq!(s.evaluated, s.cache_misses, "{s:?}");
    assert_eq!(s.evaluated, r.measurements, "{s:?}");
    assert_eq!(s.lookups(), s.cache_hits + s.cache_misses);
    assert!(
        s.lookups() > s.evaluated,
        "budget should revisit points: {s:?}"
    );
}

/// Pool-level ground truth for the same property: feeding batches with
/// repeats through an [`EvalPool`] evaluates each distinct key exactly
/// once, whatever the batch boundaries.
#[test]
fn pool_evaluates_each_distinct_key_once() {
    let g = ops::gemm(32, 32, 32);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let space = Space::new(&g, ev.target());
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let points: Vec<_> = (0..30).map(|_| space.random_point(&mut rng)).collect();
    // Three overlapping batches built from the same point set.
    let batches = [&points[0..20], &points[5..25], &points[10..30]];
    let mut pool = EvalPool::new(&g, &ev, 4, 1 << 16);
    for b in batches {
        pool.evaluate_batch(b);
    }
    let distinct: BTreeSet<Vec<i64>> = points.iter().map(|p| p.encode()).collect();
    assert_eq!(pool.stats().evaluated, distinct.len());
    assert_eq!(pool.stats().lookups(), 60);
}

/// The inverse of each direction, where one exists.
fn inverse(d: Direction) -> Direction {
    match d {
        Direction::SplitMove { axis, from, to } => Direction::SplitMove {
            axis,
            from: to,
            to: from,
        },
        Direction::FuseMore => Direction::FuseLess,
        Direction::FuseLess => Direction::FuseMore,
        Direction::PartitionUp => Direction::PartitionDown,
        Direction::PartitionDown => Direction::PartitionUp,
        Direction::PipelineUp => Direction::PipelineDown,
        Direction::PipelineDown => Direction::PipelineUp,
        // Swaps and toggles undo themselves.
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A point moved along a direction and back along its inverse encodes
    /// to the original cache key: the memo cache will treat the
    /// round-tripped point as the same point.
    #[test]
    fn direction_roundtrip_preserves_cache_key(seed in any::<u64>(), dir_salt in any::<u64>()) {
        let g = ops::conv2d(ops::ConvParams::same(1, 8, 16, 3), 12, 12);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let space = Space::new(&g, ev.target());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = space.random_point(&mut rng);
        let applicable: Vec<Direction> = space
            .directions()
            .iter()
            .copied()
            .filter(|&d| space.apply(&p, d).is_some())
            .collect();
        prop_assert!(!applicable.is_empty());
        let d = applicable[(dir_salt % applicable.len() as u64) as usize];
        let moved = space.apply(&p, d).expect("applicable");
        prop_assert_ne!(moved.encode(), p.encode(), "direction {:?} must move", d);
        let back = space
            .apply(&moved, inverse(d))
            .expect("inverse of an applied direction applies");
        prop_assert_eq!(back.encode(), p.encode(), "direction {:?}", d);
    }

    /// A cache hit returns exactly the cost the fresh evaluation produced
    /// — bit-for-bit, feasible or not — no matter how often it is asked.
    #[test]
    fn cache_hits_never_change_the_cost(seed in any::<u64>(), repeats in 2usize..5) {
        let g = ops::gemm(64, 64, 64);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let space = Space::new(&g, ev.target());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = space.random_point(&mut rng);
        let mut pool = EvalPool::new(&g, &ev, 2, 1 << 16);
        let first = pool.evaluate(&p);
        prop_assert!(first.fresh);
        for _ in 0..repeats {
            let again = pool.evaluate(&p);
            prop_assert!(!again.fresh);
            match (first.cost, again.cost) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
                    prop_assert_eq!(a.flops, b.flops);
                }
                (None, None) => {}
                _ => prop_assert!(false, "feasibility changed on a cache hit"),
            }
        }
    }
}
