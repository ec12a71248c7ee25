//! A traced replica of `flextensor_explore::methods::search`.
//!
//! The search loop lives inside `search()`, so the traced run re-drives
//! it here from the same public layer calls (`Space`, `History`,
//! `QAgent`, `EvalPool`), in the same order and with the same RNG draws,
//! with a span around each call. The caller checks that the replica's
//! result equals `search()`'s bit for bit, so the spans describe the real
//! search. Only the plain path is replicated: no warm start, no gates,
//! no stop target, no telemetry sink.

use std::time::Instant;

use flextensor_explore::methods::{Method, SearchOptions};
use flextensor_explore::qlearn::{QAgent, Transition};
use flextensor_explore::{EvalOutcome, EvalPool, History, Space};
use flextensor_ir::graph::Graph;
use flextensor_schedule::config::NodeConfig;
use flextensor_schedule::template::LoweredTemplate;
use flextensor_sim::model::Evaluator;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Busy time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub s: f64,
    pub calls: usize,
}

impl Span {
    fn add(&mut self, since: Instant) {
        self.s += since.elapsed().as_secs_f64();
        self.calls += 1;
    }

    fn merge(&mut self, o: &Span) {
        self.s += o.s;
        self.calls += o.calls;
    }
}

/// Spans and counters of one traced search.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// `Space::new`, `QAgent::new`, `EvalPool::new`.
    pub setup: Span,
    /// `Space::start_point` and `Space::random_point` for the seed batch.
    pub sample: Span,
    /// `History::select_starts_with_energy`, one call per trial.
    pub select: Span,
    /// One start's neighbourhood: `Space::apply` per direction plus the
    /// `History::contains` filter. `apply_calls` counts `apply` calls.
    pub apply: Span,
    pub apply_calls: usize,
    /// `Space::features_into` + `QAgent::choose`, one call per start.
    pub infer: Span,
    /// `EvalPool::evaluate_batch`, one call per batch.
    pub eval: Span,
    /// Folding outcomes into `H` and the modelled time (`History::record`).
    pub record: Span,
    /// `QAgent::record` (with its two `Space::features`) per candidate and
    /// `QAgent::end_trial` per trial; `train_rounds` counts the trials on
    /// which the network actually trained.
    pub train: Span,
    pub train_rounds: usize,
    /// Candidates handed to the pool, and how many it evaluated fresh.
    pub candidates: usize,
    pub fresh: usize,
    /// `LoweredTemplate::features` and `Evaluator::time_features` timed
    /// over each batch's fresh candidates, outside the search's wall.
    pub features: Span,
    pub rejected: usize,
    pub score: Span,
    pub infeasible: usize,
    /// Final size of the evaluated-point set `H`.
    pub history_len: usize,
    /// Wall time of the search, not counting the eval-layer split.
    pub wall_s: f64,
}

impl Trace {
    /// Sum of the child spans that tile the search.
    pub fn children_s(&self) -> f64 {
        [
            self.setup,
            self.sample,
            self.select,
            self.apply,
            self.infer,
            self.eval,
            self.record,
            self.train,
        ]
        .iter()
        .map(|s| s.s)
        .sum()
    }

    /// Accumulates another search's trace.
    pub fn merge(&mut self, o: &Trace) {
        for (a, b) in [
            (&mut self.setup, &o.setup),
            (&mut self.sample, &o.sample),
            (&mut self.select, &o.select),
            (&mut self.apply, &o.apply),
            (&mut self.infer, &o.infer),
            (&mut self.eval, &o.eval),
            (&mut self.record, &o.record),
            (&mut self.train, &o.train),
            (&mut self.features, &o.features),
            (&mut self.score, &o.score),
        ] {
            a.merge(b);
        }
        self.apply_calls += o.apply_calls;
        self.train_rounds += o.train_rounds;
        self.candidates += o.candidates;
        self.fresh += o.fresh;
        self.rejected += o.rejected;
        self.infeasible += o.infeasible;
        self.history_len += o.history_len;
        self.wall_s += o.wall_s;
    }
}

/// What the replica found: the fields `search()` must match.
#[derive(Debug, Clone)]
pub struct ReplicaResult {
    pub best: NodeConfig,
    pub seconds: f64,
    pub measurements: usize,
    pub exploration_time_s: f64,
}

/// Times the cost model's two halves over one batch's fresh candidates.
fn split_eval(
    template: &LoweredTemplate,
    evaluator: &Evaluator,
    cfgs: &[NodeConfig],
    outcomes: &[EvalOutcome],
    t: &mut Trace,
) {
    let fresh: Vec<&NodeConfig> = cfgs
        .iter()
        .zip(outcomes)
        .filter(|(_, o)| o.fresh)
        .map(|(c, _)| c)
        .collect();
    if fresh.is_empty() {
        return;
    }
    let t0 = Instant::now();
    let rows: Vec<_> = fresh.iter().map(|c| template.features(c)).collect();
    t.features.add(t0);
    let rows: Vec<_> = rows.into_iter().filter_map(Result::ok).collect();
    t.rejected += fresh.len() - rows.len();
    let t0 = Instant::now();
    let scored: Vec<Option<f64>> = rows.iter().map(|f| evaluator.time_features(f)).collect();
    t.score.add(t0);
    t.infeasible += scored.iter().filter(|s| s.is_none()).count();
    std::hint::black_box(scored);
}

/// Runs the search loop of `search()` for `method` with spans. Returns
/// `None` when no feasible point was found (as `search()` errs).
pub fn search_traced(
    graph: &Graph,
    evaluator: &Evaluator,
    method: Method,
    opts: &SearchOptions,
) -> (Option<ReplicaResult>, Trace) {
    let mut t = Trace::default();
    let start = Instant::now();
    let mut aside = 0.0f64;
    // The eval-layer split needs its own template; it is built outside
    // the search's wall.
    let template = LoweredTemplate::new(graph, evaluator.target());
    aside += start.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let space = Space::new(graph, evaluator.target());
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut agent = (method == Method::QMethod)
        .then(|| QAgent::new(space.feature_dim(), space.directions().len(), &mut rng));
    let mut pool = EvalPool::new(graph, evaluator, opts.eval_workers, opts.cache_capacity);
    let mut history = History::new();
    t.setup.add(t0);
    let mut measurements = 0usize;
    let mut time_s = 0.0f64;
    let mut absorb = |history: &mut History, cfg: &NodeConfig, oc: &EvalOutcome| -> f64 {
        if oc.fresh && !oc.pruned {
            measurements += 1;
            time_s += opts.measure_overhead_s;
            if let Some(c) = oc.cost {
                time_s += opts.measure_repeats as f64 * c.seconds;
            }
        }
        let e = oc.cost.map_or(0.0, |c| 1.0 / c.seconds);
        history.record(cfg.clone(), e);
        e
    };

    let t0 = Instant::now();
    let mut seeds = vec![space.start_point()];
    for _ in 0..opts.initial_samples {
        seeds.push(space.random_point(&mut rng));
    }
    t.sample.add(t0);
    let t0 = Instant::now();
    let outcomes = pool.evaluate_batch(&seeds);
    t.eval.add(t0);
    t.candidates += seeds.len();
    t.fresh += outcomes.iter().filter(|o| o.fresh).count();
    let a0 = Instant::now();
    split_eval(&template, evaluator, &seeds, &outcomes, &mut t);
    aside += a0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    for (cfg, oc) in seeds.iter().zip(&outcomes) {
        absorb(&mut history, cfg, oc);
    }
    t.record.add(t0);

    let mut feats = Vec::new();
    for trial in 1..=opts.trials {
        if let Some(agent) = agent.as_mut() {
            agent.set_progress(trial as f64 / opts.trials.max(1) as f64);
        }
        let t0 = Instant::now();
        let starts = history.select_starts_with_energy(opts.starts, opts.gamma, &mut rng);
        t.select.add(t0);

        let mut meta: Vec<(usize, usize)> = Vec::new();
        let mut cands: Vec<NodeConfig> = Vec::new();
        for (si, (p, _)) in starts.iter().enumerate() {
            let t0 = Instant::now();
            let mut neighbors: Vec<Option<NodeConfig>> = space
                .directions()
                .iter()
                .map(|&dir| space.apply(p, dir).filter(|n| !history.contains(n)))
                .collect();
            t.apply.add(t0);
            t.apply_calls += neighbors.len();
            let chosen: Vec<usize> = match method {
                Method::PMethod => (0..neighbors.len())
                    .filter(|&i| neighbors[i].is_some())
                    .collect(),
                Method::QMethod => {
                    let t0 = Instant::now();
                    let mask: Vec<bool> = neighbors.iter().map(Option::is_some).collect();
                    space.features_into(p, &mut feats);
                    let a = agent
                        .as_mut()
                        .expect("Q agent exists")
                        .choose(&feats, &mask, &mut rng);
                    t.infer.add(t0);
                    a.into_iter().collect()
                }
                Method::RandomWalk => unreachable!("the benchmark replicates Q and P only"),
            };
            for a in chosen {
                meta.push((si, a));
                cands.push(neighbors[a].take().expect("chosen neighbor exists"));
            }
        }

        let t0 = Instant::now();
        let outcomes = pool.evaluate_batch(&cands);
        t.eval.add(t0);
        t.candidates += cands.len();
        t.fresh += outcomes.iter().filter(|o| o.fresh).count();
        let a0 = Instant::now();
        split_eval(&template, evaluator, &cands, &outcomes, &mut t);
        aside += a0.elapsed().as_secs_f64();

        // `H` and the agent are disjoint state, so folding every outcome
        // first and recording transitions second keeps search()'s results.
        let t0 = Instant::now();
        let energies: Vec<f64> = cands
            .iter()
            .zip(&outcomes)
            .map(|(n, oc)| absorb(&mut history, n, oc))
            .collect();
        t.record.add(t0);
        if let Some(agent) = agent.as_mut() {
            let t0 = Instant::now();
            for (((si, a), n), &e_n) in meta.iter().zip(&cands).zip(&energies) {
                let (p, e_p) = &starts[*si];
                let e_p = *e_p;
                let reward = if e_p > 0.0 {
                    ((e_n - e_p) / e_p).clamp(-1.0, 10.0)
                } else if e_n > 0.0 {
                    1.0
                } else {
                    -1.0
                };
                agent.record(Transition {
                    state: space.features(p),
                    action: *a,
                    reward,
                    next_state: space.features(n),
                });
            }
            if agent.end_trial(&mut rng).is_some() {
                t.train_rounds += 1;
            }
            t.train.add(t0);
        }
    }

    t.history_len = history.len();
    let result = history.best().map(|(best, e)| ReplicaResult {
        best: best.clone(),
        seconds: 1.0 / e,
        measurements,
        exploration_time_s: time_s,
    });
    t.wall_s = start.elapsed().as_secs_f64() - aside;
    (result, t)
}
