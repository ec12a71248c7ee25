//! The two search workloads: `search_q` (Q-method, the default user
//! path) and `search_p` (P-method, the evaluation- and history-heavy
//! path), each on YOLO-v1 C1, C6 and C13 at N and 2N trials.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use flextensor::{optimize, Method, OptimizeOptions, OptimizeResult, Task};
use flextensor_explore::{EvalPool, Space};
use flextensor_ir::graph::Graph;
use flextensor_ir::yolo::yolo_layer;
use flextensor_schedule::config::NodeConfig;
use flextensor_schedule::lower::lower;
use flextensor_schedule::primitives::describe;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, vu9p, xeon_e5_2699_v4, Device};
use flextensor_telemetry::replay::replay;
use flextensor_telemetry::{read_trace_file, JsonlSink, Telemetry, TraceEvent};

use crate::replica::{search_traced, Trace};
use crate::report::{geomean, max, median, peak_rss_mb, Outcome};
use crate::sub_seed;

/// Trials of the short search; the long one runs 2N.
pub const N: usize = 200;
/// Rounds whose results feed the deterministic metrics. Every run makes
/// at least this many; later rounds only add timing samples.
const MIN_ROUNDS: usize = 3;
/// Set-up repetitions per round; `setup_s` is the median of all of them.
const SETUP_REPS: usize = 60;

/// The layers and devices of one search workload.
pub fn layers(method: Method) -> Vec<(&'static str, Device)> {
    match method {
        Method::QMethod => vec![
            ("C1", Device::Gpu(v100())),
            ("C6", Device::Gpu(v100())),
            ("C13", Device::Gpu(v100())),
        ],
        _ => vec![
            ("C1", Device::Gpu(v100())),
            ("C6", Device::Cpu(xeon_e5_2699_v4())),
            ("C13", Device::Fpga(vu9p())),
        ],
    }
}

fn graph(label: &str) -> Graph {
    yolo_layer(label).expect("YOLO-v1 layer").graph(1)
}

/// The search settings every search workload uses.
pub fn options(method: Method, seed: u64, trials: usize) -> OptimizeOptions {
    let mut o = OptimizeOptions {
        method,
        ..OptimizeOptions::default()
    };
    o.search.trials = trials;
    o.search.starts = 8;
    o.search.initial_samples = 16;
    o.search.eval_workers = 1;
    o.search.seed = seed;
    o
}

/// Checks a winning schedule independently of the search. It must
/// validate against the anchor op, and full lowering
/// (`Evaluator::evaluate`) must score it bit-equal to the evaluation layer
/// the search used (`EvalPool`, the template path). The reported seconds
/// must equal that score `s`. They may instead be `1 / (1 / s)`, an ulp
/// off: `search()` keeps `E = 1 / s` per point and reports `1 / E`. That
/// known defect is counted, not failed; the result is whether it showed
/// (`BENCHMARK.md`, "Known defect").
pub fn check_winner(
    g: &Graph,
    device: &Device,
    cfg: &NodeConfig,
    reported: f64,
) -> Result<bool, String> {
    cfg.validate(g.anchor_op())
        .map_err(|e| format!("{}: winner does not validate: {e}", g.name))?;
    let ev = Evaluator::new(device.clone());
    let lowered = ev.evaluate(g, cfg).map(|c| c.seconds);
    let pooled = EvalPool::new(g, &ev, 1, 64)
        .evaluate(cfg)
        .cost
        .map(|c| c.seconds);
    let agreed = match (lowered, pooled) {
        (Some(s), Some(p)) if s.to_bits() == p.to_bits() => Some(s),
        _ => None,
    };
    match agreed {
        Some(s) if reported.to_bits() == s.to_bits() => Ok(false),
        Some(s) if reported.to_bits() == (1.0 / (1.0 / s)).to_bits() => Ok(true),
        _ => Err(format!(
            "{}: winner scores {lowered:?} lowered, {pooled:?} pooled; search reported {reported:e} s",
            g.name
        )),
    }
}

fn run_checked(
    task: &Task,
    opts: &OptimizeOptions,
    out: &mut Outcome,
) -> Option<(OptimizeResult, f64)> {
    let t0 = Instant::now();
    let r = optimize(task, opts);
    let wall = t0.elapsed().as_secs_f64();
    match r {
        Ok(r) => {
            out.winner(check_winner(
                &task.graph,
                &task.device,
                &r.config,
                r.cost.seconds,
            ));
            Some((r, wall))
        }
        Err(e) => {
            out.check(Err(format!("{}: {e}", task.graph.name)));
            None
        }
    }
}

/// Times the set-up of one run's searches, `reps` times: build each
/// layer's graph, `Space::new`, `EvalPool::new`.
fn setup_samples(layers: &[(&'static str, Device)], reps: usize) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for (label, device) in layers {
                let g = graph(label);
                let ev = Evaluator::new(device.clone());
                let space = Space::new(&g, ev.target());
                let pool =
                    EvalPool::new(&g, &ev, 1, OptimizeOptions::default().search.cache_capacity);
                std::hint::black_box((space, pool));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(method: Method, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let layers = layers(method);

    let tasks: Vec<Task> = layers
        .iter()
        .map(|(label, device)| Task::new(graph(label), device.clone()))
        .collect();
    let started = Instant::now();
    let (mut walls_n, mut walls_2n, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_layer_2n: Vec<Vec<f64>> = vec![Vec::new(); layers.len()];
    let mut rates = Vec::new();
    let (mut gflops, mut explored) = (Vec::new(), Vec::new());
    let mut setup = Vec::new();
    let mut peak_rss = f64::NAN;
    let mut round = 0;
    // Rounds continue while another one fits in `seconds`.
    while round < MIN_ROUNDS
        || started.elapsed().as_secs_f64() * (round as f64 + 1.0) / (round as f64) < seconds as f64
    {
        let seed_r = sub_seed(seed, round as u64);
        // Set-up samples are spread over the run, like the searches.
        setup.extend(setup_samples(&layers, SETUP_REPS));
        let (mut trials, mut wall) = (0usize, 0.0f64);
        for (li, task) in tasks.iter().enumerate() {
            let short = run_checked(task, &options(method, seed_r, N), &mut out);
            let long = run_checked(task, &options(method, seed_r, 2 * N), &mut out);
            let (Some((_, w_n)), Some((r, w_2n))) = (short, long) else {
                continue;
            };
            walls_n.push(w_n);
            walls_2n.push(w_2n);
            ratios.push(w_2n / w_n);
            per_layer_2n[li].push(w_2n);
            trials += 3 * N;
            wall += w_n + w_2n;
            if round < MIN_ROUNDS {
                gflops.push(r.gflops());
                explored.push(r.exploration_time_s);
            }
        }
        rates.push(trials as f64 / wall);
        if round == 0 {
            // Later rounds repeat the same work; the process high-water
            // mark is taken once it has done all of it.
            peak_rss = peak_rss_mb();
        }
        round += 1;
    }

    let search_s = median(&walls_2n);
    let tail = max(&per_layer_2n.iter().map(|w| median(w)).collect::<Vec<_>>());
    let setup_s = median(&setup);
    out.metric("setup_s", "s", setup_s);
    out.metric("op_s", "s", search_s);
    out.metric("scaling_ratio", "ratio", median(&ratios));
    out.metric("rate_per_s", "1/s", median(&rates));
    out.metric("lat_fast_ms", "ms", median(&walls_n) * 1e3);
    out.metric("lat_slow_ms", "ms", tail * 1e3);
    out.metric("quality_gflops", "GFLOP/s", geomean(&gflops));
    out.metric("modeled_s", "s", geomean(&explored));
    out.metric("peak_rss_mb", "MiB", peak_rss);

    println!(
        "rounds {round} ({} searches, {MIN_ROUNDS} feed the deterministic metrics)",
        out.attempted
    );
    println!("  search_s       {search_s:.4} s   median 2N-search wall");
    println!(
        "  trials_per_s   {:.1}   median over rounds",
        median(&rates)
    );
    println!(
        "  scaling_ratio  {:.3}     wall(2N)/wall(N), median",
        median(&ratios)
    );
    println!(
        "  best_gflops    {:.2}   geomean of the 2N winners",
        geomean(&gflops)
    );
    println!(
        "  exploration_s  {:.2}   modelled, geomean of the 2N searches",
        geomean(&explored)
    );
    println!("  setup_s        {setup_s:.6} s");
    println!("  peak_rss_mb    {peak_rss:.1}   after the first round");
    println!(
        "  ulp_off        {}  winners reported an ulp off the model (1 / (1 / s) != s)",
        out.ulp_off
    );
    println!("  error_rate     {}/{}", out.failed, out.attempted);
    out
}

/// The traced run: per-layer metrics from the replica, the eval-layer
/// split, the telemetry layer and (P-method) the opt-in audit.
pub fn run_traced(method: Method, seed: u64, work: &Path) -> (Outcome, HashMap<&'static str, f64>) {
    let mut out = Outcome::default();
    let mut m: HashMap<&'static str, f64> = HashMap::new();
    let seed0 = sub_seed(seed, 0);
    let mut total = Trace::default();
    let mut cover_min = f64::INFINITY;
    let (mut post_s, mut real_s) = (0.0, 0.0);
    let layers = layers(method);
    for (label, device) in &layers {
        let task = Task::new(graph(label), device.clone());
        let ev = Evaluator::new(device.clone());
        for trials in [N, 2 * N] {
            let opts = options(method, seed0, trials);
            let Some((real, real_wall)) = run_checked(&task, &opts, &mut out) else {
                continue;
            };
            let (rep, tr) = search_traced(&task.graph, &ev, method, &opts.search);
            out.check(match rep {
                Some(rep)
                    if rep.best.encode() == real.config.encode()
                        && rep.seconds.to_bits() == real.cost.seconds.to_bits()
                        && rep.measurements == real.measurements
                        && rep.exploration_time_s.to_bits()
                            == real.exploration_time_s.to_bits() =>
                {
                    Ok(())
                }
                other => Err(format!(
                    "{label} {trials} trials: replica {other:?} differs from search() \
                     ({:?}, {:e} s, {} measurements, {} s explored)",
                    real.config.encode(),
                    real.cost.seconds,
                    real.measurements,
                    real.exploration_time_s
                )),
            });
            cover_min = cover_min.min(tr.children_s() / tr.wall_s);
            println!(
                "  {label:>3} {trials:>3} trials  wall {:.3} s  cover {:.3}  select {:.3}  apply {:.3}  \
                 infer {:.3}  eval {:.3}  record {:.3}  train {:.3}",
                tr.wall_s,
                tr.children_s() / tr.wall_s,
                tr.select.s,
                tr.apply.s,
                tr.infer.s,
                tr.eval.s,
                tr.record.s,
                tr.train.s
            );
            if trials == 2 * N {
                let t0 = Instant::now();
                let kernel = lower(&task.graph, &real.config, ev.target());
                let prims = describe(task.graph.anchor_op(), &real.config, ev.target());
                post_s += t0.elapsed().as_secs_f64();
                out.check(match kernel {
                    Ok(k) if !prims.is_empty() => Ok(std::hint::black_box(k)).map(|_| ()),
                    other => Err(format!("{label}: lowering the winner gave {other:?}")),
                });
                total.merge(&tr);
                real_s += real_wall;
            }
        }
    }
    m.insert("search.setup_s", total.setup.s);
    m.insert("sa.select_s", total.select.s);
    m.insert("sa.select_calls", total.select.calls as f64);
    m.insert("sa.history_len", total.history_len as f64);
    m.insert("sa.record_s", total.record.s);
    m.insert("space.sample_s", total.sample.s);
    m.insert("space.apply_s", total.apply.s);
    m.insert("space.apply_calls", total.apply_calls as f64);
    m.insert("q.infer_s", total.infer.s);
    m.insert("q.infer_calls", total.infer.calls as f64);
    m.insert("q.train_s", total.train.s);
    m.insert("q.train_calls", total.train_rounds as f64);
    m.insert("pool.batches", total.eval.calls as f64);
    m.insert("pool.candidates", total.candidates as f64);
    m.insert("pool.fresh", total.fresh as f64);
    m.insert(
        "pool.hit_rate",
        1.0 - total.fresh as f64 / total.candidates as f64,
    );
    m.insert("pool.eval_s", total.eval.s);
    m.insert("schedule.features_s", total.features.s);
    m.insert(
        "schedule.reject_frac",
        total.rejected as f64 / total.fresh as f64,
    );
    m.insert("sim.score_s", total.score.s);
    m.insert(
        "sim.infeasible_frac",
        total.infeasible as f64 / (total.fresh - total.rejected) as f64,
    );
    m.insert("driver.self_s", total.wall_s - total.children_s());
    m.insert("driver.cover_frac", cover_min);
    m.insert("optimize.post_s", post_s);
    m.insert("trace.overhead_frac", total.wall_s / real_s - 1.0);

    let (label, device) = &layers[0];
    let task = Task::new(graph(label), device.clone());
    telemetry_layer(&task, &options(method, seed0, N), work, &mut out, &mut m);

    if method == Method::PMethod {
        optin_audit(method, seed0, &layers, &mut out, &mut m);
    }
    (out, m)
}

/// The telemetry layer: one search run bare and with a JSONL sink, twice
/// each, and the recorded trace replayed against the live result.
pub fn telemetry_layer(
    task: &Task,
    opts: &OptimizeOptions,
    work: &Path,
    out: &mut Outcome,
    m: &mut HashMap<&'static str, f64>,
) {
    let path = work.join("trace.jsonl");
    let (mut bare, mut traced, mut live) = (Vec::new(), Vec::new(), None);
    for _ in 0..2 {
        if let Some((_, w)) = run_checked(task, opts, out) {
            bare.push(w);
        }
        let sink = match JsonlSink::create(&path) {
            Ok(s) => s,
            Err(e) => {
                out.check(Err(format!("cannot create {}: {e}", path.display())));
                break;
            }
        };
        let with_sink = opts.clone().with_telemetry(Telemetry::to_sink(sink));
        if let Some((r, w)) = run_checked(task, &with_sink, out) {
            traced.push(w);
            live = Some(r);
        }
    }
    if let Some(live) = live {
        out.check(check_trace(&path, &live, m));
    }
    m.insert(
        "telemetry.overhead_frac",
        median(&traced) / median(&bare) - 1.0,
    );
}

/// Reads a recorded trace back, replays it, and checks the replayed
/// summary against both the recorded one and the live result.
fn check_trace(
    path: &Path,
    live: &OptimizeResult,
    m: &mut HashMap<&'static str, f64>,
) -> Result<(), String> {
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let events = read_trace_file(path).map_err(|e| e.to_string())?;
    m.insert("telemetry.events", events.len() as f64);
    m.insert("telemetry.bytes", bytes as f64);
    let rep = replay(&events).map_err(|e| e.to_string())?;
    if !rep.summary_matches() {
        return Err(format!(
            "trace replay differs: {:?} vs {:?}",
            rep.replayed, rep.recorded
        ));
    }
    match rep.recorded {
        TraceEvent::RunSummary {
            measurements,
            exploration_time_s,
            best_seconds,
            ..
        } if measurements == live.measurements
            && exploration_time_s.to_bits() == live.exploration_time_s.to_bits()
            && best_seconds.to_bits() == live.cost.seconds.to_bits() =>
        {
            Ok(())
        }
        other => Err(format!(
            "recorded summary {other:?} differs from the live run"
        )),
    }
}

/// Times each result-preserving opt-in against the plain path at N
/// trials, and checks the chosen schedule and cost are bit-identical.
fn optin_audit(
    method: Method,
    seed: u64,
    layers: &[(&'static str, Device)],
    out: &mut Outcome,
    m: &mut HashMap<&'static str, f64>,
) {
    type Toggle = fn(&mut OptimizeOptions);
    let toggles: [(&'static str, Toggle); 3] = [
        ("optin.delta_eval_ratio", |o| o.search.delta_eval = true),
        ("optin.analyzer_gate_ratio", |o| {
            o.search.analyzer_gate = true
        }),
        ("optin.region_gate_ratio", |o| o.search.region_gate = true),
    ];
    let mut off_s = 0.0;
    let mut on_s = [0.0; 3];
    for (label, device) in layers {
        let task = Task::new(graph(label), device.clone());
        let opts = options(method, seed, N);
        let Some((off, w_off)) = run_checked(&task, &opts, out) else {
            continue;
        };
        off_s += w_off;
        for (i, (name, toggle)) in toggles.iter().enumerate() {
            let mut on_opts = opts.clone();
            toggle(&mut on_opts);
            let Some((on, w_on)) = run_checked(&task, &on_opts, out) else {
                continue;
            };
            on_s[i] += w_on;
            out.check(
                if on.config.encode() == off.config.encode()
                    && on.cost.seconds.to_bits() == off.cost.seconds.to_bits()
                {
                    Ok(())
                } else {
                    Err(format!("{label}: {name} changed the result"))
                },
            );
        }
    }
    for (i, (name, _)) in toggles.iter().enumerate() {
        m.insert(name, on_s[i] / off_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winner_check_accepts_the_score_and_its_round_trip_only() {
        let (label, device) = &layers(Method::QMethod)[0];
        let task = Task::new(graph(label), device.clone());
        let r = optimize(&task, &options(Method::QMethod, 1, 8)).expect("search");
        let s = Evaluator::new(device.clone())
            .evaluate(&task.graph, &r.config)
            .expect("the winner scores")
            .seconds;
        let check = |reported| check_winner(&task.graph, device, &r.config, reported);
        assert_eq!(check(s), Ok(false));
        let round_trip = 1.0 / (1.0 / s);
        assert_eq!(check(round_trip), Ok(round_trip.to_bits() != s.to_bits()));
        assert!(check(f64::from_bits(s.to_bits() + 2)).is_err());
        assert!(check(s * 2.0).is_err());
    }
}
