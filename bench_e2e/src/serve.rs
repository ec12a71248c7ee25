//! The `graph_serve` workload: one fresh `TuneDb` per repetition, filled
//! by cold `tune_graph` runs (write-heavy), then read by a closed-loop
//! `SessionServer` request stream built from the networks' layers (mostly
//! hits on the stored networks; the same networks at unseen batch sizes
//! tune fresh, and their repeated layers coalesce).

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use flextensor::serve::{task_key, ServeOptions, ServeResult, ServeSource, SessionServer};
use flextensor::{Method, OptimizeOptions, Task, TuneDb, TuneKey, TuneRecord};
use flextensor_graph::extract::extract_tasks;
use flextensor_graph::tune::{tune_graph, GraphTuneOptions, GraphTuneReport};
use flextensor_ir::graph::Graph;
use flextensor_nn::network::{shufflenet_like, yolo_tiny, Network};
use flextensor_schedule::config::NodeConfig;
use flextensor_sim::spec::{v100, Device};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{geomean, mean, median, peak_rss_mb, quantile, Outcome};
use crate::search::{check_winner, options, telemetry_layer};
use crate::sub_seed;

/// Global trial budget of one cold `tune_graph`; `scaling_ratio` also
/// runs half of it.
const BUDGET: usize = 400;
const ROUNDS: usize = 3;
/// Session-server worker threads, for both phases.
const WORKERS: usize = 2;
/// Passes over the stored networks' layer occurrences in one stream;
/// every such request is a hit.
const HIT_PASSES: usize = 16;
/// Batch sizes, besides the stored batch 1, at which the stream requests
/// each layer occurrence of the networks once: every layer there is an
/// unseen shape of a stored op family.
const UNSEEN_BATCHES: [i64; 2] = [2, 4];
/// The most requests outstanding at once.
const OUTSTANDING: usize = 2;
/// Repetitions whose results feed the deterministic metrics.
const MIN_REPS: usize = 3;
/// Set-up repetitions per repetition of the workload.
const SETUP_REPS: usize = 30;

fn device() -> Device {
    Device::Gpu(v100())
}

fn networks_at(batch: i64) -> [Network; 2] {
    [shufflenet_like(batch), yolo_tiny(batch)]
}

/// The networks phase (a) tunes into the store.
fn networks() -> [Network; 2] {
    networks_at(1)
}

/// Trials of a fresh tune in the stream: what one task of phase (a) gets
/// on average, the networks' summed budget over their tuning tasks.
fn fresh_trials() -> usize {
    let tasks: usize = networks()
        .iter()
        .map(|n| extract_tasks(&n.export(), &device()).len())
        .sum();
    networks().len() * BUDGET / tasks
}

/// Search settings of every tune: the search workloads' settings with
/// the Q-method; `tune_graph` overrides the trials per round.
fn base(seed: u64) -> OptimizeOptions {
    options(Method::QMethod, seed, fresh_trials())
}

fn fresh_dir(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Phase (a): cold `tune_graph` of both networks into an empty store.
fn tune_cold(
    dir: &Path,
    seed: u64,
    budget: usize,
) -> Result<(Arc<TuneDb>, Vec<GraphTuneReport>, f64), String> {
    let db = Arc::new(TuneDb::open(dir).map_err(|e| e.to_string())?.0);
    let opts = GraphTuneOptions {
        base: base(seed),
        workers: WORKERS,
        budget,
        rounds: ROUNDS,
        ..GraphTuneOptions::default()
    };
    let mut reports = Vec::new();
    let mut wall = 0.0;
    for net in networks() {
        let t0 = Instant::now();
        let r = tune_graph(&db, &net, &device(), &opts).map_err(|e| e.to_string())?;
        wall += t0.elapsed().as_secs_f64();
        reports.push(r);
    }
    Ok((db, reports, wall))
}

/// Every stored key's graph: the networks' layers plus the stream's
/// unseen shapes, in key order.
fn graphs_by_key(extra: &[Graph]) -> BTreeMap<TuneKey, Graph> {
    let mut map = BTreeMap::new();
    for net in networks() {
        for (_, g) in net.export() {
            map.entry(task_key(&g, &device())).or_insert(g);
        }
    }
    for g in extra {
        map.entry(task_key(g, &device()))
            .or_insert_with(|| g.clone());
    }
    map
}

/// Checks the store against the graph tuning reports: each network's
/// modelled latency equals Σ uses × stored seconds, each task's result is
/// its stored record, and every stored winner validates and re-scores
/// bit-equal through full lowering.
fn check_store(
    db: &TuneDb,
    reports: &[GraphTuneReport],
    graphs: &BTreeMap<TuneKey, Graph>,
    out: &mut Outcome,
) {
    for r in reports {
        let mut sum = 0.0;
        let mut res = Ok(());
        for t in &r.tasks {
            match db.peek(&t.key) {
                Some(rec) if rec.seconds.to_bits() == t.seconds.to_bits() => {
                    sum += t.uses as f64 * rec.seconds
                }
                other => {
                    res = Err(format!(
                        "{}: task {} stored as {other:?}",
                        r.network, t.label
                    ))
                }
            }
        }
        if res.is_ok() && sum.to_bits() != r.network_seconds.to_bits() {
            res = Err(format!(
                "{}: network {:e} s but stored records sum to {sum:e} s",
                r.network, r.network_seconds
            ));
        }
        out.check(res);
    }
    for (key, rec) in db.snapshot() {
        out.winner(match graphs.get(&key) {
            Some(g) => check_record(g, &rec),
            None => Err(format!("stored key {} has no known graph", key.flat())),
        });
    }
}

fn check_record(g: &Graph, rec: &TuneRecord) -> Result<bool, String> {
    let cfg = NodeConfig::decode(g.anchor_op(), &rec.config)
        .map_err(|e| format!("{}: stored config does not decode: {e}", rec.key.flat()))?;
    check_winner(g, &device(), &cfg, rec.seconds)
}

/// One request stream: graphs in submission order, in units shuffled by
/// the seed. [`HIT_PASSES`] times over, each layer occurrence of each
/// stored network is a unit of one request, so a stored key is requested
/// as often as the networks use it. Each layer shape of the networks at
/// [`UNSEEN_BATCHES`] is one unit holding all its occurrences back to
/// back: the first tunes fresh, warm-started from the nearest stored
/// shape, and the repeats coalesce onto that tune.
fn stream(seed: u64) -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x5e57e));
    let mut units: Vec<Vec<Graph>> = (0..HIT_PASSES)
        .flat_map(|_| networks())
        .flat_map(|n| n.export())
        .map(|(_, g)| vec![g])
        .collect();
    let mut unseen: BTreeMap<TuneKey, Vec<Graph>> = BTreeMap::new();
    for (_, g) in UNSEEN_BATCHES
        .iter()
        .flat_map(|&b| networks_at(b))
        .flat_map(|n| n.export())
    {
        unseen.entry(task_key(&g, &device())).or_default().push(g);
    }
    units.extend(unseen.into_values());
    for i in (1..units.len()).rev() {
        units.swap(i, rng.gen_range(0..=i));
    }
    units.into_iter().flatten().collect()
}

/// One served request as the client saw it.
struct Served {
    latency_s: f64,
    result: Result<ServeResult, String>,
}

/// Phase (b): one client thread submits `reqs` in order, keeping at most
/// [`OUTSTANDING`] in flight; one waiter per slot timestamps each answer
/// as it arrives. Returns the requests in order and the stream's wall.
fn serve_stream(server: &SessionServer, reqs: &[Graph]) -> (Vec<Served>, f64) {
    let session = server.session("bench");
    let mut served: Vec<Option<Served>> = (0..reqs.len()).map(|_| None).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let (done_tx, done_rx) = mpsc::channel();
        let mut slots = Vec::new();
        for _ in 0..OUTSTANDING {
            let (tx, rx) = mpsc::channel::<(usize, flextensor::serve::Ticket)>();
            let done = done_tx.clone();
            s.spawn(move || {
                for (id, ticket) in rx {
                    let r = ticket.wait();
                    let _ = done.send((id, Instant::now(), r));
                }
            });
            slots.push(tx);
        }
        let mut free: Vec<usize> = (0..OUTSTANDING).collect();
        let mut slot_of = vec![0usize; reqs.len()];
        let mut sent_at = vec![t0; reqs.len()];
        let (mut next, mut outstanding) = (0usize, 0usize);
        while next < reqs.len() || outstanding > 0 {
            while outstanding < OUTSTANDING && next < reqs.len() {
                let slot = free.pop().expect("a free slot");
                sent_at[next] = Instant::now();
                let ticket = session.submit(reqs[next].clone(), device());
                slots[slot].send((next, ticket)).expect("waiter alive");
                slot_of[next] = slot;
                next += 1;
                outstanding += 1;
            }
            let (id, at, r) = done_rx.recv().expect("waiters alive");
            served[id] = Some(Served {
                latency_s: at.duration_since(sent_at[id]).as_secs_f64(),
                result: r.map_err(|e| e.to_string()),
            });
            free.push(slot_of[id]);
            outstanding -= 1;
        }
        drop(slots);
    });
    let wall = t0.elapsed().as_secs_f64();
    let served = served
        .into_iter()
        .map(|s| s.expect("every request answered"))
        .collect();
    (served, wall)
}

/// Checks every served answer against its key's record in the store
/// (after the server drained), and each fresh winner as
/// [`check_store`] does.
fn check_served(db: &TuneDb, reqs: &[Graph], served: &[Served], out: &mut Outcome) {
    for (g, s) in reqs.iter().zip(served) {
        let checked = match &s.result {
            Err(e) => Err(format!("{}: request failed: {e}", g.name)),
            Ok(r) => match db.peek(&r.key) {
                Some(rec)
                    if rec.config == r.config && rec.seconds.to_bits() == r.seconds.to_bits() =>
                {
                    Ok((r, rec))
                }
                other => Err(format!(
                    "{}: served {:?} / {:e} s but the store holds {other:?}",
                    r.key.flat(),
                    r.config,
                    r.seconds
                )),
            },
        };
        match checked {
            Ok((r, rec)) if matches!(r.source, ServeSource::Fresh { .. }) => {
                out.winner(check_record(g, &rec))
            }
            other => out.check(other.map(|_| ())),
        }
    }
}

/// Latencies of one stream, split by how each request was answered.
#[derive(Default)]
struct Latencies {
    hit: Vec<f64>,
    fresh: Vec<f64>,
    coalesced: usize,
    queue_wait: Vec<f64>,
}

impl Latencies {
    fn add(&mut self, served: &[Served]) {
        for s in served {
            if let Ok(r) = &s.result {
                self.queue_wait.push(r.queue_wait_s);
                match r.source {
                    ServeSource::Hit => self.hit.push(s.latency_s),
                    ServeSource::Fresh { .. } => self.fresh.push(s.latency_s),
                    ServeSource::Coalesced => self.coalesced += 1,
                }
            }
        }
    }
}

/// Set-up: rebuild both networks, extract their tasks, and reopen the
/// filled store (recovery replays every shard). Appends one sample of the
/// whole set-up, of the extraction, and of the open per repetition.
#[derive(Default)]
struct Setup {
    total: Vec<f64>,
    extract: Vec<f64>,
    open: Vec<f64>,
}

impl Setup {
    fn measure(&mut self, dir: &Path) {
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            for net in networks() {
                std::hint::black_box(extract_tasks(&net.export(), &device()));
            }
            let t1 = Instant::now();
            let db = TuneDb::open(dir).map(|(db, _)| db.len());
            let t2 = Instant::now();
            std::hint::black_box(db.ok());
            self.total.push((t2 - t0).as_secs_f64());
            self.extract.push((t1 - t0).as_secs_f64());
            self.open.push((t2 - t1).as_secs_f64());
        }
    }
}

fn server(db: &Arc<TuneDb>, seed: u64) -> SessionServer {
    SessionServer::new(
        Arc::clone(db),
        ServeOptions {
            workers: WORKERS,
            base: base(seed),
            commit: "bench".to_string(),
        },
    )
}

fn net_flops() -> f64 {
    networks().iter().map(|n| n.flops() as f64).sum()
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let (mut full, mut ratios, mut modeled, mut quality) = (vec![], vec![], vec![], vec![]);
    let mut lat = Latencies::default();
    let (mut requests, mut rates) = (0usize, Vec::new());
    let mut setup = Setup::default();
    let mut peak_rss = f64::NAN;
    let mut rep = 0usize;
    // Repetitions continue while another one fits in `seconds`.
    while rep < MIN_REPS
        || started.elapsed().as_secs_f64() * (rep as f64 + 1.0) / (rep as f64) < seconds as f64
    {
        let seed_r = sub_seed(seed, rep as u64);
        let reqs = stream(seed_r);
        let graphs = graphs_by_key(&reqs);
        let dir = fresh_dir(work, "store");
        let (db, reports, wall) = match tune_cold(&dir, seed_r, BUDGET) {
            Ok(x) => x,
            Err(e) => {
                out.check(Err(e));
                break;
            }
        };
        check_store(&db, &reports, &graphs, &mut out);
        let half_dir = fresh_dir(work, "store-half");
        match tune_cold(&half_dir, seed_r, BUDGET / 2) {
            Ok((half_db, half, half_wall)) => {
                check_store(&half_db, &half, &graphs, &mut out);
                ratios.push(wall / half_wall);
            }
            Err(e) => out.check(Err(e)),
        }
        let _ = std::fs::remove_dir_all(&half_dir);
        full.push(wall);
        let net_s: f64 = reports.iter().map(|r| r.network_seconds).sum();
        if rep < MIN_REPS {
            modeled.push(net_s);
            quality.push(net_flops() / net_s / 1e9);
        }

        let srv = server(&db, seed_r);
        let (served, wall) = serve_stream(&srv, &reqs);
        drop(srv);
        check_served(&db, &reqs, &served, &mut out);
        lat.add(&served);
        requests += served.len();
        rates.push(served.len() as f64 / wall);
        if rep == 0 {
            // Later repetitions repeat the same work in the same process,
            // where freed memory is reused unevenly between threads; the
            // high-water mark is taken after one of each tune and stream.
            peak_rss = peak_rss_mb();
        }
        drop(db);
        setup.measure(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        rep += 1;
    }

    let ms = |xs: &[f64], q: f64| quantile(xs, q) * 1e3;
    let setup_s = median(&setup.total);
    out.metric("setup_s", "s", setup_s);
    out.metric("op_s", "s", median(&full));
    out.metric("scaling_ratio", "ratio", median(&ratios));
    out.metric("rate_per_s", "1/s", median(&rates));
    out.metric("lat_fast_ms", "ms", ms(&lat.hit, 0.5));
    out.metric("lat_slow_ms", "ms", ms(&lat.fresh, 0.5));
    out.metric("quality_gflops", "GFLOP/s", geomean(&quality));
    out.metric("modeled_s", "s", mean(&modeled));
    out.metric("peak_rss_mb", "MiB", peak_rss);

    println!("repetitions {rep} ({MIN_REPS} feed the deterministic metrics)");
    println!(
        "  stream             {} requests per repetition: {} hits, {} fresh ({} trials each), {} coalesced",
        requests / rep.max(1),
        lat.hit.len() / rep.max(1),
        lat.fresh.len() / rep.max(1),
        fresh_trials(),
        lat.coalesced / rep.max(1)
    );
    println!(
        "  graph_tune_s       {:.4} s  both networks, cold, budget {BUDGET}",
        median(&full)
    );
    println!("  network_us         {:.4}", mean(&modeled) * 1e6);
    println!(
        "  serve_req_per_s    {:.1}  median over repetitions ({requests} requests)",
        median(&rates)
    );
    println!(
        "  serve_hit_ms       p50 {:.4}  p99 {:.4}  ({} hits)",
        ms(&lat.hit, 0.5),
        ms(&lat.hit, 0.99),
        lat.hit.len()
    );
    println!(
        "  serve_fresh_ms     p50 {:.3}  p90 {:.3}  ({} fresh)",
        ms(&lat.fresh, 0.5),
        ms(&lat.fresh, 0.9),
        lat.fresh.len()
    );
    println!("  setup_s            {setup_s:.6} s");
    println!("  peak_rss_mb        {peak_rss:.1}  after the first repetition");
    println!(
        "  ulp_off            {}  winners reported an ulp off the model (1 / (1 / s) != s)",
        out.ulp_off
    );
    println!("  error_rate         {}/{}", out.failed, out.attempted);
    out
}

/// The traced run: per-layer metrics of graph tuning, serving and the
/// store, plus the telemetry layer on one fresh tune.
pub fn run_traced(seed: u64, work: &Path) -> (Outcome, HashMap<&'static str, f64>) {
    let mut out = Outcome::default();
    let mut m: HashMap<&'static str, f64> = HashMap::new();
    let seed0 = sub_seed(seed, 0);
    let reqs = stream(seed0);
    let graphs = graphs_by_key(&reqs);
    let dir = fresh_dir(work, "store");
    let (db, reports, _) = match tune_cold(&dir, seed0, BUDGET) {
        Ok(x) => x,
        Err(e) => {
            out.check(Err(e));
            return (out, m);
        }
    };
    check_store(&db, &reports, &graphs, &mut out);
    m.insert(
        "graph.tasks",
        reports.iter().map(|r| r.tasks.len()).sum::<usize>() as f64,
    );
    m.insert(
        "graph.coalesced",
        reports.iter().map(|r| r.coalesced).sum::<usize>() as f64,
    );

    let srv = server(&db, seed0);
    let (served, _) = serve_stream(&srv, &reqs);
    let stats = srv.stats();
    drop(srv);
    check_served(&db, &reqs, &served, &mut out);
    let mut lat = Latencies::default();
    lat.add(&served);
    m.insert("serve.hits", stats.hits as f64);
    m.insert("serve.misses", stats.misses as f64);
    m.insert("serve.warm_starts", stats.warm_starts as f64);
    m.insert("serve.coalesced", stats.coalesced as f64);
    m.insert("serve.queue_wait_ms_p50", median(&lat.queue_wait) * 1e3);
    m.insert("serve.hit_ms_p50", quantile(&lat.hit, 0.5) * 1e3);
    m.insert("serve.hit_ms_p99", quantile(&lat.hit, 0.99) * 1e3);
    m.insert("serve.fresh_ms_p50", quantile(&lat.fresh, 0.5) * 1e3);
    m.insert("serve.fresh_ms_p90", quantile(&lat.fresh, 0.9) * 1e3);

    // Store layer. The server answers hits from its snapshot, so lookups
    // are timed here over the stream's keys on the filled store.
    let (mut get_s, mut nearest_s) = (0.0, 0.0);
    for g in &reqs {
        let key = task_key(g, &device());
        let t0 = Instant::now();
        std::hint::black_box(db.get(&key));
        let t1 = Instant::now();
        std::hint::black_box(db.nearest_neighbor(&key));
        get_s += (t1 - t0).as_secs_f64();
        nearest_s += t1.elapsed().as_secs_f64();
    }
    m.insert("tunedb.get_s", get_s);
    m.insert("tunedb.nearest_s", nearest_s);
    m.insert("tunedb.put_calls", db.stats().puts as f64);
    drop(db);
    // Every put of this run is a line of the append-only shard logs;
    // replaying them into an empty store times the writes.
    let replay_dir = fresh_dir(work, "store-replay");
    out.check(replay_puts(&dir, &replay_dir, &mut m));
    let _ = std::fs::remove_dir_all(&replay_dir);
    let mut setup = Setup::default();
    setup.measure(&dir);
    m.insert("graph.extract_s", median(&setup.extract));
    m.insert("tunedb.open_s", median(&setup.open));
    let _ = std::fs::remove_dir_all(&dir);

    // Telemetry layer on the stream's first unseen shape.
    let stored = graphs_by_key(&[]);
    if let Some(g) = reqs
        .iter()
        .find(|g| !stored.contains_key(&task_key(g, &device())))
    {
        let task = Task::new(g.clone(), device());
        telemetry_layer(&task, &base(seed0), work, &mut out, &mut m);
    }
    (out, m)
}

fn replay_puts(src: &Path, dst: &Path, m: &mut HashMap<&'static str, f64>) -> Result<(), String> {
    let mut shards: Vec<PathBuf> = std::fs::read_dir(src)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    shards.sort();
    let mut records = Vec::new();
    for p in shards {
        let text = std::fs::read_to_string(&p).map_err(|e| e.to_string())?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            records.push(TuneRecord::from_jsonl(line).map_err(|e| e.to_string())?);
        }
    }
    let db = TuneDb::open(dst).map_err(|e| e.to_string())?.0;
    let mut put_s = 0.0;
    let mut best: BTreeMap<TuneKey, f64> = BTreeMap::new();
    for rec in records {
        let e = best.entry(rec.key.clone()).or_insert(f64::INFINITY);
        *e = e.min(rec.seconds);
        let t0 = Instant::now();
        db.put(rec).map_err(|e| e.to_string())?;
        put_s += t0.elapsed().as_secs_f64();
    }
    m.insert("tunedb.put_s", put_s);
    // The replayed store must hold the same best record per key.
    for (key, s) in best {
        match db.peek(&key) {
            Some(r) if r.seconds.to_bits() == s.to_bits() => {}
            other => return Err(format!("replayed store holds {other:?} for {}", key.flat())),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_requests_stored_and_unseen_layers_per_seed() {
        let keys = |reqs: &[Graph]| -> Vec<TuneKey> {
            reqs.iter().map(|g| task_key(g, &device())).collect()
        };
        let a = keys(&stream(7));
        assert_eq!(a, keys(&stream(7)));
        assert_ne!(a, keys(&stream(8)));
        let layers = |b: i64| -> usize { networks_at(b).iter().map(|n| n.layers.len()).sum() };
        let stored = graphs_by_key(&[]);
        let hits = a.iter().filter(|k| stored.contains_key(k)).count();
        assert_eq!(hits, HIT_PASSES * layers(1));
        let unseen: usize = UNSEEN_BATCHES.iter().map(|&b| layers(b)).sum();
        assert_eq!(
            a.len(),
            hits + unseen,
            "no unseen-batch layer is a stored shape"
        );
        // Repeats of an unseen shape follow its first request directly.
        let mut fresh: Vec<&TuneKey> = a.iter().filter(|k| !stored.contains_key(k)).collect();
        let requested = fresh.len();
        fresh.dedup();
        let mut distinct = fresh.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(fresh.len(), distinct.len());
        assert!(distinct.len() < requested, "some unseen shapes repeat");
    }
}
