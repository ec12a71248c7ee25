//! Probe — tuning-as-a-service smoke: concurrent sessions over one
//! shared schedule database.
//!
//! Two phases over a temporary [`TuneDb`]:
//!
//! 1. **Seed** — a single session tunes two tasks, populating the store.
//! 2. **Serve** — `--sessions` concurrent sessions (default 8) each
//!    submit `--requests` tasks drawn round-robin from a fixed pool, so
//!    the mix contains snapshot hits, fresh (warm- and cold-started)
//!    tunes, and coalesced duplicates.
//!
//! Everything in the written summary is deterministic: request
//! classification happens at submit time against a database snapshot,
//! submission order is fixed, and search itself is bit-deterministic per
//! seed — so the per-session hit/miss/warm/coalesced table and the
//! per-key modeled costs are byte-identical run-to-run and worker-count
//! independent (queue wait, the only wall-clock quantity, is excluded).
//! CI diffs the output against the committed `results/probe_serve.csv`.
//!
//! Flags: `--sessions N` (default 8), `--workers N` (default 4),
//! `--requests N` per session (default 6), `--seed N` (default 2024),
//! `--out PATH` (default `results/probe_serve.csv`).

use std::sync::Arc;

use flextensor::serve::{ServeOptions, SessionServer};
use flextensor::OptimizeOptions;
use flextensor_bench::harness::arg;
use flextensor_ir::graph::Graph;
use flextensor_ir::ops::{self, ConvParams};
use flextensor_sim::spec::{v100, Device};
use flextensor_telemetry::json::write_f64;
use flextensor_tunedb::{testutil, TuneDb};

/// The fixed task pool: two gemm shapes of one family (so the second
/// warm-starts from the first), a gemv (no neighbor → cold start), and a
/// small conv2d.
fn task_pool() -> Vec<Graph> {
    vec![
        ops::gemm(32, 32, 32),
        ops::gemm(64, 64, 64),
        ops::gemv(128, 128),
        ops::conv2d(ConvParams::same(1, 8, 8, 3), 8, 8),
    ]
}

fn main() {
    flextensor_bench::harness::declare_flags(&["sessions", "workers", "requests", "seed", "out"]);
    let sessions: usize = arg("sessions", 8);
    let workers: usize = arg("workers", 4);
    let requests: usize = arg("requests", 6);
    let seed: u64 = arg("seed", 2024);
    let out: String = arg("out", "results/probe_serve.csv".to_string());

    let mut base = OptimizeOptions::quick();
    base.search.seed = seed;
    base.search.trials = 8;
    base.search.starts = 2;
    base.search.initial_samples = 6;

    println!(
        "== Probe: session server (sessions {sessions}, workers {workers}, \
         {requests} requests/session, seed {seed}) ==\n"
    );

    let dir = testutil::temp_dir("probe-serve");
    let (db, _) = TuneDb::open(&dir).expect("open temp db");
    let db = Arc::new(db);
    let pool = task_pool();

    // Phase 1: seed the store with two tasks.
    {
        let server = SessionServer::new(
            Arc::clone(&db),
            ServeOptions {
                workers,
                base: base.clone(),
                commit: "probe-serve".to_string(),
            },
        );
        let seeder = server.session("seeder");
        let t0 = seeder.submit(pool[0].clone(), Device::Gpu(v100()));
        let t3 = seeder.submit(pool[3].clone(), Device::Gpu(v100()));
        t0.wait().expect("seed tune 0");
        t3.wait().expect("seed tune 3");
    }
    println!("seeded {} records\n", db.len());

    // Phase 2: concurrent sessions over the seeded store.
    let server = SessionServer::new(
        Arc::clone(&db),
        ServeOptions {
            workers,
            base,
            commit: "probe-serve".to_string(),
        },
    );
    let handles: Vec<_> = (0..sessions)
        .map(|i| server.session(&format!("s{i}")))
        .collect();
    let mut tickets = Vec::new();
    for r in 0..requests {
        for (i, s) in handles.iter().enumerate() {
            let g = pool[(r + i) % pool.len()].clone();
            tickets.push(s.submit(g, Device::Gpu(v100())));
        }
    }
    let mut failed = 0usize;
    for t in tickets {
        if t.wait().is_err() {
            failed += 1;
        }
    }
    assert_eq!(failed, 0, "probe requests must all succeed");

    // Deterministic summary: per-session classification counts, then the
    // final store contents (key → modeled cost, shortest-round-trip f64).
    let mut csv = String::from("session,submitted,completed,failed,hits,misses,warm,coalesced\n");
    for (name, s) in server.session_stats() {
        csv.push_str(&format!(
            "{name},{},{},{},{},{},{},{}\n",
            s.submitted, s.completed, s.failed, s.hits, s.misses, s.warm_starts, s.coalesced
        ));
    }
    let agg = server.stats();
    csv.push_str(&format!(
        "total,{},{},{},{},{},{},{}\n",
        agg.requests,
        agg.completed,
        agg.failed,
        agg.hits,
        agg.misses,
        agg.warm_starts,
        agg.coalesced
    ));
    drop(server);
    csv.push_str("key,seconds\n");
    for key in db.keys() {
        let rec = db.peek(&key).expect("indexed key");
        let mut secs = String::new();
        write_f64(&mut secs, rec.seconds);
        csv.push_str(&format!("{},{secs}\n", key.flat()));
    }

    print!("{csv}");
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("warning: cannot create {}: {e}", parent.display());
        }
    }
    match std::fs::write(&out, &csv) {
        Ok(()) => println!("\n(saved {out})"),
        Err(e) => eprintln!("warning: cannot write {out}: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
