//! End-to-end, layer-attributed benchmark of the FlexTensor reproduction.
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload search_q --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace
//! 1` runs the traced replica and prints the per-layer metrics instead.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `bench_e2e/BENCHMARK.md` for
//! the workloads and what each metric means.

#![forbid(unsafe_code)]

mod cli;
mod replica;
mod report;
mod search;
mod serve;

use std::collections::HashMap;
use std::path::PathBuf;

use flextensor::Method;

use report::{Metric, Outcome};

/// Per-layer metrics, with units, in output order. Every traced run
/// prints all of them; a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("search.setup_s", "s"),
    ("space.sample_s", "s"),
    ("sa.select_s", "s"),
    ("sa.select_calls", "count"),
    ("sa.history_len", "count"),
    ("sa.record_s", "s"),
    ("space.apply_s", "s"),
    ("space.apply_calls", "count"),
    ("q.infer_s", "s"),
    ("q.infer_calls", "count"),
    ("q.train_s", "s"),
    ("q.train_calls", "count"),
    ("pool.batches", "count"),
    ("pool.candidates", "count"),
    ("pool.fresh", "count"),
    ("pool.hit_rate", "frac"),
    ("pool.eval_s", "s"),
    ("schedule.features_s", "s"),
    ("schedule.reject_frac", "frac"),
    ("sim.score_s", "s"),
    ("sim.infeasible_frac", "frac"),
    ("driver.self_s", "s"),
    ("driver.cover_frac", "frac"),
    ("optimize.post_s", "s"),
    ("graph.extract_s", "s"),
    ("graph.tasks", "count"),
    ("graph.coalesced", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.warm_starts", "count"),
    ("serve.coalesced", "count"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_ms_p99", "ms"),
    ("serve.fresh_ms_p50", "ms"),
    ("serve.fresh_ms_p90", "ms"),
    ("tunedb.open_s", "s"),
    ("tunedb.put_s", "s"),
    ("tunedb.put_calls", "count"),
    ("tunedb.get_s", "s"),
    ("tunedb.nearest_s", "s"),
    ("telemetry.overhead_frac", "frac"),
    ("telemetry.events", "count"),
    ("telemetry.bytes", "bytes"),
    ("optin.delta_eval_ratio", "ratio"),
    ("optin.analyzer_gate_ratio", "ratio"),
    ("optin.region_gate_ratio", "ratio"),
    ("trace.overhead_frac", "frac"),
    ("check.ulp_off", "count"),
];

/// End-to-end metrics, with units, in output order. What each means on
/// each workload is in `BENCHMARK.md`.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("scaling_ratio", "ratio"),
    ("rate_per_s", "1/s"),
    ("lat_fast_ms", "ms"),
    ("lat_slow_ms", "ms"),
    ("quality_gflops", "GFLOP/s"),
    ("modeled_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Derives the seed of repetition `r` from the workload seed (SplitMix64
/// finalizer over both), so repetitions explore distinct trajectories.
pub fn sub_seed(seed: u64, r: u64) -> u64 {
    let mut z = seed ^ r.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    // Scratch files (tuning stores, trace files) live under the working
    // directory and are removed before exit.
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    println!(
        "== {} seed {} seconds {} trace {} ==",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let method = match args.workload.as_str() {
        "search_q" => Some(Method::QMethod),
        "search_p" => Some(Method::PMethod),
        _ => None,
    };
    let mut out = if args.trace {
        let (mut out, mut m) = match method {
            Some(method) => search::run_traced(method, args.seed, &work),
            None => serve::run_traced(args.seed, &work),
        };
        m.insert("check.ulp_off", out.ulp_off as f64);
        per_layer(&mut out, m);
        out
    } else {
        let out = match method {
            Some(method) => search::run(method, args.seed, args.seconds),
            None => serve::run(args.seed, args.seconds, &work),
        };
        let emitted: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(emitted, END_TO_END, "end-to-end metrics out of step");
        out
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    for f in &out.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", out.json_line());
}

/// Emits every per-layer metric in [`PER_LAYER`] order.
fn per_layer(out: &mut Outcome, mut m: HashMap<&'static str, f64>) {
    for (name, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    for key in m.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == key),
            "per-layer metric {key} is not declared"
        );
    }
    for (name, unit) in PER_LAYER {
        let value = m[name];
        println!("  {name:<28} {value:>16.6} {unit}");
        out.metrics.push(Metric { name, unit, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names of one metric list of `BENCHMARK.json`, in order.
    fn declared(list: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let start = text.find(&format!("\"{list}\"")).expect("list present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|item| {
                let field = |k: &str| {
                    let at = item.find(&format!("\"{k}\": \"")).expect("field") + k.len() + 5;
                    item[at..at + item[at..].find('"').expect("string closes")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let code: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), code);
    }

    #[test]
    fn end_to_end_list_matches_benchmark_json() {
        let code: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), code);
    }

    #[test]
    fn sub_seeds_differ_and_repeat() {
        assert_eq!(sub_seed(7, 0), sub_seed(7, 0));
        assert_ne!(sub_seed(7, 0), sub_seed(7, 1));
        assert_ne!(sub_seed(7, 0), sub_seed(8, 0));
    }
}
