//! Probe — the conformance fuzzer and regression corpus on the CLI.
//!
//! Subcommands:
//!
//! * `fuzz` — run the seeded differential fuzz loop
//!   (`--seed N`, default 7; `--iters N`, default 500). Any violation is
//!   shrunk and written into the corpus directory so the failure replays
//!   as `cargo test` from then on. Exit code 1 when violations are found.
//! * `replay` — replay every committed corpus fixture; exit code 1 on the
//!   first mismatch between a fixture's expectation and the current
//!   implementation.
//! * `seed-corpus` — (re)write the deterministic seed fixtures. Only
//!   needed after an intentional encoding change; the result is
//!   byte-stable, so a clean rewrite produces no diff.
//!
//! All subcommands accept `--corpus DIR` (default: the committed
//! `crates/conformance/corpus`). The fuzz report contains no wall-clock
//! data: two runs with the same seed print byte-identical output, which
//! CI exploits as a determinism check.

use std::path::PathBuf;
use std::process::ExitCode;

use flextensor_bench::harness::arg;
use flextensor_conformance::corpus::{load_corpus, seed_corpus};
use flextensor_conformance::fuzz::{fuzz, FuzzOptions};

fn corpus_dir() -> PathBuf {
    let default = concat!(env!("CARGO_MANIFEST_DIR"), "/../conformance/corpus").to_string();
    PathBuf::from(arg("corpus", default))
}

fn main() -> ExitCode {
    flextensor_bench::harness::declare_flags(&["corpus", "seed", "iters"]);
    let mode = std::env::args().nth(1).unwrap_or_else(|| "fuzz".into());
    match mode.as_str() {
        "fuzz" => run_fuzz(),
        "replay" => run_replay(),
        "seed-corpus" => run_seed_corpus(),
        other => {
            eprintln!("unknown subcommand `{other}`; expected fuzz | replay | seed-corpus");
            ExitCode::FAILURE
        }
    }
}

fn run_fuzz() -> ExitCode {
    let opts = FuzzOptions {
        seed: arg("seed", 7),
        iters: arg("iters", 500),
    };
    let report = fuzz(&opts);
    print!("{}", report.render());
    if report.violations.is_empty() {
        return ExitCode::SUCCESS;
    }
    // Persist every shrunk reproducer so the failure is pinned as an
    // ordinary test before anyone starts debugging it.
    let dir = corpus_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create corpus dir {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for v in &report.violations {
        let path = dir.join(format!("{}.json", v.fixture.name));
        match std::fs::write(&path, v.fixture.to_json()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    ExitCode::FAILURE
}

fn run_replay() -> ExitCode {
    let dir = corpus_dir();
    let fixtures = match load_corpus(&dir) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "replaying {} fixtures from {}",
        fixtures.len(),
        dir.display()
    );
    let mut failures = 0u32;
    for f in &fixtures {
        match f.replay() {
            Ok(()) => println!("  ok   {} ({})", f.name, f.expect.name()),
            Err(e) => {
                failures += 1;
                println!("  FAIL {} ({}): {e}", f.name, f.expect.name());
            }
        }
    }
    if failures == 0 {
        println!("corpus clean");
        ExitCode::SUCCESS
    } else {
        println!("{failures} fixture(s) failed");
        ExitCode::FAILURE
    }
}

fn run_seed_corpus() -> ExitCode {
    let dir = corpus_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create corpus dir {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    for f in seed_corpus() {
        let path = dir.join(format!("{}.json", f.name));
        match std::fs::write(&path, f.to_json()) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
