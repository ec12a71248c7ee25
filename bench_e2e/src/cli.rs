//! Strict command-line parsing for the benchmark.
//!
//! Every flag is declared; an unknown flag, a repeated flag, a missing
//! value or a value that does not parse is an error, and `main` exits
//! with code 2. Nothing falls back to a default except a flag that is
//! absent altogether.

use std::fmt;

/// The workloads the benchmark knows, by name.
pub const WORKLOADS: [&str; 3] = ["search_q", "search_p", "graph_serve"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the untraced run measures, seconds (at least 1).
    pub seconds: u64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
}

/// A command-line error (printed to stderr; exit code 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

pub const USAGE: &str = "usage: flextensor-bench-e2e --workload <search_q|search_p|graph_serve> \
[--seed <u64>] [--seconds <1..=3600>] [--trace <0|1>]";

/// Parses `args` (without the program name). Accepts `--flag value` and
/// `--flag=value`.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, CliError> {
    let mut workload: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut seconds: Option<u64> = None;
    let mut trace: Option<bool> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let Some(body) = arg.strip_prefix("--") else {
            return Err(CliError(format!("unexpected argument `{arg}`")));
        };
        let (name, inline) = match body.split_once('=') {
            Some((n, v)) => (n.to_string(), Some(v.to_string())),
            None => (body.to_string(), None),
        };
        if !matches!(name.as_str(), "workload" | "seed" | "seconds" | "trace") {
            return Err(CliError(format!("unknown flag `--{name}`")));
        }
        let value = match inline {
            Some(v) => v,
            None => it
                .next()
                .ok_or_else(|| CliError(format!("flag `--{name}` needs a value")))?,
        };
        let dup = match name.as_str() {
            "workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(CliError(format!(
                        "unknown workload `{value}` (expected one of {})",
                        WORKLOADS.join(", ")
                    )));
                }
                workload.replace(value).is_some()
            }
            "seed" => seed.replace(parse_num(&name, &value)?).is_some(),
            "seconds" => {
                let s = parse_num(&name, &value)?;
                if !(1..=3600).contains(&s) {
                    return Err(CliError(format!("`--seconds {value}` is outside 1..=3600")));
                }
                seconds.replace(s).is_some()
            }
            _ => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(CliError(format!("`--trace {value}` must be 0 or 1"))),
                };
                trace.replace(t).is_some()
            }
        };
        if dup {
            return Err(CliError(format!("flag `--{name}` given twice")));
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| CliError("missing `--workload`".to_string()))?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn parse_num(name: &str, value: &str) -> Result<u64, CliError> {
    value
        .parse::<u64>()
        .map_err(|_| CliError(format!("`--{name} {value}` is not a non-negative integer")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Args, CliError> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn accepts_both_value_forms() {
        let a = p(&[
            "--workload",
            "search_q",
            "--seed=7",
            "--seconds",
            "3",
            "--trace=1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "search_q".into(),
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_instead_of_defaulting() {
        for bad in [
            &["--workload", "search_q", "--check=1"][..],
            &["--workload", "nope"],
            &["--workload", "search_q", "--seed", "x"],
            &["--workload", "search_q", "--seed", "-1"],
            &["--workload", "search_q", "--trace", "yes"],
            &["--workload", "search_q", "--seconds", "0"],
            &["--workload", "search_q", "--seed"],
            &["--workload", "search_q", "--seed", "1", "--seed", "2"],
            &["--seed", "1"],
            &["search_q"],
        ] {
            assert!(p(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
