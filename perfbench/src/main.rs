//! The repository benchmark. One command runs one workload for a fixed
//! time, checks the program's outputs, and prints every metric by name
//! with its unit; the last line of standard output is the result object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tcp_gps_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics and the ledger. See `perfbench/NOTES.md`.

mod cpus;
mod inputs;
mod layers;
mod report;
mod serve;
mod speed;
mod stats;
mod tcp;
mod trace;
mod walk;

use std::time::Instant;

use report::Labels;
use serve::Kind;

const WORKLOADS: &[&str] = &["tcp_gps_stream", "tcp_exact_hot", "session_gps_walk"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let t = args.seconds;
    let (seed, traced) = (args.seed, args.traced);
    let result = match (args.workload.as_str(), traced) {
        ("tcp_gps_stream", false) => serve::run(Kind::Gps, seed, t, epoch),
        ("tcp_gps_stream", true) => serve::traced(Kind::Gps, seed, 0.35 * t, epoch),
        ("tcp_exact_hot", false) => serve::run(Kind::Exact, seed, t, epoch),
        ("tcp_exact_hot", true) => serve::traced(Kind::Exact, seed, 0.35 * t, epoch),
        ("session_gps_walk", false) => walk::run(seed, t),
        ("session_gps_walk", true) => walk::traced(seed, 0.3 * t, 0.1 * t, epoch),
        _ => unreachable!("workload names are validated"),
    };
    let labels = Labels {
        workload: &args.workload,
        seed,
        seconds: t,
        traced,
    };
    report::emit(&labels, result);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload tcp_exact_hot --seed 9 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "tcp_exact_hot");
        assert_eq!((a.seed, a.seconds, a.traced), (9, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload tcp_exact_hot").is_err());
        assert!(args("--workload tcp_exact_hot --seed 1 --trace 2").is_err());
        assert!(args("--workload tcp_exact_hot --seed 1 --seconds").is_err());
    }
}
