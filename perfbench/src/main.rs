//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest_generations|lifecycle_file|service_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  Inputs are generated from `--seed`; the
//! system only ever receives the generated bytes.  Every metric is printed
//! on its own line with its unit and sample count, then the last line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.  With
//! `--trace 0` the JSON carries the end-to-end metrics of an untraced run;
//! with `--trace 1` it carries the per-layer metrics of a traced run and the
//! spans are written under `.perfbench/spans/`.  Any failed output check
//! makes the exit code 1.

mod inputs;
mod layers;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::{human_lines, json_line, Outcome, END_TO_END, PER_LAYER};
use std::path::Path;
use workloads::{ingest_generations, lifecycle_file, per_layer_metrics, service_mix, Budget};

/// Runs one workload at full or tiny size, untraced or traced.
fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    tiny: bool,
    trace: bool,
) -> Result<Outcome, String> {
    // Each workload module has its own `Sizes` with `FULL` and `TINY`.
    macro_rules! sizes {
        ($workload:ident) => {
            if tiny {
                $workload::Sizes::TINY
            } else {
                $workload::Sizes::FULL
            }
        };
    }
    let budget = Budget::new(seconds);
    let (mut outcome, tracer, counters) = match (name, trace) {
        ("ingest_generations", false) => {
            return Ok(ingest_generations::run(
                &sizes!(ingest_generations),
                seed,
                &budget,
            ))
        }
        ("lifecycle_file", false) => {
            return Ok(lifecycle_file::run(&sizes!(lifecycle_file), seed, &budget))
        }
        ("service_mix", false) => return Ok(service_mix::run(&sizes!(service_mix), seed, &budget)),
        ("ingest_generations", true) => {
            ingest_generations::run_traced(&sizes!(ingest_generations), seed)
        }
        ("lifecycle_file", true) => lifecycle_file::run_traced(&sizes!(lifecycle_file), seed),
        ("service_mix", true) => service_mix::run_traced(&sizes!(service_mix), seed),
        _ => return Err(format!("unknown workload {name:?}")),
    };
    per_layer_metrics(&mut outcome, &tracer, &counters);
    if !tiny {
        let dir = Path::new(sys::OUTPUT_DIR).join("spans");
        let path = dir.join(format!("{name}-seed{seed}.tsv"));
        match std::fs::create_dir_all(&dir).and_then(|()| tracer.write_tsv(&path)) {
            Ok(()) => println!("{name} spans written to {}", path.display()),
            Err(e) => println!("{name} spans not written: {e}"),
        }
    }
    Ok(outcome)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = match run_workload(&args.workload, args.seed, args.seconds, false, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    for line in human_lines(&args.workload, &outcome) {
        println!("{line}");
    }
    let contract = if args.trace { PER_LAYER } else { END_TO_END };
    let (line, correct) = json_line(&outcome, contract);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "service_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("service_mix", 7, 10.0, true)
        );
        assert!(args(&["--seed", "1"]).is_err(), "workload is required");
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--bogus"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
