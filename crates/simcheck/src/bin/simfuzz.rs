//! `simfuzz` — seeded config-space fuzzer for the stacksim simulator.
//!
//! ```text
//! simfuzz [--seeds A..B] [--jobs N] [--out FILE]   fuzz a seed range
//! simfuzz --replay FILE                            re-run a repro artifact
//! ```
//!
//! Each seed deterministically generates a configuration × mix × window
//! point and subjects it to the MSHR differential oracle, the
//! fast-forward/tick-by-tick bit-identity check and the DRAM protocol
//! checker (see `stacksim-simcheck`). The first failure is shrunk to a
//! minimal configuration and written as a replayable JSON artifact.
//!
//! Exit status: 0 when every seed passes (or a replayed bug is fixed),
//! 1 on failures, 2 on usage errors.

use std::process::ExitCode;

use stacksim::runner::parallel_map;
use stacksim_simcheck::fuzz::{self, Repro};
use stacksim_stats::Json;

struct Options {
    seeds: std::ops::Range<u64>,
    jobs: usize,
    out: Option<String>,
    replay: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: simfuzz [--seeds A..B] [--jobs N] [--out FILE]\n       simfuzz --replay FILE\n\n  --seeds A..B  fuzz seeds A (inclusive) to B (exclusive); default 0..16\n  --jobs N      worker threads for the seed sweep; default 1\n  --out FILE    where to write the first failure's repro artifact\n                (default simfuzz-repro.json)\n  --replay FILE re-run a previously written artifact"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        seeds: 0..16,
        jobs: 1,
        out: None,
        replay: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                let spec = args.next().unwrap_or_else(|| usage());
                let Some((a, b)) = spec.split_once("..") else {
                    usage()
                };
                match (a.parse(), b.parse()) {
                    (Ok(a), Ok(b)) if a < b => opts.seeds = a..b,
                    _ => usage(),
                }
            }
            "--jobs" => match args.next().and_then(|j| j.parse().ok()) {
                Some(j) if j >= 1 => opts.jobs = j,
                _ => usage(),
            },
            "--out" => opts.out = Some(args.next().unwrap_or_else(|| usage())),
            "--replay" => opts.replay = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("simfuzz: unknown argument {other:?}");
                usage();
            }
        }
    }
    opts
}

fn replay_artifact(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("simfuzz: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let repro = match Json::parse(&text)
        .map_err(|e| e.to_string())
        .and_then(|v| Repro::from_json(&v))
    {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simfuzz: {path} is not a repro artifact: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying seed {:#x} with {} shrink op(s): {}",
        repro.seed,
        repro.shrink_ops.len(),
        if repro.shrink_ops.is_empty() {
            "(none)".to_string()
        } else {
            repro.shrink_ops.join(", ")
        }
    );
    match fuzz::replay(&repro) {
        Ok(()) => {
            println!("case passes: the recorded failure no longer reproduces");
            ExitCode::SUCCESS
        }
        Err(f) => {
            println!("case still fails: {f}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let opts = parse_args();
    if let Some(path) = &opts.replay {
        return replay_artifact(path);
    }

    let seeds: Vec<u64> = opts.seeds.clone().collect();
    println!(
        "fuzzing {} seed(s) [{}..{}] across {} job(s)",
        seeds.len(),
        opts.seeds.start,
        opts.seeds.end,
        opts.jobs
    );
    let outcomes = parallel_map(opts.jobs, &seeds, |seed| fuzz::fuzz_one(*seed));
    let zero_commit_seeds = outcomes
        .iter()
        .filter(|o| o.as_ref().is_ok_and(|cores| !cores.is_empty()))
        .count();
    let failures: Vec<Repro> = outcomes.into_iter().filter_map(Result::err).collect();
    // A core that commits nothing in the window leaves the fast-forward
    // check nothing to compare for it: count such seeds rather than let
    // the per-run warnings scroll past.
    let zero_commit =
        format!("{zero_commit_seeds} passing seed(s) had a core that committed nothing");

    if failures.is_empty() {
        println!("all {} seed(s) passed; {zero_commit}", seeds.len());
        return ExitCode::SUCCESS;
    }
    for repro in &failures {
        println!("seed {:#x} FAILED: {}", repro.seed, repro.failure);
    }
    let out = opts.out.as_deref().unwrap_or("simfuzz-repro.json");
    match std::fs::write(out, failures[0].to_json().pretty()) {
        Ok(()) => println!(
            "wrote repro artifact for seed {:#x} to {out} (replay with: simfuzz --replay {out})",
            failures[0].seed
        ),
        Err(e) => eprintln!("simfuzz: cannot write {out}: {e}"),
    }
    println!(
        "{} of {} seed(s) failed; {zero_commit}",
        failures.len(),
        seeds.len()
    );
    ExitCode::FAILURE
}
