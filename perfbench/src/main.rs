//! Command line of the serving benchmark:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one report line per figure (value, unit, sample count), a stamp
//! line, and as its last line one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when an operation failed or
//! an answer was wrong, 2 on a usage or set-up error (without a result).

use perfbench::{run, Options, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(message: &str) -> ExitCode {
    eprintln!("perfbench: {message}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage(&format!("{} needs a value", args[i]));
        };
        match args[i].as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required and valid");
    };

    // Snapshots, span dumps and the counter ledger live beside the build.
    let state_dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("perfbench-state")))
        .unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-state"));
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        size: Size::Full,
        state_dir,
        corrupt_answer: false,
    };
    let outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", workload.name());
            return ExitCode::from(2);
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for violation in &outcome.violations {
        eprintln!("perfbench: check failed: {violation}");
    }
    println!("stamp {}", outcome.stamp_json());
    println!("{}", outcome.json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
