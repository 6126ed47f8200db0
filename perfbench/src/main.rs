//! Runs one workload of the benchmark and prints every metric by name
//! with its unit; the last line is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-pins --seed 1 --seconds 30 --trace 0
//! ```

use std::process::ExitCode;

use qac_perfbench::stats::Host;
use qac_perfbench::{result_json, run, Limit, Workload};

const USAGE: &str = "usage: perfbench --workload <paper-pins|fresh-maps|compile-corpus> \
                     --seed <u64> --seconds <n> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::measure();
    let result = run(
        args.workload,
        args.seed,
        Limit::Seconds(args.seconds),
        args.trace,
    );
    let run = match result {
        Ok(run) => run,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::FAILURE;
        }
    };
    let traced = run.jobs.iter().filter(|j| j.layers.is_some()).count();
    println!(
        "# workload={} seed={} seconds={} trace={} jobs={} traced={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.jobs.len(),
        traced,
    );
    println!(
        "# host nproc={} commit={} calibration_s={:.6}",
        host.nproc, host.commit, host.calibration_s
    );
    println!("# setup_s of each set-up: {:?}", run.setup_s);
    for job in run.jobs.iter().filter(|j| j.failed()) {
        let why = job.wrong.as_deref().or(job.error.as_deref()).unwrap_or("");
        println!("# failed job: {why}");
    }
    let end_to_end = run.end_to_end();
    for m in end_to_end.iter().chain(&run.reported()) {
        println!("end_to_end {} {} {}", m.name, m.value, m.unit);
    }
    let per_layer = run.per_layer();
    if args.trace {
        for m in &per_layer {
            println!("per_layer {} {} {}", m.name, m.value, m.unit);
        }
    }
    let metrics = if args.trace { per_layer } else { end_to_end };
    println!("{}", result_json(&run, &metrics));
    ExitCode::SUCCESS
}
