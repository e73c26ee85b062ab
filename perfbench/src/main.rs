//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its host stamp, metric tables, pose digest
//! and checks, then one JSON result line: end-to-end metrics untraced,
//! per-layer metrics with `--trace 1`. An untraced run makes one pass over
//! the workload's input pool and keeps cycling through it until
//! `--seconds` have passed; a traced run makes exactly one pass over half
//! the pool untraced and one traced. Exits 1 when an output check fails
//! and 2 on bad arguments or when the workload's thread budget exceeds the
//! host's available parallelism.

use perfbench::report::{self, Metric};
use perfbench::run::{self, Options};
use perfbench::{host, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <fleet_fanout|link_stream> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(Some(s).filter(|s| s.is_finite() && *s > 0.0).ok_or_else(bad)?);
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
    let workload: Workload = workload.ok_or("--workload is required")?;
    let options = Options::new(
        workload,
        seed.ok_or("--seed is required")?,
        trace.ok_or("--trace is required")?,
        seconds.ok_or("--seconds is required")?,
    );
    run::check_thread_budget(workload.threads(), host::available_parallelism())
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    Ok(options)
}

fn trace_path(options: &Options) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target").join("traces");
    dir.join(format!("{}-seed{}.json", options.workload.name(), options.seed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run::run(options);
    let stamp = report::stamp(&result);
    println!("perfbench {stamp}");
    println!("pose digest 0x{:016x}", result.timed.first_pass().digest());

    let (end_to_end, rates) = report::end_to_end(&result);
    let (declared, metrics): (&[(&str, &str)], Vec<Metric>) = if let Some(traced) = &result.traced {
        let (common, specific) = report::per_layer(&result);
        print!("{}", report::table("per-layer metrics (traced run)", &common));
        print!("{}", report::table("workload-specific layer metrics", &specific));
        print!("{}", report::self_time_table(&traced.spans));
        let all: Vec<Metric> = end_to_end.iter().chain(&common).chain(&specific).cloned().collect();
        let path = trace_path(&options);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|_| std::fs::write(&path, report::trace_json(&stamp, &all, &traced.spans)));
        match written {
            Ok(()) => println!("trace: {} spans written to {}", traced.spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
        (&report::PER_LAYER, common)
    } else {
        print!("{}", report::table("end-to-end metrics", &end_to_end));
        print!("{}", report::table("pose quality (reported per layer)", &rates));
        (&report::END_TO_END, end_to_end)
    };

    let violations = report::checks(&result);
    if violations.is_empty() {
        println!("checks: ok");
    }
    for v in &violations {
        println!("check failed: {v}");
    }
    let (attempted, failed) = report::attempted_failed(&result);
    let correct = violations.is_empty();
    println!("{}", report::json_line(correct, attempted, failed, declared, &metrics));
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
