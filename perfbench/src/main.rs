//! `perfbench --workload <analytic|lookup|ingest> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints one line per metric with its unit and sample count, then, as the
//! last line, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero when any result check fails.

use perfbench::run::{self, Args, Report};
use perfbench::workload::Workload;
use std::process::ExitCode;

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
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
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print(args: &Args, report: &Report) {
    println!(
        "workload {} seed {} {}",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "measured" }
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for m in &report.metrics {
        println!(
            "  {:<36} {:>16.6} {:<10} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<36} {:>16.6} {:<10} ({} failed of {} attempted)",
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.failed,
        report.attempted
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run::traced(&args)
    } else {
        run::measured(&args)
    };
    match report {
        Ok(report) if report.metrics.iter().all(|m| m.value.is_finite()) => {
            print(&args, &report);
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(_) => {
            eprintln!("perfbench: a metric is not a finite number");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
