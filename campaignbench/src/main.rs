//! Whole-campaign benchmark of the MuFuzz reproduction.
//!
//! ```text
//! cargo run --release --manifest-path campaignbench/Cargo.toml -- \
//!     --workload coverage_d1 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `README.md` in this directory). The last line of standard
//! output is one JSON object; the line before it fingerprints the host.
//! Any failed campaign or output check makes the exit code non-zero.

mod campaigns;
mod host;
mod layers;
mod workloads;

use campaigns::{run_campaign, setup_pass, Digests, Tally};
use mufuzz::CampaignService;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    toy: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        toy: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--toy" {
            args.toy = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Metrics in output order: name, unit, value.
pub type Metrics = Vec<(&'static str, &'static str, f64)>;

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("campaignbench: {message}");
            eprintln!(
                "usage: campaignbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--toy]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::build(&args.workload, args.seed, args.toy) else {
        eprintln!(
            "campaignbench: unknown workload {:?} (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();
    let metrics = if args.trace {
        layers::traced_run(&workload, seconds, &mut tally)
    } else {
        end_to_end(&workload, seconds, &mut tally)
    };
    println!("{}", host::fingerprint(workload.lanes));
    let correct = tally.failed == 0 && tally.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A JSON number with every digit the measurement has.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

/// The median of `values`; NaN (printed as `null`) when a failure left no
/// samples.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The end-to-end run: an untimed warm-up round, then rounds of (a timed
/// set-up pass, every contract's campaign) until `seconds` have passed.
/// Every round repeats the same campaigns, so their digests must repeat.
/// The run stops at the first failure (one hung campaign already costs the
/// deadline) and reports no metrics.
///
/// Timed metrics are built from medians: each contract's set-up time and
/// campaign wall time are the medians over the run's repetitions, and
/// `setup_s` / `seq_per_s` sum those medians over the contracts. A burst of
/// load from outside the process then moves a metric only if it hits the
/// same contracts in half the rounds. CPU time is sampled per round (the
/// kernel counts it in 10 ms ticks) and its median taken over rounds.
fn end_to_end(workload: &Workload, seconds: Duration, tally: &mut Tally) -> Metrics {
    let service = CampaignService::new(workload.lanes);
    let n = workload.contracts.len();
    let (mut setup, mut walls) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    let mut cpu_us = Vec::new();
    let mut first: Vec<mufuzz::CampaignReport> = Vec::new();
    let started = Instant::now();
    for round in 0.. {
        let warm_up = round == 0;
        if round > 1 && started.elapsed() >= seconds {
            break;
        }
        let Some((compiled, times)) = tally.record("set-up", setup_pass(workload)) else {
            return Vec::new();
        };
        if !warm_up {
            for (samples, t) in setup.iter_mut().zip(times) {
                samples.push(t.as_secs_f64());
            }
        }
        let cpu_before = host::process_cpu();
        let (mut executions, mut wall) = (0usize, Duration::ZERO);
        let mut reports = Vec::with_capacity(n);
        for (index, c) in compiled.into_iter().enumerate() {
            let name = workload.contracts[index].name.as_str();
            let Some(done) = tally.record(name, run_campaign(&service, c, workload.config(index)))
            else {
                return Vec::new();
            };
            executions += done.report.executions;
            wall += done.wall;
            if !warm_up {
                walls[index].push(done.wall.as_secs_f64());
            }
            reports.push(done.report);
        }
        let cpu = host::process_cpu().zip(cpu_before).map(|(a, b)| a - b);
        eprintln!(
            "round {round}: {:.0} seq/s over {wall:.2?}",
            executions as f64 / wall.as_secs_f64()
        );
        if !warm_up {
            cpu_us.push(cpu.unwrap_or_default().as_secs_f64() * 1e6 / executions.max(1) as f64);
        }
        if warm_up {
            first = reports;
        } else if reports
            .iter()
            .map(Digests::of)
            .ne(first.iter().map(Digests::of))
        {
            tally.record::<()>(
                "repeat check",
                Err(format!("round {round} digests differ from the warm-up's")),
            );
            return Vec::new();
        }
    }
    let mut campaign_s = 0.0;
    for ((report, contract), samples) in first.iter().zip(&workload.contracts).zip(&mut walls) {
        let wall = median(samples);
        campaign_s += wall;
        eprintln!(
            "  {:<16} {:>8.0} seq/s {:>6.1}% cov  {:>3} edges  {:?}",
            contract.name,
            report.executions as f64 / wall,
            report.coverage_percent(),
            report.total_edges,
            report
                .findings
                .iter()
                .map(|f| f.class.abbrev())
                .collect::<Vec<_>>(),
        );
    }
    let q = campaigns::quality(workload, &first);
    let executions: usize = first.iter().map(|r| r.executions).sum();
    eprintln!(
        "{}: {n} contracts x {} executions, {} lanes, {:?}; {} timed rounds; findings_fp {}",
        workload.name,
        workload.budget,
        workload.lanes,
        workload.profile,
        cpu_us.len(),
        q.findings_fp
    );
    vec![
        ("seq_per_s", "1/s", executions as f64 / campaign_s),
        ("cpu_us_per_seq", "us", median(&mut cpu_us)),
        ("coverage_pct", "%", q.coverage_pct),
        ("coverage_auc_pct", "%", q.coverage_auc_pct),
        ("findings_tp", "count", q.findings_tp as f64),
        ("setup_s", "s", setup.iter_mut().map(|s| median(s)).sum()),
        ("peak_rss_mb", "MB", host::peak_rss_mb().unwrap_or(0.0)),
    ]
}
