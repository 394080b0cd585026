//! Whole campaigns through the public API: timed set-up passes, campaigns
//! driven by `poll` with a deadline, and the per-campaign output checks.

use crate::workloads::Workload;
use mufuzz::lang::{compile_source, CompiledContract};
use mufuzz::oracles::score_contract;
use mufuzz::{CampaignProgress, CampaignReport, CampaignService, Fuzzer, FuzzerConfig};
use std::time::{Duration, Instant};

/// How long one campaign may run before it counts as failed. Far above any
/// workload's campaign time, far below the benchmark's own time limit.
const CAMPAIGN_DEADLINE: Duration = Duration::from_secs(30);

/// Pass or fail tally over everything the run attempted.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    /// Count one attempt; a failure is reported on stderr.
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(message) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {message}");
                None
            }
        }
    }
}

/// One set-up pass over the workload: source to ready campaign
/// (`compile_source` + `Fuzzer::new`: analysis, deployment and lowering)
/// for every contract. Returns the compiled contracts and each contract's
/// set-up time; the clone handed back is made outside the timed region.
pub fn setup_pass(workload: &Workload) -> Result<(Vec<CompiledContract>, Vec<Duration>), String> {
    let mut compiled = Vec::with_capacity(workload.contracts.len());
    let mut times = Vec::with_capacity(workload.contracts.len());
    for (index, contract) in workload.contracts.iter().enumerate() {
        let start = Instant::now();
        let c = compile_source(&contract.source)
            .map_err(|e| format!("{} does not compile: {e:?}", contract.name))?;
        let mut timed = start.elapsed();
        compiled.push(c.clone());
        let start = Instant::now();
        let fuzzer = Fuzzer::new(c, workload.config(index))
            .map_err(|e| format!("{} does not deploy: {e:?}", contract.name))?;
        timed += start.elapsed();
        drop(fuzzer);
        times.push(timed);
    }
    Ok((compiled, times))
}

/// One finished, checked campaign.
pub struct Finished {
    pub report: CampaignReport,
    /// Wall time from submission returning to completion (set-up excluded).
    pub wall: Duration,
}

/// Submit one campaign and drive it by `poll` until it completes, fails its
/// deadline, or pauses. A lane that panics leaves its campaign running
/// forever, so `wait()` is only called once `poll` says the report is
/// ready.
pub fn run_campaign(
    service: &CampaignService,
    compiled: CompiledContract,
    config: FuzzerConfig,
) -> Result<Finished, String> {
    let budget = config.max_executions();
    let handle = service
        .submit(compiled, config)
        .map_err(|e| format!("set-up error: {e:?}"))?;
    let start = Instant::now();
    loop {
        match handle.poll() {
            CampaignProgress::Completed => break,
            CampaignProgress::Paused { executions } => {
                return Err(format!("paused at {executions} executions"));
            }
            CampaignProgress::Running { executions, .. } => {
                if start.elapsed() > CAMPAIGN_DEADLINE {
                    return Err(format!(
                        "no report after {CAMPAIGN_DEADLINE:?} ({executions} executions)"
                    ));
                }
                // Poll coarsely until the last few percent of the budget,
                // then finely, so completion is noticed within ~50 us
                // without the poller competing with the lanes for a core.
                let near_end = executions * 20 >= budget * 19;
                std::thread::sleep(Duration::from_micros(if near_end { 50 } else { 1_000 }));
            }
        }
    }
    let wall = start.elapsed();
    let report = handle.wait();
    check_report(&report, budget)?;
    Ok(Finished { report, wall })
}

/// The per-campaign output checks: the exact budget, coverage within the
/// contract's edges, and a monotone coverage timeline.
fn check_report(report: &CampaignReport, budget: usize) -> Result<(), String> {
    if report.executions != budget {
        return Err(format!(
            "{}: {} executions for a budget of {budget}",
            report.contract, report.executions
        ));
    }
    if report.covered_edges > report.total_edges {
        return Err(format!(
            "{}: {} covered of {} edges",
            report.contract, report.covered_edges, report.total_edges
        ));
    }
    let monotone = report
        .timeline
        .windows(2)
        .all(|w| w[0].executions <= w[1].executions && w[0].covered_edges <= w[1].covered_edges);
    if !monotone || report.timeline.last().map(|p| p.covered_edges) != Some(report.covered_edges) {
        return Err(format!("{}: timeline is not monotone", report.contract));
    }
    Ok(())
}

/// What must repeat exactly between runs of the same campaign: the final
/// coverage and corpus digests, covered edges and findings.
#[derive(Clone, Debug, PartialEq)]
pub struct Digests {
    pub coverage_digest: u64,
    pub corpus_digest: u64,
    pub covered_edges: usize,
    pub findings: usize,
}

impl Digests {
    pub fn of(report: &CampaignReport) -> Digests {
        Digests {
            coverage_digest: report.coverage_digest,
            corpus_digest: report.corpus_digest,
            covered_edges: report.covered_edges,
            findings: report.findings.len(),
        }
    }
}

/// Area under the coverage-over-executions curve as a share of the budget,
/// in percent: the trapezoid rule over the timeline, starting from no
/// coverage at zero executions.
pub fn coverage_auc_pct(report: &CampaignReport, budget: usize) -> f64 {
    let mut area = 0.0;
    let (mut x0, mut y0) = (0.0, 0.0);
    for point in &report.timeline {
        let (x1, y1) = (point.executions as f64, point.coverage);
        area += (x1 - x0) * (y0 + y1) / 2.0;
        (x0, y0) = (x1, y1);
    }
    100.0 * area / budget as f64
}

/// The deterministic quality metrics of one full pass over a workload.
pub struct Quality {
    pub coverage_pct: f64,
    pub coverage_auc_pct: f64,
    pub findings_tp: usize,
    pub findings_fp: usize,
}

pub fn quality(workload: &Workload, reports: &[CampaignReport]) -> Quality {
    let n = reports.len().max(1) as f64;
    let mut q = Quality {
        coverage_pct: 0.0,
        coverage_auc_pct: 0.0,
        findings_tp: 0,
        findings_fp: 0,
    };
    for (report, contract) in reports.iter().zip(&workload.contracts) {
        q.coverage_pct += report.coverage_percent() / n;
        q.coverage_auc_pct += coverage_auc_pct(report, workload.budget) / n;
        let score = score_contract(&report.findings, &contract.annotations);
        q.findings_tp += score.total_tp();
        q.findings_fp += score.total_fp();
    }
    q
}
