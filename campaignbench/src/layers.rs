//! The traced run: per-layer metrics.
//!
//! Spans are recorded in memory around the calls this file makes into each
//! layer's public functions, and summarised on stderr at exit. The
//! campaign's own mutate→execute→observe→merge loop is private to the
//! fuzzer, so per-sequence layer costs come from a bounded *mirror* of that
//! cycle run through the same public functions on the workload's
//! contracts. The mirror picks seeds uniformly and mutates without masks;
//! it reproduces the per-call cost of each layer, not the campaign's
//! scheduling decisions.

use crate::campaigns::{quality, run_campaign, setup_pass, Digests, Tally};
use crate::workloads::Workload;
use crate::{median, Metrics};
use mufuzz::analysis::{analyze_contract, plan_sequence, ControlFlowGraph};
use mufuzz::energy::seed_weight;
use mufuzz::evm::{keccak256, ExecFrame, WorldState, U256};
use mufuzz::lang::compile_source;
use mufuzz::mutation::mutate_masked;
use mufuzz::oracles::CampaignMonitor;
use mufuzz::{
    pool_threads_spawned, CampaignReport, CampaignService, ContractHarness, CoverageMap,
    DeterminismProfile, InterestingValues, MutationMask, Sequence, SequenceGenerator,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The layer a span's call goes into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Layer {
    Compile,
    Cfg,
    Plan,
    Harvest,
    Deploy,
    Seedgen,
    Mutation,
    Executor,
    Oracles,
    Coverage,
    Energy,
    Finalize,
    /// One whole mirror cycle: the parent of that cycle's layer spans.
    Cycle,
}

const LAYERS: usize = Layer::Cycle as usize + 1;

/// A finished span: which layer, which span caused it, and when it ran
/// (nanoseconds since the tracer started).
struct Span {
    layer: Layer,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Something that can time a call into a layer. The untraced mirror uses
/// [`NoTrace`], which compiles to the bare call, so traced and untraced
/// passes run the same code apart from the spans.
trait Clock {
    fn open(&mut self, layer: Layer) -> usize;
    fn close(&mut self, id: usize);
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.open(layer);
        let result = f();
        self.close(id);
        result
    }
}

struct NoTrace;

impl Clock for NoTrace {
    fn open(&mut self, _: Layer) -> usize {
        0
    }
    fn close(&mut self, _: usize) {}
}

/// Records spans; a span opened while another is open is its child.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Per layer: spans, total nanoseconds, self nanoseconds (total minus
    /// the time covered by child spans).
    totals: [(u64, u64, u64); LAYERS],
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            totals: [(0, 0, 0); LAYERS],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Fold the recorded spans into the per-layer totals and drop them, so
    /// the buffer stays bounded however long the run.
    fn fold(&mut self) {
        assert!(self.open.is_empty(), "fold with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = &mut self.totals[span.layer as usize];
            let duration = span.end_ns - span.start_ns;
            total.0 += 1;
            total.1 += duration;
            total.2 += duration - children;
        }
        self.spans.clear();
    }

    fn count(&self, layer: Layer) -> u64 {
        self.totals[layer as usize].0
    }

    fn total_ns(&self, layer: Layer) -> f64 {
        self.totals[layer as usize].1 as f64
    }

    /// Write the span summary out (stderr, one row per layer).
    fn write_summary(&self) {
        eprintln!("layer        spans     total_ms      self_ms");
        for layer in ALL_LAYERS {
            let (count, total, own) = self.totals[layer as usize];
            eprintln!(
                "{:<10} {:>7} {:>12.3} {:>12.3}",
                format!("{layer:?}").to_lowercase(),
                count,
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
}

const ALL_LAYERS: [Layer; LAYERS] = [
    Layer::Compile,
    Layer::Cfg,
    Layer::Plan,
    Layer::Harvest,
    Layer::Deploy,
    Layer::Seedgen,
    Layer::Mutation,
    Layer::Executor,
    Layer::Oracles,
    Layer::Coverage,
    Layer::Energy,
    Layer::Finalize,
    Layer::Cycle,
];

impl Clock for Tracer {
    fn open(&mut self, layer: Layer) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.open.pop();
    }
}

/// What the mirror counts from the outcomes it observes.
#[derive(Default)]
struct Counts {
    sequences: u64,
    txs: u64,
    instructions: u64,
    sstores: u64,
    successes: u64,
    edges: u64,
}

/// The mirror of one campaign: the same layer objects a campaign lane
/// holds, built through public functions.
struct Mirror {
    harness: ContractHarness,
    generator: SequenceGenerator,
    interesting: InterestingValues,
    cfg: ControlFlowGraph,
    monitor: CampaignMonitor,
    coverage: CoverageMap,
    corpus: Vec<Sequence>,
    rng: SmallRng,
    frame: ExecFrame,
    last_world: Option<WorldState>,
}

impl Mirror {
    /// Source to ready mirror, each step timed as its layer.
    fn build<C: Clock>(workload: &Workload, index: usize, clock: &mut C) -> Result<Mirror, String> {
        let contract = &workload.contracts[index];
        let config = workload.config(index);
        let compiled = clock
            .time(Layer::Compile, || compile_source(&contract.source))
            .map_err(|e| format!("{} does not compile: {e:?}", contract.name))?;
        let cfg = clock.time(Layer::Cfg, || ControlFlowGraph::build(&compiled.runtime));
        let plan = clock.time(Layer::Plan, || {
            plan_sequence(&analyze_contract(&compiled.contract))
        });
        let mut interesting = clock.time(Layer::Harvest, || {
            InterestingValues::harvest(&compiled.runtime)
        });
        let harness = clock
            .time(Layer::Deploy, || ContractHarness::new(compiled, &config))
            .map_err(|e| format!("{} does not deploy: {e:?}", contract.name))?;
        for address in harness.interesting_addresses() {
            interesting.add(address.to_u256());
        }
        let mut rng = SmallRng::seed_from_u64(config.rng_seed);
        let generator =
            SequenceGenerator::new(&harness.compiled.abi, plan, true, harness.senders.len());
        let corpus = clock.time(Layer::Seedgen, || {
            generator.initial_sequences(
                &harness.compiled.abi,
                config.initial_seeds,
                &mut rng,
                &interesting,
            )
        });
        if corpus.is_empty() {
            return Err(format!("{} has no callable function", contract.name));
        }
        Ok(Mirror {
            coverage: CoverageMap::new(harness.edge_index().len()),
            harness,
            generator,
            interesting,
            cfg,
            monitor: CampaignMonitor::new(),
            corpus,
            rng,
            frame: ExecFrame::new(),
            last_world: None,
        })
    }

    /// One mutate→execute→observe→merge cycle; a sequence that finds a new
    /// edge is weighed and admitted to the mirror's corpus.
    fn cycle<C: Clock>(&mut self, clock: &mut C, counts: &mut Counts) {
        let Mirror {
            harness,
            generator,
            interesting,
            cfg,
            monitor,
            coverage,
            corpus,
            rng,
            frame,
            last_world,
        } = self;
        let abi = &harness.compiled.abi;
        let cycle = clock.open(Layer::Cycle);
        let base = &corpus[rng.gen_range(0..corpus.len())];
        let mut sequence = clock.time(Layer::Seedgen, || {
            if rng.gen_bool(0.3) {
                generator.mutate_structure(base, abi, rng, interesting)
            } else {
                base.clone()
            }
        });
        clock.time(Layer::Mutation, || {
            for _ in 0..1 + rng.gen_range(0..2usize) {
                let pick = rng.gen_range(0..sequence.txs.len());
                let tx = &mut sequence.txs[pick];
                let mask = MutationMask::allow_all(tx.stream.len());
                if let Some(mutated) = mutate_masked(&tx.stream, &mask, rng, interesting) {
                    tx.stream = mutated;
                }
            }
        });
        let outcome = clock.time(Layer::Executor, || {
            harness.execute_sequence_with(&sequence, frame)
        });
        clock.time(Layer::Oracles, || {
            for trace in &outcome.traces {
                monitor.observe(&harness.compiled, trace);
            }
            monitor.observe_world(outcome.final_world.balance(harness.contract_address));
        });
        let new_edges = clock.time(Layer::Coverage, || {
            coverage.merge_ids(&outcome.covered_edge_ids)
        });
        if new_edges > 0 {
            black_box(clock.time(Layer::Energy, || seed_weight(&outcome.traces, cfg)));
            corpus.push(sequence);
        }
        clock.close(cycle);
        counts.sequences += 1;
        counts.txs += outcome.traces.len() as u64;
        counts.instructions += outcome.traces.iter().map(|t| t.instr_count).sum::<u64>();
        counts.sstores += outcome
            .traces
            .iter()
            .map(|t| t.storage_writes.len() as u64)
            .sum::<u64>();
        counts.successes += outcome.successes as u64;
        counts.edges += outcome.covered_edge_ids.len() as u64;
        *last_world = Some(outcome.final_world);
    }

    fn finalize<C: Clock>(mut self, clock: &mut C) {
        let world = self.last_world.take();
        clock.time(Layer::Finalize, || {
            self.monitor
                .finalize(&self.harness.compiled, world.as_ref())
        });
    }
}

/// One mirror pass over every contract of the workload.
fn mirror_pass<C: Clock>(
    workload: &Workload,
    clock: &mut C,
    counts: &mut Counts,
) -> Result<(), String> {
    for index in 0..workload.contracts.len() {
        let mut mirror = Mirror::build(workload, index, clock)?;
        for _ in 0..workload.mirror_cycles {
            mirror.cycle(clock, counts);
        }
        mirror.finalize(clock);
    }
    Ok(())
}

/// Median nanoseconds per call of `op` over `reps` timed batches.
fn per_call_ns(reps: usize, batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for i in 0..batch {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&mut samples)
}

/// Keccak and `U256` primitives on inputs drawn from the workload seed.
fn primitives(seed: u64) -> [f64; 4] {
    let mut rng = SmallRng::seed_from_u64(seed);
    let bytes: Vec<u8> = (0..200).map(|_| rng.gen()).collect();
    let words: Vec<U256> = (0..64)
        .map(|_| {
            let mut w = [0u8; 32];
            w.iter_mut().for_each(|b| *b = rng.gen());
            U256::from_be_bytes(w)
        })
        .collect();
    // Divisors of about half the width, so the long division does real work.
    let divisors: Vec<U256> = words.iter().map(|w| (*w >> 128) | U256::ONE).collect();
    let (reps, batch) = (15, 20_000);
    [
        per_call_ns(reps, batch, |i| {
            black_box(keccak256(black_box(&bytes[i % 8..i % 8 + 64])));
        }),
        per_call_ns(reps, batch, |_| {
            black_box(keccak256(black_box(&bytes[..200])));
        }),
        per_call_ns(reps, batch, |i| {
            black_box(black_box(words[i % 64]) * black_box(words[(i + 1) % 64]));
        }),
        per_call_ns(reps, batch, |i| {
            black_box(black_box(words[i % 64]).div_rem(black_box(divisors[(i + 7) % 64])));
        }),
    ]
}

/// One round of every contract's campaign at `profile`/`lanes` on `service`.
/// Returns the reports and the summed campaign wall time, or `None` at the
/// first failure.
fn campaign_round(
    workload: &Workload,
    service: &CampaignService,
    profile: DeterminismProfile,
    lanes: usize,
    tally: &mut Tally,
) -> Option<(Vec<CampaignReport>, Duration)> {
    let (compiled, _) = tally.record("set-up", setup_pass(workload))?;
    let mut reports = Vec::new();
    let mut wall = Duration::ZERO;
    for (index, c) in compiled.into_iter().enumerate() {
        let config = workload.config_at(index, profile, lanes);
        let name = workload.contracts[index].name.as_str();
        let done = tally.record(name, run_campaign(service, c, config))?;
        wall += done.wall;
        reports.push(done.report);
    }
    Some((reports, wall))
}

/// Executions after which a campaign's coverage stopped growing.
fn execs_to_plateau(report: &CampaignReport) -> usize {
    report
        .timeline
        .iter()
        .find(|p| p.covered_edges == report.covered_edges)
        .map_or(report.executions, |p| p.executions)
}

/// The traced run. Time is split between real campaigns (for the
/// campaign-level numbers), the round profile at one and two lanes, the
/// layer mirror (traced and untraced passes alternating, for the tracing
/// overhead) and the primitive microbenchmarks. Like the end-to-end run it
/// stops at the first failure and then reports no metrics.
pub fn traced_run(workload: &Workload, seconds: Duration, tally: &mut Tally) -> Metrics {
    let started = Instant::now();
    let contracts = workload.contracts.len() as f64;

    // Real campaigns, as the end-to-end run drives them.
    let service = CampaignService::new(workload.lanes);
    let Some((reports, mut wall)) =
        campaign_round(workload, &service, workload.profile, workload.lanes, tally)
    else {
        return Vec::new();
    };
    let mut executions: usize = reports.iter().map(|r| r.executions).sum();
    while started.elapsed() < seconds.mul_f64(0.3) {
        let Some((more, w)) =
            campaign_round(workload, &service, workload.profile, workload.lanes, tally)
        else {
            return Vec::new();
        };
        executions += more.iter().map(|r| r.executions).sum::<usize>();
        wall += w;
    }
    drop(service);
    // Lane time per sequence: a two-lane campaign keeps two lanes busy.
    let campaign_us_per_seq = wall.as_secs_f64() * 1e6 * workload.lanes as f64 / executions as f64;

    // The round profile's any-worker-count contract, and what a second lane
    // buys: the same campaigns at one lane and at two.
    let mut round_wall = [Duration::ZERO; 2];
    let mut round_digests: Vec<Vec<Digests>> = Vec::new();
    for (slot, lanes) in [1usize, 2].into_iter().enumerate() {
        let service = CampaignService::new(lanes);
        let Some((reports, wall)) =
            campaign_round(workload, &service, DeterminismProfile::Round, lanes, tally)
        else {
            return Vec::new();
        };
        round_wall[slot] = wall;
        round_digests.push(reports.iter().map(Digests::of).collect());
    }
    if round_digests[0] != round_digests[1] {
        tally.record::<()>(
            "round determinism",
            Err("round-profile digests differ between 1 and 2 lanes".into()),
        );
        return Vec::new();
    }
    let lane_speedup = round_wall[0].as_secs_f64() / round_wall[1].as_secs_f64();

    // The layer mirror: untraced and traced passes alternate over identical
    // work until the time is used, at least one pair.
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.is_empty() || started.elapsed() < seconds.mul_f64(0.85) {
        let start = Instant::now();
        let untraced = mirror_pass(workload, &mut NoTrace, &mut Counts::default());
        plain.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let pass = untraced.and_then(|()| mirror_pass(workload, &mut tracer, &mut counts));
        traced.push(start.elapsed().as_secs_f64());
        if tally.record("mirror", pass).is_none() {
            return Vec::new();
        }
        tracer.fold();
    }
    let overhead_pct = 100.0 * (median(&mut traced) / median(&mut plain) - 1.0);
    let [keccak_64, keccak_200, mul, divrem] = primitives(workload.rng_seed(0));
    tracer.write_summary();

    let builds = tracer.count(Layer::Compile).max(1) as f64;
    let seqs = counts.sequences.max(1) as f64;
    let txs = counts.txs.max(1) as f64;
    let per_seq_us = |layer| tracer.total_ns(layer) / seqs / 1e3;
    let per_build_us = |layer| tracer.total_ns(layer) / builds / 1e3;
    let layer_us_per_seq: f64 = [
        Layer::Seedgen,
        Layer::Mutation,
        Layer::Executor,
        Layer::Oracles,
        Layer::Coverage,
        Layer::Energy,
    ]
    .into_iter()
    .map(per_seq_us)
    .sum();
    let total_edges: usize = reports.iter().map(|r| r.total_edges).sum();
    let mean = |f: &dyn Fn(&CampaignReport) -> usize| {
        reports.iter().map(f).sum::<usize>() as f64 / contracts
    };
    vec![
        ("lang.compile_us", "us", per_build_us(Layer::Compile)),
        ("analysis.cfg_us", "us", per_build_us(Layer::Cfg)),
        ("analysis.plan_us", "us", per_build_us(Layer::Plan)),
        ("analysis.total_edges", "count", total_edges as f64),
        ("executor.deploy_us", "us", per_build_us(Layer::Deploy)),
        ("executor.us_per_seq", "us", per_seq_us(Layer::Executor)),
        (
            "executor.us_per_tx",
            "us",
            tracer.total_ns(Layer::Executor) / txs / 1e3,
        ),
        (
            "executor.ns_per_instr",
            "ns",
            tracer.total_ns(Layer::Executor) / counts.instructions.max(1) as f64,
        ),
        ("executor.tx_per_seq", "count", txs / seqs),
        (
            "executor.instr_per_tx",
            "count",
            counts.instructions as f64 / txs,
        ),
        (
            "executor.sstore_per_tx",
            "count",
            counts.sstores as f64 / txs,
        ),
        (
            "executor.success_pct",
            "%",
            100.0 * counts.successes as f64 / txs,
        ),
        (
            "executor.edges_per_seq",
            "count",
            counts.edges as f64 / seqs,
        ),
        ("evm.keccak_64b_ns", "ns", keccak_64),
        ("evm.keccak_200b_ns", "ns", keccak_200),
        ("evm.u256_mul_ns", "ns", mul),
        ("evm.u256_divrem_ns", "ns", divrem),
        ("seedgen.us_per_seq", "us", per_seq_us(Layer::Seedgen)),
        ("mutation.us_per_seq", "us", per_seq_us(Layer::Mutation)),
        ("mutation.harvest_us", "us", per_build_us(Layer::Harvest)),
        ("oracles.us_per_seq", "us", per_seq_us(Layer::Oracles)),
        ("oracles.finalize_us", "us", per_build_us(Layer::Finalize)),
        (
            "oracles.findings_fp",
            "count",
            quality(workload, &reports).findings_fp as f64,
        ),
        (
            "coverage.ns_per_seq",
            "ns",
            tracer.total_ns(Layer::Coverage) / seqs,
        ),
        (
            "energy.us_per_weight",
            "us",
            tracer.total_ns(Layer::Energy) / tracer.count(Layer::Energy).max(1) as f64 / 1e3,
        ),
        (
            "campaign.unattributed_us_per_seq",
            "us",
            campaign_us_per_seq - layer_us_per_seq,
        ),
        ("campaign.corpus_size", "count", mean(&|r| r.corpus_size)),
        ("campaign.culled_seeds", "count", mean(&|r| r.culled_seeds)),
        (
            "campaign.execs_to_plateau",
            "count",
            mean(&execs_to_plateau),
        ),
        ("round.lane_speedup", "ratio", lane_speedup),
        (
            "fleet.threads_spawned",
            "count",
            pool_threads_spawned() as f64,
        ),
        ("trace.overhead_pct", "%", overhead_pct),
    ]
}
