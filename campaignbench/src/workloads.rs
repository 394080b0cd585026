//! The four workloads: which contracts each one fuzzes and how every
//! campaign is configured. Contracts are drawn from the workload seed; the
//! fuzzer only ever sees the generated sources.
//!
//! Every input the numbers depend on is pinned here: lane count (and the
//! service's thread count, equal to it), determinism profile, per-campaign
//! `rng_seed` and budget. Nothing reads the host's core count.

use mufuzz::oracles::{Annotation, BugClass};
use mufuzz::{DeterminismProfile, FuzzerConfig};
use mufuzz_corpus::{contracts, generate_contract, BenchContract, GeneratorConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "coverage_d1",
    "storage_ledger",
    "compute_kernels",
    "detect_d2_round",
];

/// One generated workload: its contracts and the campaign shape.
pub struct Workload {
    pub name: &'static str,
    pub contracts: Vec<BenchContract>,
    /// Executions per campaign.
    pub budget: usize,
    /// Lanes per campaign, and threads of the campaign service the
    /// campaigns run on.
    pub lanes: usize,
    pub profile: DeterminismProfile,
    /// Sequences the traced run's layer mirror executes per contract.
    pub mirror_cycles: usize,
    seed: u64,
}

impl Workload {
    /// Build workload `name` from `seed`. `toy` shrinks every size to a
    /// smoke-test scale.
    pub fn build(name: &str, seed: u64, toy: bool) -> Option<Workload> {
        let scale = |full: usize, small: usize| if toy { small } else { full };
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6D75_6675_7A7A);
        let (name, contracts, budget, lanes, profile, mirror) = match name {
            "coverage_d1" => (
                NAMES[0],
                d1_mix(&mut rng, scale(144, 2), scale(36, 1)),
                scale(600, 200),
                1,
                DeterminismProfile::FreeRunning,
                scale(400, 40),
            ),
            "storage_ledger" => (
                NAMES[1],
                (0..scale(60, 2)).map(|i| ledger(i, &mut rng)).collect(),
                scale(200, 40),
                1,
                DeterminismProfile::FreeRunning,
                scale(60, 10),
            ),
            "compute_kernels" => (
                NAMES[2],
                (0..scale(60, 2)).map(|i| kernel(i, &mut rng)).collect(),
                scale(1_000, 100),
                1,
                DeterminismProfile::FreeRunning,
                scale(300, 30),
            ),
            "detect_d2_round" => (
                NAMES[3],
                d2_mix(&mut rng, scale(8, 1), toy),
                scale(2_000, 200),
                2,
                DeterminismProfile::Round,
                scale(300, 30),
            ),
            _ => return None,
        };
        Some(Workload {
            name,
            contracts,
            budget,
            lanes,
            profile,
            mirror_cycles: mirror,
            seed,
        })
    }

    /// The fully pinned configuration of contract `index`'s campaign.
    pub fn config(&self, index: usize) -> FuzzerConfig {
        self.config_at(index, self.profile, self.lanes)
    }

    /// [`Workload::config`] under another profile and lane count (the
    /// traced run's lane-speedup comparison).
    pub fn config_at(
        &self,
        index: usize,
        profile: DeterminismProfile,
        lanes: usize,
    ) -> FuzzerConfig {
        FuzzerConfig::mufuzz(self.budget)
            .with_rng_seed(self.rng_seed(index))
            .with_workers(lanes)
            .with_determinism(profile)
    }

    /// The campaign RNG seed of contract `index`.
    pub fn rng_seed(&self, index: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index as u64 + 1)
    }
}

/// A generator seed drawn from `rng` whose residue modulo 12 is fixed by
/// `slot`. `GeneratorConfig::small`/`large` derive the contract's function
/// and state-variable counts from the seed modulo 3, 4 and 6, so fixing the
/// residue keeps every seed's mix of contract sizes the same; only the
/// contracts' bodies change with the workload seed.
fn stratified_seed(rng: &mut SmallRng, slot: usize) -> u64 {
    12 * rng.gen_range(0..1u64 << 36) + (slot % 12) as u64
}

/// D1-small and D1-large contracts (the paper's coverage dataset). Each
/// carries one injected bug, its class cycling through the classes, so
/// findings have ground truth on this workload too.
fn d1_mix(rng: &mut SmallRng, small: usize, large: usize) -> Vec<BenchContract> {
    let classes: Vec<BugClass> = BugClass::ALL
        .into_iter()
        // Ether freezing needs a transfer-free host; D2 covers it.
        .filter(|c| *c != BugClass::EtherFreezing)
        .collect();
    (0..small + large)
        .map(|i| {
            let (kind, cfg) = if i < small {
                ("Small", GeneratorConfig::small(stratified_seed(rng, i)))
            } else {
                ("Large", GeneratorConfig::large(stratified_seed(rng, i)))
            };
            let cfg = cfg.with_bugs(vec![classes[i % classes.len()]]);
            generate_contract(&format!("D1{kind}{i}"), &cfg)
        })
        .collect()
}

/// D2: every hand-written vulnerable contract plus `per_class` generated
/// contracts per bug class with one injected, annotated bug (the
/// `mufuzz_corpus::d2` recipe, with generator seeds drawn from the
/// workload seed).
fn d2_mix(rng: &mut SmallRng, per_class: usize, toy: bool) -> Vec<BenchContract> {
    let mut out = contracts::all_handwritten();
    if toy {
        out.truncate(2);
    }
    for class in BugClass::ALL {
        for i in 0..per_class {
            let freezing = class == BugClass::EtherFreezing;
            let cfg = GeneratorConfig {
                payable_prob: if freezing { 0.6 } else { 0.4 },
                ..GeneratorConfig::small(stratified_seed(rng, class as usize + i))
            }
            .with_bugs(vec![class])
            .with_drain(!freezing);
            out.push(generate_contract(&format!("D2{}{i}", class.abbrev()), &cfg));
        }
    }
    out
}

/// The integer-overflow bug every kernel contract carries, so findings have
/// ground truth on the kernel workloads (a cheap one-statement function that
/// leaves the kernels' per-transaction shape alone).
fn overflow_bug(map: &str) -> String {
    format!(
        "    function mint(uint256 amount) public {{\n        {map}[msg.sender] += amount * 340282366920938463463374607431768211455;\n    }}\n"
    )
}

/// A mapping-and-counter ledger in the `storage` kernel shape of
/// `examples/throughput.rs`: about two dozen `SSTORE`s and mapping hashes
/// per `churn` transaction, with constants drawn from the seed.
fn ledger(index: usize, rng: &mut SmallRng) -> BenchContract {
    let name = format!("Ledger{index}");
    let mut churn = String::new();
    for k in 0..8u64 {
        let salt = rng.gen_range(1..1_000u64);
        writeln!(
            churn,
            "        balances[msg.sender] += amount + {salt};\n        cells[{}] += amount;\n        total += amount + {};\n        checksum += total + balances[msg.sender];",
            (k + salt) % 4,
            k + 1
        )
        .expect("writing to a String cannot fail");
    }
    let mut settle = String::new();
    for j in 0..4u64 {
        writeln!(
            settle,
            "            cells[key % 8 + {j}] += amount;\n            balances[msg.sender] += {};\n            total += amount;",
            j + 1
        )
        .expect("writing to a String cannot fail");
    }
    let threshold = rng.gen_range(100..100_000u64);
    let audit = rng.gen_range(1_000..1_000_000u64);
    let source = format!(
        "contract {name} {{
    uint256 total;
    uint256 checksum;
    uint256 rounds;
    mapping(address => uint256) balances;
    mapping(uint256 => uint256) cells;
    function churn(uint256 amount) public returns (uint256) {{
{churn}        return total;
    }}
    function settle(uint256 key, uint256 amount) public {{
        if (amount > {threshold}) {{
{settle}        }} else {{
            cells[key % 8] += 1;
            checksum += amount;
        }}
    }}
    function audit(uint256 key) public {{
        if (cells[key % 8] > {audit}) {{
            rounds += 1;
            if (rounds > 3) {{
                checksum = total + cells[key % 8];
            }}
        }}
    }}
{bug}}}
",
        bug = overflow_bug("balances")
    );
    BenchContract::new(
        &name,
        &source,
        vec![Annotation::in_function(BugClass::IntegerOverflow, "mint")],
    )
}

/// Alternating `branchy` routers and `straight_line` mixers in the kernel
/// shapes of `examples/throughput.rs`: hundreds of instructions per
/// transaction, almost no storage and no hashing.
fn kernel(index: usize, rng: &mut SmallRng) -> BenchContract {
    let mut body = String::new();
    let (name, function) = if index.is_multiple_of(2) {
        for k in 0..24u64 {
            let (a, b) = (rng.gen_range(2..9u64), rng.gen_range(2..19u64));
            writeln!(
                body,
                "        if (x % 2 == 0) {{ x = x / 2; y = y + {a}; }} else {{ x = x * 3 + 1; y = y + {b}; }}"
            )
            .expect("writing to a String cannot fail");
            if k % 6 == 5 {
                body.push_str(
                    "        if (x > 1000000) { x = x % 1000003; } else { y = y * 2 + 1; }\n",
                );
            }
        }
        (format!("Router{index}"), "route")
    } else {
        for k in 0..48u64 {
            let (a, b) = (rng.gen_range(3..10u64), rng.gen_range(11..24u64));
            writeln!(body, "        x = x * {a} + {b};").expect("writing to a String cannot fail");
            if k % 4 == 3 {
                body.push_str("        y = y + x;\n");
            }
        }
        (format!("Mixer{index}"), "mix")
    };
    let offset = rng.gen_range(1..100u64);
    let source = format!(
        "contract {name} {{
    uint256 acc;
    mapping(address => uint256) credit;
    function {function}(uint256 seed) public returns (uint256) {{
        uint256 x = seed + {offset};
        uint256 y = 0;
{body}        acc = y;
        return y;
    }}
{bug}}}
",
        bug = overflow_bug("credit")
    );
    BenchContract::new(
        &name,
        &source,
        vec![Annotation::in_function(BugClass::IntegerOverflow, "mint")],
    )
}
