//! Allocation budget of the sequence executor.
//!
//! A counting global allocator tallies heap allocations made by this
//! thread while a warmed `ExecFrame` replays a fixed list of Crowdsale
//! sequences through `ContractHarness::execute_sequence_with`. The count is
//! a pure function of the code and the inputs, so the budget is an exact
//! ceiling, not a timing: a change that adds per-transaction allocations
//! on the executor path fails here.

use mufuzz::evm::{ether, ExecFrame, U256};
use mufuzz::{ContractHarness, FuzzerConfig, Sequence, TxInput};
use mufuzz_corpus::contracts;
use mufuzz_lang::compile_source;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Heap allocations (fresh blocks and reallocations) per transaction the
/// executor may make on the sequences below: measured at 128 over 15
/// transactions (8.53). Recording coverage twice, per-byte calldata pushes
/// and per-sequence edge sets cost 185 (12.33).
const ALLOCS_PER_TX_BUDGET: f64 = 8.54;

thread_local! {
    /// Allocations made by the current thread; thread-local so tests
    /// running in parallel do not count each other's allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting only bumps a thread-local
// `Cell` with a const initialiser, which never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The Fig. 1 paths: investing below and past the goal, refunds (an ether
/// transfer), the buggy withdraw, an over-cap value (the executor reduces it
/// modulo its cap) and every sender, the re-entrant attacker included.
fn sequences(senders: usize) -> Vec<Sequence> {
    let invest =
        |sender, value: U256, amount: U256| TxInput::new("invest", sender, value, &[amount]);
    let mut list = vec![
        Sequence::new(vec![
            invest(0, ether(100), ether(100)),
            invest(1, U256::ONE, U256::ONE),
            TxInput::simple("withdraw"),
        ]),
        Sequence::new(vec![
            invest(1, ether(5), ether(5)),
            TxInput::new("refund", 1, U256::ZERO, &[]),
            TxInput::simple("withdraw"),
        ]),
        Sequence::new(vec![invest(2, U256::MAX, U256::from_u64(7))]),
    ];
    list.push(Sequence::new(
        (0..senders)
            .flat_map(|s| {
                [
                    invest(s, ether(1), ether(60)),
                    TxInput::new("refund", s, U256::ZERO, &[]),
                ]
            })
            .collect(),
    ));
    list
}

#[test]
fn executor_allocations_per_transaction_stay_within_budget() {
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let harness = ContractHarness::new(compiled, &FuzzerConfig::default()).unwrap();
    let sequences = sequences(harness.senders.len());
    let txs: usize = sequences.iter().map(Sequence::len).sum();
    let mut frame = ExecFrame::new();
    let run = |frame: &mut ExecFrame| {
        for sequence in &sequences {
            drop(harness.execute_sequence_with(sequence, frame));
        }
    };
    // Warm the frame's scratch buffers so the count excludes one-time growth.
    run(&mut frame);

    let before = allocations();
    run(&mut frame);
    let counted = allocations() - before;
    let per_tx = counted as f64 / txs as f64;
    println!("{counted} allocations over {txs} transactions = {per_tx:.2} per transaction");
    assert!(
        per_tx <= ALLOCS_PER_TX_BUDGET,
        "{per_tx:.2} allocations per transaction, budget {ALLOCS_PER_TX_BUDGET}"
    );

    // The count is exact: a second measured pass allocates the same.
    let before = allocations();
    run(&mut frame);
    assert_eq!(allocations() - before, counted);
}
