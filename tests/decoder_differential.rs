//! Decoder differential suite: every execution pipeline must be observably
//! identical to the legacy byte-at-a-time decoder.
//!
//! For every corpus contract, 256 seeded calldata inputs (a mix of valid
//! selectors with random argument words and entirely random byte strings)
//! are executed **three ways** from identical post-constructor world
//! snapshots — through the block-lowered tier (the production default),
//! through the pre-decoded instruction stream with block lowering disabled,
//! and through the legacy decoder. The full [`ExecutionResult`] (success,
//! output, gas remaining, halt reason and the complete instrumentation trace
//! with its branch records) and the resulting world state must match bit for
//! bit across all three.

use mufuzz::{ContractHarness, FuzzerConfig};
use mufuzz_corpus::contracts;
use mufuzz_evm::{DecodedProgram, Evm, ExecutionResult, Message, ProgramCache, WorldState, U256};
use mufuzz_lang::compile_source;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

const INPUTS_PER_CONTRACT: usize = 256;

/// The three execution tiers under comparison.
#[derive(Clone, Copy, Debug)]
enum Tier {
    /// Byte-at-a-time decoding in the hot loop (`legacy_decode = true`).
    Legacy,
    /// Pre-decoded instruction stream, instruction-at-a-time billing
    /// (`block_lowering = false`).
    Predecoded,
    /// Block-lowered program (the default).
    Block,
}

/// Derive one fuzzed calldata input: either a valid function selector with
/// random argument words, or raw random bytes.
fn random_calldata(harness: &ContractHarness, rng: &mut SmallRng) -> Vec<u8> {
    let functions = &harness.compiled.abi.functions;
    if !functions.is_empty() && rng.gen_bool(0.7) {
        let f = &functions[rng.gen_range(0..functions.len())];
        let mut data = f.selector.to_vec();
        let words = rng.gen_range(0..=f.inputs.len() + 1);
        for _ in 0..words {
            let mut word = [0u8; 32];
            match rng.gen_range(0..3u32) {
                // Small values exercise the happy paths.
                0 => word[31] = rng.gen_range(0..8u32) as u8,
                // Full-width randomness exercises bounds checks.
                1 => rng.fill_bytes(&mut word),
                // High-bit patterns exercise signed/overflow paths.
                _ => {
                    word[0] = 0xff;
                    word[31] = rng.gen_range(0..256u32) as u8;
                }
            }
            data.extend_from_slice(&word);
        }
        data
    } else {
        let len = rng.gen_range(0..68usize);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        data
    }
}

/// Execute one message from a fresh snapshot of the harness base world,
/// through the given tier. Returns the result and the post-execution world.
fn run_once(
    harness: &ContractHarness,
    cache: &ProgramCache,
    msg: &Message,
    tier: Tier,
) -> (ExecutionResult, WorldState) {
    let mut world = harness.base_world().snapshot();
    let mut block = harness.base_block();
    block.advance();
    let mut evm = Evm::new(&mut world, block).with_programs(cache);
    match tier {
        Tier::Legacy => evm.config.legacy_decode = true,
        Tier::Predecoded => evm.config.block_lowering = false,
        Tier::Block => debug_assert!(evm.config.block_lowering),
    }
    let result = evm.execute(msg);
    (result, world)
}

/// Run the full 3-tier × [`INPUTS_PER_CONTRACT`] bit-identity sweep over one
/// compiled (or ingested) contract.
fn sweep_three_tiers(name: &str, compiled: mufuzz_lang::CompiledContract) {
    let harness =
        ContractHarness::new(compiled, &FuzzerConfig::default()).expect("contract must deploy");

    // The production cache shape: the deployed runtime blob, pre-decoded
    // and block-lowered on insert.
    let runtime = harness.base_world().code(harness.contract_address);
    let mut cache = ProgramCache::new();
    cache.insert(
        Arc::clone(&runtime),
        Arc::new(DecodedProgram::decode(&runtime)),
    );

    // One deterministic stream per contract, derived from its name.
    let seed = name.bytes().fold(0xD1FFu64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(b as u64)
    });
    let mut rng = SmallRng::seed_from_u64(seed);

    for case in 0..INPUTS_PER_CONTRACT {
        let calldata = random_calldata(&harness, &mut rng);
        let sender = harness.senders[rng.gen_range(0..harness.senders.len())];
        let value = U256::from_u64(rng.gen_range(0..4u64) * 1_000_000_000);
        let msg = Message::new(sender, harness.contract_address, value, calldata);

        let (block, world_block) = run_once(&harness, &cache, &msg, Tier::Block);
        let (decoded, world_decoded) = run_once(&harness, &cache, &msg, Tier::Predecoded);
        let (legacy, world_legacy) = run_once(&harness, &cache, &msg, Tier::Legacy);

        // Gas first: with a fixed gas limit, equal `gas_used` is equal
        // gas remaining — the sharpest signal when block settlement or a
        // fused arm misbills, so it gets its own assertion.
        assert_eq!(
            block.gas_used, decoded.gas_used,
            "{name}: block-lowered gas divergence on input #{case}"
        );
        assert_eq!(
            decoded.gas_used, legacy.gas_used,
            "{name}: pre-decoded gas divergence on input #{case}"
        );
        assert_eq!(
            block,
            decoded,
            "{name}: block-lowered divergence on input #{case} ({} calldata bytes)",
            msg.data.len()
        );
        assert_eq!(
            decoded,
            legacy,
            "{name}: decoder divergence on input #{case} ({} calldata bytes)",
            msg.data.len()
        );
        assert_eq!(
            block.trace.branches, legacy.trace.branches,
            "{name}: branch trace divergence on input #{case}"
        );
        assert_eq!(
            world_block, world_decoded,
            "{name}: block-lowered committed state divergence on input #{case}"
        );
        assert_eq!(
            world_decoded, world_legacy,
            "{name}: committed state divergence on input #{case}"
        );
    }
}

#[test]
fn block_pipeline_is_bit_identical_to_all_slower_tiers() {
    for bench in contracts::all_handwritten() {
        let compiled = compile_source(&bench.source).expect("corpus contract must compile");
        sweep_three_tiers(&bench.name, compiled);
    }
}

/// An ingested real-bytecode contract (ABI JSON + runtime hex, no
/// toy-language source) goes through the identical 3-tier × 256-input
/// sweep: the conformance surface added for arbitrary bytecode must stay
/// bit-identical across every dispatch tier too.
#[test]
fn ingested_real_bytecode_is_bit_identical_across_all_tiers() {
    let abi_json = std::fs::read_to_string("tests/fixtures/vault_token.abi.json").unwrap();
    let bytecode_hex = std::fs::read_to_string("tests/fixtures/vault_token.hex").unwrap();
    let ingested =
        mufuzz_corpus::ingest("VaultToken", &abi_json, &bytecode_hex).expect("fixture must ingest");
    assert!(ingested.skipped.is_empty());
    sweep_three_tiers("VaultToken", ingested.compiled);
}

/// Whole-sequence equivalence: the harness's production path (block-lowered,
/// cached, frame-reusing) produces the same traces as a legacy re-execution
/// of the same transactions.
#[test]
fn harness_sequences_replay_identically_through_the_legacy_decoder() {
    use mufuzz::{Sequence, TxInput};

    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let harness = ContractHarness::new(compiled, &FuzzerConfig::default()).unwrap();
    let sequence = Sequence::new(vec![
        TxInput::new("invest", 0, U256::from_u64(7), &[U256::from_u64(7)]),
        TxInput::simple("refund"),
        TxInput::simple("withdraw"),
    ]);
    let outcome = harness.execute_sequence(&sequence);

    // Replay the same messages manually through the legacy decoder.
    let mut world = harness.base_world().snapshot();
    let mut block = harness.base_block();
    for (tx, trace) in sequence.txs.iter().zip(&outcome.traces) {
        block.advance();
        let abi = harness.compiled.abi.function(&tx.function).unwrap();
        let sender = harness.senders[tx.sender_index % harness.senders.len()];
        let mut evm = Evm::new(&mut world, block);
        evm.config.legacy_decode = true;
        let result = evm.execute(&Message::new(
            sender,
            harness.contract_address,
            tx.value(),
            tx.calldata(abi),
        ));
        assert_eq!(&result.trace, trace, "sequence trace divergence");
    }
    assert_eq!(&outcome.final_world, &world, "sequence state divergence");
}
