//! Micro-benchmarks of the substrate: U256 arithmetic, Keccak-256, the
//! compiler pipeline, the EVM interpreter and the static analyses.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use mufuzz_analysis::ControlFlowGraph;
use mufuzz_corpus::contracts;
use mufuzz_evm::{
    keccak256, Account, Address, BlockEnv, DecodedProgram, Evm, ExecFrame, Message, ProgramCache,
    WorldState, U256,
};
use mufuzz_lang::{compile_source, AbiValue};
use std::sync::Arc;

fn bench_u256(c: &mut Criterion) {
    let a = U256::from_hex("0x1234567890abcdef1234567890abcdef1234567890abcdef1234567890abcdef")
        .unwrap();
    let b = U256::from_hex("0xfedcba0987654321fedcba0987654321").unwrap();
    let mut group = c.benchmark_group("u256");
    group.bench_function("mul", |bencher| {
        bencher.iter(|| black_box(a).overflowing_mul(black_box(b)))
    });
    group.bench_function("div_rem", |bencher| {
        bencher.iter(|| black_box(a).div_rem(black_box(b)))
    });
    // Division by operand width: `dividend/divisor` bits. Only 256/256
    // takes the multi-limb path; a divisor of one limb takes one `u128` pass.
    let of_bits = |v: U256, bits: u32| v.shr_bits(256 - bits) | U256::ONE.shl_bits(bits - 1);
    let mixed = !b.wrapping_mul(a);
    for (num_bits, den_bits) in [(20, 3), (64, 14), (256, 30), (256, 256)] {
        let (x, y) = (of_bits(a, num_bits), of_bits(mixed, den_bits));
        // Dividend >= divisor, so equal widths divide instead of returning early.
        let (num, den) = (x.max(y), x.min(y));
        group.bench_function(format!("div_rem/{num_bits}by{den_bits}"), |bencher| {
            bencher.iter(|| black_box(num).div_rem(black_box(den)))
        });
    }
    // The executor's `msg.value` cap: a full word reduced modulo 1000 ether.
    let cap = mufuzz_evm::ether(1_000);
    group.bench_function("mod_ether_1000", |bencher| {
        bencher.iter(|| black_box(a) % black_box(cap))
    });
    group.bench_function("to_dec_string", |bencher| {
        bencher.iter(|| black_box(a).to_dec_string())
    });
    group.finish();
}

fn bench_keccak(c: &mut Criterion) {
    let mut group = c.benchmark_group("keccak256");
    for size in [32usize, 136, 1024] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |bencher| {
            bencher.iter(|| keccak256(black_box(&data)))
        });
    }
    // 64 bytes is the mapping-slot preimage that `keccak256` memoizes per
    // thread (256 direct-mapped slots). `64B_repeat` hashes one preimage, so
    // it times a memo hit; `64B_distinct` cycles through 16x more distinct
    // preimages than the memo has slots, so nearly every call is a miss and
    // times the permutation itself.
    group.throughput(Throughput::Bytes(64));
    let repeat = [0xabu8; 64];
    group.bench_function("64B_repeat", |bencher| {
        bencher.iter(|| keccak256(black_box(&repeat)))
    });
    let distinct: Vec<[u8; 64]> = (0..4096u32)
        .map(|n| {
            let mut key = [0xabu8; 64];
            key[28..32].copy_from_slice(&n.to_be_bytes());
            key
        })
        .collect();
    let mut next = distinct.iter().cycle();
    group.bench_function("64B_distinct", |bencher| {
        bencher.iter(|| keccak256(black_box(next.next().unwrap())))
    });
    group.finish();
}

fn bench_compiler(c: &mut Criterion) {
    let source = contracts::crowdsale().source;
    let mut group = c.benchmark_group("compiler");
    group.bench_function("compile_crowdsale", |bencher| {
        bencher.iter(|| compile_source(black_box(&source)).unwrap())
    });
    let compiled = compile_source(&source).unwrap();
    group.bench_function("cfg_build", |bencher| {
        bencher.iter(|| ControlFlowGraph::build(black_box(&compiled.runtime)))
    });
    group.finish();
}

fn bench_interpreter(c: &mut Criterion) {
    let compiled = compile_source(&contracts::crowdsale().source).unwrap();
    let sender = Address::from_low_u64(1);
    let target = Address::from_low_u64(2);
    let mut world = WorldState::new();
    world.put_account(sender, Account::eoa(mufuzz_evm::ether(1_000_000)));
    {
        let mut evm = Evm::new(&mut world, BlockEnv::default());
        evm.deploy(
            sender,
            target,
            &compiled.constructor,
            compiled.runtime.clone(),
            U256::ZERO,
            vec![],
        );
    }
    let invest = compiled.abi.function("invest").unwrap();
    let calldata = invest.encode_call(&[AbiValue::Uint(mufuzz_evm::ether(10))]);

    // Freeze the deployed world: the per-iteration snapshot is then the
    // production-shaped O(changed) copy-on-write clone.
    world.freeze();
    let msg = Message::new(sender, target, mufuzz_evm::ether(10), calldata);

    // The production pipeline: decode-once program cache + reusable frame.
    let blob = world.code(target);
    let mut cache = ProgramCache::new();
    cache.insert(Arc::clone(&blob), Arc::new(DecodedProgram::decode(&blob)));
    let mut frame = ExecFrame::new();
    c.bench_function("evm_execute_invest_tx_predecoded", |bencher| {
        bencher.iter(|| {
            let mut w = world.snapshot();
            let mut evm = Evm::new(&mut w, BlockEnv::default()).with_programs(&cache);
            let result = evm.execute_in(&msg, &mut frame);
            black_box(result.trace.instruction_count())
        })
    });

    // The legacy byte-at-a-time decoder, allocating scratch per execution.
    c.bench_function("evm_execute_invest_tx_legacy_decode", |bencher| {
        bencher.iter(|| {
            let mut w = world.snapshot();
            let mut evm = Evm::new(&mut w, BlockEnv::default());
            evm.config.legacy_decode = true;
            let result = evm.execute(&msg);
            black_box(result.trace.instruction_count())
        })
    });
}

criterion_group!(
    benches,
    bench_u256,
    bench_keccak,
    bench_compiler,
    bench_interpreter
);
criterion_main!(benches);
