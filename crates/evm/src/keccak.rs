//! Keccak-256 implemented from scratch.
//!
//! The EVM uses Keccak-256 (the original Keccak padding, not NIST SHA3-256)
//! for the `SHA3` opcode, function selectors and mapping storage slots.
//!
//! The permutation keeps the state as a flat `[u64; 25]` (lane `(x, y)` at
//! index `x + 5 * y`) and reads its round constants, rotation offsets and
//! lane permutation from const tables. The tables are not trusted as typed:
//! a unit test re-derives all three from the Keccak specification (the
//! round-constant LFSR and the `(x, y) -> (y, 2x + 3y)` lane walk) and
//! asserts they match exactly.
//!
//! 64-byte inputs — the exact `key ‖ slot` preimage of a mapping storage slot
//! — go through a small per-thread memo (see [`keccak256`]). Keccak is a pure
//! function, so the memo can change only the speed, never a digest.

use std::cell::RefCell;

/// Output size in bytes of Keccak-256.
pub const KECCAK256_OUTPUT: usize = 32;

/// Rate in bytes for Keccak-256 (1088 bits).
const RATE: usize = 136;

/// Number of Keccak-f[1600] rounds.
const ROUNDS: usize = 24;

/// Iota round constants.
const RC: [u64; ROUNDS] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

/// Rho rotation of the `t`-th lane on the walk that starts at lane `(1, 0)`.
const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

/// Pi destination (flat index) of the `t`-th lane on the same walk.
const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// Keccak-f[1600] on a flat state.
fn keccak_f(a: &mut [u64; 25]) {
    for rc in RC {
        // Theta
        let c: [u64; 5] =
            core::array::from_fn(|x| a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20]);
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                a[x + 5 * y] ^= d;
            }
        }
        // Rho and pi as one walk: each lane moves to its pi destination,
        // rotated by its rho offset, carrying the displaced lane onward.
        let mut carry = a[1];
        for (&dst, &rot) in PI.iter().zip(&RHO) {
            let displaced = a[dst];
            a[dst] = carry.rotate_left(rot);
            carry = displaced;
        }
        // Chi
        for row in a.chunks_exact_mut(5) {
            let b = [row[0], row[1], row[2], row[3], row[4]];
            for (x, lane) in row.iter_mut().enumerate() {
                *lane = b[x] ^ (!b[(x + 1) % 5] & b[(x + 2) % 5]);
            }
        }
        // Iota
        a[0] ^= rc;
    }
}

/// XOR one rate block into the state and permute.
fn absorb(state: &mut [u64; 25], block: &[u8]) {
    for (lane, bytes) in state.iter_mut().zip(block.chunks_exact(8)) {
        let mut word = [0u8; 8];
        word.copy_from_slice(bytes);
        *lane ^= u64::from_le_bytes(word);
    }
    keccak_f(state);
}

/// The uncached sponge: full blocks straight from `data`, the padded tail
/// (Keccak padding `0x01 .. 0x80`) in a stack buffer.
fn sponge(data: &[u8]) -> [u8; KECCAK256_OUTPUT] {
    let mut state = [0u64; 25];
    let mut blocks = data.chunks_exact(RATE);
    for block in &mut blocks {
        absorb(&mut state, block);
    }
    let tail = blocks.remainder();
    let mut last = [0u8; RATE];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] ^= 0x01;
    last[RATE - 1] ^= 0x80;
    absorb(&mut state, &last);

    // Squeeze: 32 bytes are the first four lanes of the first rate block.
    let mut out = [0u8; KECCAK256_OUTPUT];
    for (chunk, lane) in out.chunks_exact_mut(8).zip(&state) {
        chunk.copy_from_slice(&lane.to_le_bytes());
    }
    out
}

/// Length of the preimages the memo caches: a 32-byte key and a 32-byte slot.
const MEMO_KEY: usize = 64;

/// Entries in the per-thread memo (direct-mapped; ~24 KB per thread).
const MEMO_SLOTS: usize = 256;

/// One memo slot. `filled` keeps an unwritten slot from matching the
/// all-zero preimage.
struct MemoEntry {
    filled: bool,
    key: [u8; MEMO_KEY],
    digest: [u8; KECCAK256_OUTPUT],
}

const EMPTY_ENTRY: MemoEntry = MemoEntry {
    filled: false,
    key: [0; MEMO_KEY],
    digest: [0; KECCAK256_OUTPUT],
};

thread_local! {
    static MEMO: RefCell<[MemoEntry; MEMO_SLOTS]> =
        const { RefCell::new([EMPTY_ENTRY; MEMO_SLOTS]) };
}

/// The memo slot of a preimage: a multiply-fold of its eight lanes, top byte.
fn memo_slot(key: &[u8; MEMO_KEY]) -> usize {
    let mut h = 0u64;
    for bytes in key.chunks_exact(8) {
        let mut word = [0u8; 8];
        word.copy_from_slice(bytes);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    (h >> 56) as usize
}

/// Compute the Keccak-256 digest of `data`.
///
/// A 64-byte input is first looked up in a direct-mapped per-thread memo of
/// 256 recent preimages; a hit compares the full key, a miss hashes and
/// replaces the slot. Other lengths are hashed directly. No path allocates.
pub fn keccak256(data: &[u8]) -> [u8; KECCAK256_OUTPUT] {
    let Ok(key) = <&[u8; MEMO_KEY]>::try_from(data) else {
        return sponge(data);
    };
    MEMO.with_borrow_mut(|memo| {
        let entry = &mut memo[memo_slot(key)];
        if !(entry.filled && entry.key == *key) {
            *entry = MemoEntry {
                filled: true,
                key: *key,
                digest: sponge(key),
            };
        }
        entry.digest
    })
}

/// Compute the 4-byte function selector of a canonical signature string,
/// e.g. `invest(uint256)`.
pub fn selector(signature: &str) -> [u8; 4] {
    let digest = keccak256(signature.as_bytes());
    [digest[0], digest[1], digest[2], digest[3]]
}

/// The original implementation: constants derived at run time, a `5 × 5`
/// state and a heap-padded input. Kept as the differential reference and as
/// the specification-level derivation of [`RC`], [`RHO`] and [`PI`].
#[cfg(test)]
mod reference {
    use super::{KECCAK256_OUTPUT, RATE, ROUNDS};

    /// Compute the 24 round constants via the LFSR defined in the Keccak spec.
    pub(super) fn round_constants() -> [u64; ROUNDS] {
        let mut rc = [0u64; ROUNDS];
        let mut lfsr: u8 = 0x01;
        for constant in rc.iter_mut() {
            let mut c: u64 = 0;
            for j in 0..7 {
                // Bit position 2^j - 1.
                let bit_pos = (1u32 << j) - 1;
                if lfsr & 1 == 1 {
                    c |= 1u64 << bit_pos;
                }
                // Advance LFSR: x^8 + x^6 + x^5 + x^4 + 1.
                let high = lfsr & 0x80 != 0;
                lfsr <<= 1;
                if high {
                    lfsr ^= 0x71;
                }
            }
            *constant = c;
        }
        rc
    }

    /// Compute the rho rotation offsets for each lane.
    pub(super) fn rotation_offsets() -> [[u32; 5]; 5] {
        let mut offsets = [[0u32; 5]; 5];
        let (mut x, mut y) = (1usize, 0usize);
        for t in 0..24u32 {
            offsets[x][y] = ((t + 1) * (t + 2) / 2) % 64;
            let new_x = y;
            let new_y = (2 * x + 3 * y) % 5;
            x = new_x;
            y = new_y;
        }
        offsets
    }

    fn keccak_f(state: &mut [[u64; 5]; 5]) {
        let rc = round_constants();
        let rot = rotation_offsets();
        for round in rc.iter().take(ROUNDS) {
            // Theta
            let mut c = [0u64; 5];
            for (x, cx) in c.iter_mut().enumerate() {
                *cx = state[x][0] ^ state[x][1] ^ state[x][2] ^ state[x][3] ^ state[x][4];
            }
            let mut d = [0u64; 5];
            for x in 0..5 {
                d[x] = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            }
            for (plane, dx) in state.iter_mut().zip(&d) {
                for lane in plane.iter_mut() {
                    *lane ^= dx;
                }
            }
            // Rho and Pi
            let mut b = [[0u64; 5]; 5];
            for x in 0..5 {
                for y in 0..5 {
                    b[y][(2 * x + 3 * y) % 5] = state[x][y].rotate_left(rot[x][y]);
                }
            }
            // Chi
            for x in 0..5 {
                for y in 0..5 {
                    state[x][y] = b[x][y] ^ ((!b[(x + 1) % 5][y]) & b[(x + 2) % 5][y]);
                }
            }
            // Iota
            state[0][0] ^= round;
        }
    }

    pub(super) fn keccak256(data: &[u8]) -> [u8; KECCAK256_OUTPUT] {
        let mut state = [[0u64; 5]; 5];

        // Absorb phase with Keccak padding (0x01 .. 0x80).
        let mut padded = data.to_vec();
        padded.push(0x01);
        while !padded.len().is_multiple_of(RATE) {
            padded.push(0x00);
        }
        let last = padded.len() - 1;
        padded[last] |= 0x80;

        for block in padded.chunks(RATE) {
            for (i, lane_bytes) in block.chunks(8).enumerate() {
                let mut lane = [0u8; 8];
                lane.copy_from_slice(lane_bytes);
                let x = i % 5;
                let y = i / 5;
                state[x][y] ^= u64::from_le_bytes(lane);
            }
            keccak_f(&mut state);
        }

        // Squeeze phase: 32 bytes fit in the first rate block; lane order
        // matches the absorb phase (lane index i maps to column i % 5, row i / 5).
        let mut out = [0u8; KECCAK256_OUTPUT];
        for (i, chunk) in out.chunks_mut(8).enumerate() {
            let lane = state[i % 5][i / 5].to_le_bytes();
            chunk.copy_from_slice(&lane[..chunk.len()]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The fixed byte pattern behind the pinned vectors: byte `i` is `i % 251`.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Whether the calling thread's memo currently holds `key`.
    fn memo_holds(key: &[u8; MEMO_KEY]) -> bool {
        MEMO.with_borrow(|memo| {
            let entry = &memo[memo_slot(key)];
            entry.filled && entry.key == *key
        })
    }

    /// The calling thread's memo keys, slot by slot.
    fn memo_keys() -> Vec<Option<[u8; MEMO_KEY]>> {
        MEMO.with_borrow(|memo| memo.iter().map(|e| e.filled.then_some(e.key)).collect())
    }

    /// A 64-byte key unique to `(tag, n)`.
    fn tagged_key(tag: u8, n: u32) -> [u8; MEMO_KEY] {
        let mut key = [tag; MEMO_KEY];
        key[28..32].copy_from_slice(&n.to_be_bytes());
        key
    }

    #[test]
    fn const_tables_match_the_spec_derivations() {
        assert_eq!(RC, reference::round_constants());
        // Walk the 24 non-origin lanes from (1, 0) via (x, y) -> (y, 2x + 3y):
        // step t rotates lane (x, y) by its rho offset and moves it to the
        // next lane on the walk.
        let offsets = reference::rotation_offsets();
        let (mut x, mut y) = (1usize, 0usize);
        for t in 0..24 {
            assert_eq!(RHO[t], offsets[x][y], "rho at step {t}");
            (x, y) = (y, (2 * x + 3 * y) % 5);
            assert_eq!(PI[t], x + 5 * y, "pi at step {t}");
        }
        assert_eq!((x, y), (1, 0), "the walk is a 24-cycle");
    }

    #[test]
    fn empty_input_known_vector() {
        // Well-known Keccak-256 of the empty string.
        assert_eq!(
            hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc_known_vector() {
        assert_eq!(
            hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn transfer_selector_known_vector() {
        // The ERC-20 transfer(address,uint256) selector is a widely published constant.
        assert_eq!(hex(&selector("transfer(address,uint256)")), "a9059cbb");
    }

    #[test]
    fn transfer_event_topic_known_vector() {
        // printf 'Transfer(address,address,uint256)' | openssl dgst -keccak-256
        assert_eq!(
            hex(&keccak256(b"Transfer(address,address,uint256)")),
            "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef"
        );
    }

    #[test]
    fn deterministic_and_collision_resistant_smoke() {
        assert_eq!(keccak256(b"mufuzz"), keccak256(b"mufuzz"));
        assert_ne!(keccak256(b"mufuzz"), keccak256(b"mufuzy"));
    }

    // The pinned digests below come from OpenSSL 3.5, independently of this
    // crate:
    //
    //   python3 -c "import sys; sys.stdout.buffer.write(bytes(i % 251 for i in range(N)))" \
    //     | openssl dgst -keccak-256 -r

    #[test]
    fn long_input_spans_multiple_blocks() {
        assert_eq!(
            hex(&keccak256(&pattern(1000))),
            "af692982e84a5a9688359025660a7857cd28ee7c8d867cfa1677baf2e6d1f63b"
        );
        let mut data = pattern(1000);
        data[999] ^= 0x01;
        assert_ne!(keccak256(&pattern(1000)), keccak256(&data));
    }

    #[test]
    fn rate_boundary_inputs() {
        // Inputs at and around the 136-byte rate boundary exercise the
        // padding logic; 64 bytes is the memoized mapping-slot preimage.
        let vectors = [
            (
                64,
                "002030bde3d4cf89919649775cd71875c4d0ab1708a380e03fefc3a28aa24831",
            ),
            (
                135,
                "cbdfd9dee5faad3818d6b06f95a219fd290b0e1706f6a82e5a595b9ce9faca62",
            ),
            (
                136,
                "7ce759f1ab7f9ce437719970c26b0a66ff11fe3e38e17df89cf5d29c7d7f807e",
            ),
            (
                137,
                "ac73d4fae68b8453f764007c1a20ce95994187861f0c3227a3a8e99a73a3b1db",
            ),
            (
                200,
                "bfb0aa97863e797943cf7c33bb7e880bb4543f3d2703c0923c6901c2af57b890",
            ),
            (
                271,
                "27eceb59ebc3dc8a04a5b135be641591a7278540e4556a2ba9f408194e666ec3",
            ),
            (
                272,
                "8e2476e65823b24d96ebe239f2c1534cdf763e689e2410c3b1cb0c74e6177bfc",
            ),
        ];
        for (len, expected) in vectors {
            let data = pattern(len);
            // Twice: for 64 bytes the second call is served by the memo.
            assert_eq!(hex(&keccak256(&data)), expected, "length {len}");
            assert_eq!(hex(&keccak256(&data)), expected, "length {len}, repeated");
            assert_eq!(
                hex(&reference::keccak256(&data)),
                expected,
                "reference, length {len}"
            );
        }
    }

    proptest! {
        #[test]
        fn matches_the_reference_on_random_inputs(
            data in proptest::collection::vec(any::<u8>(), 0..701),
        ) {
            let expected = reference::keccak256(&data);
            prop_assert_eq!(keccak256(&data), expected);
            prop_assert_eq!(keccak256(&data), expected);
        }
    }

    #[test]
    fn memo_misses_then_hits_the_same_preimage() {
        let key = tagged_key(0xa1, 1);
        let expected = reference::keccak256(&key);
        assert!(!memo_holds(&key));
        assert_eq!(keccak256(&key), expected);
        assert!(memo_holds(&key));
        assert_eq!(keccak256(&key), expected);
        assert!(memo_holds(&key));
    }

    #[test]
    fn memo_slot_collision_evicts_and_rehashes() {
        let first = tagged_key(0xb2, 0);
        let second = (1..)
            .map(|n| tagged_key(0xb2, n))
            .find(|k| memo_slot(k) == memo_slot(&first))
            .expect("256 slots collide quickly");
        assert_eq!(keccak256(&first), reference::keccak256(&first));
        assert!(memo_holds(&first));

        assert_eq!(keccak256(&second), reference::keccak256(&second));
        assert!(memo_holds(&second));
        assert!(!memo_holds(&first), "the colliding key evicts the first");

        assert_eq!(keccak256(&first), reference::keccak256(&first));
        assert!(memo_holds(&first));
        assert!(!memo_holds(&second));
    }

    #[test]
    fn other_lengths_bypass_the_memo() {
        let long = pattern(65);
        let prefix: [u8; MEMO_KEY] = long[..MEMO_KEY].try_into().unwrap();
        let short = &long[..MEMO_KEY - 1];
        let mut padded = [0u8; MEMO_KEY];
        padded[..MEMO_KEY - 1].copy_from_slice(short);
        // Seed the slots a prefix- or padding-keyed memo would consult.
        keccak256(&prefix);
        keccak256(&padded);

        let before = memo_keys();
        assert_eq!(keccak256(&long), reference::keccak256(&long));
        assert_eq!(keccak256(short), reference::keccak256(short));
        assert_ne!(keccak256(&long), keccak256(&prefix));
        assert_ne!(keccak256(short), keccak256(&padded));
        assert!(
            before == memo_keys(),
            "63- and 65-byte inputs leave the memo untouched"
        );
    }

    #[test]
    fn memos_are_per_thread() {
        let run = |tag: u8| {
            let keys: Vec<_> = (0..300).map(|n| tagged_key(tag, n)).collect();
            for _ in 0..2 {
                for key in &keys {
                    assert_eq!(keccak256(key), reference::keccak256(key));
                }
            }
            memo_keys()
        };
        std::thread::scope(|scope| {
            let threads = [0xc3, 0xd4].map(|tag| (tag, scope.spawn(move || run(tag))));
            for (tag, thread) in threads {
                let keys = thread.join().expect("hashing thread panicked");
                assert!(keys.iter().any(Option::is_some));
                for key in keys.into_iter().flatten() {
                    assert_eq!(key[0], tag, "a thread's memo holds only its own keys");
                }
            }
        });
    }
}
