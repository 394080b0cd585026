//! A 256-bit unsigned integer implemented from scratch.
//!
//! The EVM word size is 256 bits. All stack values, storage keys and storage
//! values are `U256`. The type is implemented as four little-endian `u64`
//! limbs and supports the wrapping semantics the EVM mandates, while also
//! exposing the overflow information the integer-overflow oracle needs
//! (`overflowing_*` variants).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, BitAnd, BitOr, BitXor, Div, Mul, Not, Rem, Shl, Shr, Sub};

/// 256-bit unsigned integer stored as four little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

impl U256 {
    /// The value zero.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value one.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value (2^256 - 1).
    pub const MAX: U256 = U256([u64::MAX, u64::MAX, u64::MAX, u64::MAX]);

    /// Construct from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Construct from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Returns true if the value is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Lowest 64 bits of the value.
    #[inline]
    pub fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Lowest 128 bits of the value.
    #[inline]
    pub fn low_u128(&self) -> u128 {
        (self.0[0] as u128) | ((self.0[1] as u128) << 64)
    }

    /// Returns the value as `u64` if it fits, otherwise `None`.
    pub fn to_u64(&self) -> Option<u64> {
        if self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0 {
            Some(self.0[0])
        } else {
            None
        }
    }

    /// Returns the value as `usize` if it fits, otherwise `None`.
    pub fn to_usize(&self) -> Option<usize> {
        self.to_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// Number of significant bits (position of the highest set bit + 1).
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return (i as u32) * 64 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Returns bit `i` (0 = least significant).
    pub fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Big-endian 32-byte representation.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.0.iter().enumerate() {
            let b = limb.to_be_bytes();
            out[32 - 8 * (i + 1)..32 - 8 * i].copy_from_slice(&b);
        }
        out
    }

    /// Construct from a big-endian 32-byte array.
    pub fn from_be_bytes(bytes: [u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[32 - 8 * (i + 1)..32 - 8 * i]);
            *limb = u64::from_be_bytes(b);
        }
        U256(limbs)
    }

    /// Construct from a big-endian slice of at most 32 bytes
    /// (shorter slices are left-padded with zeros, as EVM calldata is).
    pub fn from_be_slice(slice: &[u8]) -> Self {
        let mut buf = [0u8; 32];
        let len = slice.len().min(32);
        buf[32 - len..].copy_from_slice(&slice[slice.len() - len..]);
        U256::from_be_bytes(buf)
    }

    /// Parse a hexadecimal string, with or without a `0x` prefix.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.is_empty() || s.len() > 64 {
            return None;
        }
        let mut bytes = [0u8; 32];
        // Left-pad odd-length strings with a zero nibble.
        let padded: String = if s.len() % 2 == 1 {
            format!("0{s}")
        } else {
            s.to_string()
        };
        let n = padded.len() / 2;
        for i in 0..n {
            let byte = u8::from_str_radix(&padded[2 * i..2 * i + 2], 16).ok()?;
            bytes[32 - n + i] = byte;
        }
        Some(U256::from_be_bytes(bytes))
    }

    /// Parse a decimal string.
    pub fn from_dec(s: &str) -> Option<Self> {
        if s.is_empty() {
            return None;
        }
        let mut acc = U256::ZERO;
        let ten = U256::from_u64(10);
        for c in s.chars() {
            let d = c.to_digit(10)?;
            let (shifted, o1) = acc.overflowing_mul(ten);
            let (next, o2) = shifted.overflowing_add(U256::from_u64(d as u64));
            if o1 || o2 {
                return None;
            }
            acc = next;
        }
        Some(acc)
    }

    /// Addition returning the wrapped result and an overflow flag.
    pub fn overflowing_add(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for ((word, &a), &b) in out.iter_mut().zip(&self.0).zip(&rhs.0) {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            *word = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256(out), carry != 0)
    }

    /// Wrapping addition (EVM `ADD`).
    pub fn wrapping_add(self, rhs: U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Subtraction returning the wrapped result and a borrow (underflow) flag.
    pub fn overflowing_sub(self, rhs: U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for ((word, &a), &b) in out.iter_mut().zip(&self.0).zip(&rhs.0) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *word = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256(out), borrow != 0)
    }

    /// Wrapping subtraction (EVM `SUB`).
    pub fn wrapping_sub(self, rhs: U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Full 512-bit product as eight little-endian 64-bit limbs.
    fn full_mul_limbs(self, rhs: U256) -> [u64; 8] {
        // Schoolbook multiplication with u128 partial products; the 512-bit
        // result is exact, so no limb ever wraps.
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let cur = prod[i + j] as u128 + (self.0[i] as u128) * (rhs.0[j] as u128) + carry;
                prod[i + j] = cur as u64;
                carry = cur >> 64;
            }
            prod[i + 4] = carry as u64;
        }
        prod
    }

    /// Multiplication returning the low 256 bits and an overflow flag.
    pub fn overflowing_mul(self, rhs: U256) -> (U256, bool) {
        let prod = self.full_mul_limbs(rhs);
        let overflow = prod[4] != 0 || prod[5] != 0 || prod[6] != 0 || prod[7] != 0;
        (U256([prod[0], prod[1], prod[2], prod[3]]), overflow)
    }

    /// Wrapping multiplication (EVM `MUL`).
    pub fn wrapping_mul(self, rhs: U256) -> U256 {
        self.overflowing_mul(rhs).0
    }

    /// Checked multiplication.
    pub fn checked_mul(self, rhs: U256) -> Option<U256> {
        match self.overflowing_mul(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Quotient and remainder. Division by zero yields `(0, 0)` like the EVM.
    pub fn div_rem(self, rhs: U256) -> (U256, U256) {
        if rhs.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        if self < rhs {
            return (U256::ZERO, self);
        }
        if rhs == U256::ONE {
            return (self, U256::ZERO);
        }
        let (quotient, remainder) = div_rem_limbs(&self.0, &rhs);
        (U256(quotient), remainder)
    }

    /// Two's-complement negation, wrapping at 2^256 (`-MIN == MIN`).
    pub fn wrapping_neg(self) -> U256 {
        U256::ZERO.wrapping_sub(self)
    }

    /// Signed quotient and remainder in two's complement (EVM `SDIV`/`SMOD`).
    ///
    /// Division by zero yields `(0, 0)`. The quotient truncates toward zero,
    /// the remainder takes the sign of the dividend, and `MIN / -1` wraps
    /// back to `MIN` (the EVM-mandated two's-complement overflow case).
    pub fn signed_div_rem(self, rhs: U256) -> (U256, U256) {
        if rhs.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        let neg_a = self.is_negative_signed();
        let neg_b = rhs.is_negative_signed();
        let abs_a = if neg_a { self.wrapping_neg() } else { self };
        let abs_b = if neg_b { rhs.wrapping_neg() } else { rhs };
        // MIN / -1 needs no special case: |MIN| wraps to MIN, MIN / 1 = MIN,
        // and negating the quotient wraps back to MIN.
        let (q, r) = abs_a.div_rem(abs_b);
        let q = if neg_a != neg_b { q.wrapping_neg() } else { q };
        let r = if neg_a { r.wrapping_neg() } else { r };
        (q, r)
    }

    /// EVM `SIGNEXTEND`: extend the two's-complement sign bit of the byte at
    /// `byte_index` (0 = least significant) through all higher bits.
    /// Indices >= 31 leave the value unchanged.
    pub fn sign_extend(self, byte_index: usize) -> U256 {
        if byte_index >= 31 {
            return self;
        }
        let sign_bit = byte_index * 8 + 7;
        let low_mask = U256::ONE
            .shl_bits(sign_bit as u32 + 1)
            .wrapping_sub(U256::ONE);
        if self.bit(sign_bit) {
            self | !low_mask
        } else {
            self & low_mask
        }
    }

    /// EVM `ADDMOD`: `(self + rhs) % m` over the unbounded 257-bit sum.
    /// A zero modulus yields zero.
    pub fn add_mod(self, rhs: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        let (sum, carry) = self.overflowing_add(rhs);
        if !carry {
            return sum.div_rem(m).1;
        }
        let limbs = [sum.0[0], sum.0[1], sum.0[2], sum.0[3], 1];
        div_rem_limbs(&limbs, &m).1
    }

    /// EVM `MULMOD`: `(self * rhs) % m` over the unbounded 512-bit product.
    /// A zero modulus yields zero.
    pub fn mul_mod(self, rhs: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        div_rem_limbs(&self.full_mul_limbs(rhs), &m).1
    }

    /// Left shift by an arbitrary number of bits (values >= 256 yield zero).
    pub fn shl_bits(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let word_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in (0..4).rev() {
            if i >= word_shift {
                out[i] = self.0[i - word_shift] << bit_shift;
                if bit_shift > 0 && i > word_shift {
                    out[i] |= self.0[i - word_shift - 1] >> (64 - bit_shift);
                }
            }
        }
        U256(out)
    }

    /// Right shift by an arbitrary number of bits (values >= 256 yield zero).
    pub fn shr_bits(self, shift: u32) -> U256 {
        if shift >= 256 {
            return U256::ZERO;
        }
        let word_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for (i, word) in out.iter_mut().enumerate() {
            if i + word_shift < 4 {
                *word = self.0[i + word_shift] >> bit_shift;
                if bit_shift > 0 && i + word_shift + 1 < 4 {
                    *word |= self.0[i + word_shift + 1] << (64 - bit_shift);
                }
            }
        }
        U256(out)
    }

    /// Arithmetic (sign-propagating) right shift in two's complement
    /// (EVM `SAR`). Shifts of 256 or more saturate to zero for non-negative
    /// values and to `-1` (all bits set) for negative ones.
    pub fn sar_bits(self, shift: u32) -> U256 {
        if !self.is_negative_signed() {
            return self.shr_bits(shift.min(256));
        }
        if shift == 0 {
            return self;
        }
        if shift >= 256 {
            return U256::MAX;
        }
        // Logical shift, then fill the vacated top `shift` bits with the
        // sign: !(MAX >> shift) is exactly that high mask.
        self.shr_bits(shift) | !U256::MAX.shr_bits(shift)
    }

    /// Interpret the value as a signed two's-complement number and report
    /// whether it is negative (top bit set). Used by `SLT`/`SGT`.
    pub fn is_negative_signed(&self) -> bool {
        self.0[3] >> 63 == 1
    }

    /// Signed comparison in two's complement.
    pub fn signed_cmp(&self, other: &U256) -> Ordering {
        match (self.is_negative_signed(), other.is_negative_signed()) {
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            _ => self.cmp(other),
        }
    }

    /// Absolute difference, |self - other|. Used by branch-distance feedback.
    pub fn abs_diff(self, other: U256) -> U256 {
        if self >= other {
            self.wrapping_sub(other)
        } else {
            other.wrapping_sub(self)
        }
    }

    /// Saturating conversion to `f64` (used only for distance normalisation,
    /// never for EVM semantics).
    pub fn to_f64_lossy(&self) -> f64 {
        let mut acc = 0.0f64;
        for i in (0..4).rev() {
            acc = acc * 18446744073709551616.0 + self.0[i] as f64;
        }
        acc
    }

    /// Decimal string representation.
    pub fn to_dec_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut digits = Vec::new();
        let mut cur = *self;
        let ten = U256::from_u64(10);
        while !cur.is_zero() {
            let (q, r) = cur.div_rem(ten);
            digits.push(char::from(b'0' + r.low_u64() as u8));
            cur = q;
        }
        digits.iter().rev().collect()
    }

    /// Hexadecimal string representation with a `0x` prefix.
    pub fn to_hex_string(&self) -> String {
        if self.is_zero() {
            return "0x0".to_string();
        }
        let bytes = self.to_be_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        format!("0x{}", hex.trim_start_matches('0'))
    }
}

/// Quotient and remainder of the little-endian limb number `num` (at most
/// eight limbs) by the non-zero `den`.
///
/// One algorithm serves every width: Knuth's algorithm D (TAOCP vol. 2,
/// §4.3.1) on 64-bit digits with 128-bit intermediates, preceded by a
/// single `u128` pass when the divisor fits in one limb. The quotient of an
/// `N`-limb dividend fits in `N` limbs.
fn div_rem_limbs<const N: usize>(num: &[u64; N], den: &U256) -> ([u64; N], U256) {
    const { assert!(N <= 8) };
    let mut quotient = [0u64; N];
    let n = den
        .0
        .iter()
        .rposition(|&l| l != 0)
        .expect("non-zero divisor")
        + 1;
    let Some(top) = num.iter().rposition(|&l| l != 0) else {
        return (quotient, U256::ZERO);
    };
    let m = top + 1;
    if m < n {
        // The dividend is below the divisor, so it fits in the divisor's limbs.
        let mut rem = [0u64; 4];
        rem[..m].copy_from_slice(&num[..m]);
        return (quotient, U256(rem));
    }
    if n == 1 {
        let d = u128::from(den.0[0]);
        let mut rem = 0u128;
        for i in (0..m).rev() {
            let cur = (rem << 64) | u128::from(num[i]);
            quotient[i] = (cur / d) as u64;
            rem = cur % d;
        }
        return (quotient, U256::from_u64(rem as u64));
    }

    // D1: normalise so the divisor's top limb has its high bit set; the
    // dividend gains one limb. `x >> 1 >> (63 - s)` is `x >> (64 - s)`,
    // and zero for `s == 0`.
    let s = den.0[n - 1].leading_zeros();
    let mut v = [0u64; 4];
    for i in (1..n).rev() {
        v[i] = (den.0[i] << s) | (den.0[i - 1] >> 1 >> (63 - s));
    }
    v[0] = den.0[0] << s;
    let mut u = [0u64; 9];
    u[m] = num[m - 1] >> 1 >> (63 - s);
    for i in (1..m).rev() {
        u[i] = (num[i] << s) | (num[i - 1] >> 1 >> (63 - s));
    }
    u[0] = num[0] << s;

    const BASE: u128 = 1 << 64;
    let (v_top, v_next) = (u128::from(v[n - 1]), u128::from(v[n - 2]));
    for j in (0..=m - n).rev() {
        // D3: estimate the quotient digit from the top two limbs, then
        // correct it (at most twice) against the third.
        let window = (u128::from(u[j + n]) << 64) | u128::from(u[j + n - 1]);
        let mut qhat = window / v_top;
        let mut rhat = window % v_top;
        while qhat >= BASE || qhat * v_next > ((rhat << 64) | u128::from(u[j + n - 2])) {
            #[cfg(test)]
            tests::note_fixup(0);
            qhat -= 1;
            rhat += v_top;
            if rhat >= BASE {
                break;
            }
        }
        // D4: multiply and subtract `qhat · v` from the window. Every
        // intermediate fits its type: `borrow` stays within 2^64 + 1.
        let mut borrow: i128 = 0;
        for i in 0..n {
            let product = qhat * u128::from(v[i]);
            let t = i128::from(u[i + j]) - borrow - i128::from(product as u64);
            u[i + j] = t as u64;
            borrow = (product >> 64) as i128 - (t >> 64);
        }
        let t = i128::from(u[j + n]) - borrow;
        u[j + n] = t as u64;
        // D5/D6: a negative window means `qhat` was one too large; add the
        // divisor back once (the carry out cancels the borrow).
        if t < 0 {
            #[cfg(test)]
            tests::note_fixup(1);
            qhat -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let sum = u128::from(u[i + j]) + u128::from(v[i]) + carry;
                u[i + j] = sum as u64;
                carry = sum >> 64;
            }
            u[j + n] = u[j + n].wrapping_add(carry as u64);
        }
        quotient[j] = qhat as u64;
    }

    // D8: the remainder is the low `n` limbs, shifted back.
    let mut rem = [0u64; 4];
    for i in 0..n {
        rem[i] = (u[i] >> s) | (u[i + 1] << 1 << (63 - s));
    }
    (quotient, U256(rem))
}

/// The original bit-serial division: one shift-subtract step per dividend
/// bit. Kept as the differential reference for [`div_rem_limbs`].
#[cfg(test)]
mod reference {
    use super::U256;

    /// Binary long division of `num` by `den`; zero divides to `(0, 0)`.
    pub(super) fn div_rem(num: U256, den: U256) -> (U256, U256) {
        if den.is_zero() {
            return (U256::ZERO, U256::ZERO);
        }
        if num < den {
            return (U256::ZERO, num);
        }
        let mut quotient = U256::ZERO;
        let mut remainder = U256::ZERO;
        for i in (0..num.bits()).rev() {
            remainder = remainder.shl_bits(1);
            if num.bit(i as usize) {
                remainder.0[0] |= 1;
            }
            if remainder >= den {
                remainder = remainder.wrapping_sub(den);
                quotient.0[i as usize / 64] |= 1 << (i % 64);
            }
        }
        (quotient, remainder)
    }

    /// Reduce a little-endian wide limb value modulo the non-zero `m`.
    pub(super) fn rem_limbs(limbs: &[u64], m: U256) -> U256 {
        let top = limbs
            .iter()
            .rposition(|&l| l != 0)
            .map(|i| i * 64 + 64 - limbs[i].leading_zeros() as usize)
            .unwrap_or(0);
        let mut r = U256::ZERO;
        for i in (0..top).rev() {
            // r < m before the shift, so the true value 2r + bit fits in 257
            // bits and needs at most one subtraction of m; `carry` tracks the
            // bit shifted past 2^256.
            let carry = r.bit(255);
            r = r.shl_bits(1);
            if (limbs[i / 64] >> (i % 64)) & 1 == 1 {
                r.0[0] |= 1;
            }
            if carry || r >= m {
                r = r.wrapping_sub(m);
            }
        }
        r
    }

    /// `ADDMOD` through the bit-serial reduction.
    pub(super) fn add_mod(a: U256, b: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        let (sum, carry) = a.overflowing_add(b);
        rem_limbs(
            &[sum.0[0], sum.0[1], sum.0[2], sum.0[3], u64::from(carry)],
            m,
        )
    }

    /// `MULMOD` through the bit-serial reduction.
    pub(super) fn mul_mod(a: U256, b: U256, m: U256) -> U256 {
        if m.is_zero() {
            return U256::ZERO;
        }
        rem_limbs(&a.full_mul_limbs(b), m)
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl From<bool> for U256 {
    fn from(v: bool) -> Self {
        if v {
            U256::ONE
        } else {
            U256::ZERO
        }
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl Add for U256 {
    type Output = U256;
    fn add(self, rhs: U256) -> U256 {
        self.wrapping_add(rhs)
    }
}

impl Sub for U256 {
    type Output = U256;
    fn sub(self, rhs: U256) -> U256 {
        self.wrapping_sub(rhs)
    }
}

impl Mul for U256 {
    type Output = U256;
    fn mul(self, rhs: U256) -> U256 {
        self.wrapping_mul(rhs)
    }
}

impl Div for U256 {
    type Output = U256;
    fn div(self, rhs: U256) -> U256 {
        self.div_rem(rhs).0
    }
}

impl Rem for U256 {
    type Output = U256;
    fn rem(self, rhs: U256) -> U256 {
        self.div_rem(rhs).1
    }
}

impl BitAnd for U256 {
    type Output = U256;
    fn bitand(self, rhs: U256) -> U256 {
        U256([
            self.0[0] & rhs.0[0],
            self.0[1] & rhs.0[1],
            self.0[2] & rhs.0[2],
            self.0[3] & rhs.0[3],
        ])
    }
}

impl BitOr for U256 {
    type Output = U256;
    fn bitor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] | rhs.0[0],
            self.0[1] | rhs.0[1],
            self.0[2] | rhs.0[2],
            self.0[3] | rhs.0[3],
        ])
    }
}

impl BitXor for U256 {
    type Output = U256;
    fn bitxor(self, rhs: U256) -> U256 {
        U256([
            self.0[0] ^ rhs.0[0],
            self.0[1] ^ rhs.0[1],
            self.0[2] ^ rhs.0[2],
            self.0[3] ^ rhs.0[3],
        ])
    }
}

impl Not for U256 {
    type Output = U256;
    fn not(self) -> U256 {
        U256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }
}

impl Shl<u32> for U256 {
    type Output = U256;
    fn shl(self, rhs: u32) -> U256 {
        self.shl_bits(rhs)
    }
}

impl Shr<u32> for U256 {
    type Output = U256;
    fn shr(self, rhs: u32) -> U256 {
        self.shr_bits(rhs)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256({})", self.to_dec_string())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_dec_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    thread_local! {
        /// Knuth D fix-ups this thread has taken: `qhat` corrections and
        /// add-backs.
        static FIXUPS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
    }

    /// Count one fix-up of kind `step` (0 = correction, 1 = add-back).
    pub(super) fn note_fixup(step: usize) {
        FIXUPS.with(|f| {
            let mut counts = f.get();
            counts[step] += 1;
            f.set(counts);
        });
    }

    /// Limb values at the edges of the digit range, where `qhat` estimates
    /// go wrong most often.
    const EDGE_LIMBS: [u64; 8] = [
        0,
        1,
        2,
        1 << 62,
        (1 << 63) - 1,
        1 << 63,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// An operand of shape `kind` built from the random `limbs`:
    /// 0 edge-valued limbs, 1 one, 2 `MAX`, 3 a top limb of exactly
    /// `1 << 63` above random limbs, anything else exactly `width` bits.
    fn operand(kind: usize, limbs: &[u64], width: usize) -> U256 {
        match kind {
            0 => U256([0, 1, 2, 3].map(|i| EDGE_LIMBS[limbs[i] as usize % EDGE_LIMBS.len()])),
            1 => U256::ONE,
            2 => U256::MAX,
            3 => {
                let top = width % 4;
                let mut v = [0u64; 4];
                v[..top].copy_from_slice(&limbs[..top]);
                v[top] = 1 << 63;
                U256(v)
            }
            _ if width == 0 => U256::ZERO,
            _ => {
                let v = U256([limbs[0], limbs[1], limbs[2], limbs[3]]);
                v.shr_bits(256 - width as u32) | U256::ONE.shl_bits(width as u32 - 1)
            }
        }
    }

    /// Compare all three limb-division entry points with the bit-serial
    /// reference on one dividend/divisor pair (`y` is the second operand
    /// of `ADDMOD`/`MULMOD`).
    fn assert_matches_reference(x: U256, y: U256, m: U256) {
        assert_eq!(x.div_rem(m), reference::div_rem(x, m), "{x:?} / {m:?}");
        assert_eq!(
            x.add_mod(y, m),
            reference::add_mod(x, y, m),
            "{x:?} + {y:?} mod {m:?}"
        );
        assert_eq!(
            x.mul_mod(y, m),
            reference::mul_mod(x, y, m),
            "{x:?} * {y:?} mod {m:?}"
        );
    }

    proptest! {
        #[test]
        fn limb_division_matches_the_bit_serial_reference(
            x_limbs in proptest::collection::vec(any::<u64>(), 4..5),
            y_limbs in proptest::collection::vec(any::<u64>(), 4..5),
            m_limbs in proptest::collection::vec(any::<u64>(), 4..5),
            widths in proptest::collection::vec(0usize..257, 3..4),
            kinds in proptest::collection::vec(0usize..8, 3..4),
        ) {
            let x = operand(kinds[0], &x_limbs, widths[0]);
            let y = operand(kinds[1], &y_limbs, widths[1]);
            let m = operand(kinds[2], &m_limbs, widths[2]);
            assert_matches_reference(x, y, m);
            assert_matches_reference(m, y, x);
        }
    }

    #[test]
    fn knuth_corrections_and_add_backs_match_the_reference() {
        // Dividend/divisor pairs whose quotient digit estimate passes the
        // two-limb test yet overshoots, so the add-back step runs.
        const ADD_BACKS: [([u64; 4], [u64; 4]); 4] = [
            ([1, 1, 0, 1 << 62], [0x5f0c_4afc_11e1_00ac, 0, 1 << 62, 0]),
            (
                [0xfa0a_6184_6955_20e8, 1 << 63, 0, (1 << 63) - 1],
                [u64::MAX - 1, 0, (1 << 63) - 1, 0],
            ),
            (
                [(1 << 63) - 1, 0x3d7b_3853_7132_7e83, 2, u64::MAX - 1],
                [2, u64::MAX - 1, 2, u64::MAX - 1],
            ),
            ([1 << 62, 2, 1 << 62, 1 << 62], [(1 << 63) - 1, 0, 1, 1]),
        ];
        let before = FIXUPS.with(Cell::get);
        for (x, m) in ADD_BACKS {
            assert_matches_reference(U256(x), U256::ONE, U256(m));
        }
        let after_add_backs = FIXUPS.with(Cell::get);
        // Dividends and divisors of edge-valued limbs force corrections.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2_000 {
            let mut limbs = [0u64; 8];
            for limb in &mut limbs {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                *limb = state >> 33;
            }
            let x = operand(0, &limbs[..4], 0);
            let m = operand(0, &limbs[4..], 0);
            assert_matches_reference(x, x, m);
        }
        let after = FIXUPS.with(Cell::get);
        // `div_rem` adds back once per vector (`mul_mod` by one may again).
        assert!(after_add_backs[1] >= before[1] + ADD_BACKS.len() as u64);
        assert!(
            after[0] > after_add_backs[0],
            "no qhat correction exercised"
        );
    }

    #[test]
    fn zero_and_one() {
        assert!(U256::ZERO.is_zero());
        assert!(!U256::ONE.is_zero());
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
    }

    #[test]
    fn add_small() {
        assert_eq!(u(2) + u(3), u(5));
        assert_eq!(u(0) + u(0), u(0));
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = U256([u64::MAX, 0, 0, 0]);
        let (sum, overflow) = a.overflowing_add(U256::ONE);
        assert!(!overflow);
        assert_eq!(sum, U256([0, 1, 0, 0]));
    }

    #[test]
    fn add_overflow_wraps() {
        let (sum, overflow) = U256::MAX.overflowing_add(U256::ONE);
        assert!(overflow);
        assert_eq!(sum, U256::ZERO);
        assert_eq!(U256::MAX.checked_add(U256::ONE), None);
    }

    #[test]
    fn sub_underflow_wraps() {
        let (diff, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
        assert_eq!(diff, U256::MAX);
        assert_eq!(U256::ZERO.checked_sub(U256::ONE), None);
    }

    #[test]
    fn mul_small() {
        assert_eq!(u(7) * u(6), u(42));
        assert_eq!(u(0) * u(123), u(0));
    }

    #[test]
    fn mul_cross_limb() {
        let a = U256::from_u128(u128::MAX);
        let (p, o) = a.overflowing_mul(u(2));
        assert!(!o);
        assert_eq!(p, U256([u64::MAX - 1, u64::MAX, 1, 0]));
    }

    #[test]
    fn mul_overflow_detected() {
        let big = U256::ONE.shl_bits(200);
        let (_, o) = big.overflowing_mul(big);
        assert!(o);
        assert!(big.checked_mul(big).is_none());
    }

    #[test]
    fn div_rem_basic() {
        let (q, r) = u(100).div_rem(u(7));
        assert_eq!(q, u(14));
        assert_eq!(r, u(2));
    }

    #[test]
    fn div_by_zero_is_zero() {
        let (q, r) = u(100).div_rem(U256::ZERO);
        assert_eq!(q, U256::ZERO);
        assert_eq!(r, U256::ZERO);
    }

    #[test]
    fn div_rem_large() {
        let a = U256::from_hex("0xffffffffffffffffffffffffffffffff").unwrap();
        let b = U256::from_hex("0xfffffffffffffffff").unwrap();
        let (q, r) = a.div_rem(b);
        // Verify a == q*b + r and r < b.
        assert!(r < b);
        assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
    }

    #[test]
    fn shifts() {
        assert_eq!(u(1).shl_bits(64), U256([0, 1, 0, 0]));
        assert_eq!(U256([0, 1, 0, 0]).shr_bits(64), u(1));
        assert_eq!(u(1).shl_bits(256), U256::ZERO);
        assert_eq!(u(0b1010).shr_bits(1), u(0b101));
        assert_eq!(u(3).shl_bits(1), u(6));
    }

    #[test]
    fn arithmetic_shift_propagates_the_sign() {
        // Non-negative values behave like a logical shift.
        assert_eq!(u(0b1010).sar_bits(1), u(0b101));
        assert_eq!(u(7).sar_bits(300), U256::ZERO);
        // -8 >> 1 == -4, -8 >> 2 == -2, -8 >> 3 == -1, -8 >> 4 == -1.
        let neg = |v: u64| u(v).wrapping_neg();
        assert_eq!(neg(8).sar_bits(1), neg(4));
        assert_eq!(neg(8).sar_bits(3), neg(1));
        assert_eq!(neg(8).sar_bits(4), neg(1)); // floor division toward -inf
                                                // Shift 0 is the identity; shifts >= 256 saturate to -1.
        assert_eq!(neg(8).sar_bits(0), neg(8));
        assert_eq!(neg(1).sar_bits(255), U256::MAX);
        assert_eq!(neg(8).sar_bits(256), U256::MAX);
        assert_eq!(neg(8).sar_bits(u32::MAX), U256::MAX);
        // MIN >> 255 == -1.
        assert_eq!(U256::ONE.shl_bits(255).sar_bits(255), U256::MAX);
    }

    #[test]
    fn ordering() {
        assert!(u(1) < u(2));
        assert!(U256([0, 0, 0, 1]) > U256([u64::MAX, u64::MAX, u64::MAX, 0]));
        assert_eq!(u(5).cmp(&u(5)), Ordering::Equal);
    }

    #[test]
    fn signed_comparison() {
        let neg_one = U256::MAX; // -1 in two's complement
        assert!(neg_one.is_negative_signed());
        assert_eq!(neg_one.signed_cmp(&U256::ONE), Ordering::Less);
        assert_eq!(U256::ONE.signed_cmp(&neg_one), Ordering::Greater);
        assert_eq!(u(3).signed_cmp(&u(4)), Ordering::Less);
    }

    #[test]
    fn byte_roundtrip() {
        let v =
            U256::from_hex("0x0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
                .unwrap();
        assert_eq!(U256::from_be_bytes(v.to_be_bytes()), v);
    }

    #[test]
    fn be_slice_left_pads() {
        assert_eq!(U256::from_be_slice(&[0x01, 0x00]), u(256));
        assert_eq!(U256::from_be_slice(&[]), U256::ZERO);
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(U256::from_hex("0x10").unwrap(), u(16));
        assert_eq!(U256::from_hex("ff").unwrap(), u(255));
        assert_eq!(U256::from_hex("0xf").unwrap(), u(15));
        assert!(U256::from_hex("").is_none());
        assert!(U256::from_hex("0xzz").is_none());
    }

    #[test]
    fn dec_parsing_and_display() {
        assert_eq!(U256::from_dec("1234567890").unwrap(), u(1234567890));
        assert_eq!(u(98765).to_dec_string(), "98765");
        assert_eq!(U256::ZERO.to_dec_string(), "0");
        let max_str = U256::MAX.to_dec_string();
        assert_eq!(
            max_str,
            "115792089237316195423570985008687907853269984665640564039457584007913129639935"
        );
        assert_eq!(U256::from_dec(&max_str).unwrap(), U256::MAX);
        assert!(U256::from_dec("not a number").is_none());
    }

    #[test]
    fn hex_display() {
        assert_eq!(u(255).to_hex_string(), "0xff");
        assert_eq!(U256::ZERO.to_hex_string(), "0x0");
    }

    /// Two's-complement encoding of a small signed integer.
    fn s(v: i64) -> U256 {
        if v < 0 {
            u(v.unsigned_abs()).wrapping_neg()
        } else {
            u(v as u64)
        }
    }

    /// The most negative signed 256-bit value, -2^255.
    fn min_signed() -> U256 {
        U256::ONE.shl_bits(255)
    }

    #[test]
    fn wrapping_neg_roundtrip() {
        assert_eq!(u(5).wrapping_neg().wrapping_neg(), u(5));
        assert_eq!(U256::ZERO.wrapping_neg(), U256::ZERO);
        assert_eq!(U256::ONE.wrapping_neg(), U256::MAX); // -1
        assert_eq!(min_signed().wrapping_neg(), min_signed()); // -MIN == MIN
    }

    #[test]
    fn signed_div_rem_sign_combinations() {
        // Quotient truncates toward zero; remainder takes the dividend sign.
        assert_eq!(s(7).signed_div_rem(s(2)), (s(3), s(1)));
        assert_eq!(s(-7).signed_div_rem(s(2)), (s(-3), s(-1)));
        assert_eq!(s(7).signed_div_rem(s(-2)), (s(-3), s(1)));
        assert_eq!(s(-7).signed_div_rem(s(-2)), (s(3), s(-1)));
        assert_eq!(s(-8).signed_div_rem(s(3)).1, s(-2));
        assert_eq!(s(8).signed_div_rem(s(-3)).1, s(2));
    }

    #[test]
    fn signed_div_rem_edge_cases() {
        // Division by zero yields (0, 0) like the EVM.
        assert_eq!(s(-5).signed_div_rem(U256::ZERO), (U256::ZERO, U256::ZERO));
        // MIN / -1 wraps back to MIN with remainder 0.
        assert_eq!(min_signed().signed_div_rem(s(-1)), (min_signed(), s(0)));
        // MIN / 1 and MIN / MIN are well defined.
        assert_eq!(min_signed().signed_div_rem(s(1)), (min_signed(), s(0)));
        assert_eq!(min_signed().signed_div_rem(min_signed()), (s(1), s(0)));
    }

    #[test]
    fn sign_extend_matches_evm_vectors() {
        // Positive byte: high bits cleared.
        assert_eq!(u(0x7f).sign_extend(0), u(0x7f));
        assert_eq!(u(0x1234).sign_extend(0), u(0x34));
        // Negative byte: high bits set.
        assert_eq!(u(0xff).sign_extend(0), U256::MAX);
        assert_eq!(u(0xff7f).sign_extend(1), U256::MAX - u(0x80));
        // Index >= 31 leaves the value unchanged.
        assert_eq!(U256::MAX.sign_extend(31), U256::MAX);
        assert_eq!(u(0xff).sign_extend(200), u(0xff));
        // Index 30: sign bit is bit 247.
        let v = U256::ONE.shl_bits(247);
        assert_eq!(
            v.sign_extend(30),
            v | !(v.shl_bits(1).wrapping_sub(U256::ONE))
        );
    }

    #[test]
    fn add_mod_with_overflowing_intermediate() {
        assert_eq!(u(10).add_mod(u(10), u(8)), u(4));
        assert_eq!(u(10).add_mod(u(10), U256::ZERO), U256::ZERO);
        // (2^256 - 1) + 1 == 2^256, and 2^256 mod (2^256 - 1) == 1.
        assert_eq!(U256::MAX.add_mod(U256::ONE, U256::MAX), U256::ONE);
        // MAX + MAX == 2 * (2^256 - 1), divisible by MAX.
        assert_eq!(U256::MAX.add_mod(U256::MAX, U256::MAX), U256::ZERO);
        // Wrapped arithmetic would compute (MAX + MAX) mod 5 as (2^256 - 2) mod 5
        // = 4; the true sum is 2^257 - 2 ≡ 2 - 2 ≡ 0 (mod 5) since 2^256 ≡ 1.
        let m = u(5);
        let wrapped = U256::MAX.wrapping_add(U256::MAX).div_rem(m).1;
        assert_eq!(wrapped, u(4));
        assert_eq!(U256::MAX.add_mod(U256::MAX, m), U256::ZERO);
    }

    #[test]
    fn mul_mod_with_overflowing_intermediate() {
        assert_eq!(u(7).mul_mod(u(6), u(5)), u(2));
        assert_eq!(u(7).mul_mod(u(6), U256::ZERO), U256::ZERO);
        // 2^255 * 2 == 2^256, and 2^256 mod (2^256 - 1) == 1.
        assert_eq!(U256::ONE.shl_bits(255).mul_mod(u(2), U256::MAX), U256::ONE);
        // MAX * MAX == (2^256 - 1)^2, divisible by MAX.
        assert_eq!(U256::MAX.mul_mod(U256::MAX, U256::MAX), U256::ZERO);
        // (2^256 - 1)^2 mod 2^256 is 1, but mod (2^256 - 2) it is again 1:
        // (m + 1)^2 = m^2 + 2m + 1 with m = 2^256 - 2... check via reference:
        // MAX = m + 1 where m = MAX - 1, so MAX^2 mod m = (1)^2 = 1.
        assert_eq!(
            U256::MAX.mul_mod(U256::MAX, U256::MAX - U256::ONE),
            U256::ONE
        );
    }

    #[test]
    fn abs_diff_symmetry() {
        assert_eq!(u(10).abs_diff(u(3)), u(7));
        assert_eq!(u(3).abs_diff(u(10)), u(7));
        assert_eq!(u(5).abs_diff(u(5)), U256::ZERO);
    }

    #[test]
    fn f64_conversion_monotone() {
        assert!(U256::MAX.to_f64_lossy() > u(1_000_000).to_f64_lossy());
        assert_eq!(u(42).to_f64_lossy(), 42.0);
    }

    #[test]
    fn bit_accessors() {
        let v = u(0b1001);
        assert!(v.bit(0));
        assert!(!v.bit(1));
        assert!(v.bit(3));
        assert!(!v.bit(255));
        assert!(!v.bit(300));
    }
}
