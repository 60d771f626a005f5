//! The workspace's one seeded generator, and the runner for its
//! property tests.
//!
//! [`StdRng`] is ChaCha with 12 rounds behind a 4-block output buffer,
//! seeded from a `u64` by a PCG32 expansion. Its word order, seeding
//! and sampling algorithms are those of `rand` 0.8 / `rand_chacha` 0.3,
//! so it draws the streams the simulations drew when they used that
//! crate; the tests below pin them word for word.
//!
//! * [`StdRng::gen`] and [`StdRng::gen_range`] draw any [`Uniform`]
//!   type: a full-range integer or an `f64` in `[0, 1)`, or a uniform
//!   value in `low..high` or `low..=high` (widening-multiply rejection
//!   for integers, the 52-bit `[1, 2)` mantissa trick for `f64`).
//! * [`StdRng::gen_bool`] and [`StdRng::shuffle`] (Fisher–Yates from
//!   the end, with 32-bit index draws for small bounds).
//! * [`cases`] runs a property test: each case gets its own generator,
//!   seeded from the test's name and the case index.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

const BLOCK_WORDS: usize = 16;
const BUFFER_BLOCKS: usize = 4;
const BUFFER_WORDS: usize = BLOCK_WORDS * BUFFER_BLOCKS;
/// ChaCha constants: "expand 32-byte k".
const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The deterministic generator: ChaCha12, stream id 0.
#[derive(Clone, Debug)]
pub struct StdRng {
    key: [u32; 8],
    /// 64-bit block counter (words 12–13 of the ChaCha state).
    counter: u64,
    buf: [u32; BUFFER_WORDS],
    /// Next word to serve; `BUFFER_WORDS` means "buffer exhausted".
    index: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// One column round and one diagonal round.
#[inline(always)]
fn double_round(state: &mut [u32; BLOCK_WORDS]) {
    quarter_round(state, 0, 4, 8, 12);
    quarter_round(state, 1, 5, 9, 13);
    quarter_round(state, 2, 6, 10, 14);
    quarter_round(state, 3, 7, 11, 15);
    quarter_round(state, 0, 5, 10, 15);
    quarter_round(state, 1, 6, 11, 12);
    quarter_round(state, 2, 7, 8, 13);
    quarter_round(state, 3, 4, 9, 14);
}

impl StdRng {
    /// A generator keyed by the PCG32 expansion of `state`, as
    /// `rand_core` 0.6's `seed_from_u64` keys it.
    pub fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut key = [0u32; 8];
        for k in &mut key {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            *k = xorshifted.rotate_right((state >> 59) as u32);
        }
        StdRng {
            key,
            counter: 0,
            buf: [0; BUFFER_WORDS],
            index: BUFFER_WORDS,
        }
    }

    fn block(&self, counter: u64) -> [u32; BLOCK_WORDS] {
        let mut init = [0u32; BLOCK_WORDS];
        init[..4].copy_from_slice(&CONSTANTS);
        init[4..12].copy_from_slice(&self.key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;

        let mut state = init;
        // 12 rounds = 6 double rounds.
        for _ in 0..6 {
            double_round(&mut state);
        }
        for (s, i) in state.iter_mut().zip(init) {
            *s = s.wrapping_add(i);
        }
        state
    }

    /// Refill the buffer with the next 4 blocks and reset the cursor to
    /// `index`.
    fn generate_and_set(&mut self, index: usize) {
        for blk in 0..BUFFER_BLOCKS {
            let words = self.block(self.counter.wrapping_add(blk as u64));
            self.buf[blk * BLOCK_WORDS..(blk + 1) * BLOCK_WORDS].copy_from_slice(&words);
        }
        self.counter = self.counter.wrapping_add(BUFFER_BLOCKS as u64);
        self.index = index;
    }

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUFFER_WORDS {
            self.generate_and_set(0);
        }
        let value = self.buf[self.index];
        self.index += 1;
        value
    }

    /// Next 64 random bits: two consecutive words, little-endian. When
    /// exactly one word is left in the buffer, it is the low half and
    /// the first word of the refilled buffer the high half.
    fn next_u64(&mut self) -> u64 {
        let read =
            |buf: &[u32; BUFFER_WORDS], i: usize| u64::from(buf[i + 1]) << 32 | u64::from(buf[i]);
        if self.index < BUFFER_WORDS - 1 {
            let i = self.index;
            self.index += 2;
            read(&self.buf, i)
        } else if self.index >= BUFFER_WORDS {
            self.generate_and_set(2);
            read(&self.buf, 0)
        } else {
            let low = u64::from(self.buf[BUFFER_WORDS - 1]);
            self.generate_and_set(1);
            let high = u64::from(self.buf[0]);
            (high << 32) | low
        }
    }

    /// `T`'s standard value: any integer, or an `f64` in `[0, 1)`.
    #[inline]
    pub fn gen<T: Uniform>(&mut self) -> T {
        T::standard(self)
    }

    /// A uniform value in `range`, which is `low..high` or `low..=high`.
    ///
    /// # Panics
    ///
    /// If `range` is empty.
    #[inline]
    pub fn gen_range<T: Uniform>(&mut self, range: impl Into<Span<T>>) -> T {
        match range.into() {
            Span::Below(low, high) => {
                assert!(low < high, "cannot sample empty range");
                T::below(low, high, self)
            }
            Span::Through(low, high) => {
                assert!(low <= high, "cannot sample empty range");
                T::through(low, high, self)
            }
        }
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} outside [0, 1]");
        self.gen::<f64>() < p
    }

    /// Shuffle `slice` in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            slice.swap(i, self.gen_index(i + 1));
        }
    }

    /// An index below `ubound`, drawn through `u32` when the bound fits.
    #[inline]
    fn gen_index(&mut self, ubound: usize) -> usize {
        if ubound <= (u32::MAX as usize) {
            self.gen_range(0..ubound as u32) as usize
        } else {
            self.gen_range(0..ubound)
        }
    }
}

/// The range shapes [`StdRng::gen_range`] takes, so any other shape
/// (`..high`, `low..`) fails to compile.
pub enum Span<T> {
    /// `low..high`.
    Below(T, T),
    /// `low..=high`.
    Through(T, T),
}

impl<T> From<Range<T>> for Span<T> {
    #[inline]
    fn from(range: Range<T>) -> Self {
        Span::Below(range.start, range.end)
    }
}

impl<T> From<RangeInclusive<T>> for Span<T> {
    #[inline]
    fn from(range: RangeInclusive<T>) -> Self {
        let (low, high) = range.into_inner();
        Span::Through(low, high)
    }
}

/// A type [`StdRng`] draws: [`StdRng::gen`] returns its standard value,
/// [`StdRng::gen_range`] a uniform value between two bounds.
pub trait Uniform: Copy + PartialOrd {
    /// Any value for an integer, `[0, 1)` for `f64`.
    fn standard(rng: &mut StdRng) -> Self;
    /// A uniform value in `[low, high)`; `low < high`.
    fn below(low: Self, high: Self, rng: &mut StdRng) -> Self;
    /// A uniform value in `[low, high]`; `low <= high`.
    fn through(low: Self, high: Self, rng: &mut StdRng) -> Self;
}

/// A uniform offset below `range` (`range > 0`): widening multiply with
/// a conservative rejection zone computed from the range's leading
/// zeros.
#[inline]
fn offset_u32(range: u32, rng: &mut StdRng) -> u32 {
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    loop {
        let m = u64::from(rng.next_u32()) * u64::from(range);
        if m as u32 <= zone {
            return (m >> 32) as u32;
        }
    }
}

/// [`offset_u32`] for 64-bit ranges.
#[inline]
fn offset_u64(range: u64, rng: &mut StdRng) -> u64 {
    let zone = (range << range.leading_zeros()).wrapping_sub(1);
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(range);
        if m as u64 <= zone {
            return (m >> 64) as u64;
        }
    }
}

/// `$ty` draws its standard value from one `$next` word and its range
/// offsets with `$offset`, over `$large`, the range measured as
/// `$unsigned`.
macro_rules! uniform_int {
    ($($ty:ty, $unsigned:ty, $large:ty, $next:ident, $offset:ident;)*) => {$(
        impl Uniform for $ty {
            #[inline]
            fn standard(rng: &mut StdRng) -> $ty {
                rng.$next() as $ty
            }

            #[inline]
            fn below(low: $ty, high: $ty, rng: &mut StdRng) -> $ty {
                let range = high.wrapping_sub(low) as $unsigned as $large;
                low.wrapping_add($offset(range, rng) as $ty)
            }

            #[inline]
            fn through(low: $ty, high: $ty, rng: &mut StdRng) -> $ty {
                let range = (high.wrapping_sub(low) as $unsigned as $large).wrapping_add(1);
                if range == 0 {
                    // The whole type's range: any value is in bounds.
                    return Self::standard(rng);
                }
                low.wrapping_add($offset(range, rng) as $ty)
            }
        }
    )*};
}

uniform_int! {
    u8, u8, u32, next_u32, offset_u32;
    u16, u16, u32, next_u32, offset_u32;
    u32, u32, u32, next_u32, offset_u32;
    u64, u64, u64, next_u64, offset_u64;
    i64, u64, u64, next_u64, offset_u64;
    usize, usize, u64, next_u64, offset_u64;
}

impl Uniform for f64 {
    /// 53-bit-precision multiply: `(x >> 11) * 2^-53`.
    #[inline]
    fn standard(rng: &mut StdRng) -> f64 {
        let scale = 1.0 / ((1u64 << 53) as f64);
        (rng.next_u64() >> 11) as f64 * scale
    }

    /// A value in `[1, 2)` from 52 mantissa bits, shifted into
    /// `value0_1 * scale + low`.
    #[inline]
    fn below(low: f64, high: f64, rng: &mut StdRng) -> f64 {
        let mut scale = high - low;
        debug_assert!(scale.is_finite(), "range must be finite");
        loop {
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let value0_1 = value1_2 - 1.0;
            let res = value0_1 * scale + low;
            if res < high {
                return res;
            }
            // Rounding pushed the result to `high`: shrink the scale
            // one ULP and retry (rare).
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }

    /// As [`Uniform::below`]: `high` itself is never drawn.
    #[inline]
    fn through(low: f64, high: f64, rng: &mut StdRng) -> f64 {
        if low == high {
            return low;
        }
        Self::below(low, high, rng)
    }
}

/// Run the property test `name` for `n` cases. Each case calls `case`
/// with a fresh generator seeded from `name` and the case index, so
/// every run of the suite replays the same inputs. A failing case
/// prints `name`, its index and its seed, then re-raises the panic;
/// `case(&mut StdRng::seed_from_u64(seed))` replays that case alone.
pub fn cases(n: u32, name: &str, mut case: impl FnMut(&mut StdRng)) {
    for index in 0..n {
        let seed = case_seed(name, index);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            eprintln!("cases: `{name}` failed at case {index} of {n}, seed {seed:#018x}");
            panic::resume_unwind(payload);
        }
    }
}

/// FNV-1a of the test name, XOR the case index scaled by the 64-bit
/// golden ratio.
fn case_seed(name: &str, index: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^ u64::from(index).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `csig_netsim::rng::derive_seed(0, 0)`: the seed of `stream_rng(0, 0)`.
    const STREAM_0_0: u64 = 0xb1a6_d212_199b_7394;

    /// The values below were drawn from the `rand` 0.8-compatible
    /// generator this crate replaced; any change to them changes every
    /// simulation stream.
    #[test]
    fn streams_are_pinned() {
        let mut rng = StdRng::seed_from_u64(STREAM_0_0);
        let words: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        #[rustfmt::skip]
        let want: [u64; 64] = [
            0x981fca83ff43ac5e, 0x808c4c000bf637bf, 0x88385ef6b081d731, 0xab9ef5839c42d23b,
            0x2eaabc48ba37d36c, 0x8e81122ad5b49a2f, 0x8cc798ed70e6a38e, 0x84c587b5add9fd50,
            0x53b33d5315d3ebfe, 0x9c0ddf8c5e80bc64, 0x5890b4ab9a1721ab, 0x4bc4f6df50ab785b,
            0x18fb6a3645ff9ad6, 0xa399f6b20e7ef391, 0x3decad9717c2af56, 0x26f8d6e3414072c4,
            0x2044a703af8daac0, 0xe77b1f2c0940f839, 0xcbcdbc1b8945519b, 0x9eadeb91f0351a61,
            0xc99878244bc498b4, 0xc2a22ec1bff65eb6, 0x415925d11bbc3ceb, 0x691e5b25766da4ca,
            0x6e3f5739e3b4d141, 0x09f7909cb3193239, 0x135fbf720adaa891, 0x094c9eba25b4709b,
            0xfcc573e3c67809ac, 0xa0970e284bc7f24b, 0x506849c3fa2ee989, 0xba7f851753e6b36c,
            0x75f6b64a6c5bcbef, 0x8892ecb616e875a1, 0x119275e7fa059227, 0x3903ec94b3befd71,
            0x4e7103874f4f4641, 0x65dc74d0547cdeed, 0x2184bda860696192, 0x79f7499a426e272f,
            0x640b8631f930180d, 0x54ebe45ae3b14937, 0x8720c99c7206fd7d, 0xfa1914f7606d29e4,
            0xb72800bd76235359, 0x1739c53e28b5d6ff, 0xa0becc66eb08cbaa, 0xbd1c6f1a1862c921,
            0x5ce26833754c6cec, 0xbdf8a26a4a149987, 0x8fc830b971b32419, 0x8f95a54c83f14dc1,
            0xc5332a638c4e588d, 0x1c8f00293550d8d8, 0x6d57f5ae8eca2b25, 0xd02813f334ed5c6d,
            0x8a60fee446b2b440, 0xde805385435c04c1, 0x4c9ff90705e3b5f4, 0xbebe5522a32e5135,
            0x52efef8bc0644cdc, 0x3fb64daf0ad8cb8c, 0x8899a51295b54e16, 0xe76d416447a1fe2a,
        ];
        assert_eq!(words, want);

        // Words and half-words across both kinds of refill: a u64 split
        // over the buffer's end, then one starting a fresh buffer.
        let mut rng = StdRng::seed_from_u64(7);
        let first: Vec<u32> = (0..4).map(|_| rng.next_u32()).collect();
        assert_eq!(first, [0x6aa8fbbe, 0x07c2e0e9, 0x247e5f86, 0x4e9d34e8]);
        for _ in 4..BUFFER_WORDS - 1 {
            rng.next_u32();
        }
        assert_eq!(rng.next_u64(), 0x2b97760a765ee051);
        assert_eq!(rng.next_u32(), 0xf4b787cb);
        assert_eq!(rng.next_u64(), 0x4ef311e21602b1ae);
        for _ in 0..30 {
            rng.next_u64();
        }
        assert_eq!(rng.next_u64(), 0x094efbe45bf14034);
        assert_eq!(rng.next_u32(), 0xb1938828);

        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(rng.gen_range(0u32..10), 2);
        assert_eq!(rng.gen_range(40u32..3000), 1694);
        assert_eq!(rng.gen_range(0u64..(1 << 50)), 720084935078900);
        assert_eq!(rng.gen_range(5u64..=15), 7);
        assert_eq!(rng.gen_range(0usize..5), 4);
        assert_eq!(rng.gen_range(1usize..=199), 169);
        assert_eq!(rng.gen_range(0u8..6), 2);
        assert_eq!(rng.gen_range(-100_000i64..100_000), 88179);
        assert_eq!(rng.gen_range(0u64..=u64::MAX), 17231189810845375959);
        assert_eq!(rng.gen_range(-1e6f64..1e6).to_bits(), 0x41220ff8773045d0);
        assert_eq!(rng.gen_range(0.1f64..1e4).to_bits(), 0x40b7fba3721ed2c3);
        assert_eq!(rng.gen_range(1.5f64..2.5).to_bits(), 0x400257b2e4f5978a);

        let mut rng = StdRng::seed_from_u64(12);
        let mask = (0..16).fold(0u32, |m, i| m | u32::from(rng.gen_bool(0.3)) << i);
        assert_eq!(mask, 0x5510);

        let mut rng = StdRng::seed_from_u64(13);
        let mut v: Vec<u32> = (0..10).collect();
        rng.shuffle(&mut v);
        assert_eq!(v, [0, 8, 4, 6, 3, 1, 7, 2, 9, 5]);

        let mut rng = StdRng::seed_from_u64(14);
        assert_eq!(rng.gen::<f64>().to_bits(), 0x3fe1f30b757ae4c4);
        assert_eq!(rng.gen::<f64>().to_bits(), 0x3feb8b392669c23c);
        assert_eq!(rng.gen::<u64>(), 0x9db16e134ee42ee9);
        assert_eq!(rng.gen::<u8>(), 45);
        assert_eq!(rng.gen::<u16>(), 30655);

        let first = StdRng::seed_from_u64(case_seed("prop_lt_antisymmetric", 3)).next_u64();
        assert_eq!(first, 0x55cd823559397bbc);
    }

    /// RFC 8439 §2.3.2: the ChaCha20 block (10 double rounds) of the
    /// RFC's key, counter and nonce. ChaCha12 shares its round and
    /// state layout, so this guards both.
    #[test]
    fn chacha20_block_matches_rfc8439() {
        let mut init = [0u32; BLOCK_WORDS];
        init[..4].copy_from_slice(&CONSTANTS);
        for (i, k) in init[4..12].iter_mut().enumerate() {
            let b = 4 * i as u8;
            *k = u32::from_le_bytes([b, b + 1, b + 2, b + 3]);
        }
        init[12] = 1; // counter
        init[13] = 0x0900_0000;
        init[14] = 0x4a00_0000;
        let mut state = init;
        for _ in 0..10 {
            double_round(&mut state);
        }
        for (s, i) in state.iter_mut().zip(init) {
            *s = s.wrapping_add(i);
        }
        assert_eq!(state[0], 0xe4e7_f110);
        assert_eq!(state[1], 0x1559_3bd1);
        assert_eq!(state[15], 0x4e3c_50a2);
    }

    #[test]
    fn word_order_is_block_sequential() {
        // Consuming 64 u32s must equal the 4 blocks at counters 0..4.
        let mut rng = StdRng::seed_from_u64(7);
        let reference = rng.clone();
        for blk in 0..4u64 {
            for w in reference.block(blk) {
                assert_eq!(rng.next_u32(), w);
            }
        }
    }

    #[test]
    fn split_u64_read_spans_refills() {
        // Consume 63 u32s, then a u64: it must take the last word of
        // the old buffer as the low half and the first word of the new
        // buffer as the high half.
        let mut rng = StdRng::seed_from_u64(9);
        let probe = rng.clone();
        for _ in 0..BUFFER_WORDS - 1 {
            rng.next_u32();
        }
        let old_last = probe.block(3)[15];
        let new_first = probe.block(4)[0];
        let expect = (u64::from(new_first) << 32) | u64::from(old_last);
        assert_eq!(rng.next_u64(), expect);
    }

    #[test]
    fn seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn draws_respect_bounds() {
        let mut r = StdRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = r.gen_range(5u64..=15);
            assert!((5..=15).contains(&w));
            let i = r.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&i));
            let f = r.gen_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&f));
        }
    }

    #[test]
    fn inclusive_range_reaches_both_ends() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            match rng.gen_range(5u64..=15) {
                5 => lo_seen = true,
                15 => hi_seen = true,
                _ => {}
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = StdRng::seed_from_u64(5);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.gen_range(0usize..10)] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "bucket fraction {frac}");
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let run = |seed| {
            let mut v: Vec<u32> = (0..100).collect();
            StdRng::seed_from_u64(seed).shuffle(&mut v);
            v
        };
        let v = run(21);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice sorted");
        assert_eq!(run(21), v);
        assert_ne!(run(22), v);
    }

    #[test]
    fn case_rngs_are_stable_and_distinct() {
        let word = |name, case| StdRng::seed_from_u64(case_seed(name, case)).next_u64();
        assert_eq!(word("t", 0), word("t", 0));
        assert_ne!(word("t", 0), word("t", 1));
        assert_ne!(word("t", 0), word("u", 0));
    }

    #[test]
    fn a_failing_case_re_raises_its_panic() {
        let mut ran = 0;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            cases(8, "fails_at_case_2", |_| {
                ran += 1;
                assert!(ran < 3, "case 2 fails");
            })
        }));
        assert!(outcome.is_err());
        assert_eq!(ran, 3);
    }
}
