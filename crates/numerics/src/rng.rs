//! Seedable pseudo-random number generation.
//!
//! The workspace never touches OS entropy: every stochastic routine takes a
//! `&mut impl Rng`, and every experiment binary constructs its generators
//! from explicit seeds, so all results in `EXPERIMENTS.md` are reproducible
//! bit for bit.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny 64-bit state generator used to expand a user
//!   seed into the 256-bit state required by Xoshiro (as recommended by the
//!   Xoshiro authors) and as a cheap generator for tests.
//! * [`Xoshiro256`] — `xoshiro256++`, the workhorse generator. It passes
//!   BigCrush and has a 2^256 − 1 period, which is more than sufficient for
//!   the hundreds of millions of draws the auditing experiments make.

/// A deterministic source of uniform random 64-bit words.
///
/// All stochastic code in the workspace is generic over this trait, so
/// tests can substitute counters or fixed sequences where useful.
pub trait Rng {
    /// Produce the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in the half-open interval `[0, 1)`.
    ///
    /// Uses the top 53 bits of [`Rng::next_u64`], giving exactly the set of
    /// representable multiples of 2⁻⁵³.
    fn next_f64(&mut self) -> f64 {
        // 53 random bits / 2^53: uniform on the dyadic grid in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in the open interval `(0, 1)`.
    ///
    /// Useful for inverse-CDF sampling where `ln(0)` must be avoided.
    fn next_open_f64(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's widening-multiply rejection method, which is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Lemire 2018: multiply-shift with rejection of the biased zone.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform index in `[0, len)`, convenient for slice indexing.
    fn next_index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0,1]`).
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Shuffle a slice in place with the Fisher–Yates algorithm.
    ///
    /// `Self: Sized` keeps the trait dyn-compatible (generic methods
    /// cannot live in a vtable); call it on concrete generators, or
    /// reborrow `&mut *dyn_rng` through a `Rng for &mut R` adapter.
    fn shuffle<T>(&mut self, xs: &mut [T])
    where
        Self: Sized,
    {
        for i in (1..xs.len()).rev() {
            let j = self.next_index(i + 1);
            xs.swap(i, j);
        }
    }
}

/// Shuffle a slice in place with Fisher–Yates. Free-function form of
/// [`Rng::shuffle`] usable through unsized generators (`&mut dyn Rng`).
pub fn shuffle_in_place<R: Rng + ?Sized, T>(rng: &mut R, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.next_index(i + 1);
        xs.swap(i, j);
    }
}

/// SplitMix64: a 64-bit state generator with good avalanche behaviour.
///
/// Primarily used to seed [`Xoshiro256`] and to derive independent
/// sub-streams from a single experiment seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        // Constants from Steele, Lea & Flood (2014).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// `xoshiro256++` by Blackman & Vigna: the default generator for the
/// workspace.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Create a generator by expanding `seed` through [`SplitMix64`],
    /// as the Xoshiro reference implementation recommends.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // An all-zero state is the lone fixed point; SplitMix64 cannot
        // produce four consecutive zeros in practice, but be defensive.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256 { s }
    }

    /// Derive the `k`-th independent sub-stream of this generator's seed.
    ///
    /// Used by the experiment harnesses to give each trial its own
    /// generator so that trials can be reordered or parallelized without
    /// changing results.
    pub fn substream(seed: u64, k: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let base = sm.next_u64();
        Xoshiro256::seed_from(base ^ k.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// The published `xoshiro256` jump polynomial: advances 2¹²⁸ steps.
    const JUMP: [u64; 4] = [
        0x180e_c6d3_3cfd_0aba,
        0xd5a6_1266_f0c9_392c,
        0xa958_2618_e03f_c9aa,
        0x39ab_dc45_29b1_661c,
    ];

    /// The published long-jump polynomial: advances 2¹⁹² steps.
    const LONG_JUMP: [u64; 4] = [
        0x76e1_5d3e_fefd_cbbf,
        0xc500_4e44_1c52_2fb3,
        0x7771_0069_854e_e241,
        0x3910_9bb0_2acb_e635,
    ];

    /// Advance this generator by 2¹²⁸ steps with 64 table lookups.
    ///
    /// A jump is a fixed linear map over GF(2), so it is applied as the
    /// XOR of 64 precomputed images, one per 4-bit nibble of the state
    /// — bit-identical to stepping the generator 256 times through the
    /// published jump polynomial. The 32 KiB table is built at compile
    /// time.
    ///
    /// Repeated jumps partition the full 2²⁵⁶ − 1 period into
    /// non-overlapping segments of 2¹²⁸ draws each — the workspace's
    /// mechanism for handing every parallel chunk its own statistically
    /// independent stream (see [`Xoshiro256::jump_streams`]).
    pub fn jump(&mut self) {
        self.s = JUMP_TABLE.apply(self.s);
    }

    /// Advance this generator by 2¹⁹² steps — the coarse counterpart of
    /// [`Xoshiro256::jump`], useful for partitioning work across
    /// machines, each of which then sub-partitions with `jump`. Applied
    /// through the same kind of nibble table.
    pub fn long_jump(&mut self) {
        self.s = LONG_JUMP_TABLE.apply(self.s);
    }

    /// Derive `n` statistically independent generators from one seed:
    /// stream `k` starts 2¹²⁸·k draws into the master sequence, so the
    /// streams cannot overlap for any realistic draw count.
    ///
    /// This is the deterministic stream-splitting API used by
    /// `dplearn-parallel` call sites: chunk `k` always receives stream
    /// `k` regardless of how chunks are scheduled across threads.
    pub fn jump_streams(seed: u64, n: usize) -> Vec<Xoshiro256> {
        let mut stream = Xoshiro256::seed_from(seed);
        let mut streams = Vec::with_capacity(n);
        for k in 0..n {
            if k > 0 {
                stream.jump();
            }
            streams.push(stream.clone());
        }
        streams
    }
}

/// The `xoshiro256` state transition (the linear engine shared by every
/// output variant). `const` so the jump tables can be built at compile
/// time from the same code [`Xoshiro256::next_u64`] runs.
#[allow(clippy::manual_rotate)] // See the comment on the last line.
const fn step([s0, s1, s2, s3]: [u64; 4]) -> [u64; 4] {
    let t = s1 << 17;
    let s2 = s2 ^ s0;
    let s3 = s3 ^ s1;
    let s1 = s1 ^ s2;
    let s0 = s0 ^ s3;
    // `s3.rotate_left(45)`, spelled out: the intrinsic call doubles the
    // compile-time cost of building the jump tables, and LLVM emits the
    // same `rol` for either form.
    [s0, s1, s2 ^ t, (s3 << 45) | (s3 >> 19)]
}

const fn xor(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

/// Apply a jump polynomial bit-serially: the new state is the linear
/// combination (over GF(2)) of the states visited while stepping,
/// selected by the polynomial's bits — the standard Blackman–Vigna
/// construction. 256 steps; used only to build the [`JumpTable`]s and
/// as their test oracle.
#[allow(clippy::indexing_slicing)] // `bit < 256` bounds `bit / 64`.
const fn apply_polynomial(poly: [u64; 4], mut s: [u64; 4]) -> [u64; 4] {
    let [mut a0, mut a1, mut a2, mut a3] = [0u64; 4];
    let mut bit = 0;
    while bit < 256 {
        if (poly[bit / 64] >> (bit % 64)) & 1 != 0 {
            // Scalar XORs rather than `xor()`: calls are costly in
            // compile-time evaluation.
            a0 ^= s[0];
            a1 ^= s[1];
            a2 ^= s[2];
            a3 ^= s[3];
        }
        s = step(s);
        bit += 1;
    }
    [a0, a1, a2, a3]
}

/// A jump polynomial tabulated by state nibble: entry `[p][v]` is the
/// jumped image of the state whose only set bits are `v` at nibble
/// position `p` (bits `4p..4p+4`). By linearity the jump of any state is
/// the XOR of its 64 nibbles' entries. 64 × 16 × 256 bits = 32 KiB.
struct JumpTable([[[u64; 4]; 16]; 64]);

impl JumpTable {
    /// Tabulate `poly` from the images of the 256 basis states.
    #[allow(clippy::indexing_slicing)] // Loop bounds prove every index.
    const fn build(poly: [u64; 4]) -> Self {
        let mut table = [[[0u64; 4]; 16]; 64];
        let mut p = 0;
        while p < 64 {
            let mut basis = [[0u64; 4]; 4];
            let mut b = 0;
            while b < 4 {
                let bit = 4 * p + b;
                let mut e = [0u64; 4];
                e[bit / 64] = 1u64 << (bit % 64);
                basis[b] = apply_polynomial(poly, e);
                b += 1;
            }
            // Entry v = entry (v minus its lowest set bit) ⊕ that bit's image.
            let mut v = 1;
            while v < 16 {
                let low = (v as u32).trailing_zeros() as usize;
                table[p][v] = xor(table[p][v & (v - 1)], basis[low]);
                v += 1;
            }
            p += 1;
        }
        JumpTable(table)
    }

    /// The jumped image of `s`: 64 lookups and XORs.
    fn apply(&self, s: [u64; 4]) -> [u64; 4] {
        let mut acc = [0u64; 4];
        for (rows, word) in self.0.chunks_exact(16).zip(s) {
            for (k, row) in rows.iter().enumerate() {
                // A 4-bit mask indexes a 16-entry row: bounds-proven.
                #[allow(clippy::indexing_slicing)]
                let image = row[((word >> (4 * k)) & 0xF) as usize];
                acc = xor(acc, image);
            }
        }
        acc
    }
}

static JUMP_TABLE: JumpTable = JumpTable::build(Xoshiro256::JUMP);
static LONG_JUMP_TABLE: JumpTable = JumpTable::build(Xoshiro256::LONG_JUMP);

impl Rng for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        *s = step(*s);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // SplitMix64 implementation.
        let mut r = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(got[0], 6457827717110365317);
        assert_eq!(got[1], 3203168211198807973);
        assert_eq!(got[2], 9817491932198370423);
    }

    #[test]
    fn xoshiro_jump_reference_vector() {
        // The published xoshiro256 jump polynomials from Blackman &
        // Vigna's reference implementation (they depend only on the
        // shared linear engine, so they are identical for the ++, **,
        // and + output variants). Guards the constants against edits.
        assert_eq!(
            Xoshiro256::JUMP,
            [
                0x180ec6d33cfd0aba,
                0xd5a61266f0c9392c,
                0xa9582618e03fc9aa,
                0x39abdc4529b1661c
            ]
        );
        assert_eq!(
            Xoshiro256::LONG_JUMP,
            [
                0x76e15d3efefdcbbf,
                0xc5004e441c522fb3,
                0x77710069854ee241,
                0x39109bb02acbe635
            ]
        );

        // Independent verification that the polynomials advance the
        // engine by exactly 2^128 (resp. 2^192) steps. The xoshiro state
        // transition is linear over GF(2); represent it as a 256×256 bit
        // matrix in column form (column j = step applied to basis state
        // e_j) and raise it to the 2^128-th power by repeated squaring.
        type Mat = Vec<[u64; 4]>; // 256 columns, each a 256-bit state

        fn step(mut s: [u64; 4]) -> [u64; 4] {
            let mut g = Xoshiro256 { s };
            g.next_u64();
            s = g.s;
            s
        }

        fn apply(m: &Mat, v: &[u64; 4]) -> [u64; 4] {
            let mut acc = [0u64; 4];
            for j in 0..256 {
                if v[j / 64] & (1u64 << (j % 64)) != 0 {
                    for (a, c) in acc.iter_mut().zip(&m[j]) {
                        *a ^= c;
                    }
                }
            }
            acc
        }

        fn square(m: &Mat) -> Mat {
            (0..256).map(|j| apply(m, &m[j])).collect()
        }

        let transition: Mat = (0..256)
            .map(|j| {
                let mut e = [0u64; 4];
                e[j / 64] = 1u64 << (j % 64);
                step(e)
            })
            .collect();

        // Sanity: the matrix reproduces a real engine step.
        let probe = Xoshiro256::seed_from(0xDEAD_BEEF).s;
        assert_eq!(apply(&transition, &probe), step(probe));

        // T^(2^128) after 128 squarings; 64 more give T^(2^192).
        let mut power = transition;
        for _ in 0..128 {
            power = square(&power);
        }
        let start = Xoshiro256::seed_from(1234567);
        let mut jumped = start.clone();
        jumped.jump();
        assert_eq!(jumped.s, apply(&power, &start.s), "jump() != T^(2^128)");

        for _ in 0..64 {
            power = square(&power);
        }
        let mut long_jumped = start.clone();
        long_jumped.long_jump();
        assert_eq!(
            long_jumped.s,
            apply(&power, &start.s),
            "long_jump() != T^(2^192)"
        );
    }

    #[test]
    fn jump_streams_are_deterministic_and_distinct() {
        let a = Xoshiro256::jump_streams(42, 4);
        let b = Xoshiro256::jump_streams(42, 4);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.s, y.s);
        }
        // Stream 0 is exactly the plain seeded generator.
        assert_eq!(a[0].s, Xoshiro256::seed_from(42).s);
        // All pairs distinct, and each stream produces distinct output.
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(a[i].s, a[j].s, "streams {i} and {j} collide");
            }
        }
        let outputs: Vec<Vec<u64>> = a
            .into_iter()
            .map(|mut g| (0..8).map(|_| g.next_u64()).collect())
            .collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(outputs[i], outputs[j]);
            }
        }
    }

    #[test]
    fn table_jumps_match_the_bit_serial_polynomial() {
        fn check(state: [u64; 4]) {
            let mut g = Xoshiro256 { s: state };
            g.jump();
            assert_eq!(g.s, apply_polynomial(Xoshiro256::JUMP, state));
            let mut g = Xoshiro256 { s: state };
            g.long_jump();
            assert_eq!(g.s, apply_polynomial(Xoshiro256::LONG_JUMP, state));
        }
        for bit in 0..256 {
            let mut e = [0u64; 4];
            e[bit / 64] = 1u64 << (bit % 64);
            check(e);
        }
        let mut sm = SplitMix64::new(0x0123_4567_89AB_CDEF);
        for _ in 0..10_000 {
            check([sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()]);
        }
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256::seed_from(7);
        let mut b = Xoshiro256::seed_from(7);
        let mut c = Xoshiro256::seed_from(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut r = Xoshiro256::seed_from(99);
        for _ in 0..10_000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn next_f64_mean_is_about_half() {
        let mut r = Xoshiro256::seed_from(3);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean={mean}");
    }

    #[test]
    fn next_below_is_unbiased_over_small_range() {
        let mut r = Xoshiro256::seed_from(11);
        let mut counts = [0usize; 5];
        let n = 250_000;
        for _ in 0..n {
            counts[r.next_below(5) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.2).abs() < 0.01, "frac={frac}");
        }
    }

    #[test]
    #[should_panic(expected = "positive bound")]
    fn next_below_zero_panics() {
        let mut r = SplitMix64::new(1);
        let _ = r.next_below(0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256::seed_from(5);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
        // With overwhelming probability the order changed.
        assert_ne!(xs, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn substreams_are_distinct() {
        let mut a = Xoshiro256::substream(42, 0);
        let mut b = Xoshiro256::substream(42, 1);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn open_interval_never_returns_zero() {
        let mut r = Xoshiro256::seed_from(17);
        for _ in 0..10_000 {
            assert!(r.next_open_f64() > 0.0);
        }
    }
}
