//! A seeded SplitMix64 generator: every input the benchmark hands the
//! program is derived from `--seed` through this, so one seed always
//! yields the same program, facts and operation streams.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EB2_A5EB_2A5E_B2A5)
    }

    /// An independent stream for `(seed, stream)`, e.g. one per client.
    pub fn stream(seed: u64, stream: u64) -> Self {
        Rng::new(mix(seed.wrapping_add(mix(stream.wrapping_add(1)))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// The SplitMix64 finalizer, also used to hash answer tuples.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
