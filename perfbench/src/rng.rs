//! Seeded input generator: every string, flag and field name the
//! workloads feed the system is drawn from here, so one seed always gives
//! the same inputs.

/// SplitMix64: small, fast, and good enough to vary benchmark inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Lowercase letters and digits, starting with a letter.
    pub fn ident(&mut self, min: u64, max: u64) -> String {
        const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
        const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let len = self.range(min, max) as usize;
        let mut s = String::with_capacity(len);
        s.push(FIRST[self.range(0, FIRST.len() as u64 - 1) as usize] as char);
        for _ in 1..len {
            s.push(REST[self.range(0, REST.len() as u64 - 1) as usize] as char);
        }
        s
    }
}
