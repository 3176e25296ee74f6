//! A fixed reference kernel that measures how fast the machine runs right
//! now, so that CPU-time figures can be stated at one reference speed.
//!
//! On a shared host the same code's CPU time drifts by tens of percent
//! between runs (NOTES.md, "Noise"), and every CPU-time figure of a run
//! drifts with it by nearly the same factor. The kernel is the benchmark's
//! own code and never calls into the system under test, so a change to
//! the program cannot move it. Its inputs are fixed, not drawn from
//! `--seed`: it is the ruler, and every run holds the same one.

use std::collections::HashMap;
use std::hint::black_box;

use crate::machine;
use crate::rng::Rng;

/// About the kernel's CPU time on the sizing machine (2 vCPUs of a shared
/// host) at its usual speed, in ns.
/// Normalised figures are stated at this speed: a figure is multiplied by
/// `REFERENCE_NS` over the run's own median kernel time.
pub const REFERENCE_NS: f64 = 350_000.0;

/// Timed runs per measurement.
const TIMED_RUNS: usize = 3;

/// Fixed inputs of the kernel, built once per process.
pub struct Kernel {
    keys: Vec<u64>,
    bytes: Vec<u8>,
    big: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Kernel {
        let mut rng = Rng::new(0x5EED_CA11_B8A7_E000);
        Kernel {
            keys: (0..2048).map(|_| rng.next_u64()).collect(),
            bytes: (0..8192).map(|_| rng.next_u64() as u8).collect(),
            big: (0..32 * 1024).map(|_| rng.next_u64()).collect(),
        }
    }

    /// Runs the kernel once to load its data into the caches, whatever
    /// the system left there, then [`TIMED_RUNS`] more times, and returns
    /// the least CPU time one of those took, in ns: an interrupt can only
    /// lengthen a run.
    pub fn measure(&self) -> u64 {
        self.body();
        (0..TIMED_RUNS)
            .map(|_| {
                let c0 = machine::process_cpu_ns();
                self.body();
                machine::process_cpu_ns() - c0
            })
            .min()
            .expect("at least one timed run")
    }

    /// The mix follows the system's own work: branchy sorting, hashing and
    /// allocation, string formatting, a bitwise CRC-32 over bytes, and a
    /// pass over 256 KB that leaves the core's first-level caches.
    fn body(&self) {
        let mut v = self.keys.clone();
        v.sort_unstable();
        let mut map: HashMap<u64, usize> = HashMap::with_capacity(64);
        for (i, k) in self.keys.iter().enumerate() {
            map.insert(k >> 3, i);
        }
        let found = v.iter().filter(|k| map.contains_key(&(**k >> 3))).count();
        let names: Vec<String> = v.iter().step_by(8).map(|k| format!("f{k:x}")).collect();
        let joined = names.join(",");
        let crc = crc32(&self.bytes) ^ crc32(joined.as_bytes());
        let mut acc = 0u64;
        for (i, x) in self.big.iter().enumerate().step_by(4) {
            acc = acc.rotate_left(5) ^ x.wrapping_add(i as u64);
        }
        black_box((found, crc, acc));
    }
}

/// Bitwise CRC-32 (IEEE), the form `echo::proto` uses.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & 0u32.wrapping_sub(crc & 1));
        }
    }
    !crc
}
