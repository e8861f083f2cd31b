//! Workload inputs, made from the seed alone.
//!
//! The program under test receives only what this module generates: the
//! prefill key sequence and one operation list per core. The streams are
//! the figure runners' (`caharness::runner`): a SplitMix64-expanded Lehmer
//! generator per core, seeded from `(seed, core)`, keys uniform in
//! `1..=key_range`, a 50/50 roll between insert and delete, and a prefill
//! that draws keys until half the range is present. They are re-implemented
//! here so that a change to the program cannot change its own inputs.

use std::collections::BTreeSet;

/// One set operation of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Insert(u64),
    Delete(u64),
}

/// Everything one workload feeds the program.
pub struct Inputs {
    pub key_range: u64,
    /// Keys inserted on one core before the timed phase, duplicates
    /// included (an insert of a present key returns false).
    pub prefill: Vec<u64>,
    /// The timed phase: `ops[c]` runs on core (or host thread) `c`.
    pub ops: Vec<Vec<Op>>,
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// 128-bit Lehmer generator with Lemire's unbiased bounded draw.
struct Lehmer(u128);

impl Lehmer {
    fn new(seed: u64) -> Self {
        let mut sm = SplitMix64(seed);
        let lo = sm.next();
        let hi = sm.next();
        Lehmer(((hi as u128) << 64 | lo as u128) | 1)
    }

    fn below(&mut self, bound: u64) -> u64 {
        loop {
            self.0 = self.0.wrapping_mul(0xDA94_2042_E4DD_58B5);
            let x = (self.0 >> 64) as u64;
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }
}

/// Seed of stream `stream` (a core id; `usize::MAX` is the prefill).
fn stream_seed(seed: u64, stream: usize) -> u64 {
    SplitMix64(seed ^ (stream as u64).wrapping_mul(0x9E37_79B9)).next()
}

impl Inputs {
    pub fn generate(seed: u64, cores: usize, key_range: u64, ops_per_core: usize) -> Self {
        let mut rng = Lehmer::new(stream_seed(seed, usize::MAX));
        let mut present = BTreeSet::new();
        let mut prefill = Vec::new();
        while (present.len() as u64) < key_range / 2 {
            let key = 1 + rng.below(key_range);
            present.insert(key);
            prefill.push(key);
        }
        let ops = (0..cores)
            .map(|c| {
                let mut rng = Lehmer::new(stream_seed(seed, c));
                (0..ops_per_core)
                    .map(|_| {
                        let key = 1 + rng.below(key_range);
                        if rng.below(100) < 50 {
                            Op::Insert(key)
                        } else {
                            Op::Delete(key)
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            key_range,
            prefill,
            ops,
        }
    }

    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    /// The same operations on one core: core 0's list, then core 1's, ...
    pub fn sequential(&self) -> Inputs {
        Inputs {
            key_range: self.key_range,
            prefill: self.prefill.clone(),
            ops: vec![self.ops.concat()],
        }
    }

    /// What a `BTreeSet` returns for the prefill and, in the order of
    /// [`Inputs::sequential`], for every operation.
    pub fn reference_results(&self) -> (Vec<bool>, Vec<bool>) {
        let mut set = BTreeSet::new();
        let prefill = self.prefill.iter().map(|&k| set.insert(k)).collect();
        let ops = self
            .ops
            .iter()
            .flatten()
            .map(|&op| match op {
                Op::Insert(k) => set.insert(k),
                Op::Delete(k) => set.remove(&k),
            })
            .collect();
        (prefill, ops)
    }
}
