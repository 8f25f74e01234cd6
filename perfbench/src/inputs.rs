//! Seeded inputs. The program under test receives only what is built
//! here: kernels as textual DFG source (the form `workloads/*.dfg` files
//! and wire requests carry) and execution counts or weights drawn from
//! the run's `--seed`.

use rsp::kernel::Kernel;
use rsp::workload::{parse_kernel, print_kernel};

/// SplitMix64: small, seedable, and identical on every platform.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// DFG source text of each kernel.
pub(crate) fn sources(kernels: &[Kernel]) -> Vec<String> {
    kernels.iter().map(print_kernel).collect()
}

/// Reads an application: parses each kernel's DFG source.
pub(crate) fn read_app(sources: &[String]) -> Result<Vec<Kernel>, String> {
    sources
        .iter()
        .map(|src| parse_kernel(src).map_err(|e| e.to_string()))
        .collect()
}
