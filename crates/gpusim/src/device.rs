//! Device specifications for the simulated SIMT processor.
//!
//! The preset [`DeviceSpec::tesla_c2050`] matches the card the paper
//! benchmarks on (§4): "The processor clock of the NVIDIA Tesla C2050
//! Computing Processor runs at 1147 Mhz. The graphics card has 14
//! multiprocessors, each with 32 cores, for a total of 448 cores."
//! Remaining figures come from the Fermi (GF100, compute capability 2.0)
//! whitepaper and the CUDA 4.0 programming guide the paper used.

/// Static description of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    pub name: String,
    /// Streaming multiprocessors (SMs).
    pub sm_count: u32,
    /// Scalar cores per SM.
    pub cores_per_sm: u32,
    /// Threads per warp.
    pub warp_size: u32,
    /// Shader clock in Hz.
    pub clock_hz: f64,
    /// Shared memory per SM in bytes (Fermi: 48 KiB in the
    /// shared-preferred configuration the paper's §3.2 arithmetic uses:
    /// "49,152" bytes).
    pub shared_mem_per_sm: usize,
    /// Global memory in bytes (C2050: 3 GiB of GDDR5). Bounds the
    /// device buffers an engine may size for its capacity.
    pub global_mem: usize,
    /// Constant memory in bytes (the paper: "the capacity of the
    /// constant memory, 65,536 bytes").
    pub constant_mem: usize,
    /// Bytes of constant memory reserved by the runtime for kernel
    /// arguments and launch metadata; user data must fit in
    /// `constant_mem - constant_reserved`. This models why the paper
    /// could not fit 2,048 k=16 monomials whose payload alone is
    /// exactly 65,536 bytes.
    pub constant_reserved: usize,
    /// Max resident threads per SM (Fermi: 1536).
    pub max_threads_per_sm: u32,
    /// Max resident blocks per SM (Fermi: 8).
    pub max_blocks_per_sm: u32,
    /// Max threads per block (Fermi: 1024).
    pub max_threads_per_block: u32,
    /// 32-bit registers per SM (Fermi: 32768).
    pub registers_per_sm: u32,
    /// Global-memory bandwidth in bytes/second (C2050: 144 GB/s).
    pub dram_bandwidth: f64,
    /// Global-memory latency in shader cycles (Fermi: ~400–800; we use
    /// the commonly cited 500).
    pub dram_latency: u32,
    /// Shared-memory banks (Fermi: 32, 4-byte wide).
    pub shared_banks: u32,
    /// Issue cycles for one warp-wide double-precision operation
    /// (Fermi GF100: 16 FP64 units per 32-core SM => 2 cycles; the
    /// Tesla-class C2050 runs FP64 at half the FP32 rate).
    pub fp64_issue_cycles: u32,
    /// Issue cycles for one warp-wide 32-bit integer/byte operation.
    pub int_issue_cycles: u32,
    /// Host-side overhead per kernel launch, seconds (driver queueing,
    /// parameter setup). CUDA 4.0-era launches cost 5–15 µs.
    pub launch_overhead: f64,
    /// Host↔device transfer bandwidth in bytes/second (PCIe 2.0 x16
    /// effective: ~5 GB/s) and fixed per-transfer latency in seconds.
    pub pcie_bandwidth: f64,
    pub pcie_latency: f64,
    /// Memory segment size for coalescing analysis in bytes (Fermi L1
    /// cache line: 128).
    pub coalesce_segment: usize,
}

impl DeviceSpec {
    /// The NVIDIA Tesla C2050 of the paper's experiments.
    pub fn tesla_c2050() -> Self {
        DeviceSpec {
            name: "NVIDIA Tesla C2050 (simulated)".to_string(),
            sm_count: 14,
            cores_per_sm: 32,
            warp_size: 32,
            clock_hz: 1.147e9,
            shared_mem_per_sm: 49_152,
            global_mem: 3 << 30,
            constant_mem: 65_536,
            constant_reserved: 256,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            registers_per_sm: 32_768,
            dram_bandwidth: 144.0e9,
            dram_latency: 500,
            shared_banks: 32,
            fp64_issue_cycles: 2,
            int_issue_cycles: 1,
            launch_overhead: 8.0e-6,
            pcie_bandwidth: 5.0e9,
            pcie_latency: 10.0e-6,
            coalesce_segment: 128,
        }
    }

    /// A single-SM toy device for deterministic unit tests.
    pub fn toy(warp_size: u32) -> Self {
        DeviceSpec {
            name: "toy".to_string(),
            sm_count: 1,
            cores_per_sm: warp_size,
            warp_size,
            clock_hz: 1.0e9,
            shared_mem_per_sm: 16_384,
            global_mem: 1 << 20,
            constant_mem: 1024,
            constant_reserved: 0,
            max_threads_per_sm: 512,
            max_blocks_per_sm: 4,
            max_threads_per_block: 256,
            registers_per_sm: 8192,
            dram_bandwidth: 10.0e9,
            dram_latency: 100,
            shared_banks: warp_size.max(1),
            fp64_issue_cycles: 2,
            int_issue_cycles: 1,
            launch_overhead: 1.0e-6,
            pcie_bandwidth: 1.0e9,
            pcie_latency: 1.0e-6,
            coalesce_segment: 128,
        }
    }

    /// Usable constant-memory bytes for user data.
    pub fn constant_budget(&self) -> usize {
        self.constant_mem - self.constant_reserved
    }

    /// Total scalar cores.
    pub fn total_cores(&self) -> u32 {
        self.sm_count * self.cores_per_sm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c2050_matches_paper_figures() {
        let d = DeviceSpec::tesla_c2050();
        assert_eq!(d.sm_count, 14);
        assert_eq!(d.cores_per_sm, 32);
        assert_eq!(d.total_cores(), 448);
        assert_eq!(d.clock_hz, 1.147e9);
        assert_eq!(d.constant_mem, 65_536);
        assert_eq!(d.global_mem, 3 * 1024 * 1024 * 1024);
        assert_eq!(d.shared_mem_per_sm, 49_152);
        assert_eq!(d.warp_size, 32);
    }

    #[test]
    fn constant_budget_below_capacity() {
        let d = DeviceSpec::tesla_c2050();
        assert!(d.constant_budget() < d.constant_mem);
        assert!(d.constant_budget() >= 65_536 - 512);
    }
}
