//! Whole-machine configuration.

use stacksim_cache::CacheConfig;
use stacksim_cpu::CoreConfig;
use stacksim_memctrl::SchedulerPolicy;
use stacksim_mshr::{MshrKind, TunerConfig};
use stacksim_types::{
    ConfigError, Cycles, DramTiming, InterleaveGranularity, MemoryGeometry, MemoryKind,
    RefreshConfig,
};
use stacksim_vm::TlbConfig;

/// Core→MC interconnect latency model.
///
/// The paper's quad-core floorplan puts every L2 bank adjacent to its MC, so
/// the baseline machines model no on-die distance. Larger scenario-described
/// machines (8/16 cores, multiple stacks) can charge a simple per-hop cost:
/// cores sit on a line at slots `0..cores`, MC `j` sits at slot
/// `j·cores/mcs`, and a request from core `i` to MC `j` pays
/// `hop_latency × |i − slot(j)|` extra cycles on the request path (demand
/// and L1-prefetch misses, L1 writebacks). L2-originated traffic (L2
/// prefetches, victim writebacks) is charged nothing — the L2 bank sits with
/// its MC. The default of zero hops reproduces the paper's machines exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct InterconnectConfig {
    /// Extra one-way latency per hop of core→MC distance (zero = the
    /// paper's adjacency assumption).
    pub hop_latency: Cycles,
}

impl InterconnectConfig {
    /// Cycles a request from `core` pays to reach memory controller `mc` on
    /// a machine with `cores` cores and `mcs` controllers.
    ///
    /// # Examples
    ///
    /// ```
    /// use stacksim::config::InterconnectConfig;
    /// use stacksim_types::Cycles;
    ///
    /// let ic = InterconnectConfig { hop_latency: Cycles::new(2) };
    /// // 8 cores, 2 MCs: MC1 sits at slot 4, so core 6 is 2 hops away.
    /// assert_eq!(ic.cost(6, 1, 8, 2), Cycles::new(4));
    /// assert_eq!(InterconnectConfig::default().cost(6, 1, 8, 2), Cycles::ZERO);
    /// ```
    pub fn cost(&self, core: usize, mc: u16, cores: usize, mcs: u16) -> Cycles {
        if self.hop_latency == Cycles::ZERO {
            return Cycles::ZERO;
        }
        let slot = (mc as usize * cores) / mcs as usize;
        let hops = core.abs_diff(slot) as u64;
        Cycles::new(self.hop_latency.raw() * hops)
    }
}

/// Configuration of the main-memory system (DRAM + controllers + buses).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MemorySystemConfig {
    /// Physical implementation (off-chip, stacked, true-3D).
    pub kind: MemoryKind,
    /// Total physical memory (8 GB in the paper).
    pub total_bytes: u64,
    /// Global rank count (8 baseline, 16 aggressive).
    pub ranks: u16,
    /// Banks per rank (8).
    pub banks_per_rank: u16,
    /// Number of memory controllers (1, 2 or 4).
    pub mcs: u16,
    /// Number of physical DRAM stacks the controllers are grouped across
    /// (1 in the paper). Controllers are split evenly: MC `j` belongs to
    /// stack `j / (mcs/stacks)`, and ranks follow their controller. Purely
    /// a topology grouping today — all stacks share one timing set — but it
    /// is validated (`mcs % stacks == 0`) and part of the scenario hash.
    pub stacks: u16,
    /// Row-buffer cache entries per bank (1 conventional, up to 4).
    pub row_buffer_entries: usize,
    /// DRAM array timing.
    pub timing: DramTiming,
    /// Refresh policy (64 ms off-chip, 32 ms on-stack).
    pub refresh: RefreshConfig,
    /// Smart Refresh (Ghosh & Lee): skip refreshing rows whose recent
    /// activation already restored them — the refresh-energy optimization
    /// the paper cites for hot 3D stacks (§2.4).
    pub smart_refresh: bool,
    /// Row management policy (open-page in the paper — what FR-FCFS and
    /// the row-buffer caches exploit).
    pub page_policy: stacksim_dram::PagePolicy,
    /// Data bus width between MC and DRAM, bytes per transfer edge.
    pub bus_width_bytes: u32,
    /// Bus clock as a divisor of the core clock (2 for the 1.66 GT/s FSB,
    /// 1 on-stack).
    pub bus_clock_divisor: u64,
    /// MC command clock as a divisor of the core clock (4 for the 833 MHz
    /// off-chip controller, 1 on-stack).
    pub mc_clock_divisor: u64,
    /// Extra one-way wire/package latency to reach memory (package pins +
    /// PCB for 2D; zero on-stack).
    pub path_latency: Cycles,
    /// Critical-word-first delivery of read data (the demanded word wakes
    /// waiters after the first bus beat; §3 discusses why wide buses help
    /// multi-cores despite CWF).
    pub critical_word_first: bool,
    /// Aggregate memory-request-queue capacity across all MCs (32 in the
    /// paper, split evenly).
    pub mrq_total: usize,
    /// Request arbitration policy.
    pub policy: SchedulerPolicy,
}

/// Configuration of the L2 miss-handling architecture.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MshrSystemConfig {
    /// MSHR organization.
    pub kind: MshrKind,
    /// Aggregate L2 MSHR entries across all banks (8 baseline; Figure 7
    /// scales it ×2/×4/×8). Banks align one-to-one with MCs.
    pub total_entries: usize,
    /// Dynamic capacity tuning (§5.1), if enabled.
    pub dynamic: Option<TunerConfig>,
}

/// Configuration of the whole simulated machine.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (4 in the paper).
    pub cores: usize,
    /// Per-core microarchitecture shared by every core unless overridden
    /// per core via [`per_core`](SystemConfig::per_core).
    pub core: CoreConfig,
    /// Heterogeneous per-core overrides. Empty (the default and the paper's
    /// machines) means every core uses [`core`](SystemConfig::core);
    /// otherwise the vector must hold exactly [`cores`](SystemConfig::cores)
    /// entries and core `i` is built from `per_core[i]`.
    pub per_core: Vec<CoreConfig>,
    /// Core clock frequency, Hz (3.333 GHz).
    pub core_hz: f64,
    /// Shared L2 geometry (12 MB / 24-way).
    pub l2: CacheConfig,
    /// L2 bank count (16).
    pub l2_banks: u16,
    /// L2 access latency (9 cycles).
    pub l2_latency: Cycles,
    /// L2 bank interleaving granularity (line commodity, page streamlined).
    pub l2_interleave: InterleaveGranularity,
    /// Whether the L2-level next-line + stride prefetchers are active.
    pub l2_prefetch: bool,
    /// L2 miss-handling architecture.
    pub mshr: MshrSystemConfig,
    /// Virtual memory: per-core DTLB geometry plus the machine-wide FCFS
    /// page allocator (paper §2.4). `None` disables translation — programs
    /// then emit physical addresses directly from disjoint regions.
    pub vm: Option<TlbConfig>,
    /// Core→MC interconnect latency model (zero-hop by default).
    pub interconnect: InterconnectConfig,
    /// Main-memory system.
    pub memory: MemorySystemConfig,
}

// `core_hz` is a fixed design frequency (never NaN), so bitwise float
// identity is a sound equality. With it, a `SystemConfig` is usable as a
// memoization key over real configuration identity (the tentpole run
// cache), not a pointer or a name.
impl Eq for SystemConfig {}

impl std::hash::Hash for SystemConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let SystemConfig {
            cores,
            core,
            per_core,
            core_hz,
            l2,
            l2_banks,
            l2_latency,
            l2_interleave,
            l2_prefetch,
            mshr,
            vm,
            interconnect,
            memory,
        } = self;
        cores.hash(state);
        core.hash(state);
        per_core.hash(state);
        core_hz.to_bits().hash(state);
        l2.hash(state);
        l2_banks.hash(state);
        l2_latency.hash(state);
        l2_interleave.hash(state);
        l2_prefetch.hash(state);
        mshr.hash(state);
        vm.hash(state);
        interconnect.hash(state);
        memory.hash(state);
    }
}

impl SystemConfig {
    /// Derives the [`MemoryGeometry`] for the address mapper.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the geometry is inconsistent.
    #[must_use = "the derived geometry or the configuration problem"]
    pub fn geometry(&self) -> Result<MemoryGeometry, ConfigError> {
        MemoryGeometry::new(
            self.memory.total_bytes,
            self.memory.ranks,
            self.memory.banks_per_rank,
            4096,
            self.memory.mcs,
        )
    }

    /// Validates cross-component consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for: zero cores, a per-core override list
    /// whose length does not match the core count, a core that fails
    /// [`CoreConfig::check`] (including a DL1 that is not a whole number of
    /// sets), a non-positive core clock, zero stacks or MCs not divisible
    /// among stacks, an L2 that does not split into banks of whole sets, a
    /// DTLB that is not a whole number of sets, L2 banks not divisible by
    /// the MC count (the streamlined floorplan needs the alignment), MSHR
    /// entries not divisible by the MC count, an MRQ smaller than the MC
    /// count, an invalid memory geometry, zero row buffers per bank, or a
    /// refresh period that is non-positive or rounds to zero cycles per row
    /// (either would abort bank construction).
    #[must_use = "the Err is the configuration problem; dropping it defeats validation"]
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::new("need at least one core"));
        }
        if !self.per_core.is_empty() && self.per_core.len() != self.cores {
            return Err(ConfigError::new(format!(
                "{} per-core configs for {} cores",
                self.per_core.len(),
                self.cores
            )));
        }
        if let Err(msg) = self.core.check() {
            return Err(ConfigError::new(format!("machine.core: {msg}")));
        }
        for (i, c) in self.per_core.iter().enumerate() {
            if let Err(msg) = c.check() {
                return Err(ConfigError::new(format!("machine.per_core[{i}]: {msg}")));
            }
        }
        if self.core_hz.is_nan() || self.core_hz <= 0.0 {
            return Err(ConfigError::new("core clock must be positive"));
        }
        if self.memory.stacks == 0 {
            return Err(ConfigError::new("need at least one stack"));
        }
        if !self.memory.mcs.is_multiple_of(self.memory.stacks) {
            return Err(ConfigError::new(format!(
                "{} MCs do not divide among {} stacks",
                self.memory.mcs, self.memory.stacks
            )));
        }
        let geometry = self.geometry()?;
        if self.memory.row_buffer_entries == 0 {
            return Err(ConfigError::new("need at least one row buffer per bank"));
        }
        if let Some(period) = self.memory.refresh.period_ms {
            if period.is_nan() || period <= 0.0 {
                return Err(ConfigError::new("refresh period must be positive"));
            }
            let interval = self
                .memory
                .refresh
                .row_interval(geometry.rows_per_bank(), self.core_hz);
            if interval.is_some_and(|i| i.raw() == 0) {
                return Err(ConfigError::new(
                    "refresh period rounds to zero cycles per row",
                ));
            }
        }
        let banks = u64::from(self.l2_banks);
        if banks == 0 || !self.l2.size_bytes.is_multiple_of(banks) {
            return Err(ConfigError::new(format!(
                "machine.l2.size_bytes = {} B does not divide among {} banks",
                self.l2.size_bytes, self.l2_banks
            )));
        }
        let bank = CacheConfig {
            size_bytes: self.l2.size_bytes / banks,
            ..self.l2
        };
        if bank.whole_sets().is_none() {
            return Err(ConfigError::new(format!(
                "machine.l2.size_bytes = {} B gives {} B per bank, not a whole number of {}-way sets of 64 B lines",
                self.l2.size_bytes, bank.size_bytes, bank.associativity
            )));
        }
        let mcs = self.memory.mcs as usize;
        if !(self.l2_banks as usize).is_multiple_of(mcs) {
            return Err(ConfigError::new(format!(
                "{} L2 banks do not align with {} MCs",
                self.l2_banks, mcs
            )));
        }
        if !self.mshr.total_entries.is_multiple_of(mcs) || self.mshr.total_entries == 0 {
            return Err(ConfigError::new(format!(
                "{} MSHR entries do not divide among {} banks",
                self.mshr.total_entries, mcs
            )));
        }
        if self.memory.mrq_total < mcs {
            return Err(ConfigError::new(
                "memory request queue smaller than MC count",
            ));
        }
        if self.memory.bus_width_bytes == 0
            || self.memory.bus_clock_divisor == 0
            || self.memory.mc_clock_divisor == 0
        {
            return Err(ConfigError::new("bus/MC clocking must be non-zero"));
        }
        if let Some(tlb) = &self.vm {
            if tlb.associativity == 0
                || tlb.entries == 0
                || !tlb.entries.is_multiple_of(tlb.associativity)
            {
                return Err(ConfigError::new(format!(
                    "machine.vm.entries = {} do not divide into whole {}-way sets",
                    tlb.entries, tlb.associativity
                )));
            }
        }
        Ok(())
    }

    /// The microarchitecture of core `i`: the per-core override when
    /// heterogeneous, the shared [`core`](SystemConfig::core) otherwise.
    pub fn core_for(&self, i: usize) -> &CoreConfig {
        if self.per_core.is_empty() {
            &self.core
        } else {
            &self.per_core[i]
        }
    }

    /// MSHR entries per bank (banks align with MCs).
    pub fn mshr_entries_per_bank(&self) -> usize {
        self.mshr.total_entries / self.memory.mcs as usize
    }

    /// MRQ entries per controller.
    pub fn mrq_per_mc(&self) -> usize {
        self.memory.mrq_total / self.memory.mcs as usize
    }

    /// Returns a copy with the aggregate L2 MSHR capacity multiplied by
    /// `factor` (the Figure 7 sweep).
    pub fn with_mshr_scale(&self, factor: usize) -> SystemConfig {
        let mut cfg = self.clone();
        cfg.mshr.total_entries = self.mshr.total_entries * factor;
        cfg
    }

    /// Returns a copy using the given MSHR organization.
    pub fn with_mshr_kind(&self, kind: MshrKind) -> SystemConfig {
        let mut cfg = self.clone();
        cfg.mshr.kind = kind;
        cfg
    }

    /// Returns a copy with dynamic MSHR capacity tuning enabled.
    pub fn with_dynamic_mshr(&self, tuner: TunerConfig) -> SystemConfig {
        let mut cfg = self.clone();
        cfg.mshr.dynamic = Some(tuner);
        cfg
    }

    /// Returns a copy with `extra_bytes` added to the L2 (the Figure 6(a)
    /// +512 KB / +1 MB alternatives).
    pub fn with_extra_l2(&self, extra_bytes: u64) -> SystemConfig {
        let mut cfg = self.clone();
        // Keep a whole number of sets per bank: round the extra capacity to
        // a multiple of line size x associativity x bank count.
        let quantum = 64 * self.l2.associativity as u64 * self.l2_banks as u64;
        let extra = (extra_bytes / quantum) * quantum;
        cfg.l2 = self.l2.grown_by(extra);
        cfg
    }
}

#[cfg(test)]
mod tests {
    use crate::configs;

    #[test]
    fn named_configs_validate() {
        for cfg in [
            configs::cfg_2d(),
            configs::cfg_3d(),
            configs::cfg_3d_wide(),
            configs::cfg_3d_fast(),
            configs::cfg_aggressive(2, 8, 4),
            configs::cfg_aggressive(4, 16, 4),
        ] {
            cfg.validate().expect("named configuration must validate");
        }
    }

    #[test]
    fn misaligned_mcs_rejected() {
        let mut cfg = configs::cfg_3d_fast();
        cfg.memory.mcs = 3; // 8 ranks % 3 != 0
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn mshr_division_checked() {
        let mut cfg = configs::cfg_aggressive(4, 16, 1);
        cfg.mshr.total_entries = 6; // not divisible by 4
        assert!(cfg.validate().is_err());
        cfg.mshr.total_entries = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn degenerate_dram_parameters_rejected() {
        let mut cfg = configs::cfg_2d();
        cfg.memory.row_buffer_entries = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = configs::cfg_2d();
        cfg.memory.refresh.period_ms = Some(0.0);
        assert!(cfg.validate().is_err());
        let mut cfg = configs::cfg_2d();
        // A period this short rounds to zero cycles per row.
        cfg.memory.refresh.period_ms = Some(1e-9);
        assert!(cfg.validate().is_err());
        let mut cfg = configs::cfg_2d();
        cfg.core_hz = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn scaling_helpers() {
        let cfg = configs::cfg_aggressive(4, 16, 4);
        assert_eq!(
            cfg.with_mshr_scale(8).mshr.total_entries,
            cfg.mshr.total_entries * 8
        );
        assert_eq!(cfg.mshr_entries_per_bank() * 4, cfg.mshr.total_entries);
        assert_eq!(cfg.mrq_per_mc(), 8);
        let grown = cfg.with_extra_l2(512 << 10);
        assert!(grown.l2.size_bytes > cfg.l2.size_bytes);
        grown.validate().unwrap();
    }

    #[test]
    fn extra_l2_keeps_whole_sets() {
        let cfg = configs::cfg_3d_fast().with_extra_l2(1 << 20);
        // Per-bank capacity must still be a whole number of sets.
        let per_bank = cfg.l2.size_bytes / cfg.l2_banks as u64;
        assert_eq!(per_bank % (64 * cfg.l2.associativity as u64), 0);
    }
}
