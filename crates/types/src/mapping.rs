//! Physical-address → DRAM-location decode and L2-bank interleaving.
//!
//! The paper interleaves main memory across memory controllers, ranks and
//! banks at **page granularity** (one DRAM row buffers one 4 KB page), and —
//! crucially for the §4.1 "streamlined" floorplan — re-banks the L2 at the
//! same page granularity so that each L2 bank communicates with exactly one
//! memory controller.

use crate::addr::{PhysAddr, PAGE_BYTES};
use crate::error::ConfigError;
use crate::ids::{BankId, L2BankId, McId, RankId};

/// Granularity at which consecutive addresses rotate among L2 banks.
///
/// Commodity designs interleave at cache-line granularity; the paper's 3D
/// organizations switch to page granularity so L2 banks align with memory
/// controllers (§4.1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum InterleaveGranularity {
    /// Rotate banks every 64-byte cache line.
    Line,
    /// Rotate banks every 4096-byte page (paper's streamlined organization).
    #[default]
    Page,
}

/// Static geometry of the main-memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryGeometry {
    total_bytes: u64,
    ranks: u16,
    banks_per_rank: u16,
    row_bytes: u64,
    mcs: u16,
}

impl MemoryGeometry {
    /// Creates a memory geometry.
    ///
    /// * `total_bytes` — total physical memory (8 GB in the paper);
    /// * `ranks` — global rank count (8 or 16 in the paper);
    /// * `banks_per_rank` — 8 in the paper;
    /// * `row_bytes` — DRAM row / page size (4096 in the paper);
    /// * `mcs` — number of memory controllers (1, 2 or 4 in the paper).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any count is zero, if `ranks` is not a
    /// multiple of `mcs` (each MC must own an equal, disjoint set of ranks),
    /// or if sizes are not powers of two.
    pub fn new(
        total_bytes: u64,
        ranks: u16,
        banks_per_rank: u16,
        row_bytes: u64,
        mcs: u16,
    ) -> Result<Self, ConfigError> {
        if total_bytes == 0 || ranks == 0 || banks_per_rank == 0 || row_bytes == 0 || mcs == 0 {
            return Err(ConfigError::new("geometry counts must be non-zero"));
        }
        if !ranks.is_multiple_of(mcs) {
            return Err(ConfigError::new(format!(
                "{ranks} ranks do not divide evenly among {mcs} memory controllers"
            )));
        }
        if !row_bytes.is_power_of_two() || !total_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "row and total sizes must be powers of two",
            ));
        }
        let rows_total = total_bytes / row_bytes;
        let banks_total = ranks as u64 * banks_per_rank as u64;
        if rows_total < banks_total {
            return Err(ConfigError::new("fewer rows than banks"));
        }
        Ok(MemoryGeometry {
            total_bytes,
            ranks,
            banks_per_rank,
            row_bytes,
            mcs,
        })
    }

    /// Total physical memory in bytes.
    pub const fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Global rank count.
    pub const fn ranks(&self) -> u16 {
        self.ranks
    }

    /// Banks per rank.
    pub const fn banks_per_rank(&self) -> u16 {
        self.banks_per_rank
    }

    /// Total banks across all ranks.
    pub const fn total_banks(&self) -> u32 {
        self.ranks as u32 * self.banks_per_rank as u32
    }

    /// DRAM row (page) size in bytes.
    pub const fn row_bytes(&self) -> u64 {
        self.row_bytes
    }

    /// Number of memory controllers.
    pub const fn mcs(&self) -> u16 {
        self.mcs
    }

    /// Ranks owned by each memory controller.
    pub const fn ranks_per_mc(&self) -> u16 {
        self.ranks / self.mcs
    }

    /// Rows per bank.
    pub const fn rows_per_bank(&self) -> u64 {
        self.total_bytes / self.row_bytes / self.total_banks() as u64
    }
}

/// A fully decoded DRAM location for one physical address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Owning memory controller.
    pub mc: McId,
    /// Global rank identifier.
    pub rank: RankId,
    /// The rank's index local to the owning MC (`rank.index() / mcs`).
    pub rank_in_mc: u16,
    /// Bank within the rank.
    pub bank: BankId,
    /// Row within the bank (one row = one 4 KB page).
    pub row: u64,
    /// Byte column within the row.
    pub column: u64,
}

/// Decodes physical addresses into DRAM locations and L2 bank indices.
///
/// Page `p` maps to MC `p mod mcs`, then to rank `⌊p/mcs⌋ mod ranks_per_mc`
/// within that MC, then to bank `⌊p/(mcs·ranks_per_mc)⌋ mod banks_per_rank`,
/// and the remaining bits select the row. Consecutive pages therefore rotate
/// across MCs first (maximizing controller-level parallelism), then ranks,
/// then banks — the highest-parallelism page-interleave for the paper's
/// topology.
///
/// # Examples
///
/// ```
/// use stacksim_types::{AddressMapper, MemoryGeometry, PhysAddr};
///
/// let geom = MemoryGeometry::new(8 << 30, 16, 8, 4096, 4).unwrap();
/// let mapper = AddressMapper::new(geom);
/// // Page 0 -> MC0, page 1 -> MC1, ...
/// assert_eq!(mapper.decode(PhysAddr::new(0)).mc.index(), 0);
/// assert_eq!(mapper.decode(PhysAddr::new(4096)).mc.index(), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddressMapper {
    geom: MemoryGeometry,
}

impl AddressMapper {
    /// Creates a mapper over the given geometry.
    pub const fn new(geom: MemoryGeometry) -> Self {
        AddressMapper { geom }
    }

    /// The underlying geometry.
    pub const fn geometry(&self) -> &MemoryGeometry {
        &self.geom
    }

    /// Decodes a physical address into its DRAM location.
    pub fn decode(&self, addr: PhysAddr) -> DramLocation {
        let g = &self.geom;
        let page = addr.raw() / g.row_bytes;
        let mcs = g.mcs as u64;
        let ranks_per_mc = g.ranks_per_mc() as u64;
        let banks = g.banks_per_rank as u64;

        let mc = (page % mcs) as u16;
        let rest = page / mcs;
        let rank_in_mc = (rest % ranks_per_mc) as u16;
        let rest = rest / ranks_per_mc;
        let bank = (rest % banks) as u16;
        let row = rest / banks;
        let column = addr.raw() % g.row_bytes;

        DramLocation {
            mc: McId::new(mc),
            rank: RankId::new(rank_in_mc * g.mcs + mc),
            rank_in_mc,
            bank: BankId::new(bank),
            row,
            column,
        }
    }

    /// Maps an address to one of `l2_banks` L2 cache banks at the given
    /// interleave granularity.
    pub fn l2_bank(
        &self,
        addr: PhysAddr,
        l2_banks: u16,
        granularity: InterleaveGranularity,
    ) -> L2BankId {
        let unit = match granularity {
            InterleaveGranularity::Line => addr.line().index(),
            InterleaveGranularity::Page => addr.raw() / PAGE_BYTES,
        };
        L2BankId::new((unit % l2_banks as u64) as u16)
    }

    /// The memory controller that owns an address.
    pub fn mc_of(&self, addr: PhysAddr) -> McId {
        self.decode(addr).mc
    }

    /// With page-granularity interleaving and `l2_banks` a multiple of the
    /// MC count, every L2 bank routes to exactly one MC. Returns that MC for
    /// a given L2 bank, or `None` if the alignment property does not hold.
    ///
    /// This is the §4.1 "streamlined floorplan" invariant: a miss in L2 bank
    /// *b* can only allocate in MSHR bank `b mod mcs` and only access the
    /// ranks of MC `b mod mcs`.
    pub fn mc_for_l2_bank(&self, bank: L2BankId, l2_banks: u16) -> Option<McId> {
        if !l2_banks.is_multiple_of(self.geom.mcs) {
            return None;
        }
        Some(McId::new((bank.index() as u16) % self.geom.mcs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_BYTES;

    fn mapper(ranks: u16, mcs: u16) -> AddressMapper {
        AddressMapper::new(MemoryGeometry::new(8 << 30, ranks, 8, 4096, mcs).unwrap())
    }

    #[test]
    fn geometry_validation() {
        assert!(MemoryGeometry::new(8 << 30, 8, 8, 4096, 3).is_err()); // 8 % 3 != 0
        assert!(MemoryGeometry::new(0, 8, 8, 4096, 1).is_err());
        assert!(MemoryGeometry::new(8 << 30, 8, 8, 4095, 1).is_err()); // not pow2
        assert!(MemoryGeometry::new(8 << 30, 16, 8, 4096, 4).is_ok());
    }

    #[test]
    fn rows_per_bank_consistent() {
        let g = MemoryGeometry::new(8 << 30, 8, 8, 4096, 1).unwrap();
        // 8 GB / 4 KB rows = 2M rows, / 64 banks = 32768 rows/bank.
        assert_eq!(g.rows_per_bank(), 32768);
    }

    #[test]
    fn consecutive_pages_rotate_mcs_first() {
        let m = mapper(16, 4);
        for p in 0..16u64 {
            let loc = m.decode(PhysAddr::new(p * PAGE_BYTES));
            assert_eq!(loc.mc.index() as u64, p % 4);
        }
    }

    #[test]
    fn rank_ownership_is_disjoint_per_mc() {
        let m = mapper(16, 4);
        for p in 0..4096u64 {
            let loc = m.decode(PhysAddr::new(p * PAGE_BYTES));
            // Global rank id must map back to the same MC (rank % mcs == mc).
            assert_eq!(loc.rank.index() % 4, loc.mc.index());
            assert!(loc.rank_in_mc < 4);
        }
    }

    #[test]
    fn decode_is_injective_over_a_window() {
        use std::collections::HashSet;
        let m = mapper(8, 2);
        let mut seen = HashSet::new();
        for p in 0..10_000u64 {
            let loc = m.decode(PhysAddr::new(p * PAGE_BYTES));
            assert!(
                seen.insert((loc.mc, loc.rank, loc.bank, loc.row)),
                "duplicate location for page {p}"
            );
        }
    }

    #[test]
    fn column_is_page_offset() {
        let m = mapper(8, 2);
        let loc = m.decode(PhysAddr::new(3 * PAGE_BYTES + 123));
        assert_eq!(loc.column, 123);
    }

    #[test]
    fn same_page_same_bank_row() {
        let m = mapper(16, 4);
        let a = m.decode(PhysAddr::new(77 * PAGE_BYTES));
        let b = m.decode(PhysAddr::new(77 * PAGE_BYTES + 4000));
        assert_eq!((a.mc, a.rank, a.bank, a.row), (b.mc, b.rank, b.bank, b.row));
    }

    #[test]
    fn l2_bank_interleave_granularities() {
        let m = mapper(8, 2);
        // Line granularity: consecutive lines hit different banks.
        let b0 = m.l2_bank(PhysAddr::new(0), 16, InterleaveGranularity::Line);
        let b1 = m.l2_bank(PhysAddr::new(64), 16, InterleaveGranularity::Line);
        assert_ne!(b0, b1);
        // Page granularity: all lines in a page hit the same bank.
        let p0 = m.l2_bank(PhysAddr::new(0), 16, InterleaveGranularity::Page);
        let p1 = m.l2_bank(PhysAddr::new(64), 16, InterleaveGranularity::Page);
        assert_eq!(p0, p1);
    }

    #[test]
    fn streamlined_invariant_l2_bank_to_single_mc() {
        // With page interleave, l2 bank index mod mcs == page mod mcs == mc.
        let m = mapper(16, 4);
        for p in 0..256u64 {
            let addr = PhysAddr::new(p * PAGE_BYTES);
            let bank = m.l2_bank(addr, 16, InterleaveGranularity::Page);
            let mc = m.mc_of(addr);
            assert_eq!(m.mc_for_l2_bank(bank, 16), Some(mc));
        }
    }

    #[test]
    fn mc_for_l2_bank_requires_alignment() {
        let m = mapper(16, 4);
        assert!(m.mc_for_l2_bank(L2BankId::new(0), 6).is_none());
    }
}
