//! Hierarchical (banked + shared) MSHRs, after Tuck et al. (MICRO 2006).
//!
//! The paper uses this organization as the high-bandwidth L1 reference
//! design and explains why it is a poor fit for the banked-MC L2 floorplan
//! (§5.2): every bank would have to route to the shared second level and
//! back. It is implemented here both as a comparison point and because a
//! complete MSHR library should have it.

use stacksim_types::{Cycle, LineAddr};

use crate::cam::CamMshr;
use crate::entry::{MissKind, MissTarget, MshrEntry};
use crate::handler::{AllocError, AllocOutcome, LookupResult, MissHandler, MshrKind};

/// A two-level MSHR: several small banked CAMs in front of one shared
/// overflow CAM that supplies "spare" capacity when a bank fills up.
///
/// Bank selection hashes the line address; a lookup probes the home bank
/// and, when unsuccessful, the shared level (one extra probe). Allocations
/// prefer the home bank and spill into the shared level.
///
/// # Examples
///
/// ```
/// use stacksim_mshr::{HierarchicalMshr, MissHandler, MissKind, MissTarget};
/// use stacksim_types::{CoreId, Cycle, LineAddr};
///
/// let mut m = HierarchicalMshr::new(4, 2, 8);
/// let out = m
///     .allocate(LineAddr::new(3), MissTarget::demand(CoreId::new(0), 0), MissKind::Read, Cycle::ZERO)
///     .unwrap();
/// assert!(out.is_primary());
/// assert_eq!(m.capacity(), 4 * 2 + 8);
/// ```
#[derive(Clone, Debug)]
pub struct HierarchicalMshr {
    banks: Vec<CamMshr>,
    shared: CamMshr,
    limit: usize,
}

impl HierarchicalMshr {
    /// Creates a hierarchical MSHR with `banks` first-level banks of
    /// `entries_per_bank` entries each, plus a `shared_entries` second level.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn new(banks: usize, entries_per_bank: usize, shared_entries: usize) -> Self {
        assert!(
            banks > 0 && entries_per_bank > 0 && shared_entries > 0,
            "counts must be non-zero"
        );
        let capacity = banks * entries_per_bank + shared_entries;
        HierarchicalMshr {
            banks: (0..banks).map(|_| CamMshr::new(entries_per_bank)).collect(),
            shared: CamMshr::new(shared_entries),
            limit: capacity,
        }
    }

    #[inline]
    fn bank_of(&self, line: LineAddr) -> usize {
        (line.index() % self.banks.len() as u64) as usize
    }
}

impl MissHandler for HierarchicalMshr {
    fn kind(&self) -> MshrKind {
        MshrKind::Hierarchical
    }

    fn lookup(&mut self, line: LineAddr) -> LookupResult {
        let b = self.bank_of(line);
        if self.banks[b].lookup(line).found {
            return LookupResult {
                found: true,
                probes: 1,
            };
        }
        LookupResult {
            found: self.shared.lookup(line).found,
            probes: 2,
        }
    }

    fn allocate(
        &mut self,
        line: LineAddr,
        target: MissTarget,
        kind: MissKind,
        now: Cycle,
    ) -> Result<AllocOutcome, AllocError> {
        if self.occupancy() >= self.limit {
            // Probe cost of discovering fullness: bank plus shared check.
            if self.entry(line).is_none() {
                return Err(AllocError::Full { probes: 2 });
            }
        }
        let b = self.bank_of(line);
        // Merge into whichever level already tracks the line.
        if self.banks[b].entry(line).is_some() {
            return self.banks[b].allocate(line, target, kind, now);
        }
        if self.shared.entry(line).is_some() {
            return match self.shared.allocate(line, target, kind, now) {
                Ok(AllocOutcome::Merged { targets, .. }) => {
                    Ok(AllocOutcome::Merged { probes: 2, targets })
                }
                other => other,
            };
        }
        // Fresh entry: home bank first, then spill to the shared level.
        match self.banks[b].allocate(line, target, kind, now) {
            Ok(out) => Ok(out),
            Err(_) => match self.shared.allocate(line, target, kind, now) {
                Ok(AllocOutcome::Primary { .. }) => Ok(AllocOutcome::Primary { probes: 2 }),
                Ok(merged) => Ok(merged),
                Err(_) => Err(AllocError::Full { probes: 2 }),
            },
        }
    }

    fn deallocate(&mut self, line: LineAddr) -> Option<(MshrEntry, u32)> {
        let b = self.bank_of(line);
        if let Some((e, _)) = self.banks[b].deallocate(line) {
            return Some((e, 1));
        }
        self.shared.deallocate(line).map(|(e, _)| (e, 2))
    }

    fn entry(&self, line: LineAddr) -> Option<&MshrEntry> {
        let b = self.bank_of(line);
        self.banks[b]
            .entry(line)
            .or_else(|| self.shared.entry(line))
    }

    fn occupancy(&self) -> usize {
        self.banks.iter().map(CamMshr::occupancy).sum::<usize>() + self.shared.occupancy()
    }

    fn capacity(&self) -> usize {
        self.banks.iter().map(CamMshr::capacity).sum::<usize>() + self.shared.capacity()
    }

    fn capacity_limit(&self) -> usize {
        self.limit
    }

    fn set_capacity_limit(&mut self, limit: usize) {
        assert!(limit > 0, "capacity limit must be non-zero");
        self.limit = limit.min(self.capacity());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_types::CoreId;

    fn target(token: u64) -> MissTarget {
        MissTarget::demand(CoreId::new(0), token)
    }

    #[test]
    fn spills_into_shared_level() {
        let mut m = HierarchicalMshr::new(2, 1, 2);
        // Lines 0 and 2 both hash to bank 0 (even lines).
        m.allocate(LineAddr::new(0), target(0), MissKind::Read, Cycle::ZERO)
            .unwrap();
        let out = m
            .allocate(LineAddr::new(2), target(1), MissKind::Read, Cycle::ZERO)
            .unwrap();
        assert_eq!(out, AllocOutcome::Primary { probes: 2 });
        // Found in the shared level: two probes.
        assert_eq!(
            m.lookup(LineAddr::new(2)),
            LookupResult {
                found: true,
                probes: 2
            }
        );
        // Found in the bank: one probe.
        assert_eq!(
            m.lookup(LineAddr::new(0)),
            LookupResult {
                found: true,
                probes: 1
            }
        );
    }

    #[test]
    fn merges_wherever_the_entry_lives() {
        let mut m = HierarchicalMshr::new(2, 1, 2);
        m.allocate(LineAddr::new(0), target(0), MissKind::Read, Cycle::ZERO)
            .unwrap();
        m.allocate(LineAddr::new(2), target(1), MissKind::Read, Cycle::ZERO)
            .unwrap();
        // Secondary miss on the spilled entry merges in the shared level.
        let out = m
            .allocate(LineAddr::new(2), target(2), MissKind::Read, Cycle::ZERO)
            .unwrap();
        assert_eq!(
            out,
            AllocOutcome::Merged {
                probes: 2,
                targets: 2
            }
        );
    }

    #[test]
    fn full_when_bank_and_shared_full() {
        let mut m = HierarchicalMshr::new(1, 1, 1);
        m.allocate(LineAddr::new(0), target(0), MissKind::Read, Cycle::ZERO)
            .unwrap();
        m.allocate(LineAddr::new(1), target(1), MissKind::Read, Cycle::ZERO)
            .unwrap();
        assert!(m
            .allocate(LineAddr::new(2), target(2), MissKind::Read, Cycle::ZERO)
            .is_err());
        assert_eq!(m.occupancy(), 2);
    }

    #[test]
    fn deallocate_finds_both_levels() {
        let mut m = HierarchicalMshr::new(2, 1, 2);
        m.allocate(LineAddr::new(0), target(0), MissKind::Read, Cycle::ZERO)
            .unwrap();
        m.allocate(LineAddr::new(2), target(1), MissKind::Read, Cycle::ZERO)
            .unwrap();
        let (_, probes_shared) = m.deallocate(LineAddr::new(2)).unwrap();
        assert_eq!(probes_shared, 2);
        let (_, probes_bank) = m.deallocate(LineAddr::new(0)).unwrap();
        assert_eq!(probes_bank, 1);
        assert!(m.deallocate(LineAddr::new(4)).is_none());
    }

    #[test]
    fn capacity_limit_applies_globally() {
        let mut m = HierarchicalMshr::new(2, 2, 4);
        assert_eq!(m.capacity(), 8);
        m.set_capacity_limit(1);
        m.allocate(LineAddr::new(0), target(0), MissKind::Read, Cycle::ZERO)
            .unwrap();
        assert!(m
            .allocate(LineAddr::new(1), target(1), MissKind::Read, Cycle::ZERO)
            .is_err());
    }
}
