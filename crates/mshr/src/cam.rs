//! The idealized fully-associative CAM MSHR.

use stacksim_types::{Cycle, LineAddr};

use crate::entry::{MissKind, MissTarget, MshrEntry};
use crate::handler::{AllocError, AllocOutcome, LookupResult, MissHandler, MshrKind};

/// A fully-associative, single-cycle content-addressable MSHR.
///
/// This is the traditional organization and the paper's *ideal* reference
/// point: every operation completes in one probe regardless of capacity. It
/// is "ideal (and impractical)" (§5.2) because real CAMs do not scale to the
/// large capacities the 3D memory system wants — which is exactly the gap
/// the [`VbfMshr`](crate::VbfMshr) closes.
///
/// # Examples
///
/// ```
/// use stacksim_mshr::{CamMshr, MissHandler, MissKind, MissTarget};
/// use stacksim_types::{CoreId, Cycle, LineAddr};
///
/// let mut m = CamMshr::new(8);
/// m.allocate(LineAddr::new(7), MissTarget::demand(CoreId::new(0), 0), MissKind::Read, Cycle::ZERO)
///     .unwrap();
/// assert_eq!(m.lookup(LineAddr::new(7)).probes, 1);
/// ```
#[derive(Clone, Debug)]
pub struct CamMshr {
    // The CAM match: `lines[i]` is `entries[i].line()`, searched linearly
    // as the hardware compares every entry at once. At MSHR capacities a
    // scan of a few dense words beats a hash probe. Nothing iterates the
    // entries, so their order is unobservable.
    lines: Vec<LineAddr>,
    entries: Vec<MshrEntry>,
    capacity: usize,
    limit: usize,
}

impl CamMshr {
    /// Creates a CAM MSHR with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mshr capacity must be non-zero");
        CamMshr {
            lines: Vec::with_capacity(capacity),
            entries: Vec::with_capacity(capacity),
            capacity,
            limit: capacity,
        }
    }

    fn position(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line)
    }
}

impl MissHandler for CamMshr {
    fn kind(&self) -> MshrKind {
        MshrKind::Cam
    }

    fn lookup(&mut self, line: LineAddr) -> LookupResult {
        LookupResult {
            found: self.position(line).is_some(),
            probes: 1,
        }
    }

    fn allocate(
        &mut self,
        line: LineAddr,
        target: MissTarget,
        kind: MissKind,
        now: Cycle,
    ) -> Result<AllocOutcome, AllocError> {
        if let Some(i) = self.position(line) {
            let e = &mut self.entries[i];
            e.merge(target);
            return Ok(AllocOutcome::Merged {
                probes: 1,
                targets: e.target_count(),
            });
        }
        if self.entries.len() >= self.limit {
            return Err(AllocError::Full { probes: 1 });
        }
        self.lines.push(line);
        self.entries.push(MshrEntry::new(line, target, kind, now));
        Ok(AllocOutcome::Primary { probes: 1 })
    }

    fn deallocate(&mut self, line: LineAddr) -> Option<(MshrEntry, u32)> {
        let i = self.position(line)?;
        self.lines.swap_remove(i);
        Some((self.entries.swap_remove(i), 1))
    }

    fn entry(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.position(line).map(|i| &self.entries[i])
    }

    fn occupancy(&self) -> usize {
        self.entries.len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn capacity_limit(&self) -> usize {
        self.limit
    }

    fn set_capacity_limit(&mut self, limit: usize) {
        assert!(limit > 0, "capacity limit must be non-zero");
        self.limit = limit.min(self.capacity);
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
    fn allocate_lookup_deallocate() {
        let mut m = CamMshr::new(2);
        let out = m
            .allocate(LineAddr::new(1), target(0), MissKind::Read, Cycle::ZERO)
            .unwrap();
        assert!(out.is_primary());
        assert!(m.lookup(LineAddr::new(1)).found);
        assert!(!m.lookup(LineAddr::new(2)).found);
        let (e, probes) = m.deallocate(LineAddr::new(1)).unwrap();
        assert_eq!(e.line(), LineAddr::new(1));
        assert_eq!(probes, 1);
        assert_eq!(m.occupancy(), 0);
        assert!(m.deallocate(LineAddr::new(1)).is_none());
    }

    #[test]
    fn secondary_misses_merge() {
        let mut m = CamMshr::new(1);
        m.allocate(LineAddr::new(9), target(0), MissKind::Read, Cycle::ZERO)
            .unwrap();
        // A second miss to the same line merges even though the CAM is full.
        let out = m
            .allocate(LineAddr::new(9), target(1), MissKind::Read, Cycle::new(5))
            .unwrap();
        assert_eq!(
            out,
            AllocOutcome::Merged {
                probes: 1,
                targets: 2
            }
        );
        assert_eq!(m.entry(LineAddr::new(9)).unwrap().target_count(), 2);
    }

    #[test]
    fn full_rejects_new_lines() {
        let mut m = CamMshr::new(1);
        m.allocate(LineAddr::new(1), target(0), MissKind::Read, Cycle::ZERO)
            .unwrap();
        let err = m
            .allocate(LineAddr::new(2), target(1), MissKind::Read, Cycle::ZERO)
            .unwrap_err();
        assert_eq!(err, AllocError::Full { probes: 1 });
        assert!(m.is_full());
    }

    #[test]
    fn dynamic_limit_restricts_allocations() {
        let mut m = CamMshr::new(8);
        m.set_capacity_limit(2);
        assert_eq!(m.capacity_limit(), 2);
        m.allocate(LineAddr::new(1), target(0), MissKind::Read, Cycle::ZERO)
            .unwrap();
        m.allocate(LineAddr::new(2), target(1), MissKind::Read, Cycle::ZERO)
            .unwrap();
        assert!(m
            .allocate(LineAddr::new(3), target(2), MissKind::Read, Cycle::ZERO)
            .is_err());
        // Raising the limit allows the allocation again.
        m.set_capacity_limit(100);
        assert_eq!(m.capacity_limit(), 8); // clamped to capacity
        m.allocate(LineAddr::new(3), target(2), MissKind::Read, Cycle::ZERO)
            .unwrap();
    }

    #[test]
    fn swap_removed_slot_reallocates_cleanly() {
        let mut m = CamMshr::new(3);
        for i in 1..=3 {
            m.allocate(LineAddr::new(i), target(i), MissKind::Read, Cycle::ZERO)
                .unwrap();
        }
        // Removing the first entry moves the last one into its place.
        let (e, _) = m.deallocate(LineAddr::new(1)).unwrap();
        assert_eq!(e.targets(), &[target(1)]);
        assert_eq!(m.entry(LineAddr::new(3)).unwrap().targets(), &[target(3)]);
        let out = m
            .allocate(LineAddr::new(4), target(4), MissKind::Write, Cycle::new(9))
            .unwrap();
        assert!(out.is_primary());
        assert!(m.is_full());
        m.allocate(LineAddr::new(3), target(5), MissKind::Read, Cycle::ZERO)
            .unwrap();
        assert_eq!(
            m.entry(LineAddr::new(3)).unwrap().targets(),
            &[target(3), target(5)]
        );
        let e4 = m.entry(LineAddr::new(4)).unwrap();
        assert_eq!(
            (e4.kind(), e4.allocated_at()),
            (MissKind::Write, Cycle::new(9))
        );
        assert_eq!(e4.targets(), &[target(4)]);
        assert!(m.entry(LineAddr::new(1)).is_none());
        assert!(!m.lookup(LineAddr::new(1)).found);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = CamMshr::new(0);
    }

    #[test]
    fn every_operation_is_single_probe() {
        let mut m = CamMshr::new(32);
        for i in 0..32 {
            let out = m
                .allocate(LineAddr::new(i), target(i), MissKind::Read, Cycle::ZERO)
                .unwrap();
            assert_eq!(out.probes(), 1);
        }
        for i in 0..32 {
            assert_eq!(m.lookup(LineAddr::new(i)).probes, 1);
        }
    }
}
