//! MSHR entries and the requests merged into them.

use core::fmt;
use stacksim_types::{CoreId, Cycle, LineAddr};

/// What kind of memory operation a miss represents.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MissKind {
    /// A demand or prefetch read (line fill).
    #[default]
    Read,
    /// A write/ownership miss (write-allocate fill).
    Write,
    /// A dirty-line writeback to memory.
    Writeback,
}

/// One requestor waiting on an outstanding miss.
///
/// A primary miss allocates the MSHR entry; secondary misses to the same
/// line *merge* into the existing entry as additional targets and are all
/// woken when the fill returns (Kroft-style lockup-free operation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MissTarget {
    /// Core that issued the request.
    pub core: CoreId,
    /// Opaque token the owner uses to match completions back to requests.
    pub token: u64,
    /// Whether this target is a hardware prefetch (no core is stalled on it).
    pub is_prefetch: bool,
}

impl MissTarget {
    /// A demand-miss target.
    pub const fn demand(core: CoreId, token: u64) -> Self {
        MissTarget {
            core,
            token,
            is_prefetch: false,
        }
    }

    /// A prefetch target.
    pub const fn prefetch(core: CoreId, token: u64) -> Self {
        MissTarget {
            core,
            token,
            is_prefetch: true,
        }
    }
}

impl fmt::Display for MissTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{}{}",
            self.core,
            self.token,
            if self.is_prefetch { "(pf)" } else { "" }
        )
    }
}

/// Targets an entry holds without a heap allocation. Merging past this
/// many moves the whole target list to the heap, in merge order.
pub const INLINE_TARGETS: usize = 2;

/// One allocated MSHR entry: an outstanding miss and its merged targets.
///
/// The first [`INLINE_TARGETS`] targets live inside the entry, so a
/// primary miss never allocates; only an entry merging more than that
/// spills its list to the heap. Target storage is a function of the target
/// list alone (`new` fills the unused inline slots with the first target),
/// so the derived equality compares targets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MshrEntry {
    line: LineAddr,
    kind: MissKind,
    allocated_at: Cycle,
    len: usize,
    /// The targets while `len <= INLINE_TARGETS`; stale once spilled.
    inline: [MissTarget; INLINE_TARGETS],
    /// Every target, in merge order, once `len > INLINE_TARGETS`.
    spill: Option<Vec<MissTarget>>,
}

impl MshrEntry {
    /// Creates an entry for a primary miss.
    pub fn new(line: LineAddr, first: MissTarget, kind: MissKind, now: Cycle) -> Self {
        MshrEntry {
            line,
            kind,
            allocated_at: now,
            len: 1,
            inline: [first; INLINE_TARGETS],
            spill: None,
        }
    }

    /// The missed line address.
    pub const fn line(&self) -> LineAddr {
        self.line
    }

    /// The operation kind of the primary miss.
    pub const fn kind(&self) -> MissKind {
        self.kind
    }

    /// Cycle the entry was allocated.
    pub const fn allocated_at(&self) -> Cycle {
        self.allocated_at
    }

    /// All merged targets, primary first.
    pub fn targets(&self) -> &[MissTarget] {
        match &self.spill {
            Some(all) => all,
            None => &self.inline[..self.len],
        }
    }

    /// Merges a secondary miss into this entry.
    pub fn merge(&mut self, target: MissTarget) {
        if let Some(all) = &mut self.spill {
            all.push(target);
        } else if self.len < INLINE_TARGETS {
            self.inline[self.len] = target;
        } else {
            let all = self.spill.get_or_insert_default();
            all.extend_from_slice(&self.inline);
            all.push(target);
        }
        self.len += 1;
    }

    /// Number of merged targets (≥ 1).
    pub const fn target_count(&self) -> usize {
        self.len
    }

    /// Whether any target is a demand (non-prefetch) request.
    pub fn has_demand(&self) -> bool {
        self.targets().iter().any(|t| !t.is_prefetch)
    }
}

impl fmt::Display for MshrEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} {:?} {}",
            self.line, self.len, self.kind, self.allocated_at
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_targets() {
        let mut e = MshrEntry::new(
            LineAddr::new(5),
            MissTarget::demand(CoreId::new(0), 1),
            MissKind::Read,
            Cycle::ZERO,
        );
        e.merge(MissTarget::prefetch(CoreId::new(1), 2));
        assert_eq!(e.target_count(), 2);
        assert!(e.has_demand());
        assert_eq!(e.targets()[0].token, 1);
    }

    #[test]
    fn prefetch_only_entry_has_no_demand() {
        let e = MshrEntry::new(
            LineAddr::new(5),
            MissTarget::prefetch(CoreId::new(0), 1),
            MissKind::Read,
            Cycle::ZERO,
        );
        assert!(!e.has_demand());
    }

    #[test]
    fn display_forms() {
        let t = MissTarget::prefetch(CoreId::new(2), 9);
        assert_eq!(t.to_string(), "core2#9(pf)");
        let t2 = MissTarget::demand(CoreId::new(0), 3);
        assert_eq!(t2.to_string(), "core0#3");
    }
}
