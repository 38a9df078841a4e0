//! Memory request scheduling policies.

use core::fmt;
use stacksim_dram::Banks;
use stacksim_types::Cycle;

use crate::request::MemRequest;

/// The arbitration policy a memory controller uses to pick the next request
/// from its queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerPolicy {
    /// Strict arrival order, gated only on bank readiness.
    Fifo,
    /// First-ready, first-come-first-serve: among requests whose bank is
    /// free, prefer row-buffer hits, then the oldest (Rixner et al.; the
    /// paper's assumed controller, §2.4).
    #[default]
    FrFcfs,
}

impl SchedulerPolicy {
    /// Parses the [`Display`](fmt::Display) name back into a policy (the
    /// scenario-file spelling). `None` for an unknown name.
    ///
    /// # Examples
    ///
    /// ```
    /// use stacksim_memctrl::SchedulerPolicy;
    ///
    /// assert_eq!(SchedulerPolicy::from_name("fifo"), Some(SchedulerPolicy::Fifo));
    /// assert_eq!(SchedulerPolicy::from_name("frfcfs"), None);
    /// ```
    pub fn from_name(name: &str) -> Option<SchedulerPolicy> {
        match name {
            "fifo" => Some(SchedulerPolicy::Fifo),
            "fr-fcfs" => Some(SchedulerPolicy::FrFcfs),
            _ => None,
        }
    }
}

impl fmt::Display for SchedulerPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerPolicy::Fifo => f.write_str("fifo"),
            SchedulerPolicy::FrFcfs => f.write_str("fr-fcfs"),
        }
    }
}

impl SchedulerPolicy {
    /// Picks the queue index of the request to issue at `now`, or `None` if
    /// no request's bank can accept a command yet. `banks` is the
    /// controller's bank store, indexed by `location.rank_in_mc` and
    /// `location.bank`.
    pub fn pick(&self, queue: &[MemRequest], banks: &Banks, now: Cycle) -> Option<usize> {
        let ready = |req: &MemRequest| {
            banks.bank_free_at(req.location.rank_in_mc as usize, req.location.bank) <= now
        };
        match self {
            SchedulerPolicy::Fifo => {
                // Head-of-line only: FIFO does not look past the oldest
                // request, which is precisely its weakness.
                queue.first().filter(|r| ready(r)).map(|_| 0)
            }
            SchedulerPolicy::FrFcfs => {
                let mut oldest_ready: Option<usize> = None;
                for (i, req) in queue.iter().enumerate() {
                    if !ready(req) {
                        continue;
                    }
                    if banks.is_row_open(
                        req.location.rank_in_mc as usize,
                        req.location.bank,
                        req.location.row,
                    ) {
                        // First ready row hit in arrival order wins outright.
                        return Some(i);
                    }
                    if oldest_ready.is_none() {
                        oldest_ready = Some(i);
                    }
                }
                oldest_ready
            }
        }
    }

    /// The earliest cycle at which [`pick`](Self::pick) could return a
    /// request, before rounding to the controller's clock: the head
    /// request's bank-free time for FIFO (which never looks past the
    /// head), the first-free bank among all queued requests for FR-FCFS.
    /// `None` for an empty queue. Used by the simulator's fast-forward to
    /// bound how far an idle stretch can be skipped.
    pub fn earliest_ready<'a>(
        &self,
        mut queue: impl Iterator<Item = &'a MemRequest>,
        banks: &Banks,
    ) -> Option<Cycle> {
        let free_at = |req: &MemRequest| {
            banks.bank_free_at(req.location.rank_in_mc as usize, req.location.bank)
        };
        match self {
            SchedulerPolicy::Fifo => queue.next().map(free_at),
            SchedulerPolicy::FrFcfs => queue.map(free_at).min(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_dram::BankConfig;
    use stacksim_types::{AddressMapper, BankId, CoreId, DramTiming, MemoryGeometry, PhysAddr};

    use crate::request::RequestKind;

    fn setup() -> (Banks, AddressMapper) {
        let cfg = BankConfig::new(DramTiming::COMMODITY_2D.to_cycles(3.333e9), 1, None);
        let banks = Banks::new(cfg, 1, 8, 1 << 15);
        let geom = MemoryGeometry::new(8 << 30, 1, 8, 4096, 1).unwrap();
        (banks, AddressMapper::new(geom))
    }

    fn req(mapper: &AddressMapper, page: u64, arrival: u64) -> MemRequest {
        let addr = PhysAddr::new(page * 4096);
        MemRequest {
            line: addr.line(),
            location: mapper.decode(addr),
            kind: RequestKind::Read,
            core: CoreId::new(0),
            arrival: Cycle::new(arrival),
            token: arrival,
        }
    }

    #[test]
    fn frfcfs_prefers_open_row() {
        let (mut banks, mapper) = setup();
        // Queue: older request to a *different* bank's row (closed), newer
        // request to page 8's row (page p -> bank p%8).
        let q = vec![req(&mapper, 1, 0), req(&mapper, 8, 5)];
        assert_eq!(
            SchedulerPolicy::FrFcfs.pick(&q, &banks, Cycle::ZERO),
            Some(0),
            "no row open yet: oldest first"
        );

        // Open page 8's row through the store the scheduler reads.
        let loc = q[1].location;
        let free = banks
            .read(loc.rank_in_mc as usize, loc.bank, loc.row, Cycle::ZERO)
            .bank_free;
        let pick = SchedulerPolicy::FrFcfs.pick(&q, &banks, free).unwrap();
        assert_eq!(pick, 1, "row hit should be scheduled first");

        // FIFO picks strictly in order.
        let pick = SchedulerPolicy::Fifo.pick(&q, &banks, free).unwrap();
        assert_eq!(pick, 0);
    }

    #[test]
    fn busy_banks_block_requests() {
        let (mut banks, mapper) = setup();
        let q = vec![req(&mapper, 3, 0)];
        assert_eq!(
            SchedulerPolicy::FrFcfs.pick(&q, &banks, Cycle::new(1)),
            Some(0)
        );
        let loc = q[0].location;
        banks.read(loc.rank_in_mc as usize, loc.bank, loc.row, Cycle::ZERO); // bank 3 busy for a while
        assert_eq!(
            SchedulerPolicy::FrFcfs.pick(&q, &banks, Cycle::new(1)),
            None
        );
        assert_eq!(SchedulerPolicy::Fifo.pick(&q, &banks, Cycle::new(1)), None);
        let free = banks.bank_free_at(0, BankId::new(3));
        assert_eq!(
            SchedulerPolicy::FrFcfs.earliest_ready(q.iter(), &banks),
            Some(free)
        );
        assert_eq!(SchedulerPolicy::FrFcfs.pick(&q, &banks, free), Some(0));
    }

    #[test]
    fn frfcfs_falls_back_to_oldest_ready() {
        let (banks, mapper) = setup();
        // No rows open anywhere: oldest ready request wins.
        let q = vec![req(&mapper, 2, 0), req(&mapper, 3, 1)];
        assert_eq!(
            SchedulerPolicy::FrFcfs.pick(&q, &banks, Cycle::ZERO),
            Some(0)
        );
    }

    #[test]
    fn empty_queue_picks_nothing() {
        let (banks, _) = setup();
        assert_eq!(SchedulerPolicy::FrFcfs.pick(&[], &banks, Cycle::ZERO), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(SchedulerPolicy::Fifo.to_string(), "fifo");
        assert_eq!(SchedulerPolicy::FrFcfs.to_string(), "fr-fcfs");
    }
}
