//! Property-based tests of DRAM bank timing invariants: causality,
//! monotonic bank occupancy, tRAS spacing, and the latency ordering
//! between row hits, misses and the two page policies; and of the bank
//! store's open rows and free cycles against a naive per-bank model.

use std::collections::VecDeque;

use proptest::prelude::*;

use stacksim_dram::{AccessResult, BankConfig, Banks, PagePolicy};
use stacksim_types::{BankId, Cycle, Cycles, DramTiming};

const HZ: f64 = 3.333e9;

/// The one bank of a one-bank store.
const B0: BankId = BankId::new(0);

fn bank(row_buffers: usize, policy: PagePolicy) -> Banks {
    let cfg = BankConfig::new(DramTiming::COMMODITY_2D.to_cycles(HZ), row_buffers, None)
        .with_page_policy(policy);
    Banks::new(cfg, 1, 1, 64)
}

fn access(
    b: &mut Banks,
    rank: usize,
    bank: BankId,
    row: u64,
    write: bool,
    now: Cycle,
) -> AccessResult {
    if write {
        b.write(rank, bank, row, now)
    } else {
        b.read(rank, bank, row, now)
    }
}

#[derive(Clone, Debug)]
struct Access {
    row: u64,
    write: bool,
    gap: u64,
}

fn access_strategy() -> impl Strategy<Value = Access> {
    (0u64..64, any::<bool>(), 0u64..300).prop_map(|(row, write, gap)| Access { row, write, gap })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn timing_is_causal_and_monotone(
        accesses in proptest::collection::vec(access_strategy(), 1..100),
        row_buffers in 1usize..=4,
        closed in any::<bool>(),
    ) {
        let policy = if closed { PagePolicy::Closed } else { PagePolicy::Open };
        let mut b = bank(row_buffers, policy);
        let timing = DramTiming::COMMODITY_2D.to_cycles(HZ);
        let mut now = Cycle::ZERO;
        let mut last_free = Cycle::ZERO;
        for (i, a) in accesses.iter().enumerate() {
            now += Cycles::new(a.gap);
            let r = access(&mut b, 0, B0, a.row, a.write, now);
            // Causality: nothing completes before it was requested.
            prop_assert!(r.data_ready >= now, "step {i}: data before request");
            prop_assert!(r.bank_free >= now, "step {i}: free before request");
            // Bank occupancy only moves forward.
            prop_assert!(r.bank_free >= last_free, "step {i}: bank time went backwards");
            last_free = r.bank_free;
            // A read's latency is at least tCAS and at most a full row
            // cycle past the point the bank accepted it.
            if !a.write {
                let latency = r.data_ready.saturating_since(now);
                prop_assert!(latency >= timing.t_cas, "step {i}: impossibly fast read");
            }
            // Closed-page never reports a row hit.
            if closed {
                prop_assert!(!r.row_hit, "step {i}: closed page cannot row-hit");
            }
        }
        // Bookkeeping is conserved.
        let b = b.bank(0, B0);
        prop_assert_eq!(b.reads() + b.writes(), accesses.len() as u64);
        prop_assert_eq!(b.row_hits() + b.row_misses(), accesses.len() as u64);
        prop_assert_eq!(b.activates(), b.row_misses());
    }

    #[test]
    fn more_row_buffers_never_reduce_hits(
        accesses in proptest::collection::vec(access_strategy(), 1..120),
    ) {
        // Same back-to-back access stream (each access issued when the bank
        // frees): a larger row-buffer cache can only keep more rows open.
        let mut hits = Vec::new();
        for entries in [1usize, 2, 4] {
            let mut b = bank(entries, PagePolicy::Open);
            let mut now = Cycle::ZERO;
            for a in &accesses {
                let r = b.read(0, B0, a.row, now);
                now = r.bank_free;
            }
            hits.push(b.bank(0, B0).row_hits());
        }
        prop_assert!(hits[1] >= hits[0], "2 buffers lost hits: {:?}", hits);
        prop_assert!(hits[2] >= hits[1], "4 buffers lost hits: {:?}", hits);
    }

    #[test]
    fn row_hit_is_never_slower_than_miss(row in 0u64..64, other in 0u64..64) {
        prop_assume!(row != other);
        // Hit latency measured from a quiet bank with the row open.
        let mut b = bank(1, PagePolicy::Open);
        let warm = b.read(0, B0, row, Cycle::ZERO);
        let hit = b.read(0, B0, row, warm.bank_free);
        let hit_latency = hit.data_ready.saturating_since(warm.bank_free);
        // Miss latency from an equally quiet bank with a different row open.
        let mut b2 = bank(1, PagePolicy::Open);
        let warm2 = b2.read(0, B0, other, Cycle::ZERO);
        let start = warm2.bank_free + Cycles::new(10_000); // let tRAS pass
        let miss = b2.read(0, B0, row, start);
        let miss_latency = miss.data_ready.saturating_since(start);
        prop_assert!(hit.row_hit);
        prop_assert!(!miss.row_hit);
        prop_assert!(hit_latency < miss_latency, "hit {:?} !< miss {:?}", hit_latency, miss_latency);
    }

    /// Random reads and writes at random times, across ranks and banks,
    /// give the same row hits, open rows and bank-free cycles as one
    /// naive LRU list per bank, whatever the row-buffer count, page
    /// policy and refresh mode.
    #[test]
    fn banks_match_naive_row_reference(
        ops in proptest::collection::vec(
            (0usize..3, 0u16..3, 0u64..ROWS, any::<bool>(), 0u64..400),
            1..300,
        ),
        entries in 1usize..=4,
        ranks in 2usize..=3,
        closed in any::<bool>(),
        refresh in any::<bool>(),
        smart in any::<bool>(),
    ) {
        let policy = if closed { PagePolicy::Closed } else { PagePolicy::Open };
        let interval = refresh.then(|| Cycles::new(700));
        let cfg = BankConfig::new(DramTiming::COMMODITY_2D.to_cycles(HZ), entries, interval)
            .with_page_policy(policy)
            .with_smart_refresh(smart);
        let mut banks = Banks::new(cfg, ranks, BANKS_PER_RANK, ROWS);
        let mut reference = vec![RefBank::default(); ranks * BANKS_PER_RANK];
        let mut now = Cycle::ZERO;
        for (i, &(rank, bank, row, write, gap)) in ops.iter().enumerate() {
            let rank = rank % ranks;
            let id = BankId::new(bank);
            now += Cycles::new(gap);
            let r = access(&mut banks, rank, id, row, write, now);
            let model = &mut reference[rank * BANKS_PER_RANK + usize::from(bank)];
            // A refresh (caught up inside the access, before the lookup)
            // closes every open row of its bank.
            let refreshes = banks.bank(rank, id).refreshes();
            if refreshes > model.refreshes {
                model.refreshes = refreshes;
                model.open.clear();
            }
            let hit = model.open.contains(&row);
            prop_assert_eq!(r.row_hit, hit, "step {}: row hit of rank {} bank {} row {}", i, rank, bank, row);
            if !closed {
                model.open.retain(|&open| open != row);
                model.open.push_front(row);
                model.open.truncate(entries);
            }
            model.free_at = r.bank_free;
            for (f, model) in reference.iter().enumerate() {
                let (rank, id) = (f / BANKS_PER_RANK, BankId::new((f % BANKS_PER_RANK) as u16));
                prop_assert_eq!(banks.bank_free_at(rank, id), model.free_at, "step {}: free cycle of bank {}", i, f);
                for probe in 0..ROWS {
                    prop_assert_eq!(
                        banks.is_row_open(rank, id, probe),
                        model.open.contains(&probe),
                        "step {}: row {} of bank {}", i, probe, f
                    );
                }
            }
        }
    }
}

/// Banks per rank and rows per bank in the store-versus-model test: few
/// enough that row buffers fill, evict and get refreshed often.
const BANKS_PER_RANK: usize = 3;
const ROWS: u64 = 8;

/// The naive model of one bank: its open rows, most recently used first,
/// its free cycle after the last access, and the refreshes seen so far.
#[derive(Clone, Default)]
struct RefBank {
    open: VecDeque<u64>,
    free_at: Cycle,
    refreshes: u64,
}
