//! Core identifier, address, time and configuration types shared by every
//! crate in the `stacksim` workspace.
//!
//! `stacksim` reproduces Gabriel Loh's ISCA 2008 paper *"3D-Stacked Memory
//! Architectures for Multi-Core Processors"*. This crate holds the vocabulary
//! types that the cache, DRAM, memory-controller and CPU models all speak:
//!
//! * [`PhysAddr`], [`LineAddr`] and [`PageIndex`] — physical addresses and
//!   their cache-line / page granular views;
//! * [`Cycle`] — a point in simulated time, measured in CPU clock cycles;
//! * strongly-typed component identifiers ([`CoreId`], [`McId`], [`RankId`],
//!   [`BankId`], …);
//! * [`AddressMapper`] — the page-interleaved physical-address → DRAM
//!   location decode used throughout the paper's §4.1 floorplans;
//! * [`LruSets`] — the true-LRU way store of the caches and the DTLB;
//! * shared configuration structs ([`DramTiming`], [`BusConfig`], …).
//!
//! # Examples
//!
//! ```
//! use stacksim_types::{AddressMapper, MemoryGeometry, PhysAddr};
//!
//! let geom = MemoryGeometry::new(8 << 30, 8, 8, 4096, 2).unwrap();
//! let mapper = AddressMapper::new(geom);
//! let loc = mapper.decode(PhysAddr::new(0x1234_5678));
//! assert!(loc.mc.index() < 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod config;
mod error;
mod fast_hash;
mod ids;
mod lru;
mod mapping;
mod time;

pub use addr::{
    LineAddr, PageIndex, PhysAddr, LINE_BYTES, LINE_OFFSET_BITS, PAGE_BYTES, PAGE_OFFSET_BITS,
};
pub use config::{BusConfig, DramTiming, DramTimingCycles, MemoryKind, RefreshConfig};
pub use error::ConfigError;
pub use fast_hash::{FastBuildHasher, FastHasher};
pub use ids::{BankId, CoreId, L2BankId, McId, MshrBankId, RankId, ThreadId};
pub use lru::LruSets;
pub use mapping::{AddressMapper, DramLocation, InterleaveGranularity, MemoryGeometry};
pub use time::{ClockDomain, Cycle, Cycles};
