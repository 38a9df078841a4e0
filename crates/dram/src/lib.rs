//! DRAM device timing model for the `stacksim` simulator.
//!
//! Models the paper's memory arrays at the level its evaluation depends on:
//!
//! * per-bank timing state machines honouring tRP / tRCD / tCAS / tWR / tRAS
//!   (Table 1's 2D and true-3D parameter sets);
//! * single- or multi-entry **row-buffer caches** per bank (cached DRAM,
//!   §4.2) managed with LRU, one set of an [`LruSets`] per bank;
//! * periodic refresh (64 ms off-chip, 32 ms on-stack) that steals bank time
//!   and closes open rows;
//! * per-bank activity counters feeding a coarse energy model.
//!
//! Each memory controller owns one [`Banks`] store holding every bank of
//! its ranks: the banks' free cycles and open rows sit in flat arrays the
//! controller's scheduler scans, and each [`Bank`] keeps its command-time
//! maths, refresh state and counters. The controller drives it with
//! row-level reads and writes; this crate answers "when is the data ready
//! and when is the bank free again".
//!
//! [`LruSets`]: stacksim_types::LruSets
//!
//! # Examples
//!
//! ```
//! use stacksim_dram::{BankConfig, Banks};
//! use stacksim_types::{BankId, Cycle, DramTiming};
//!
//! let cfg = BankConfig::new(DramTiming::COMMODITY_2D.to_cycles(3.333e9), 1, None);
//! let mut banks = Banks::new(cfg, 1, 8, 32768);
//! let bank = BankId::new(0);
//! let first = banks.read(0, bank, 42, Cycle::ZERO);
//! assert!(!first.row_hit);
//! let second = banks.read(0, bank, 42, first.data_ready);
//! assert!(second.row_hit); // same row: row-buffer hit, CAS-only latency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod banks;
mod cmd;
mod power;

pub use bank::{AccessResult, Bank, BankConfig, CmdTimes, PagePolicy};
pub use banks::Banks;
pub use cmd::{DramCmd, DramCmdKind};
pub use power::{EnergyModel, EnergyReport};
