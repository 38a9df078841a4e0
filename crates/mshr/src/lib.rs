//! Miss-status-handling-register (MSHR) architectures for the `stacksim`
//! simulator, including the paper's novel **Vector Bloom Filter** MSHR.
//!
//! Section 5 of Loh's ISCA 2008 paper observes that once the 3D-stacked
//! memory system is fast enough, the L2 miss-handling architecture becomes
//! the bottleneck, and that traditional fully-associative CAM MSHRs do not
//! scale in capacity. This crate implements every organization the paper
//! discusses or compares against:
//!
//! * [`CamMshr`] — the ideal single-cycle fully-associative CAM baseline;
//! * [`DirectMappedMshr`] — a scalable direct-mapped hash table with linear
//!   (or, for the footnote-2 ablation, quadratic) probing;
//! * [`VbfMshr`] — the direct-mapped table augmented with the
//!   [`VectorBloomFilter`], which remembers, per home slot, the displacement
//!   of every entry that hashed there and thereby skips useless probes;
//! * [`HierarchicalMshr`] — Tuck et al.'s banked + shared-overflow design
//!   (the paper's preferred L1 organization, used here as a comparison
//!   point);
//! * [`DynamicTuner`] — the sampling-based dynamic MSHR capacity tuning of
//!   §5.1 (1×, ½×, ¼× of maximum, chosen by brief training phases).
//!
//! All implementations speak the common [`MissHandler`] trait, which reports
//! the number of sequential probes each operation required so the timing
//! model can charge for MSHR search latency.
//!
//! # Examples
//!
//! ```
//! use stacksim_mshr::{MissHandler, MissKind, MissTarget, VbfMshr};
//! use stacksim_types::{CoreId, Cycle, LineAddr};
//!
//! let mut mshr = VbfMshr::new(8);
//! let target = MissTarget::demand(CoreId::new(0), 1);
//! let out = mshr.allocate(LineAddr::new(13), target, MissKind::Read, Cycle::ZERO).unwrap();
//! assert!(out.is_primary());
//! assert!(mshr.lookup(LineAddr::new(13)).found);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cam;
mod direct;
mod dynamic;
mod entry;
mod handler;
mod hierarchical;
mod vbf;

pub use cam::CamMshr;
pub use direct::{DirectMappedMshr, ProbeScheme};
pub use dynamic::{DynamicTuner, TunerConfig, TunerPhase};
pub use entry::{MissKind, MissTarget, MshrEntry, INLINE_TARGETS};
pub use handler::{AllocError, AllocOutcome, LookupResult, MissHandler, MshrKind};
pub use hierarchical::HierarchicalMshr;
pub use vbf::{VbfMshr, VectorBloomFilter};
