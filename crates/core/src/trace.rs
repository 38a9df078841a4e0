//! Opt-in simulator event tracing.
//!
//! A [`TraceConfig`] on [`RunConfig`](crate::runner::RunConfig) selects
//! which event streams a run records: the DRAM command stream per memory
//! controller, periodic MSHR-bank occupancy samples, and periodic MC
//! queue-depth samples. Tracing is **off by default** and the hot loop pays
//! a single predictable branch when disabled (guarded by the
//! `trace_overhead` benchmark in `stacksim-bench`).
//!
//! The recorded streams come back as a [`Trace`] on the
//! [`RunResult`](crate::runner::RunResult), with a
//! [`summary`](Trace::summary) that folds the streams into exportable
//! metrics.
//!
//! # Examples
//!
//! ```
//! use stacksim::trace::TraceConfig;
//!
//! let off = TraceConfig::off();
//! assert!(!off.any());
//! let all = TraceConfig::all();
//! assert!(all.dram_cmds && all.mshr_occupancy && all.mc_queue_depth);
//! assert!(all.any());
//! ```

use core::fmt;

use stacksim_dram::DramCmd;
use stacksim_mshr::OccupancySample;
use stacksim_stats::MetricsSink;
use stacksim_types::Cycle;

/// Which event streams a run records, and how often the sampled streams
/// sample. Part of the run identity (`Copy + Eq + Hash`), so memoized runs
/// with different tracing never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceConfig {
    /// Record every DRAM command each memory controller issues.
    pub dram_cmds: bool,
    /// Sample each MSHR bank's occupancy every `sample_interval` cycles.
    pub mshr_occupancy: bool,
    /// Sample each memory controller's queue depth every `sample_interval`
    /// cycles.
    pub mc_queue_depth: bool,
    /// Core-clock cycles between samples of the sampled streams. Must be
    /// non-zero when a sampled stream is enabled.
    pub sample_interval: u64,
}

/// Default sampling period: fine enough to see refresh beats and tuner
/// phases, coarse enough that a full run stays small.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 1024;

impl TraceConfig {
    /// Everything disabled (the default).
    pub const fn off() -> TraceConfig {
        TraceConfig {
            dram_cmds: false,
            mshr_occupancy: false,
            mc_queue_depth: false,
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
        }
    }

    /// Every stream enabled at the default sampling interval.
    pub const fn all() -> TraceConfig {
        TraceConfig {
            dram_cmds: true,
            mshr_occupancy: true,
            mc_queue_depth: true,
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
        }
    }

    /// Whether any stream is enabled.
    pub const fn any(&self) -> bool {
        self.dram_cmds || self.mshr_occupancy || self.mc_queue_depth
    }

    /// Whether any *sampled* stream (occupancy, queue depth) is enabled.
    pub const fn samples(&self) -> bool {
        self.mshr_occupancy || self.mc_queue_depth
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

/// A point-in-time sample of one memory controller's request-queue depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueDepthSample {
    /// Core-clock cycle of the sample.
    pub at: Cycle,
    /// Which memory controller was sampled.
    pub mc: usize,
    /// Requests queued (not yet issued to DRAM) at the sample point.
    pub depth: usize,
}

impl fmt::Display for QueueDepthSample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} mc{} depth {}", self.at.raw(), self.mc, self.depth)
    }
}

/// The event streams one traced run recorded.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// DRAM command stream, one vector per memory controller, in issue
    /// order. Empty unless [`TraceConfig::dram_cmds`] was set.
    pub dram_cmds: Vec<Vec<DramCmd>>,
    /// MSHR occupancy samples across all banks, in time order. Empty unless
    /// [`TraceConfig::mshr_occupancy`] was set.
    pub mshr_occupancy: Vec<OccupancySample>,
    /// MC queue-depth samples across all controllers, in time order. Empty
    /// unless [`TraceConfig::mc_queue_depth`] was set.
    pub mc_queue_depth: Vec<QueueDepthSample>,
}

impl Trace {
    /// Total events across all streams.
    pub fn len(&self) -> usize {
        self.dram_cmds.iter().map(Vec::len).sum::<usize>()
            + self.mshr_occupancy.len()
            + self.mc_queue_depth.len()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds the streams into a metrics subtree (rooted `trace`): command
    /// counts per controller and kind, and occupancy / queue-depth sample
    /// counts with their observed means and maxima.
    pub fn summary(&self) -> MetricsSink {
        let mut sink = MetricsSink::new("trace");
        for (i, cmds) in self.dram_cmds.iter().enumerate() {
            let mc = sink.child_mut(format!("mc{i}"));
            mc.counter("dram_cmds", cmds.len() as u64);
            for kind in [
                stacksim_dram::DramCmdKind::Activate,
                stacksim_dram::DramCmdKind::Read,
                stacksim_dram::DramCmdKind::Write,
                stacksim_dram::DramCmdKind::Precharge,
                stacksim_dram::DramCmdKind::Refresh,
            ] {
                let n = cmds.iter().filter(|c| c.kind == kind).count() as u64;
                if n > 0 {
                    mc.counter(format!("cmd_{}", kind.mnemonic().to_lowercase()), n);
                }
            }
        }
        if !self.mshr_occupancy.is_empty() {
            let n = self.mshr_occupancy.len();
            let mean = self
                .mshr_occupancy
                .iter()
                .map(|s| s.occupancy as f64)
                .sum::<f64>()
                / n as f64;
            let max = self
                .mshr_occupancy
                .iter()
                .map(|s| s.occupancy)
                .max()
                .unwrap_or(0);
            let mshr = sink.child_mut("mshr");
            mshr.counter("occupancy_samples", n as u64);
            mshr.gauge("occupancy_mean", mean);
            mshr.counter("occupancy_max", max as u64);
        }
        if !self.mc_queue_depth.is_empty() {
            let n = self.mc_queue_depth.len();
            let mean = self
                .mc_queue_depth
                .iter()
                .map(|s| s.depth as f64)
                .sum::<f64>()
                / n as f64;
            let max = self
                .mc_queue_depth
                .iter()
                .map(|s| s.depth)
                .max()
                .unwrap_or(0);
            let q = sink.child_mut("queue");
            q.counter("depth_samples", n as u64);
            q.gauge("depth_mean", mean);
            q.counter("depth_max", max as u64);
        }
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stacksim_dram::DramCmdKind;

    #[test]
    fn config_flags() {
        assert_eq!(TraceConfig::default(), TraceConfig::off());
        assert!(!TraceConfig::off().samples());
        let mut c = TraceConfig::off();
        c.mc_queue_depth = true;
        assert!(c.any() && c.samples());
        let mut d = TraceConfig::off();
        d.dram_cmds = true;
        assert!(d.any() && !d.samples());
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.summary().is_empty());
    }

    #[test]
    fn summary_counts_streams() {
        let mut t = Trace::default();
        t.dram_cmds.push(vec![
            DramCmd {
                at: Cycle::new(1),
                rank: 0,
                bank: 0,
                row: 0,
                kind: DramCmdKind::Activate,
            },
            DramCmd {
                at: Cycle::new(2),
                rank: 0,
                bank: 0,
                row: 0,
                kind: DramCmdKind::Read,
            },
        ]);
        t.mshr_occupancy.push(OccupancySample {
            at: Cycle::new(5),
            bank: 0,
            occupancy: 3,
            limit: 8,
        });
        t.mc_queue_depth.push(QueueDepthSample {
            at: Cycle::new(5),
            mc: 0,
            depth: 2,
        });
        assert_eq!(t.len(), 4);
        let s = t.summary();
        assert_eq!(s.get("mc0.dram_cmds"), Some(2.0));
        assert_eq!(s.get("mc0.cmd_act"), Some(1.0));
        assert_eq!(s.get("mc0.cmd_rd"), Some(1.0));
        assert_eq!(s.get("mc0.cmd_pre"), None);
        assert_eq!(s.get("mshr.occupancy_mean"), Some(3.0));
        assert_eq!(s.get("queue.depth_max"), Some(2.0));
    }

    #[test]
    fn queue_sample_display() {
        let s = QueueDepthSample {
            at: Cycle::new(9),
            mc: 1,
            depth: 4,
        };
        assert_eq!(s.to_string(), "9 mc1 depth 4");
    }
}
