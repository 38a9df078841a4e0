//! Core configuration (Table 1 of the paper).

use stacksim_cache::CacheConfig;

use crate::branch::TageConfig;

/// Static configuration of one core.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CoreConfig {
    /// µops dispatched per cycle (4 in the paper).
    pub issue_width: usize,
    /// µops committed per cycle (4 in the paper).
    pub commit_width: usize,
    /// Reorder-window capacity (96-entry ROB in the paper).
    pub window: usize,
    /// Private DL1 geometry (24 KB / 12-way in the paper).
    pub dl1: CacheConfig,
    /// DL1 MSHR entries (8 in the paper) — the core's MLP limit.
    pub l1_mshrs: usize,
    /// Next-line prefetch degree at the DL1 (0 disables).
    pub nextline_degree: usize,
    /// IP-stride prefetcher table entries at the DL1 (0 disables).
    pub stride_entries: usize,
    /// Branch predictor; `None` models perfect prediction (Table 1: TAGE
    /// 4 KB / 5 tables, 14-cycle minimum misprediction penalty).
    pub branch: Option<TageConfig>,
}

impl CoreConfig {
    /// The paper's 45 nm "Penryn"-class core (Table 1).
    pub fn penryn() -> CoreConfig {
        CoreConfig {
            issue_width: 4,
            commit_width: 4,
            window: 96,
            dl1: CacheConfig::dl1_penryn(),
            l1_mshrs: 8,
            nextline_degree: 1,
            stride_entries: 64,
            branch: Some(TageConfig::penryn_4kb()),
        }
    }

    /// Disables both DL1 prefetchers (for workload characterization runs).
    pub fn without_prefetchers(self) -> CoreConfig {
        CoreConfig {
            nextline_degree: 0,
            stride_entries: 0,
            ..self
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any width or the window is zero, the window is smaller
    /// than the issue width, or the DL1 is not a whole number of sets.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}"); // simlint::allow(P003, reason = "documented panicking validator; `check` is the typed-error path")
        }
    }

    /// Non-panicking counterpart of [`validate`](CoreConfig::validate), for
    /// callers assembling configurations from untrusted data (the scenario
    /// loader's heterogeneous `per_core` entries).
    ///
    /// # Errors
    ///
    /// Returns the first consistency problem as a message.
    ///
    /// # Examples
    ///
    /// ```
    /// use stacksim_cpu::CoreConfig;
    ///
    /// assert!(CoreConfig::penryn().check().is_ok());
    /// let narrow = CoreConfig { window: 2, ..CoreConfig::penryn() };
    /// assert!(narrow.check().is_err());
    /// ```
    pub fn check(&self) -> Result<(), String> {
        if self.issue_width == 0 {
            return Err("issue width must be non-zero".into());
        }
        if self.commit_width == 0 {
            return Err("commit width must be non-zero".into());
        }
        if self.window < self.issue_width {
            return Err("window smaller than issue width".into());
        }
        if self.l1_mshrs == 0 {
            return Err("core needs at least one L1 MSHR".into());
        }
        if self.dl1.whole_sets().is_none() {
            return Err(format!(
                "dl1.size_bytes = {} B is not a whole number of {}-way sets of 64 B lines",
                self.dl1.size_bytes, self.dl1.associativity
            ));
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::penryn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penryn_matches_table1() {
        let c = CoreConfig::penryn();
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.window, 96);
        assert_eq!(c.l1_mshrs, 8);
        assert_eq!(c.dl1.size_bytes, 24 << 10);
        assert_eq!(c.dl1.associativity, 12);
        assert!(c.branch.is_some());
        c.validate();
    }

    #[test]
    fn without_prefetchers_clears_both() {
        let c = CoreConfig::penryn().without_prefetchers();
        assert_eq!(c.nextline_degree, 0);
        assert_eq!(c.stride_entries, 0);
    }

    #[test]
    #[should_panic(expected = "window smaller")]
    fn validate_rejects_tiny_window() {
        let c = CoreConfig {
            window: 2,
            ..CoreConfig::penryn()
        };
        c.validate();
    }
}
