//! A coarse DRAM energy model.
//!
//! The paper argues qualitatively that row-buffer-cache hits save the power
//! of full array accesses (§4.2) and that smaller banks reduce dynamic power
//! per access (§4.1). This module turns the bank activity counters into
//! energy estimates so those claims can be quantified in the ablation
//! benches. Per-event energies default to DDR2-class values; they are knobs,
//! not silicon ground truth.

use crate::bank::Bank;

/// Per-event DRAM energy parameters, in nanojoules.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Energy of one row activation + restore (the dominant array cost).
    pub activate_nj: f64,
    /// Energy of one column read burst.
    pub read_nj: f64,
    /// Energy of one column write burst.
    pub write_nj: f64,
    /// Energy of refreshing one row.
    pub refresh_nj: f64,
}

impl EnergyModel {
    /// DDR2-class default energies.
    pub const DDR2: EnergyModel = EnergyModel {
        activate_nj: 3.0,
        read_nj: 1.0,
        write_nj: 1.1,
        refresh_nj: 3.2,
    };

    /// A model scaled for the smaller banks of a higher-rank-count
    /// organization: activation energy shrinks roughly with bank size
    /// (shorter wordlines/bitlines, §4.1).
    pub fn with_bank_scale(self, scale: f64) -> EnergyModel {
        assert!(scale > 0.0, "scale must be positive");
        EnergyModel {
            activate_nj: self.activate_nj * scale,
            refresh_nj: self.refresh_nj * scale,
            ..self
        }
    }

    /// Estimates the energy one bank consumed, from its activity counters.
    pub fn energy_of(&self, bank: &Bank) -> EnergyReport {
        let activate = bank.activates() as f64 * self.activate_nj;
        let read = bank.reads() as f64 * self.read_nj;
        let write = bank.writes() as f64 * self.write_nj;
        let refresh = bank.refreshes() as f64 * self.refresh_nj;
        EnergyReport {
            activate_nj: activate,
            read_nj: read,
            write_nj: write,
            refresh_nj: refresh,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::DDR2
    }
}

/// Energy consumed, broken down by event class (nanojoules).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyReport {
    /// Activation energy.
    pub activate_nj: f64,
    /// Read-burst energy.
    pub read_nj: f64,
    /// Write-burst energy.
    pub write_nj: f64,
    /// Refresh energy.
    pub refresh_nj: f64,
}

impl EnergyReport {
    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.activate_nj + self.read_nj + self.write_nj + self.refresh_nj
    }

    /// Adds another report into this one.
    pub fn accumulate(&mut self, other: &EnergyReport) {
        self.activate_nj += other.activate_nj;
        self.read_nj += other.read_nj;
        self.write_nj += other.write_nj;
        self.refresh_nj += other.refresh_nj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::BankConfig;
    use crate::Banks;
    use stacksim_types::{BankId, Cycle, DramTiming};

    fn active_bank(row_buffers: usize, accesses: &[u64]) -> Bank {
        let cfg = BankConfig::new(
            DramTiming::COMMODITY_2D.to_cycles(3.333e9),
            row_buffers,
            None,
        );
        let mut b = Banks::new(cfg, 1, 1, 1024);
        let mut now = Cycle::ZERO;
        for &row in accesses {
            let r = b.read(0, BankId::new(0), row, now);
            now = r.bank_free;
        }
        b.bank(0, BankId::new(0)).clone()
    }

    #[test]
    fn row_hits_save_activation_energy() {
        // Same access stream; 4 row buffers turn repeats into hits.
        let stream = [1u64, 2, 1, 2, 1, 2, 1, 2];
        let thrash = active_bank(1, &stream);
        let cached = active_bank(4, &stream);
        let m = EnergyModel::DDR2;
        assert!(
            m.energy_of(&cached).total_nj() < m.energy_of(&thrash).total_nj(),
            "row-buffer cache must save energy"
        );
        assert_eq!(m.energy_of(&cached).activate_nj, 2.0 * m.activate_nj);
    }

    #[test]
    fn accumulate_and_total() {
        let mut a = EnergyReport {
            activate_nj: 1.0,
            read_nj: 2.0,
            write_nj: 3.0,
            refresh_nj: 4.0,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total_nj(), 20.0);
    }

    #[test]
    fn bank_scale_shrinks_activation() {
        let m = EnergyModel::DDR2.with_bank_scale(0.5);
        assert_eq!(m.activate_nj, 1.5);
        assert_eq!(m.read_nj, EnergyModel::DDR2.read_nj);
    }
}
