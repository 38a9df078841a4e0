//! The RC-network solver.

use core::fmt;

use crate::stack::{StackConfig, DRAM_THERMAL_LIMIT_C};

/// Result of a thermal solve.
#[derive(Clone, Debug, PartialEq)]
pub struct ThermalReport {
    /// Hottest cell anywhere in the stack, °C.
    pub max_c: f64,
    /// Hottest cell per layer (bottom-up), °C.
    pub layer_max_c: Vec<f64>,
    /// Hottest DRAM cell, °C (`None` if the stack has no DRAM layer).
    pub dram_max_c: Option<f64>,
}

impl ThermalReport {
    /// Whether every DRAM layer stays within the SDRAM datasheet limit —
    /// the paper's reported thermal conclusion.
    pub fn within_dram_limit(&self) -> bool {
        self.dram_max_c.is_none_or(|t| t <= DRAM_THERMAL_LIMIT_C)
    }
}

impl fmt::Display for ThermalReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "max {:.1}C, dram max {}",
            self.max_c,
            match self.dram_max_c {
                Some(t) => format!("{t:.1}C"),
                None => "n/a".into(),
            }
        )
    }
}

/// The discretized stack: one temperature per cell, uniform per-layer power
/// by default with optional per-cell overrides (hotspots).
#[derive(Clone, Debug)]
pub struct ThermalGrid {
    config: StackConfig,
    /// Cell temperatures, layer-major then row-major.
    temps: Vec<f64>,
    /// Per-cell power, watts.
    powers: Vec<f64>,
}

impl ThermalGrid {
    /// Creates a grid at ambient temperature with each layer's power spread
    /// uniformly over its cells.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`StackConfig::validate`]).
    pub fn new(config: StackConfig) -> Self {
        config.validate();
        let n = config.grid;
        let cells = config.cell_count();
        let mut powers = vec![0.0; cells];
        for (l, layer) in config.layers.iter().enumerate() {
            let per_cell = layer.power_w / (n * n) as f64;
            for c in 0..n * n {
                powers[l * n * n + c] = per_cell;
            }
        }
        let temps = vec![config.ambient_c; cells];
        ThermalGrid {
            config,
            temps,
            powers,
        }
    }

    /// The configuration in force.
    pub const fn config(&self) -> &StackConfig {
        &self.config
    }

    #[inline]
    fn idx(&self, layer: usize, x: usize, y: usize) -> usize {
        let n = self.config.grid;
        layer * n * n + y * n + x
    }

    /// Concentrates an extra `watts` on one cell (a core hotspot).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn add_hotspot(&mut self, layer: usize, x: usize, y: usize, watts: f64) {
        let n = self.config.grid;
        assert!(
            layer < self.config.layers.len() && x < n && y < n,
            "hotspot out of range"
        );
        let i = self.idx(layer, x, y);
        self.powers[i] += watts;
    }

    /// Temperature of one cell, °C.
    pub fn cell_temp(&self, layer: usize, x: usize, y: usize) -> f64 {
        self.temps[self.idx(layer, x, y)]
    }

    /// Neighbour conductance bookkeeping for one cell: returns
    /// `(sum_of_g, sum_of_g_times_t)`.
    fn cell_balance(&self, layer: usize, x: usize, y: usize) -> (f64, f64) {
        let cfg = &self.config;
        let n = cfg.grid;
        let gv = 1.0 / cfg.r_vertical;
        let gl = 1.0 / cfg.r_lateral;
        let gs = 1.0 / cfg.r_sink;
        let mut g_sum = 0.0;
        let mut gt_sum = 0.0;
        // Lateral neighbours.
        if x > 0 {
            g_sum += gl;
            gt_sum += gl * self.temps[self.idx(layer, x - 1, y)];
        }
        if x + 1 < n {
            g_sum += gl;
            gt_sum += gl * self.temps[self.idx(layer, x + 1, y)];
        }
        if y > 0 {
            g_sum += gl;
            gt_sum += gl * self.temps[self.idx(layer, x, y - 1)];
        }
        if y + 1 < n {
            g_sum += gl;
            gt_sum += gl * self.temps[self.idx(layer, x, y + 1)];
        }
        // Vertical neighbours.
        if layer > 0 {
            g_sum += gv;
            gt_sum += gv * self.temps[self.idx(layer - 1, x, y)];
        }
        if layer + 1 < cfg.layers.len() {
            g_sum += gv;
            gt_sum += gv * self.temps[self.idx(layer + 1, x, y)];
        }
        // Heat sink below layer 0.
        if layer == 0 {
            g_sum += gs;
            gt_sum += gs * cfg.ambient_c;
        }
        (g_sum, gt_sum)
    }

    /// Solves for the steady state by Gauss–Seidel iteration and returns
    /// the report. Temperatures are left at the solution, so
    /// [`cell_temp`](ThermalGrid::cell_temp) reads it per cell.
    pub fn solve_steady_state(&mut self) -> ThermalReport {
        let n = self.config.grid;
        let layers = self.config.layers.len();
        for _ in 0..20_000 {
            let mut max_delta: f64 = 0.0;
            for l in 0..layers {
                for y in 0..n {
                    for x in 0..n {
                        let i = self.idx(l, x, y);
                        let (g, gt) = self.cell_balance(l, x, y);
                        let new = (self.powers[i] + gt) / g;
                        max_delta = max_delta.max((new - self.temps[i]).abs());
                        self.temps[i] = new;
                    }
                }
            }
            if max_delta < 1e-7 {
                break;
            }
        }
        self.report()
    }

    /// Builds a report from the current temperatures.
    pub fn report(&self) -> ThermalReport {
        let n = self.config.grid;
        let mut layer_max = Vec::with_capacity(self.config.layers.len());
        let mut dram_max: Option<f64> = None;
        let mut max_c = f64::NEG_INFINITY;
        for (l, layer) in self.config.layers.iter().enumerate() {
            let m = (0..n * n)
                .map(|c| self.temps[l * n * n + c])
                .fold(f64::NEG_INFINITY, f64::max);
            layer_max.push(m);
            max_c = max_c.max(m);
            if layer.is_dram {
                dram_max = Some(dram_max.map_or(m, |d| d.max(m)));
            }
        }
        ThermalReport {
            max_c,
            layer_max_c: layer_max,
            dram_max_c: dram_max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::{LayerSpec, StackConfig};

    #[test]
    fn zero_power_settles_at_ambient() {
        let mut cfg = StackConfig::dram_on_cpu(0.0, 2, 0.0);
        cfg.ambient_c = 40.0;
        let mut g = ThermalGrid::new(cfg);
        let r = g.solve_steady_state();
        assert!((r.max_c - 40.0).abs() < 1e-6);
    }

    #[test]
    fn more_power_means_hotter() {
        let mut cool = ThermalGrid::new(StackConfig::dram_on_cpu(30.0, 8, 0.5));
        let mut hot = ThermalGrid::new(StackConfig::dram_on_cpu(90.0, 8, 0.5));
        let rc = cool.solve_steady_state();
        let rh = hot.solve_steady_state();
        assert!(rh.max_c > rc.max_c + 5.0);
    }

    #[test]
    fn paper_configuration_stays_within_dram_limit() {
        // The paper's thermal conclusion: a 65 W quad-core under 8 DRAM
        // layers keeps the stack inside the 85 °C SDRAM limit.
        let mut g = ThermalGrid::new(StackConfig::dram_on_cpu(65.0, 8, 0.6));
        let r = g.solve_steady_state();
        assert!(r.within_dram_limit(), "dram at {:?}", r.dram_max_c);
        assert!(r.max_c > r.layer_max_c[8] - 1e9); // report is populated
        assert_eq!(r.layer_max_c.len(), 9);
    }

    #[test]
    fn dram_layers_track_the_cpu_below() {
        // Heat flows down to the sink: upper (DRAM) layers sit close to but
        // not below the CPU layer temperature minus the vertical drops.
        let mut g = ThermalGrid::new(StackConfig::dram_on_cpu(65.0, 4, 0.5));
        let r = g.solve_steady_state();
        let cpu = r.layer_max_c[0];
        for l in 1..=4 {
            assert!(r.layer_max_c[l] >= cpu - 5.0, "layer {l} implausibly cool");
        }
    }

    #[test]
    fn hotspot_raises_local_temperature() {
        let mut uniform = ThermalGrid::new(StackConfig::dram_on_cpu(40.0, 2, 0.5));
        let mut spotted = ThermalGrid::new(StackConfig::dram_on_cpu(40.0, 2, 0.5));
        spotted.add_hotspot(0, 2, 2, 15.0);
        let ru = uniform.solve_steady_state();
        let rs = spotted.solve_steady_state();
        assert!(rs.max_c > ru.max_c);
        // The hotspot cell itself is the hottest spot on its layer.
        let t_hot = spotted.cell_temp(0, 2, 2);
        assert!((t_hot - rs.layer_max_c[0]).abs() < 1e-9);
    }

    #[test]
    fn no_dram_layer_reports_none() {
        let cfg = StackConfig {
            layers: vec![LayerSpec {
                name: "cpu",
                power_w: 10.0,
                is_dram: false,
            }],
            ..StackConfig::dram_on_cpu(10.0, 1, 0.1)
        };
        let mut g = ThermalGrid::new(cfg);
        let r = g.solve_steady_state();
        assert_eq!(r.dram_max_c, None);
        assert!(r.within_dram_limit());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn hotspot_bounds_checked() {
        let mut g = ThermalGrid::new(StackConfig::dram_on_cpu(10.0, 1, 0.1));
        g.add_hotspot(0, 99, 0, 1.0);
    }
}
