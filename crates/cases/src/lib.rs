//! ICCAD-2015-Contest-style benchmark cases (Table 2 of the paper).
//!
//! The original contest files are not redistributable, so this crate
//! reconstructs the five cases from every parameter Table 2 publishes —
//! die count, channel height `h_c`, total die power, `ΔT*`, `T*_max` and
//! the per-case extra constraints — and pairs them with deterministic
//! synthetic block floorplans (see [`floorplan`]). The optimization flow
//! consumes only the per-cell power map and these constraints, so the
//! qualitative behaviour (who wins, by what factor) carries over; see
//! DESIGN.md §4 for the substitution argument.
//!
//! # Examples
//!
//! ```
//! use coolnet_cases::Benchmark;
//!
//! let case1 = Benchmark::iccad(1);
//! assert_eq!(case1.num_dies, 2);
//! assert!((case1.total_power() - 42.038).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]

/// Reading and writing benchmark cases in the ICCAD-2015-style file
/// format (power maps, TSV masks, limits).
pub mod files;
/// Deterministic synthetic power-map generators: seeded MPSoC-style
/// floorplans and the RNG-free migrating-hotspot maps the scenario
/// engine's presets rotate through.
pub mod floorplan;
/// Parameterized case generation: [`gen::CaseSpec`], the crate-local
/// deterministic [`gen::CaseRng`] splitmix64 stream (and the SA search's
/// [`gen::SearchRng`] it seeds), and the seeded corpus sampler
/// [`gen::corpus`].
pub mod gen;

use coolnet_grid::{tsv, CellMask, GridDims};
use coolnet_network::CoolingNetwork;
use coolnet_thermal::{PowerMap, Stack, ThermalError};
use coolnet_units::{Kelvin, Watt};
use serde::{Deserialize, Serialize};

/// One benchmark case: geometry, power, constraints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Benchmark {
    /// Case number (1–5 for the ICCAD suite).
    pub id: usize,
    /// Number of dies in the stack.
    pub num_dies: usize,
    /// Channel height `h_c` in meters.
    pub channel_height: f64,
    /// Basic-cell grid.
    pub dims: GridDims,
    /// Basic-cell pitch in meters.
    pub pitch: f64,
    /// Per-die power maps, bottom die first.
    pub power_maps: Vec<PowerMap>,
    /// TSV reservation mask (shared by all channel layers).
    pub tsv: CellMask,
    /// Restricted (no-channel) region (case 3).
    pub restricted: CellMask,
    /// If `true`, all channel layers must share one network ("matched
    /// inlets/outlets across layers", case 4).
    pub matched_layers: bool,
    /// Thermal gradient constraint `ΔT*`.
    pub delta_t_limit: Kelvin,
    /// Peak temperature constraint `T*_max`.
    pub t_max_limit: Kelvin,
}

impl Benchmark {
    /// Builds ICCAD 2015 case `1..=5` at full scale (`101 × 101` cells,
    /// 100 µm pitch).
    ///
    /// # Panics
    ///
    /// Panics if `case` is not in `1..=5`.
    pub fn iccad(case: usize) -> Self {
        Self::iccad_scaled(case, GridDims::iccad2015())
    }

    /// All five ICCAD cases.
    pub fn all() -> Vec<Self> {
        (1..=5).map(Self::iccad).collect()
    }

    /// Builds case `1..=5` on a reduced grid (power is scaled with area so
    /// power *density* matches the full-size case) — for tests and quick
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics if `case` is not in `1..=5` or the grid is smaller than
    /// `11 × 11`.
    pub fn iccad_scaled(case: usize, dims: GridDims) -> Self {
        assert!((1..=5).contains(&case), "ICCAD cases are 1..=5, got {case}");
        assert!(
            dims.width() >= 11 && dims.height() >= 11,
            "grid too small for the benchmark floorplans"
        );
        let full_cells = GridDims::iccad2015().num_cells() as f64;
        let area_scale = dims.num_cells() as f64 / full_cells;
        // Table 2 parameters.
        let (num_dies, h_c, die_power, dt_star, tmax_star) = match case {
            1 => (2, 200e-6, 42.038, 15.0, 358.15),
            2 => (2, 400e-6, 37.038, 10.0, 358.15),
            3 => (2, 400e-6, 43.038, 15.0, 358.15),
            4 => (3, 200e-6, 43.438, 10.0, 358.15),
            5 => (2, 400e-6, 148.174, 10.0, 338.15),
            _ => unreachable!(),
        };
        let total = die_power * area_scale;
        // Case 5 is "high and highly varied die power": concentrate most
        // power into few hotspots. Other cases get a moderate profile.
        let hotspot_fraction = if case == 5 { 0.75 } else { 0.5 };
        let per_die = total / num_dies as f64;
        let power_maps: Vec<PowerMap> = (0..num_dies)
            .map(|die| {
                floorplan::synthetic(dims, per_die, (case * 31 + die) as u64, hotspot_fraction)
            })
            .collect();

        let mut restricted = CellMask::new(dims);
        if case == 3 {
            // A centered block covering ~18% of the die span, with odd
            // bounds so the liquid ring around it lands on even, TSV-free
            // rows/columns.
            let (cx, cy) = (dims.width() / 2, dims.height() / 2);
            let rx = (dims.width() as f64 * 0.09) as u16;
            let ry = (dims.height() as f64 * 0.09) as u16;
            let odd = |v: u16| if v.is_multiple_of(2) { v + 1 } else { v };
            let (x0, x1) = (odd(cx - rx), odd(cx + rx));
            let (y0, y1) = (odd(cy - ry), odd(cy + ry));
            restricted.insert_rect(x0, y0, x1, y1);
        }

        Self {
            id: case,
            num_dies,
            channel_height: h_c,
            dims,
            pitch: 100e-6,
            power_maps,
            tsv: tsv::alternating(dims),
            restricted,
            matched_layers: case == 4,
            delta_t_limit: Kelvin::new(dt_star),
            t_max_limit: Kelvin::new(tmax_star),
        }
    }

    /// Total die power across all dies.
    pub fn total_power(&self) -> f64 {
        self.power_maps.iter().map(|p| p.total().value()).sum()
    }

    /// The Problem-2 pumping power budget the paper uses: 0.1% of the die
    /// power (§6).
    pub fn w_pump_limit(&self) -> Watt {
        Watt::new(self.total_power() * 1e-3)
    }

    /// Checks a proposed cooling system against this case's design rules
    /// and constraints, returning every violation found (empty = clean).
    ///
    /// `t_max` / `delta_t` / `w_pump` are the *measured* metrics of the
    /// design at its operating point; pass the values the accurate model
    /// reported. `w_pump_limit` is only checked when `Some` (Problem 2).
    pub fn check_design(
        &self,
        network: &CoolingNetwork,
        t_max: Kelvin,
        delta_t: Kelvin,
        w_pump: Option<Watt>,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        if network.dims() != self.dims {
            violations.push(format!(
                "network grid {} does not match the case grid {}",
                network.dims(),
                self.dims
            ));
            return violations;
        }
        if let Err(e) = network.validate() {
            violations.push(format!("network is illegal: {e}"));
        }
        for cell in self.tsv.iter() {
            if network.is_liquid(cell) {
                violations.push(format!("liquid on the case TSV pattern at {cell}"));
                break;
            }
        }
        for cell in self.restricted.iter() {
            if network.is_liquid(cell) {
                violations.push(format!("liquid in the restricted region at {cell}"));
                break;
            }
        }
        if t_max > self.t_max_limit {
            violations.push(format!(
                "T_max {:.2} K exceeds T*_max {:.2} K",
                t_max.value(),
                self.t_max_limit.value()
            ));
        }
        if delta_t > self.delta_t_limit {
            violations.push(format!(
                "dT {:.2} K exceeds dT* {:.2} K",
                delta_t.value(),
                self.delta_t_limit.value()
            ));
        }
        if let Some(w) = w_pump {
            if w.value() > self.w_pump_limit().value() {
                violations.push(format!(
                    "W_pump {:.4} mW exceeds the budget {:.4} mW",
                    w.to_milliwatts(),
                    self.w_pump_limit().to_milliwatts()
                ));
            }
        }
        violations
    }

    /// Builds the interlayer-cooled stack for this case with the given
    /// cooling network(s). For matched-layer cases exactly one network must
    /// be supplied; otherwise one network (shared) or one per die.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::BadStack`] on count or dimension mismatches,
    /// or if a matched-layer case receives per-die networks.
    pub fn stack_with(&self, networks: &[CoolingNetwork]) -> Result<Stack, ThermalError> {
        if self.matched_layers && networks.len() != 1 {
            return Err(ThermalError::BadStack {
                reason: format!(
                    "case {} requires matched inlets/outlets: supply exactly one network",
                    self.id
                ),
            });
        }
        Stack::interlayer(
            self.dims,
            self.pitch,
            self.power_maps.clone(),
            networks,
            self.channel_height,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coolnet_grid::{Cell, Dir, Side};
    use coolnet_network::PortKind;

    #[test]
    fn table2_parameters_are_reproduced() {
        let cases = Benchmark::all();
        assert_eq!(cases.len(), 5);
        let expected = [
            (2, 200e-6, 42.038, 15.0, 358.15),
            (2, 400e-6, 37.038, 10.0, 358.15),
            (2, 400e-6, 43.038, 15.0, 358.15),
            (3, 200e-6, 43.438, 10.0, 358.15),
            (2, 400e-6, 148.174, 10.0, 338.15),
        ];
        for (b, (dies, hc, p, dt, tm)) in cases.iter().zip(expected) {
            assert_eq!(b.num_dies, dies);
            assert_eq!(b.channel_height, hc);
            assert!((b.total_power() - p).abs() < 1e-6, "case {}", b.id);
            assert_eq!(b.delta_t_limit.value(), dt);
            assert_eq!(b.t_max_limit.value(), tm);
            assert_eq!(b.dims, GridDims::iccad2015());
        }
    }

    #[test]
    fn only_case3_has_restricted_region() {
        for b in Benchmark::all() {
            assert_eq!(!b.restricted.is_empty(), b.id == 3, "case {}", b.id);
        }
    }

    #[test]
    fn only_case4_is_matched() {
        for b in Benchmark::all() {
            assert_eq!(b.matched_layers, b.id == 4);
        }
    }

    #[test]
    fn case3_ring_is_tsv_free() {
        let b = Benchmark::iccad(3);
        // The cells adjacent to the restricted region must avoid TSVs so
        // builders can ring the region with liquid.
        for cell in b.restricted.iter() {
            for d in Dir::ALL {
                if let Some(n) = b.dims.neighbor(cell, d) {
                    if !b.restricted.contains(n) {
                        assert!(!b.tsv.contains(n), "ring cell {n} is a TSV");
                    }
                }
            }
        }
    }

    #[test]
    fn floorplans_are_deterministic() {
        let a = Benchmark::iccad(1);
        let b = Benchmark::iccad(1);
        assert_eq!(a.power_maps, b.power_maps);
        // Different dies get different maps.
        assert_ne!(a.power_maps[0], a.power_maps[1]);
    }

    #[test]
    fn case5_is_more_varied_than_case2() {
        // Coefficient of variation of per-cell power must be larger for
        // case 5 ("high and highly varied die power").
        let cv = |p: &PowerMap| {
            let vals = p.values();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            var.sqrt() / mean
        };
        let c2 = Benchmark::iccad(2);
        let c5 = Benchmark::iccad(5);
        assert!(cv(&c5.power_maps[0]) > cv(&c2.power_maps[0]));
    }

    #[test]
    fn scaled_benchmark_preserves_power_density() {
        let full = Benchmark::iccad(1);
        let small = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let density_full = full.total_power() / full.dims.num_cells() as f64;
        let density_small = small.total_power() / small.dims.num_cells() as f64;
        assert!((density_full - density_small).abs() / density_full < 1e-9);
    }

    #[test]
    fn w_pump_limit_is_promille_of_power() {
        let b = Benchmark::iccad(2);
        assert!((b.w_pump_limit().value() - 0.037038).abs() < 1e-9);
    }

    #[test]
    fn stack_builds_with_a_simple_network() {
        let b = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let mut nb = CoolingNetwork::builder(b.dims);
        let mut y = 0;
        while y < 21 {
            nb.segment(Cell::new(0, y), Dir::East, 21);
            y += 2;
        }
        nb.port(PortKind::Inlet, Side::West, 0, 20);
        nb.port(PortKind::Outlet, Side::East, 0, 20);
        let net = nb.build().unwrap();
        let stack = b.stack_with(&[net]).unwrap();
        assert_eq!(stack.source_layer_indices().len(), 2);
        assert!((stack.total_power().value() - b.total_power()).abs() < 1e-9);
    }

    #[test]
    fn matched_case_rejects_multiple_networks() {
        let b = Benchmark::iccad_scaled(4, GridDims::new(21, 21));
        let mut nb = CoolingNetwork::builder(b.dims);
        nb.segment(Cell::new(0, 0), Dir::East, 21);
        nb.port(PortKind::Inlet, Side::West, 0, 0);
        nb.port(PortKind::Outlet, Side::East, 0, 0);
        let net = nb.build().unwrap();
        let nets = vec![net.clone(), net.clone(), net];
        assert!(matches!(
            b.stack_with(&nets),
            Err(ThermalError::BadStack { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "ICCAD cases are 1..=5")]
    fn out_of_range_case_panics() {
        Benchmark::iccad(6);
    }

    #[test]
    fn check_design_flags_each_violation_class() {
        let b = Benchmark::iccad_scaled(3, GridDims::new(21, 21));
        // A network ignoring the restricted region and the TSV mask.
        let mut nb = CoolingNetwork::builder(b.dims);
        for y in 0..21 {
            nb.segment(Cell::new(0, y), Dir::East, 21);
        }
        nb.port(PortKind::Inlet, Side::West, 0, 20);
        nb.port(PortKind::Outlet, Side::East, 0, 20);
        // Build without masks so it is "legal" in isolation…
        let rogue = nb.build().unwrap();
        // …but violates the case's TSV and restricted rules, plus both
        // thermal limits and the pump budget.
        let v = b.check_design(
            &rogue,
            Kelvin::new(400.0),
            Kelvin::new(50.0),
            Some(Watt::new(1.0)),
        );
        assert!(v.iter().any(|m| m.contains("TSV")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("restricted")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("T_max")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("dT")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("W_pump")), "{v:?}");
    }

    #[test]
    fn check_design_accepts_a_clean_design() {
        let b = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let mut nb = CoolingNetwork::builder(b.dims);
        nb.tsv(b.tsv.clone());
        let mut y = 0;
        while y < 21 {
            nb.segment(Cell::new(0, y), Dir::East, 21);
            y += 2;
        }
        nb.port(PortKind::Inlet, Side::West, 0, 20);
        nb.port(PortKind::Outlet, Side::East, 0, 20);
        let net = nb.build().unwrap();
        let v = b.check_design(&net, Kelvin::new(320.0), Kelvin::new(10.0), None);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn check_design_rejects_wrong_grid() {
        let b = Benchmark::iccad_scaled(1, GridDims::new(21, 21));
        let other = GridDims::new(15, 15);
        let mut nb = CoolingNetwork::builder(other);
        nb.segment(Cell::new(0, 0), Dir::East, 15);
        nb.port(PortKind::Inlet, Side::West, 0, 0);
        nb.port(PortKind::Outlet, Side::East, 0, 0);
        let net = nb.build().unwrap();
        let v = b.check_design(&net, Kelvin::new(300.0), Kelvin::new(0.0), None);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("does not match"));
    }
}
