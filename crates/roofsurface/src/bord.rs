//! The 2D Bounding Region Diagram (BORD), §4.2.
//!
//! The BORD is the projection of the Roof-Surface onto the `(AIX_M, AIX_V)`
//! plane. It drops the FLOPS information but identifies which factor bounds
//! each kernel. The three regions are separated by:
//!
//! * `AIX_V = (MBW / VOS) · AIX_M` — the MEM/VEC boundary,
//! * `AIX_M = MOS / MBW` — the MEM/MTX boundary,
//! * `AIX_V = MOS / VOS` — the VEC/MTX boundary.

use crate::{BoundingFactor, KernelSignature, RoofSurface};

/// Region labels of the BORD (aliases of [`BoundingFactor`] for readability
/// in plotting code).
pub type Region = BoundingFactor;

/// A kernel placed on the BORD.
#[derive(Debug, Clone, PartialEq)]
pub struct BordPoint {
    /// Kernel label.
    pub label: String,
    /// x coordinate (`AIX_M`).
    pub aix_m: f64,
    /// y coordinate (`AIX_V`).
    pub aix_v: f64,
    /// The region the kernel falls in.
    pub region: Region,
}

/// The 2D Bounding Region Diagram of a Roof-Surface.
#[derive(Debug, Clone, PartialEq)]
pub struct Bord {
    surface: RoofSurface,
}

impl Bord {
    /// Builds the BORD for a Roof-Surface.
    #[must_use]
    pub fn new(surface: RoofSurface) -> Self {
        Bord { surface }
    }

    /// The underlying Roof-Surface.
    #[must_use]
    pub fn surface(&self) -> &RoofSurface {
        &self.surface
    }

    /// Slope of the MEM/VEC boundary line `AIX_V = slope · AIX_M`.
    #[must_use]
    pub fn mem_vec_slope(&self) -> f64 {
        self.surface.mbw() / self.surface.vos()
    }

    /// The vertical MEM/MTX boundary `AIX_M = MOS / MBW`.
    #[must_use]
    pub fn mem_mtx_boundary(&self) -> f64 {
        self.surface.mos() / self.surface.mbw()
    }

    /// The horizontal VEC/MTX boundary `AIX_V = MOS / VOS`.
    #[must_use]
    pub fn vec_mtx_boundary(&self) -> f64 {
        self.surface.mos() / self.surface.vos()
    }

    /// Classifies a kernel into its bounding region.
    #[must_use]
    pub fn classify(&self, sig: &KernelSignature) -> Region {
        self.surface.bounding_factor(sig)
    }

    /// Places a kernel on the diagram.
    #[must_use]
    pub fn place(&self, sig: &KernelSignature) -> BordPoint {
        BordPoint {
            label: sig.label.clone(),
            aix_m: sig.aix_m,
            aix_v: sig.aix_v,
            region: self.classify(sig),
        }
    }

    /// Places a whole set of kernels.
    #[must_use]
    pub fn place_all(&self, sigs: &[KernelSignature]) -> Vec<BordPoint> {
        sigs.iter().map(|s| self.place(s)).collect()
    }

    /// Fraction of kernels from `sigs` that are vector-bound (the quantity
    /// DECA tries to drive to zero).
    #[must_use]
    pub fn vec_bound_fraction(&self, sigs: &[KernelSignature]) -> f64 {
        if sigs.is_empty() {
            return 0.0;
        }
        let vec_bound = sigs
            .iter()
            .filter(|s| self.classify(s) == Region::Vector)
            .count();
        vec_bound as f64 / sigs.len() as f64
    }

    /// Renders the diagram as a small ASCII plot (log-log axes), mostly for
    /// the experiment binaries' textual output.
    #[must_use]
    pub fn render_ascii(&self, points: &[BordPoint], width: usize, height: usize) -> String {
        assert!(width >= 16 && height >= 8, "plot too small to be readable");
        let (x_min, x_max) = (1e-4f64, 0.05f64);
        let (y_min, y_max) = (1e-4f64, 0.2f64);
        let mut grid = vec![vec![' '; width]; height];
        // Region background: sample each cell centre.
        for (row, line) in grid.iter_mut().enumerate() {
            for (col, cell) in line.iter_mut().enumerate() {
                let tx = col as f64 / (width - 1) as f64;
                let ty = 1.0 - row as f64 / (height - 1) as f64;
                let x = x_min * (x_max / x_min).powf(tx);
                let y = y_min * (y_max / y_min).powf(ty);
                let sig = KernelSignature::new("cell", x, y);
                *cell = match self.classify(&sig) {
                    Region::Memory => '.',
                    Region::Vector => 'v',
                    Region::Matrix => 'm',
                };
            }
        }
        // Overlay kernels.
        for p in points {
            let tx = ((p.aix_m / x_min).ln() / (x_max / x_min).ln()).clamp(0.0, 1.0);
            let ty = ((p.aix_v / y_min).ln() / (y_max / y_min).ln()).clamp(0.0, 1.0);
            let col = (tx * (width - 1) as f64).round() as usize;
            let row = ((1.0 - ty) * (height - 1) as f64).round() as usize;
            grid[row][col] = '*';
        }
        let mut out = String::new();
        for line in grid {
            out.push_str(&line.into_iter().collect::<String>());
            out.push('\n');
        }
        out.push_str("x: AIX_M (log)  y: AIX_V (log)  '.'=MEM 'v'=VEC 'm'=MTX '*'=kernel\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;
    use deca_compress::{CompressionScheme, SchemeSet};

    fn software_signatures() -> Vec<KernelSignature> {
        // The software AVX op budgets documented in deca-kernels.
        SchemeSet::paper_evaluation()
            .into_iter()
            .map(|s| {
                let vops = if !s.is_quantized() {
                    96.0
                } else if s.format().bits() == 4 {
                    192.0
                } else if s.is_sparse() {
                    144.0
                } else {
                    80.0
                };
                KernelSignature::from_scheme_and_vops(&s, vops)
            })
            .collect()
    }

    #[test]
    fn hbm_bord_boundaries_match_machine_rates() {
        let machine = MachineConfig::spr_hbm();
        let bord = Bord::new(RoofSurface::for_cpu(&machine));
        // MEM/MTX boundary: MOS/MBW = 8.75e9/850e9 ≈ 0.0103.
        assert!((bord.mem_mtx_boundary() - 0.0103).abs() < 3e-4);
        // VEC/MTX boundary: MOS/VOS = 8.75e9/280e9 = 0.03125.
        assert!((bord.vec_mtx_boundary() - 0.03125).abs() < 1e-6);
        // MEM/VEC slope: MBW/VOS = 850/280 ≈ 3.04.
        assert!((bord.mem_vec_slope() - 3.036).abs() < 0.01);
    }

    #[test]
    fn most_kernels_are_vec_bound_on_hbm() {
        // §4.2: "the vast majority of kernels are VEC-bound" on HBM SPR.
        let bord = Bord::new(RoofSurface::for_cpu(&MachineConfig::spr_hbm()));
        let frac = bord.vec_bound_fraction(&software_signatures());
        assert!(frac >= 0.75, "VEC-bound fraction {frac}");
    }

    #[test]
    fn most_kernels_are_mem_bound_on_ddr() {
        // §4.2/Fig. 5b: on DDR all kernels except Q8 at <=20 % density are in
        // or near the MEM region.
        let bord = Bord::new(RoofSurface::for_cpu(&MachineConfig::spr_ddr()));
        let sigs = software_signatures();
        let frac = bord.vec_bound_fraction(&sigs);
        assert!(frac <= 0.4, "VEC-bound fraction on DDR {frac}");
        // Specifically Q8_5% stays VEC-bound even on DDR.
        let q8_5 = sigs
            .iter()
            .find(|s| s.label == "Q8_5%")
            .expect("Q8_5% present");
        assert_eq!(bord.classify(q8_5), Region::Vector);
    }

    #[test]
    fn mtx_region_hidden_on_ddr_for_plotted_range() {
        // Fig. 5b: the MTX region is not visible for the plotted AIX_M range
        // on DDR (its boundary moves right as MBW shrinks).
        let hbm = Bord::new(RoofSurface::for_cpu(&MachineConfig::spr_hbm()));
        let ddr = Bord::new(RoofSurface::for_cpu(&MachineConfig::spr_ddr()));
        let plotted_max = 0.0125; // the paper's BORD x-range
        assert!(hbm.mem_mtx_boundary() < plotted_max);
        assert!(ddr.mem_mtx_boundary() >= plotted_max);
    }

    #[test]
    fn quadrupling_vos_shrinks_but_does_not_empty_vec_region() {
        // Fig. 6: 4x VOS still leaves some kernels VEC-bound.
        let machine = MachineConfig::spr_hbm().with_vector_scaling(4);
        let bord = Bord::new(RoofSurface::for_cpu(&machine));
        let sigs = software_signatures();
        let frac = bord.vec_bound_fraction(&sigs);
        let base =
            Bord::new(RoofSurface::for_cpu(&MachineConfig::spr_hbm())).vec_bound_fraction(&sigs);
        assert!(frac < base, "4x VOS must reduce the VEC-bound fraction");
        assert!(frac > 0.0, "4x VOS is still not enough for all kernels");
    }

    #[test]
    fn place_reports_coordinates_and_region() {
        let bord = Bord::new(RoofSurface::for_cpu(&MachineConfig::spr_hbm()));
        let sig = KernelSignature::from_scheme_and_vops(&CompressionScheme::mxfp4(), 192.0);
        let p = bord.place(&sig);
        assert_eq!(p.label, "Q4");
        assert!((p.aix_m - 1.0 / 272.0).abs() < 1e-9);
        assert_eq!(p.region, Region::Vector);
        let all = bord.place_all(&software_signatures());
        assert_eq!(all.len(), 12);
    }

    #[test]
    fn ascii_rendering_contains_all_regions_and_points() {
        let bord = Bord::new(RoofSurface::for_cpu(&MachineConfig::spr_hbm()));
        let points = bord.place_all(&software_signatures());
        let plot = bord.render_ascii(&points, 60, 20);
        assert!(plot.contains('*'));
        assert!(plot.contains('v'));
        assert!(plot.contains('.'));
        assert!(plot.lines().count() >= 20);
    }
}
