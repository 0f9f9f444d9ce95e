//! Simulated workloads: the paper's benchmark problems as cost profiles.
//!
//! A [`SimWorkload`] is everything the simulator needs without actual
//! sequence data: the DAG Data Driven Model (pattern + both partition
//! sizes) and a closed-form work function per cell region. Work functions
//! match the `cell_work` definitions of the real kernels in `easyhps-dp`,
//! so the simulated load imbalance is the real one.

use easyhps_core::patterns::{RowColumn2D1D, TriangularGap, Wavefront2D};
use easyhps_core::{DagDataDrivenModel, GridDims, TileRegion};
use std::sync::Arc;

/// How work is distributed over the matrix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkProfile {
    /// Constant work per cell (2D/0D kernels).
    Uniform,
    /// `i + j + 1` per cell: the SWGG row+column scans.
    RowColScan,
    /// `j - i + 1` per upper-triangle cell: the Nussinov bifurcation scan.
    TriangularScan,
}

impl WorkProfile {
    /// Total work of `region` (cells outside a triangular pattern count
    /// zero for [`WorkProfile::TriangularScan`]).
    pub fn region_work(&self, region: TileRegion) -> u64 {
        if region.is_empty() {
            return 0;
        }
        let rows = region.rows() as u64;
        let cols = region.cols() as u64;
        match self {
            WorkProfile::Uniform => rows * cols,
            WorkProfile::RowColScan => {
                // sum_{i,j} (i + j + 1), exact closed form.
                let sum_i = rows * (region.row_start as u64 + region.row_end as u64 - 1) / 2;
                let sum_j = cols * (region.col_start as u64 + region.col_end as u64 - 1) / 2;
                sum_i * cols + sum_j * rows + rows * cols
            }
            WorkProfile::TriangularScan => {
                // Per-row arithmetic series over the triangle intersection.
                let mut total = 0u64;
                for i in region.row_start..region.row_end {
                    let j0 = region.col_start.max(i);
                    if j0 >= region.col_end {
                        continue;
                    }
                    // sum_{j=j0}^{col_end-1} (j - i + 1)
                    let n = (region.col_end - j0) as u64;
                    let first = (j0 - i) as u64 + 1;
                    let last = (region.col_end - 1 - i) as u64 + 1;
                    total += n * (first + last) / 2;
                }
                total
            }
        }
    }
}

/// A workload the cluster simulator can run.
#[derive(Clone)]
pub struct SimWorkload {
    /// Display name.
    pub name: String,
    /// The DAG Data Driven Model (pattern + partition sizes).
    pub model: DagDataDrivenModel,
    /// Work distribution.
    pub profile: WorkProfile,
    /// Bytes per matrix cell on the wire.
    pub cell_bytes: u64,
}

impl std::fmt::Debug for SimWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorkload")
            .field("name", &self.name)
            .field("model", &self.model)
            .field("profile", &self.profile)
            .finish()
    }
}

impl SimWorkload {
    /// The paper's primary workload: Smith-Waterman general gap over
    /// sequences of length `seq_len` (matrix `(n+1)^2`), with the paper's
    /// partition sizes as defaults (`pps = 200`, `tps = 10` at
    /// `seq_len = 10000`).
    pub fn swgg(seq_len: u32, pps: u32, tps: u32) -> Self {
        let dims = GridDims::square(seq_len + 1);
        let model = DagDataDrivenModel::builder(Arc::new(RowColumn2D1D::new(dims)))
            .process_partition_size(GridDims::square(pps))
            .thread_partition_size(GridDims::square(tps))
            .build();
        Self {
            name: format!("swgg-{seq_len}"),
            model,
            profile: WorkProfile::RowColScan,
            cell_bytes: 4,
        }
    }

    /// The paper's second workload: Nussinov over a sequence of length
    /// `len` (upper-triangular `len x len`).
    pub fn nussinov(len: u32, pps: u32, tps: u32) -> Self {
        let model = DagDataDrivenModel::builder(Arc::new(TriangularGap::new(len)))
            .process_partition_size(GridDims::square(pps))
            .thread_partition_size(GridDims::square(tps))
            .build();
        Self {
            name: format!("nussinov-{len}"),
            model,
            profile: WorkProfile::TriangularScan,
            cell_bytes: 4,
        }
    }

    /// A uniform 2D/0D wavefront (edit-distance-like), useful for
    /// ablations where load is perfectly balanced.
    pub fn wavefront(n: u32, pps: u32, tps: u32) -> Self {
        let dims = GridDims::square(n + 1);
        let model = DagDataDrivenModel::builder(Arc::new(Wavefront2D::new(dims)))
            .process_partition_size(GridDims::square(pps))
            .thread_partition_size(GridDims::square(tps))
            .build();
        Self {
            name: format!("wavefront-{n}"),
            model,
            profile: WorkProfile::Uniform,
            cell_bytes: 4,
        }
    }

    /// The workload a CLI `--workload` spelling names
    /// (`swgg|nussinov|wavefront`), over sequences of length `len`.
    pub fn parse(name: &str, len: u32, pps: u32, tps: u32) -> Result<Self, String> {
        match name {
            "swgg" => Ok(Self::swgg(len, pps, tps)),
            "nussinov" => Ok(Self::nussinov(len, pps, tps)),
            "wavefront" => Ok(Self::wavefront(len, pps, tps)),
            other => Err(format!(
                "unknown workload '{other}' (swgg|nussinov|wavefront)"
            )),
        }
    }

    /// Work of one cell region under this workload.
    pub fn region_work(&self, region: TileRegion) -> u64 {
        self.profile.region_work(region)
    }

    /// Total work of the whole problem (the sequential-baseline numerator).
    pub fn total_work(&self) -> u64 {
        let d = self.model.dag_size();
        self.region_work(TileRegion::new(0, d.rows, 0, d.cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easyhps_core::GridPos;

    #[test]
    fn uniform_work_is_area() {
        assert_eq!(
            WorkProfile::Uniform.region_work(TileRegion::new(2, 5, 1, 4)),
            9
        );
    }

    #[test]
    fn rowcol_matches_brute_force() {
        for region in [
            TileRegion::new(0, 4, 0, 4),
            TileRegion::new(3, 9, 10, 20),
            TileRegion::new(100, 101, 0, 1),
        ] {
            let brute: u64 = region.iter().map(|p| p.row as u64 + p.col as u64 + 1).sum();
            assert_eq!(
                WorkProfile::RowColScan.region_work(region),
                brute,
                "{region:?}"
            );
        }
    }

    #[test]
    fn triangular_matches_brute_force() {
        for region in [
            TileRegion::new(0, 5, 0, 5),  // straddles the diagonal
            TileRegion::new(0, 4, 8, 12), // fully above
            TileRegion::new(8, 12, 0, 4), // fully below -> zero
            TileRegion::new(2, 7, 5, 9),  // partial
        ] {
            let brute: u64 = region
                .iter()
                .filter(|p| p.col >= p.row)
                .map(|p| (p.col - p.row) as u64 + 1)
                .sum();
            assert_eq!(
                WorkProfile::TriangularScan.region_work(region),
                brute,
                "{region:?}"
            );
        }
    }

    #[test]
    fn workload_work_matches_real_kernels() {
        // The sim profiles must agree with the cell_work of the real
        // kernels in easyhps-dp.
        use easyhps_dp::sequence::{random_sequence, Alphabet};
        use easyhps_dp::DpProblem;
        let a = random_sequence(Alphabet::Dna, 30, 1);
        let b = random_sequence(Alphabet::Dna, 30, 2);
        let real = easyhps_dp::SmithWatermanGeneralGap::dna(a, b);
        let sim = SimWorkload::swgg(30, 10, 5);
        for region in [
            TileRegion::new(0, 10, 0, 10),
            TileRegion::new(10, 20, 20, 31),
        ] {
            assert_eq!(sim.region_work(region), real.region_work(region));
        }

        let rna = random_sequence(Alphabet::Rna, 40, 3);
        let real = easyhps_dp::Nussinov::new(rna);
        let sim = SimWorkload::nussinov(40, 10, 5);
        for region in [
            TileRegion::new(0, 10, 0, 10),
            TileRegion::new(0, 20, 20, 40),
        ] {
            let brute: u64 = region
                .iter()
                .filter(|p| real.pattern().contains(*p))
                .map(|p| real.cell_work(GridPos::new(p.row, p.col)))
                .sum();
            assert_eq!(sim.region_work(region), brute);
        }
    }

    #[test]
    fn paper_scale_workload_is_cheap_to_build() {
        let w = SimWorkload::swgg(10_000, 200, 10);
        assert_eq!(w.model.rect_size(), GridDims::square(51)); // 10001/200
        assert!(w.total_work() > 0);
        let n = SimWorkload::nussinov(10_000, 200, 10);
        assert_eq!(n.model.rect_size(), GridDims::square(50));
    }
}
