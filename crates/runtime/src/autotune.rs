//! Obs-driven partition autotuner.
//!
//! The paper hand-picks `process_partition_size` / `thread_partition_size`
//! per experiment (§VI: `pps = 200`, `tps = 10` at `n = 10000`). This
//! module replaces the constants with measurement: it classifies a problem
//! by its work distribution, searches candidate partition sizes through
//! the `easyhps-sim` discrete-event cost model, persists the winners in a
//! plain-text tuning table (written atomically, tmp + rename, like the
//! durable checkpoint store), and reloads them on later runs. When a run
//! collects metrics, the observed `master_tile_latency_ns` /
//! `slave_subtask_latency_ns` histograms recalibrate the cost model, so
//! the table converges on the hardware it actually runs on.
//!
//! Lifecycle: **calibrate** (rescale the cost model from obs histograms
//! after a metrics-enabled run) → **persist** (atomic table write) →
//! **load** (later runs look their problem class up and skip the search).

use crate::durable::write_atomic;
use crate::error::RuntimeError;
use easyhps_core::GridDims;
use easyhps_dp::DpProblem;
use easyhps_obs::{MetricValue, Snapshot};
use easyhps_sim::{simulate, CostModel, SimConfig, SimWorkload, WorkProfile};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Everything the tuner keys on: the shape of the work and the deployment
/// executing it. Two runs with the same class share one table entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProblemClass {
    /// Work-distribution class, which picks the simulated workload that
    /// prices a candidate partitioning.
    pub profile: WorkProfile,
    /// Global matrix dimensions.
    pub dims: GridDims,
    /// Slave nodes in the deployment.
    pub slaves: usize,
    /// Computing threads per slave.
    pub threads: usize,
}

impl ProblemClass {
    /// Classify `problem` for a `slaves` x `threads` deployment.
    pub fn of<P: DpProblem>(problem: &P, slaves: usize, threads: usize) -> Self {
        Self {
            profile: WorkProfile::of(problem),
            dims: problem.dims(),
            slaves,
            threads,
        }
    }

    /// The table key: class fields joined into one token. The profile
    /// spellings are the on-disk format of `easyhps-autotune v1`.
    pub fn key(&self) -> String {
        format!(
            "{}:{}x{}:s{}:t{}",
            match self.profile {
                WorkProfile::Uniform => "uniform",
                WorkProfile::RowColScan => "rowcol",
                WorkProfile::TriangularScan => "triangular",
            },
            self.dims.rows,
            self.dims.cols,
            self.slaves,
            self.threads
        )
    }

    /// Matrix side for the (square) simulated stand-in.
    fn side(&self) -> u32 {
        self.dims.rows.max(self.dims.cols).max(2)
    }

    /// The simulated workload pricing a `pps`/`tps` candidate for this
    /// class. Rectangular problems are priced by their larger side — the
    /// tuner needs relative cost between candidates, not absolute time.
    fn workload(&self, pps: u32, tps: u32) -> SimWorkload {
        let n = self.side();
        match self.profile {
            WorkProfile::Uniform => SimWorkload::wavefront(n - 1, pps, tps),
            WorkProfile::RowColScan => SimWorkload::swgg(n - 1, pps, tps),
            WorkProfile::TriangularScan => SimWorkload::nussinov(n, pps, tps),
        }
    }

    fn sim_config(&self, cost: CostModel) -> SimConfig {
        SimConfig {
            cost,
            ..SimConfig::uniform(self.slaves.max(1), self.threads.max(1))
        }
    }
}

/// One tuned recommendation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TuningEntry {
    /// Recommended process-level partition size.
    pub pp: GridDims,
    /// Recommended thread-level partition size.
    pub tp: GridDims,
    /// Simulated makespan of the winning candidate, in virtual ns.
    pub predicted_ns: u64,
}

/// The persistent tuning table: a calibrated cost model plus one entry per
/// problem class, serialized as whitespace-separated text (one line per
/// item) and written atomically.
#[derive(Clone, Debug)]
pub struct TuningTable {
    /// Cost model used to price candidates; recalibrated from obs
    /// histograms after metrics-enabled runs.
    pub cost: CostModel,
    entries: BTreeMap<String, TuningEntry>,
}

const TABLE_HEADER: &str = "easyhps-autotune v1";

/// Cost calibration for the in-process virtual cluster: same per-cell
/// work rate as the Tianhe-1A model, but channel-speed messaging and
/// microsecond-scale scheduling overheads instead of Infiniband + MPI,
/// and no jitter (recommendations should be deterministic).
fn inprocess_cost() -> CostModel {
    CostModel {
        work_per_us: 3_000,
        net_latency_ns: 2_000,
        net_bytes_per_us: 10_000,
        assign_overhead_ns: 5_000,
        complete_overhead_ns: 2_000,
        thread_overhead_ns: 1_500,
        jitter_pct: 0,
    }
}

impl Default for TuningTable {
    fn default() -> Self {
        Self {
            cost: inprocess_cost(),
            entries: BTreeMap::new(),
        }
    }
}

impl fmt::Display for TuningTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{TABLE_HEADER}")?;
        let c = &self.cost;
        writeln!(
            f,
            "cost {} {} {} {} {} {} {}",
            c.work_per_us,
            c.net_latency_ns,
            c.net_bytes_per_us,
            c.assign_overhead_ns,
            c.complete_overhead_ns,
            c.thread_overhead_ns,
            c.jitter_pct
        )?;
        for (key, e) in &self.entries {
            writeln!(
                f,
                "{key} {} {} {} {} {}",
                e.pp.rows, e.pp.cols, e.tp.rows, e.tp.cols, e.predicted_ns
            )?;
        }
        Ok(())
    }
}

fn parse_err(what: impl fmt::Display) -> RuntimeError {
    RuntimeError::Autotune(format!("tuning table: {what}"))
}

impl TuningTable {
    /// Parse the text serialization (the [`fmt::Display`] format back in).
    pub fn parse(text: &str) -> Result<Self, RuntimeError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        if lines.next().map(str::trim) != Some(TABLE_HEADER) {
            return Err(parse_err("missing header"));
        }
        let mut table = TuningTable::default();
        for line in lines {
            let f: Vec<&str> = line.split_whitespace().collect();
            let nums = |s: &[&str]| -> Result<Vec<u64>, RuntimeError> {
                s.iter()
                    .map(|t| t.parse::<u64>().map_err(|_| parse_err(line)))
                    .collect()
            };
            match f.first() {
                Some(&"cost") if f.len() == 8 => {
                    let v = nums(&f[1..])?;
                    table.cost = CostModel {
                        work_per_us: v[0],
                        net_latency_ns: v[1],
                        net_bytes_per_us: v[2],
                        assign_overhead_ns: v[3],
                        complete_overhead_ns: v[4],
                        thread_overhead_ns: v[5],
                        jitter_pct: v[6] as u32,
                    };
                }
                Some(key) if f.len() == 6 => {
                    let v = nums(&f[1..])?;
                    if v[..4].iter().any(|&x| x == 0 || x > u32::MAX as u64) {
                        return Err(parse_err(line));
                    }
                    table.entries.insert(
                        key.to_string(),
                        TuningEntry {
                            pp: GridDims::new(v[0] as u32, v[1] as u32),
                            tp: GridDims::new(v[2] as u32, v[3] as u32),
                            predicted_ns: v[4],
                        },
                    );
                }
                _ => return Err(parse_err(line)),
            }
        }
        Ok(table)
    }

    /// Entry for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&TuningEntry> {
        self.entries.get(key)
    }

    /// Number of tuned classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no class has been tuned yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The tuner: a [`TuningTable`] bound to its file.
///
/// ```no_run
/// use easyhps_runtime::{Autotuner, ProblemClass};
/// use easyhps_dp::EditDistance;
///
/// let problem = EditDistance::new(b"ACGT".to_vec(), b"AGT".to_vec());
/// let class = ProblemClass::of(&problem, 2, 2);
/// let mut tuner = Autotuner::load("autotune.tbl");
/// let (pp, tp) = tuner.recommend(&class);
/// tuner.save().unwrap();
/// # let _ = (pp, tp);
/// ```
#[derive(Clone, Debug)]
pub struct Autotuner {
    path: PathBuf,
    table: TuningTable,
}

impl Autotuner {
    /// Load the table at `path`; a missing or unreadable file starts a
    /// fresh table (the tuner regenerates recommendations on demand).
    pub fn load(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let table = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| TuningTable::parse(&text).ok())
            .unwrap_or_default();
        Self { path, table }
    }

    /// The in-memory table.
    pub fn table(&self) -> &TuningTable {
        &self.table
    }

    /// Recommended `(process_partition, thread_partition)` for `class`:
    /// the cached entry when one exists, otherwise a fresh candidate
    /// search through the simulator (cached afterwards — call
    /// [`Autotuner::save`] to persist it).
    pub fn recommend(&mut self, class: &ProblemClass) -> (GridDims, GridDims) {
        let key = class.key();
        if let Some(e) = self.table.entries.get(&key) {
            return (e.pp, e.tp);
        }
        let e = self.tune(class);
        self.table.entries.insert(key, e);
        (e.pp, e.tp)
    }

    /// Search candidate partition sizes for `class` through the
    /// discrete-event simulator and return the cheapest. Candidates are
    /// matrix-side fractions (`n / (k * slaves)` and `n / k`), each tried
    /// with a few thread-partition divisors — a few dozen simulated runs,
    /// milliseconds of real time.
    pub fn tune(&self, class: &ProblemClass) -> TuningEntry {
        let n = class.side();
        let s = class.slaves.max(1) as u32;
        let mut pps_cands: Vec<u32> = [2 * s, 4 * s, 8 * s, 16 * s, 4, 8, 16, 32]
            .iter()
            .map(|&parts| (n / parts).clamp(1, n))
            .collect();
        pps_cands.sort_unstable();
        pps_cands.dedup();
        let mut best: Option<(u64, u32, u32)> = None;
        for &pps in &pps_cands {
            let mut tps_cands: Vec<u32> = [1, 2, 4, 8].iter().map(|&d| (pps / d).max(1)).collect();
            tps_cands.sort_unstable();
            tps_cands.dedup();
            for &tps in &tps_cands {
                let wl = class.workload(pps, tps);
                let res = simulate(&wl, &class.sim_config(self.table.cost));
                let better = match best {
                    None => true,
                    Some((ns, bp, _)) => {
                        res.makespan_ns < ns || (res.makespan_ns == ns && pps > bp)
                    }
                };
                if better {
                    best = Some((res.makespan_ns, pps, tps));
                }
            }
        }
        let (predicted_ns, pps, tps) = best.expect("candidate lists are non-empty");
        TuningEntry {
            pp: GridDims::new(
                pps.min(class.dims.rows.max(1)),
                pps.min(class.dims.cols.max(1)),
            ),
            tp: GridDims::square(tps),
            predicted_ns,
        }
    }

    /// Recalibrate the cost model from a metrics-enabled run of `class`
    /// executed with partition size `pp`.
    ///
    /// The per-slave `slave_subtask_latency_ns` histograms (kernel-level
    /// spans, the purest compute measurement available) fix the per-cell
    /// work rate; `master_tile_latency_ns` serves as the fallback when no
    /// sub-task series was recorded, and — jointly with the sub-task mean
    /// — bounds the master's per-tile overhead. If the work rate moves by
    /// more than 25%, cached recommendations are stale: they are dropped
    /// and the current class is re-tuned under the new calibration so the
    /// table never loses the entry for the problem that just ran.
    pub fn calibrate(&mut self, class: &ProblemClass, pp: GridDims, snapshot: &Snapshot) {
        let tiles = snapshot.histogram("master_tile_latency_ns");
        // Per-sub-task latency, aggregated over the labelled series.
        let (mut sub_count, mut sub_sum) = (0u64, 0u64);
        for (name, value) in &snapshot.entries {
            if let MetricValue::Histogram(h) = value {
                if name.starts_with("slave_subtask_latency_ns") {
                    sub_count += h.count;
                    sub_sum += h.sum;
                }
            }
        }
        let total_work = class.workload(pp.rows.max(pp.cols).max(1), 1).total_work();
        let new_rate = if sub_count > 0 && sub_sum > 0 {
            (total_work / sub_count).saturating_mul(1_000) / (sub_sum / sub_count).max(1)
        } else if let Some(t) = tiles.as_ref().filter(|t| t.count > 0 && t.sum > 0) {
            (total_work / t.count).saturating_mul(1_000) / (t.sum / t.count).max(1)
        } else {
            return; // nothing measured
        }
        .max(1);
        if let Some(t) = tiles.as_ref().filter(|t| t.count > 0) {
            if sub_count > 0 {
                // mean tile latency ≈ assign overhead + the tile's share of
                // sub-task time across the node's threads.
                let subs_per_tile = sub_count / t.count.max(1);
                let sub_share =
                    (sub_sum / sub_count.max(1)) * subs_per_tile / class.threads.max(1) as u64;
                let overhead = (t.sum / t.count).saturating_sub(sub_share);
                self.table.cost.assign_overhead_ns = overhead.clamp(1_000, 200_000);
            }
        }
        let old_rate = self.table.cost.work_per_us.max(1);
        let drift = new_rate.abs_diff(old_rate).saturating_mul(100) / old_rate;
        self.table.cost.work_per_us = new_rate;
        if drift > 25 {
            self.table.entries.clear();
            let e = self.tune(class);
            self.table.entries.insert(class.key(), e);
        }
    }

    /// Persist the table to its file atomically (tmp + fsync + rename).
    pub fn save(&self) -> Result<(), RuntimeError> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| parse_err(format!("{}: {e}", dir.display())))?;
            }
        }
        write_atomic(&self.path, self.table.to_string().as_bytes())
    }

    /// The file this tuner loads from and saves to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easyhps_dp::sequence::{random_sequence, Alphabet};
    use easyhps_dp::{EditDistance, Nussinov, SmithWatermanGeneralGap};

    fn tmpdir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("easyhps-autotune-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// The keys are the on-disk vocabulary of `easyhps-autotune v1`:
    /// these three were captured before the classifier moved into
    /// `easyhps-sim` and must keep finding the entries old tables hold.
    #[test]
    fn class_keys_are_golden() {
        let a = random_sequence(Alphabet::Dna, 40, 1);
        let b = random_sequence(Alphabet::Dna, 44, 2);
        let edit = EditDistance::new(a.clone(), b.clone());
        assert_eq!(ProblemClass::of(&edit, 2, 2).key(), "uniform:41x45:s2:t2");
        let swgg = SmithWatermanGeneralGap::dna(a, b);
        assert_eq!(ProblemClass::of(&swgg, 3, 2).key(), "rowcol:41x45:s3:t2");
        let nus = Nussinov::new(random_sequence(Alphabet::Rna, 50, 3));
        assert_eq!(ProblemClass::of(&nus, 2, 4).key(), "triangular:50x50:s2:t4");
    }

    #[test]
    fn table_round_trips_through_text() {
        let mut table = TuningTable::default();
        table.cost.work_per_us = 1234;
        table.entries.insert(
            "uniform:201x201:s2:t2".into(),
            TuningEntry {
                pp: GridDims::new(50, 50),
                tp: GridDims::new(10, 10),
                predicted_ns: 987654,
            },
        );
        let text = table.to_string();
        let back = TuningTable::parse(&text).unwrap();
        assert_eq!(back.cost, table.cost);
        assert_eq!(
            back.get("uniform:201x201:s2:t2"),
            table.get("uniform:201x201:s2:t2")
        );
        assert!(TuningTable::parse("garbage").is_err());
        assert!(TuningTable::parse(&format!("{TABLE_HEADER}\nkey 1 2 3\n")).is_err());
    }

    #[test]
    fn recommend_persists_and_reloads() {
        let dir = tmpdir("persist");
        let path = dir.join("table.tbl");
        let problem = EditDistance::new(
            random_sequence(Alphabet::Dna, 200, 1),
            random_sequence(Alphabet::Dna, 200, 2),
        );
        let class = ProblemClass::of(&problem, 2, 2);
        let mut tuner = Autotuner::load(&path);
        let (pp, tp) = tuner.recommend(&class);
        assert!(pp.rows > 0 && pp.cols > 0 && tp.rows > 0 && tp.cols > 0);
        assert!(tp.rows <= pp.rows && tp.cols <= pp.cols);
        tuner.save().unwrap();

        // A fresh tuner sees the persisted entry without re-searching.
        let mut again = Autotuner::load(&path);
        assert_eq!(again.table().len(), 1);
        assert_eq!(again.recommend(&class), (pp, tp));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cross-check against the sim cost model: the tuner's pick must not
    /// be beaten by the hand-set default partitioning (the `dims / (4 *
    /// slaves)` rule) under the same simulated cluster, and its stored
    /// prediction must be reproducible.
    #[test]
    fn tuned_beats_or_matches_hand_set_defaults_in_sim() {
        for (class, default_pps, default_tps) in [
            (
                ProblemClass {
                    profile: WorkProfile::Uniform,
                    dims: GridDims::square(201),
                    slaves: 2,
                    threads: 2,
                },
                26, // 201.div_ceil(4 * 2)
                7,  // 26.div_ceil(4)
            ),
            (
                ProblemClass {
                    profile: WorkProfile::RowColScan,
                    dims: GridDims::square(301),
                    slaves: 3,
                    threads: 2,
                },
                26, // 301.div_ceil(4 * 3)
                7,
            ),
        ] {
            let tuner = Autotuner::load("/nonexistent/easyhps-autotune-test.tbl");
            let e = tuner.tune(&class);
            let cfg = class.sim_config(tuner.table().cost);
            let tuned = simulate(
                &class.workload(e.pp.rows.max(e.pp.cols), e.tp.rows.max(e.tp.cols)),
                &cfg,
            );
            assert_eq!(tuned.makespan_ns, e.predicted_ns, "prediction reproducible");
            let default = simulate(&class.workload(default_pps, default_tps), &cfg);
            assert!(
                tuned.makespan_ns <= default.makespan_ns,
                "{}: tuned {} > default {}",
                class.key(),
                tuned.makespan_ns,
                default.makespan_ns
            );
        }
    }

    #[test]
    fn calibration_rescales_work_rate_and_retunes_stale_entries() {
        let dir = tmpdir("calib");
        let path = dir.join("table.tbl");
        let problem = EditDistance::new(
            random_sequence(Alphabet::Dna, 100, 1),
            random_sequence(Alphabet::Dna, 100, 2),
        );
        let class = ProblemClass::of(&problem, 2, 2);
        let other = ProblemClass {
            dims: GridDims::square(301),
            ..class.clone()
        };
        let mut tuner = Autotuner::load(&path);
        tuner.recommend(&class);
        tuner.recommend(&other);
        let before = *tuner.table().get(&class.key()).unwrap();
        assert_eq!(tuner.table().len(), 2);

        // Fake a run 10x slower than the model: 25 tiles, latencies scaled
        // so the implied work rate collapses by far more than the 25%
        // drift threshold.
        let reg = easyhps_obs::Registry::new();
        let h = reg.histogram("master_tile_latency_ns");
        let wl = class.workload(20, 5);
        let per_tile_ns = wl.total_work() * 1_000 * 10 / (3_000 * 25);
        for _ in 0..25 {
            h.observe(per_tile_ns);
        }
        tuner.calibrate(&class, GridDims::square(20), &reg.snapshot());
        assert!(
            tuner.table().cost.work_per_us < 1_000,
            "rate dropped: {}",
            tuner.table().cost.work_per_us
        );
        // Stale entries dropped; the class that just ran was re-tuned
        // under the new calibration, the other class must re-tune later.
        assert_eq!(tuner.table().len(), 1);
        let after = tuner.table().get(&class.key()).unwrap();
        assert!(tuner.table().get(&other.key()).is_none());
        assert_ne!(before.predicted_ns, after.predicted_ns);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
