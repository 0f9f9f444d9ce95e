//! `BENCHMARK.json` (the manifest), result files, and `agree`.

use crate::sampler::{median, quartile_spread};
use crate::{Metric, RunResult};
use easyhps_obs::json::{self, JsonValue};
use std::fmt::Write as _;

/// One metric as `BENCHMARK.json` fixes it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Stable name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Share of the parent's median by which the metric may get worse;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness checks itself against.
#[derive(Clone, Debug)]
pub struct Manifest {
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported with `--trace 0`).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub per_layer: Vec<MetricSpec>,
    /// `run_seconds`: the default `--seconds`.
    pub run_seconds: u64,
}

fn members(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Obj(m) => m,
        _ => &[],
    }
}

impl Manifest {
    /// Parse the manifest text.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .ok_or(format!("BENCHMARK.json: no \"{key}\" array"))
        };
        let text_of = |v: &JsonValue, key: &str| {
            v.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("BENCHMARK.json: entry without \"{key}\""))
        };
        let specs = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        bound: m.get("bound").and_then(JsonValue::as_f64),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: specs("end_to_end")?,
            per_layer: specs("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json: no \"run_seconds\"")? as u64,
        })
    }

    /// Load `BENCHMARK.json` from the current directory (the root of the
    /// checkout, where the benchmark is run from).
    pub fn load() -> Result<Manifest, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
        Manifest::parse(&text)
    }

    /// The metric list a run with `--trace <traced>` must produce.
    pub fn expected(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Fail unless `metrics` are exactly the manifest's list for this
    /// kind of run, unit for unit.
    pub fn check(&self, traced: bool, metrics: &[Metric]) -> Result<(), String> {
        let expected = self.expected(traced);
        for m in metrics {
            match expected.iter().find(|s| s.name == m.name) {
                None => return Err(format!("metric {} is not in BENCHMARK.json", m.name)),
                Some(s) if s.unit != m.unit => {
                    return Err(format!(
                        "metric {}: unit {} here, {} in BENCHMARK.json",
                        m.name, m.unit, s.unit
                    ))
                }
                Some(_) => {}
            }
        }
        match expected
            .iter()
            .find(|s| metrics.iter().all(|m| m.name != s.name))
        {
            Some(s) => Err(format!(
                "BENCHMARK.json names {}, which no probe produced",
                s.name
            )),
            None => Ok(()),
        }
    }
}

/// The result line of the benchmark contract: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`, the metrics in
/// the manifest's order.
pub fn result_line(result: &RunResult, order: &[MetricSpec]) -> String {
    let metrics = order
        .iter()
        .filter_map(|s| result.metrics.iter().find(|m| m.name == s.name))
        .map(|m| {
            let entry = JsonValue::Obj(vec![
                ("value".into(), JsonValue::Num(m.value)),
                ("unit".into(), m.unit.into()),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(result.correct)),
        ("attempted".into(), result.attempted.into()),
        ("failed".into(), result.failed.into()),
        ("metrics".into(), JsonValue::Obj(metrics)),
    ])
    .to_string()
}

/// Values of one metric of one workload over the runs of a result file.
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// One value per run.
    pub values: Vec<f64>,
}

/// What `bench run --out` writes and `bench agree` reads.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultFile {
    /// Produced by `--smoke`: sizes ÷ 4, not comparable with anything.
    pub smoke: bool,
    /// First seed (run `i` used `seed + i`).
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: u64,
    /// Per workload, in run order: its metrics.
    pub workloads: Vec<(String, Vec<Series>)>,
}

impl ResultFile {
    /// Append the metrics of one run's result line to `workload`.
    pub fn push_line(&mut self, workload: &str, line: &JsonValue) {
        let idx = match self.workloads.iter().position(|(w, _)| w == workload) {
            Some(i) => i,
            None => {
                self.workloads.push((workload.to_string(), Vec::new()));
                self.workloads.len() - 1
            }
        };
        let series = &mut self.workloads[idx].1;
        for (name, m) in line.get("metrics").map(members).unwrap_or_default() {
            let (Some(value), Some(unit)) = (
                m.get("value").and_then(JsonValue::as_f64),
                m.get("unit").and_then(JsonValue::as_str),
            ) else {
                continue;
            };
            match series.iter_mut().find(|s| &s.name == name) {
                Some(s) => s.values.push(value),
                None => series.push(Series {
                    name: name.clone(),
                    unit: unit.to_string(),
                    values: vec![value],
                }),
            }
        }
    }

    /// Serialise.
    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|(w, series)| {
                let metrics = series
                    .iter()
                    .map(|s| {
                        let values = s.values.iter().map(|&v| JsonValue::Num(v)).collect();
                        let entry = JsonValue::Obj(vec![
                            ("unit".into(), s.unit.as_str().into()),
                            ("values".into(), JsonValue::Arr(values)),
                        ]);
                        (s.name.clone(), entry)
                    })
                    .collect();
                (w.clone(), JsonValue::Obj(metrics))
            })
            .collect();
        JsonValue::Obj(vec![
            ("smoke".into(), JsonValue::Bool(self.smoke)),
            ("seed".into(), self.seed.into()),
            ("seconds".into(), self.seconds.into()),
            ("workloads".into(), JsonValue::Obj(workloads)),
        ])
        .to_string()
    }

    /// Parse what [`Self::to_json`] wrote.
    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let doc = json::parse(text)?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("result file: no \"{key}\""))
        };
        let workloads = members(
            doc.get("workloads")
                .ok_or("result file: no \"workloads\"")?,
        )
        .iter()
        .map(|(w, metrics)| {
            let series = members(metrics)
                .iter()
                .map(|(name, m)| Series {
                    name: name.clone(),
                    unit: m
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    values: m
                        .get("values")
                        .and_then(JsonValue::as_array)
                        .unwrap_or_default()
                        .iter()
                        .filter_map(JsonValue::as_f64)
                        .collect(),
                })
                .collect();
            (w.clone(), series)
        })
        .collect();
        Ok(ResultFile {
            smoke: doc.get("smoke") == Some(&JsonValue::Bool(true)),
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            workloads,
        })
    }

    /// One line per value: `workload metric median unit runs=<n>
    /// spread=<iqr/median>`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (w, series) in &self.workloads {
            for s in series {
                let _ = write!(
                    out,
                    "{w} {} {} {} runs={}",
                    s.name,
                    median(&s.values),
                    s.unit,
                    s.values.len()
                );
                if let Some(spread) = quartile_spread(&s.values) {
                    let _ = write!(out, " spread={spread:.4}");
                }
                out.push('\n');
            }
        }
        out
    }
}

/// Compare two result files metric by metric. Returns the table and
/// whether every end-to-end metric on every workload agreed: medians
/// within the metric's bound of each other. A metric whose own run-to-run
/// spread (either side, when the file holds several runs) exceeds its
/// bound is `unresolved`: the files cannot settle it either way.
pub fn agree(
    manifest: &Manifest,
    a: &ResultFile,
    b: &ResultFile,
) -> Result<(String, bool), String> {
    if a.smoke || b.smoke {
        return Err("smoke results use shrunken inputs and are not comparable".into());
    }
    let mut table = String::new();
    let mut all_agree = true;
    for w in &manifest.workloads {
        let side = |f: &ResultFile| {
            f.workloads
                .iter()
                .find(|(name, _)| name == w)
                .map(|(_, s)| s.clone())
                .ok_or(format!("workload {w} is missing from a result file"))
        };
        let (sa, sb) = (side(a)?, side(b)?);
        for spec in manifest.end_to_end.iter().chain(&manifest.per_layer) {
            let find = |s: &[Series]| s.iter().find(|x| x.name == spec.name).cloned();
            let (Some(xa), Some(xb)) = (find(&sa), find(&sb)) else {
                return Err(format!("{w} {} is missing from a result file", spec.name));
            };
            let (ma, mb) = (median(&xa.values), median(&xb.values));
            // Equal medians (0 and 0 for the failure counters) differ by 0.
            let rel = if ma == mb { 0.0 } else { (mb - ma) / ma };
            let spread = [&xa, &xb]
                .iter()
                .filter_map(|x| quartile_spread(&x.values))
                .fold(0.0, f64::max);
            let verdict = match spec.bound {
                None => "-",
                Some(bound) if spread > bound => "unresolved",
                Some(bound) if rel.abs() > bound => {
                    all_agree = false;
                    "DISAGREE"
                }
                Some(_) => "agree",
            };
            let _ = writeln!(
                table,
                "{w} {} {ma} {mb} {} {:+.2}% bound={} {verdict}",
                spec.name,
                spec.unit,
                rel * 100.0,
                spec.bound
                    .map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
            );
        }
    }
    Ok((table, all_agree))
}
