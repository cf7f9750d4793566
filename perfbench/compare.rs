//! Result records and the `compare A B` verdicts.

use crate::json::{self, Json};
use crate::spec::{BenchSpec, Better, MetricDef};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vgrid_simobs::json as out;

/// One run of one workload, as appended to the results file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    /// Output digest (hex), equal across commits that compute the same.
    pub digest: String,
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    pub fn to_json(&self) -> String {
        let metrics: Vec<(&str, String)> = self
            .metrics
            .iter()
            .map(|(k, v)| (k.as_str(), out::number(*v)))
            .collect();
        out::object(&[
            ("correct", self.correct.to_string()),
            ("digest", out::string(&self.digest)),
            ("metrics", out::object(&metrics)),
            ("seed", self.seed.to_string()),
            ("trace", self.trace.to_string()),
            ("workload", out::string(&self.workload)),
        ])
    }

    pub fn parse(line: &str) -> Result<RunRecord, String> {
        let doc = json::parse(line)?;
        let text = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record without {k}"))
        };
        let flag = |k: &str| {
            doc.get(k)
                .and_then(Json::as_bool)
                .ok_or(format!("record without {k}"))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("record without metrics")?
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
            .collect();
        Ok(RunRecord {
            workload: text("workload")?,
            seed: doc
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or("record without seed")? as u64,
            trace: flag("trace")?,
            correct: flag("correct")?,
            digest: text("digest")?,
            metrics,
        })
    }
}

/// Parse a results file: one record per non-empty line.
pub fn read_records(text: &str) -> Result<Vec<RunRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| RunRecord::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// How side B compares with side A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B improves on A by more than A's own quartile spread.
    Better,
    /// B is worse than A by more than the metric's bound.
    Worse,
    WithinBound,
    /// A side has fewer than two runs, or its quartile spread exceeds
    /// the bound, so the runs cannot tell.
    Unresolved,
}

/// Compare the runs of side A (the parent) with those of side B.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let (Some(qa), Some(qb)) = (quartiles(a), quartiles(b)) else {
        return Verdict::Unresolved;
    };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    if spread(qa) > bound || spread(qb) > bound {
        return Verdict::Unresolved;
    }
    let change = (qb[1] - qa[1]) / qa[1].abs();
    let worsening = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > bound {
        Verdict::Worse
    } else if -worsening > spread(qa) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The comparison table over every (workload, end-to-end metric) that
/// untraced runs of both sides measured, plus a line for every
/// (workload, seed) whose output digests differ. The flag is true when
/// any metric is worse or any digest differs.
pub fn report(spec: &BenchSpec, a: &[RunRecord], b: &[RunRecord]) -> (String, bool) {
    let mut text = String::new();
    let mut bad = false;
    let values = |rs: &[RunRecord], w: &str, m: &str| -> Vec<f64> {
        rs.iter()
            .filter(|r| r.workload == w && !r.trace)
            .filter_map(|r| r.metrics.get(m).copied())
            .collect()
    };
    let fmt = |v: &[f64]| match quartiles(v) {
        Some(q) => format!("{:.6} [{:.6}, {:.6}] n={}", q[1], q[0], q[2], v.len()),
        None => format!("n={}", v.len()),
    };
    for w in &spec.workloads {
        for def in &spec.end_to_end {
            let (va, vb) = (values(a, w, &def.name), values(b, w, &def.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let v = verdict(def, &va, &vb);
            bad |= v == Verdict::Worse;
            let _ = writeln!(
                text,
                "{w} {} A {} B {} -> {v:?}",
                def.name,
                fmt(&va),
                fmt(&vb)
            );
        }
    }
    let mut differing = std::collections::BTreeSet::new();
    for ra in a {
        for rb in b
            .iter()
            .filter(|rb| rb.workload == ra.workload && rb.seed == ra.seed)
        {
            if ra.digest != rb.digest {
                differing.insert((&ra.workload, ra.seed, &ra.digest, &rb.digest));
            }
        }
    }
    for (w, seed, da, db) in &differing {
        bad = true;
        let _ = writeln!(text, "{w} seed {seed} DIGEST DIFFERS: A {da} B {db}");
    }
    (text, bad)
}
