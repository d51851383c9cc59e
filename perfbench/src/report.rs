//! Result assembly: named metrics with units, work counts, and a minimal
//! JSON writer (`citroen_rt::json` carries no floats, and metric values
//! must keep every digit).

use std::fmt::Write as _;

/// A JSON value as the benchmark emits it.
pub enum J {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn emit(&self, out: &mut String) {
        match self {
            // `{}` on f64 prints the shortest string that round-trips.
            J::Num(v) if v.is_finite() => write!(out, "{v}").expect("write to String"),
            J::Num(_) => out.push_str("null"),
            J::Int(v) => write!(out, "{v}").expect("write to String"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Str(s) => {
                out.push('"');
                citroen_rt::json::escape_into(s, out);
                out.push('"');
            }
            J::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.emit(out);
                }
                out.push(']');
            }
            J::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::Str(k.clone()).emit(out);
                    out.push(':');
                    v.emit(out);
                }
                out.push('}');
            }
        }
    }
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Work counts that must repeat exactly between runs of the same code.
    pub counts: Vec<(String, u64)>,
    /// Checks attempted (sessions or jobs).
    pub attempted: u64,
    /// Checks failed (errors, digest or speedup mismatches).
    pub failed: u64,
    /// Human-readable reasons for every failure.
    pub problems: Vec<String>,
    /// Per-session / per-job detail kept in the result record.
    pub detail: Vec<J>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
    }

    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: FAIL: {why}");
        self.failed += 1;
        self.problems.push(why);
    }

    /// The one-line record `run.py` turns into the result line.
    pub fn into_json(self) -> String {
        let metrics = self
            .metrics
            .into_iter()
            .map(|(n, v, u)| {
                let m = vec![
                    ("value".into(), J::Num(v)),
                    ("unit".into(), J::Str(u.to_string())),
                ];
                (n, J::Obj(m))
            })
            .collect();
        let counts = self
            .counts
            .into_iter()
            .map(|(n, v)| (n, J::Int(v)))
            .collect();
        let doc = J::Obj(vec![
            ("correct".into(), J::Bool(self.failed == 0)),
            ("attempted".into(), J::Int(self.attempted.max(1))),
            ("failed".into(), J::Int(self.failed)),
            ("metrics".into(), J::Obj(metrics)),
            ("counts".into(), J::Obj(counts)),
            (
                "problems".into(),
                J::Arr(self.problems.into_iter().map(J::Str).collect()),
            ),
            ("detail".into(), J::Arr(self.detail)),
        ]);
        let mut s = String::new();
        doc.emit(&mut s);
        s
    }
}

/// Quantile by linear interpolation between closest ranks (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
