//! The result line: every metric by name with its unit, printed as the
//! last line of standard output.

use crate::json::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every correctness and work-count check passed.
    pub correct: bool,
    /// Requests (or solves) attempted in the measured phase.
    pub attempted: usize,
    /// Of those, refused or failed.
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The one-line JSON object:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Reads a result line back.
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let doc = Json::parse(line)?;
        let field = |k: &str| doc.get(k).ok_or(format!("missing `{k}`"));
        let count = |k: &str| -> Result<usize, String> {
            field(k)?
                .num()
                .map(|x| x as usize)
                .ok_or(format!("`{k}` is not a number"))
        };
        let correct = match field("correct")? {
            Json::Bool(b) => *b,
            _ => return Err("`correct` is not a bool".into()),
        };
        let Json::Obj(members) = field("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        let mut metrics = Vec::with_capacity(members.len());
        for (name, m) in members {
            let value = m.num_at(&["value"]).ok_or(format!("{name}: no value"))?;
            let Some(Json::Str(unit)) = m.get("unit") else {
                return Err(format!("{name}: no unit"));
            };
            metrics.push(Metric {
                name: name.clone(),
                value,
                unit: unit.clone(),
            });
        }
        Ok(Outcome {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// A finite number with every digit Rust's shortest round-trip form
/// gives; a non-finite one (a miss reaching a percentile) as the
/// largest JSON-safe magnitude.
fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "1e308".to_string()
    }
}
