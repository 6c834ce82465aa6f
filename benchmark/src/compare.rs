//! Comparing a parent commit with a change from alternating runs, by the
//! decision rule of the choosing-metrics guide (section 8): a gain needs
//! nine tenths of the pairs won and a median difference larger than the
//! parent's own quartile spread; a loss beyond the metric's bound in
//! `BENCHMARK.json` is a regression; a spread wider than the bound leaves
//! the metric unresolved unless every change run beats every parent run.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{self, Value};
use crate::stats::{quartiles, sorted};

/// Fewest pairs a comparison accepts.
pub const MIN_PAIRS: usize = 10;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Reads the end-to-end metrics of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A document that does not parse or lacks a field.
pub fn bench_metrics(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = json::parse(text)?;
    let list = doc.get("end_to_end").and_then(Value::arr).ok_or("BENCHMARK.json: no end_to_end")?;
    list.iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).ok_or_else(|| format!("BENCHMARK.json: metric without {k}"));
            Ok(MetricSpec {
                name: field("name")?.str().ok_or("name must be a string")?.to_string(),
                unit: field("unit")?.str().ok_or("unit must be a string")?.to_string(),
                higher_is_better: field("better")?.str() == Some("higher"),
                bound: field("bound")?.num().ok_or("bound must be a number")?,
            })
        })
        .collect()
}

/// Which commit a run measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Side {
    /// The commit the change is measured against.
    Parent,
    /// The change.
    Change,
}

/// One benchmark run, as recorded by `ab.sh`: a result line wrapped with
/// its workload, seed and side.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Commit measured.
    pub side: Side,
    /// Whether every output matched its reference.
    pub correct: bool,
    /// Operations that failed.
    pub failed: f64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses runs, one JSON object per line:
/// `{"workload": W, "seed": N, "side": "parent"|"change", "result": R}`
/// where `R` is a result line of `ktbench run`. A missing side reads as
/// `change`.
///
/// # Errors
///
/// The first malformed line, with its number.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    for (no, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let err = |m: &str| format!("line {}: {m}", no + 1);
        let v = json::parse(line).map_err(|e| err(&e))?;
        let result = v.get("result").ok_or_else(|| err("no result"))?;
        let metrics = result
            .get("metrics")
            .and_then(Value::members)
            .ok_or_else(|| err("no metrics"))?
            .iter()
            .map(|(k, m)| {
                let value = m
                    .get("value")
                    .and_then(Value::num)
                    .ok_or_else(|| err("metric without value"))?;
                Ok((k.clone(), value))
            })
            .collect::<Result<_, String>>()?;
        runs.push(Run {
            workload: v
                .get("workload")
                .and_then(Value::str)
                .ok_or_else(|| err("no workload"))?
                .into(),
            seed: v.get("seed").and_then(Value::num).ok_or_else(|| err("no seed"))? as u64,
            side: match v.get("side").and_then(Value::str) {
                Some("parent") => Side::Parent,
                Some("change") | None => Side::Change,
                Some(s) => return Err(err(&format!("unknown side '{s}'"))),
            },
            correct: result.get("correct") == Some(&Value::Bool(true)),
            failed: result.get("failed").and_then(Value::num).unwrap_or(0.0),
            metrics,
        });
    }
    Ok(runs)
}

/// The outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least 9 of 10 pairs, by more than the parent's
    /// own spread.
    Improved,
    /// No worse than the bound allows, and the spread resolves that.
    WithinBound,
    /// The parent's spread is wider than the bound: neither a loss nor
    /// "unchanged" can be shown.
    Unresolved,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        })
    }
}

/// Quartiles `[q1, median, q3]` of each side, the change's win fraction
/// over the pairs, and the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Parent quartiles.
    pub parent: [f64; 3],
    /// Change quartiles.
    pub change: [f64; 3],
    /// Share of pairs the change won (ties count for neither side).
    pub win_frac: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Applies the decision rule to paired samples (`parent[i]` and
/// `change[i]` ran back to back). `bound` is the share of the parent's
/// median the metric may worsen by.
///
/// # Panics
///
/// Panics when the samples are unpaired or fewer than two.
pub fn decide(parent: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Decision {
    assert_eq!(parent.len(), change.len(), "samples must be paired");
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let wins = parent.iter().zip(change).filter(|(p, c)| better(**c, **p)).count();
    let win_frac = wins as f64 / parent.len() as f64;
    let p = quartiles(&sorted(parent.to_vec()));
    let c = quartiles(&sorted(change.to_vec()));
    let gain = if higher_is_better { c[1] - p[1] } else { p[1] - c[1] };
    let parent_spread = p[2] - p[0];
    let scale = p[1].abs();
    let every_change_better = change.iter().all(|c| parent.iter().all(|p| better(*c, *p)));
    let verdict = if win_frac >= 0.9 && gain > parent_spread {
        Verdict::Improved
    } else if -gain > bound * scale {
        Verdict::Regressed
    } else if parent_spread > bound * scale && !every_change_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    };
    Decision { parent: p, change: c, win_frac, verdict }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: MetricSpec,
    /// Pairs compared.
    pub pairs: usize,
    /// The decision.
    pub decision: Decision,
}

/// Pairs parent and change runs by workload and seed and decides every
/// workload × end-to-end metric. A gain on a workload whose change runs
/// failed more operations than its parent runs is not counted.
///
/// # Errors
///
/// A workload with fewer than [`MIN_PAIRS`] pairs, a run missing a
/// metric, or a run whose outputs were incorrect.
pub fn compare(metrics: &[MetricSpec], runs: &[Run]) -> Result<Vec<Row>, String> {
    let mut by_workload: BTreeMap<&str, BTreeMap<u64, [Option<&Run>; 2]>> = BTreeMap::new();
    for r in runs {
        if !r.correct {
            return Err(format!(
                "{} run (seed {}) of {} was incorrect",
                side_name(r.side),
                r.seed,
                r.workload
            ));
        }
        let slot = by_workload.entry(&r.workload).or_default().entry(r.seed).or_default();
        slot[r.side as usize] = Some(r);
    }
    let mut rows = Vec::new();
    for (workload, seeds) in by_workload {
        let pairs: Vec<(&Run, &Run)> =
            seeds.values().filter_map(|[p, c]| Some(((*p)?, (*c)?))).collect();
        if pairs.len() < MIN_PAIRS {
            return Err(format!("{workload}: {} pairs, at least {MIN_PAIRS} needed", pairs.len()));
        }
        let more_failures = pairs.iter().map(|(_, c)| c.failed).sum::<f64>()
            > pairs.iter().map(|(p, _)| p.failed).sum::<f64>();
        for m in metrics {
            let get = |r: &Run| {
                r.metrics
                    .get(&m.name)
                    .copied()
                    .ok_or_else(|| format!("{workload} seed {}: no {}", r.seed, m.name))
            };
            let parent = pairs.iter().map(|(p, _)| get(p)).collect::<Result<Vec<_>, _>>()?;
            let change = pairs.iter().map(|(_, c)| get(c)).collect::<Result<Vec<_>, _>>()?;
            let mut decision = decide(&parent, &change, m.higher_is_better, m.bound);
            if more_failures && decision.verdict == Verdict::Improved {
                decision.verdict = Verdict::WithinBound;
            }
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.clone(),
                pairs: pairs.len(),
                decision,
            });
        }
    }
    Ok(rows)
}

fn side_name(s: Side) -> &'static str {
    match s {
        Side::Parent => "parent",
        Side::Change => "change",
    }
}

/// Per workload, side and metric: run count, quartiles and the spread
/// (distance between the quartiles over the median) — what `BENCHMARK.json`
/// bounds are checked against. Rendered as JSON.
pub fn summary(runs: &[Run]) -> String {
    let mut groups: BTreeMap<(String, Side), BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for r in runs {
        let g = groups.entry((r.workload.clone(), r.side)).or_default();
        for (k, v) in &r.metrics {
            g.entry(k.clone()).or_default().push(*v);
        }
    }
    let mut out = String::from("{\n");
    let n_groups = groups.len();
    for (gi, ((workload, side), metrics)) in groups.into_iter().enumerate() {
        out.push_str(&format!(
            "  {}: {{\n",
            json::string(&format!("{workload}/{}", side_name(side)))
        ));
        let n_metrics = metrics.len();
        for (mi, (name, values)) in metrics.into_iter().enumerate() {
            let s = sorted(values);
            let q = if s.len() >= 2 { quartiles(&s) } else { [s[0]; 3] };
            let spread = if q[1] == 0.0 { 0.0 } else { (q[2] - q[0]) / q[1].abs() };
            out.push_str(&format!(
                "    {}: {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"spread\": {}}}{}\n",
                json::string(&name),
                s.len(),
                json::num(q[0]),
                json::num(q[1]),
                json::num(q[2]),
                json::num(spread),
                if mi + 1 == n_metrics { "" } else { "," }
            ));
        }
        out.push_str(if gi + 1 == n_groups { "  }\n" } else { "  },\n" });
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy(base: f64, n: usize, jitter: f64) -> Vec<f64> {
        (0..n).map(|i| base * (1.0 + jitter * (((i * 7) % 5) as f64 - 2.0) / 2.0)).collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let parent = noisy(100.0, 12, 0.01);
        let change = noisy(80.0, 12, 0.01);
        let d = decide(&parent, &change, false, 0.1);
        assert_eq!(d.verdict, Verdict::Improved);
        assert_eq!(d.win_frac, 1.0);
        // The same numbers for a higher-is-better metric are a regression.
        assert_eq!(decide(&parent, &change, true, 0.1).verdict, Verdict::Regressed);
    }

    #[test]
    fn small_loss_inside_the_bound_is_within_bound() {
        let parent = noisy(100.0, 10, 0.01);
        let change = noisy(104.0, 10, 0.01);
        assert_eq!(decide(&parent, &change, false, 0.1).verdict, Verdict::WithinBound);
        let same = decide(&parent, &parent, false, 0.1);
        assert_eq!(same.verdict, Verdict::WithinBound);
        assert_eq!(same.win_frac, 0.0, "ties count for neither side");
    }

    #[test]
    fn loss_beyond_the_bound_is_regressed() {
        let parent = noisy(100.0, 10, 0.01);
        let change = noisy(115.0, 10, 0.01);
        assert_eq!(decide(&parent, &change, false, 0.1).verdict, Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = noisy(100.0, 10, 0.4);
        let change = noisy(101.0, 10, 0.4);
        let d = decide(&parent, &change, false, 0.1);
        assert_eq!(d.verdict, Verdict::Unresolved, "{d:?}");
        // Unless every change run beats every parent run.
        let far = noisy(10.0, 10, 0.01);
        assert_ne!(decide(&parent, &far, false, 0.1).verdict, Verdict::Unresolved);
    }

    #[test]
    fn winning_most_pairs_by_less_than_the_spread_is_not_a_gain() {
        let parent = noisy(100.0, 10, 0.05);
        let change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        let d = decide(&parent, &change, false, 0.1);
        assert_eq!(d.win_frac, 1.0);
        assert_eq!(d.verdict, Verdict::WithinBound);
    }

    fn line(workload: &str, seed: u64, side: &str, latency: f64, failed: u64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"side\": \"{side}\", \"result\": \
             {{\"correct\": true, \"attempted\": 10, \"failed\": {failed}, \"metrics\": \
             {{\"latency_ms\": {{\"value\": {latency}, \"unit\": \"ms\"}}}}}}}}"
        )
    }

    fn metric() -> Vec<MetricSpec> {
        bench_metrics(
            r#"{"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn pairs_are_matched_by_workload_and_seed() {
        let mut text = String::new();
        for seed in 0..10 {
            text += &line("hit-small", seed, "parent", 3.0 + seed as f64 * 0.01, 0);
            text.push('\n');
            text += &line("hit-small", seed, "change", 2.0 + seed as f64 * 0.01, 0);
            text.push('\n');
        }
        let rows = compare(&metric(), &parse_runs(&text).unwrap()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].pairs, 10);
        assert_eq!(rows[0].decision.verdict, Verdict::Improved);
    }

    #[test]
    fn too_few_pairs_or_more_failures_are_refused_as_gains() {
        let mut text = String::new();
        for seed in 0..9 {
            text += &line("cold", seed, "parent", 3.0, 0);
            text.push('\n');
            text += &line("cold", seed, "change", 2.0, 0);
            text.push('\n');
        }
        assert!(compare(&metric(), &parse_runs(&text).unwrap()).is_err());
        text += &line("cold", 9, "parent", 3.0, 0);
        text.push('\n');
        text += &line("cold", 9, "change", 2.0, 1);
        let rows = compare(&metric(), &parse_runs(&text).unwrap()).unwrap();
        assert_eq!(rows[0].decision.verdict, Verdict::WithinBound);
    }

    #[test]
    fn malformed_lines_are_reported_with_their_number() {
        let err = parse_runs("\n{\"workload\": \"x\"}").unwrap_err();
        assert!(err.starts_with("line 2"), "{err}");
    }

    #[test]
    fn summary_reports_spread_per_group() {
        let mut text = String::new();
        for (seed, v) in [1.0, 2.0, 3.0, 4.0, 5.0].iter().enumerate() {
            text += &line("cold", seed as u64, "change", *v, 0);
            text.push('\n');
        }
        let doc = json::parse(&summary(&parse_runs(&text).unwrap())).unwrap();
        let m = doc.get("cold/change").and_then(|g| g.get("latency_ms")).unwrap();
        assert_eq!(m.get("n").and_then(Value::num), Some(5.0));
        assert_eq!(m.get("median").and_then(Value::num), Some(3.0));
        assert_eq!(m.get("spread").and_then(Value::num), Some((4.5 - 1.5) / 3.0));
    }
}
