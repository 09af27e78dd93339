//! `e2e compare <a.json> <b.json>`: judge the second set of runs against
//! the first by the bounds `BENCHMARK.json` fixes. One row per workload
//! and end-to-end metric: `same`, `better`, `worse`, or `unresolved` when
//! the runs of either side spread wider than the bound. Exits non-zero on
//! `worse`.

use crate::layers::{self, Record};
use crate::stats::median;
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// Distance between the quartiles of `values` as a share of their median;
/// the whole range when there are too few values for quartiles.
pub fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = median(&v);
    if m == 0.0 || v.len() < 2 {
        return 0.0;
    }
    if v.len() < 4 {
        return (v[v.len() - 1] - v[0]) / m;
    }
    // The exclusive method of Python's `statistics.quantiles(v, n=4)`.
    let quartile = |q: f64| {
        let pos = q * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        v[lo - 1] + (pos - lo as f64) * (v[lo] - v[lo - 1])
    };
    (quartile(0.75) - quartile(0.25)) / m
}

/// How the runs `b` stand against the runs `a` of one metric.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse_by = if higher_is_better { -change } else { change };
    if worse_by > bound {
        Verdict::Worse
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// workload → metric → the value of each untraced run, from a document
/// `e2e all` wrote.
fn end_to_end_values(
    document: &Record,
    names: &[String],
) -> BTreeMap<String, BTreeMap<String, Vec<f64>>> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let workloads = layers::json_field(document, "workloads");
    for (workload, _) in layers::json_fields(workloads) {
        for run in layers::json_list(workloads, workload) {
            for name in names {
                if let Some(v) = layers::json_number(run, &["metrics", name, "value"]) {
                    out.entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    out
}

fn read_json(path: &str) -> Record {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("e2e: read {path}: {e}");
        std::process::exit(2)
    });
    layers::json_parse(&text).unwrap_or_else(|e| {
        eprintln!("e2e: {path}: {e}");
        std::process::exit(2)
    })
}

pub fn main(args: &[String]) -> ExitCode {
    let files: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [a_path, b_path] = files.as_slice() else {
        eprintln!("usage: e2e compare <a.json> <b.json> [--benchmark BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let benchmark_path = args
        .iter()
        .position(|a| a == "--benchmark")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCHMARK.json", String::as_str);
    let benchmark = read_json(benchmark_path);
    let catalogue: Vec<(String, bool, f64)> = layers::json_list(&benchmark, "end_to_end")
        .iter()
        .map(|m| {
            (
                layers::json_str(m, "name")
                    .expect("metric name")
                    .to_string(),
                layers::json_str(m, "better") == Some("higher"),
                layers::json_number(m, &["bound"]).expect("metric bound"),
            )
        })
        .collect();
    let names: Vec<String> = catalogue.iter().map(|(n, _, _)| n.clone()).collect();
    let a = end_to_end_values(&read_json(a_path), &names);
    let b = end_to_end_values(&read_json(b_path), &names);

    let mut worse = 0;
    println!(
        "{:14} {:20} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "change", "bound"
    );
    for (workload, metrics) in &a {
        for (name, higher, bound) in &catalogue {
            let (Some(va), Some(vb)) =
                (metrics.get(name), b.get(workload).and_then(|m| m.get(name)))
            else {
                continue;
            };
            let verdict = judge(va, vb, *higher, *bound);
            if verdict == Verdict::Worse {
                worse += 1;
            }
            let (ma, mb) = (median(va), median(vb));
            println!(
                "{workload:14} {name:20} {ma:14.4} {mb:14.4} {:+7.1}% {:5.0}%  {}",
                (mb - ma) / ma * 100.0,
                bound * 100.0,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    if worse > 0 {
        println!("{worse} worse");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&steady, &[10.5, 10.4, 10.6, 10.5], false, 0.1),
            Verdict::Same
        );
        assert_eq!(
            judge(&steady, &[12.0, 12.1, 11.9, 12.0], false, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[12.0, 12.1, 11.9, 12.0], true, 0.1),
            Verdict::Better
        );
        assert_eq!(
            judge(&steady, &[8.0, 8.1, 7.9, 8.0], true, 0.1),
            Verdict::Worse
        );
        // Within the bound on the medians, but one side's own runs differ
        // by more than the bound.
        assert_eq!(
            judge(&steady, &[8.0, 12.0, 9.0, 11.5], false, 0.1),
            Verdict::Unresolved
        );
    }
}
