//! `e2e`: the repository's benchmark. `README.md` beside `Cargo.toml` has
//! the catalogue of workloads and metrics; `BENCHMARK.json` at the root of
//! the repository has their names, units, directions and bounds.
//!
//! ```text
//! e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! e2e all [--seed N] [--seconds S] [--runs R] [--out FILE]
//! e2e compare <a.json> <b.json> [--benchmark BENCHMARK.json]
//! ```

mod client;
mod compare;
mod layers;
mod oracle;
mod run;
mod stats;
mod trace;
mod workloads;

use run::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

pub const DEFAULT_SEED: u64 = 2018;
pub const DEFAULT_SECONDS: f64 = 15.0;

/// `--name value` anywhere in `args`.
fn option(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match option(args, name) {
        Some(text) => text
            .parse()
            .unwrap_or_else(|_| fail(&format!("{name} {text}: not a valid value"))),
        None => default,
    }
}

fn fail(message: &str) -> ! {
    eprintln!("e2e: {message}");
    std::process::exit(2)
}

/// A directory of this process's own beside the executable, so everything
/// the benchmark writes stays inside the build directory of its checkout.
fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    exe.parent()
        .expect("executable has a directory")
        .join(format!("e2e-scratch-{}", std::process::id()))
}

/// One run of one workload in this process; the last line printed is the
/// result as one JSON object.
fn single(args: &[String]) -> ExitCode {
    let name = option(args, "--workload").unwrap_or_else(|| fail("--workload <name> is required"));
    let workload = workloads::by_name(&name).unwrap_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        fail(&format!(
            "unknown workload {name}; known: {}",
            known.join(", ")
        ))
    });
    let seed = parsed(args, "--seed", DEFAULT_SEED);
    let seconds = parsed(args, "--seconds", DEFAULT_SECONDS);
    let traced = parsed(args, "--trace", 0u8) == 1;
    let out = option(args, "--out").map(PathBuf::from);

    let scratch = scratch_root();
    let report = if traced {
        trace::run(workload, seed, seconds, &scratch, out.as_deref())
    } else {
        run::run(workload, seed, seconds, &scratch)
    };
    // Every data directory was removed by the run that made it; anything
    // still here was left behind.
    if scratch.exists() {
        let left: Vec<_> = std::fs::read_dir(&scratch)
            .expect("list scratch directory")
            .collect();
        assert!(
            left.is_empty(),
            "left behind under {}: {left:?}",
            scratch.display()
        );
        std::fs::remove_dir(&scratch).expect("remove scratch directory");
    }
    print_report(workload.name, &report)
}

fn print_report(workload: &str, report: &Report) -> ExitCode {
    for note in &report.notes {
        println!("{workload}: {note}");
    }
    let mut fields = Vec::new();
    for m in &report.metrics {
        let Some(value) = m.value else {
            fail(&format!(
                "{workload}: too few samples for {}; lengthen --seconds",
                m.name
            ));
        };
        println!("{workload:14} {:40} {value:16.4} {}", m.name, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    let correct = report.problems.0.is_empty() && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}

/// Run this executable again for one workload, so that peak memory,
/// set-up time, detached threads and the program's own histograms never
/// leak from one workload into the next. Returns the child's last line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool, out: Option<&Path>) -> String {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(out) = out {
        command.arg("--out").arg(out);
    }
    let output = command.output().expect("start a run of one workload");
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        fail(&format!("{workload}: run failed with {}", output.status));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().expect("a run prints its result").to_string();
    for line in lines {
        println!("{line}");
    }
    last
}

/// Every workload, untraced then traced, `--runs` times each; prints
/// every metric by name and unit, and ends with one JSON document that
/// `compare` reads.
fn all(args: &[String]) -> ExitCode {
    let seed = parsed(args, "--seed", DEFAULT_SEED);
    let seconds = parsed(args, "--seconds", DEFAULT_SECONDS);
    let runs = parsed(args, "--runs", 1usize);
    let out = option(args, "--out").map(PathBuf::from);
    let mut correct = true;
    let mut workloads_json = Vec::new();
    for w in &workloads::WORKLOADS {
        println!("{}: {}", w.name, w.why);
        let mut results = Vec::new();
        for traced in [false, true] {
            let trace_file = out
                .as_ref()
                .filter(|_| traced)
                .map(|o| PathBuf::from(format!("{}.trace-{}.json", o.display(), w.name)));
            for r in 0..runs {
                let line = child(
                    w.name,
                    seed + r as u64,
                    seconds,
                    traced,
                    trace_file.as_deref(),
                );
                correct &= line.contains("\"correct\": true");
                results.push(line);
            }
        }
        workloads_json.push(format!(
            "\"{}\": [\n    {}\n  ]",
            w.name,
            results.join(",\n    ")
        ));
    }
    let document = format!(
        "{{\"seed\": {seed}, \"seconds\": {seconds}, \"runs\": {runs}, \"workloads\": {{\n  {}\n}}}}\n",
        workloads_json.join(",\n  ")
    );
    if let Some(out) = &out {
        std::fs::write(out, &document).expect("write --out file");
    }
    print!("{document}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("all") => all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => single(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{self, Record};
    use crate::workloads::{by_name, Workload, WORKLOADS};

    fn benchmark_json() -> Record {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        layers::json_parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json")
    }

    /// (name, unit) of each metric `BENCHMARK.json` lists under `key`.
    fn catalogue(key: &str) -> Vec<(String, String)> {
        layers::json_list(&benchmark_json(), key)
            .iter()
            .map(|m| {
                (
                    layers::json_str(m, "name").unwrap().to_string(),
                    layers::json_str(m, "unit").unwrap().to_string(),
                )
            })
            .collect()
    }

    /// A workload at a scale a unit test can afford: 1 000 records, 20
    /// tail batches, a 1 s window.
    fn smoke(name: &str, traced: bool) -> Report {
        let w = Workload {
            tail_batches: 20,
            ..by_name(name).unwrap().scaled_to(1_000)
        };
        let scratch = scratch_root().join(format!("{name}-{traced}"));
        let report = if traced {
            trace::run(&w, 7, 1.0, &scratch, None)
        } else {
            run::run(&w, 7, 1.0, &scratch)
        };
        assert!(
            std::fs::read_dir(&scratch).map_or(true, |mut d| d.next().is_none()),
            "{name} left files behind"
        );
        let _ = std::fs::remove_dir(&scratch);
        assert!(
            report.problems.0.is_empty(),
            "{name}: {:?}",
            report.problems.0
        );
        assert_eq!(report.failed, 0, "{name}");
        assert!(report.attempted > 0, "{name}");
        report
    }

    fn assert_matches_catalogue(report: &Report, key: &str) {
        let emitted: Vec<(String, String)> = report
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(emitted, catalogue(key));
    }

    #[test]
    fn benchmark_json_names_the_workloads_and_their_reasons() {
        let listed: Vec<(String, String)> = layers::json_list(&benchmark_json(), "workloads")
            .iter()
            .map(|w| {
                (
                    layers::json_str(w, "name").unwrap().to_string(),
                    layers::json_str(w, "why").unwrap().to_string(),
                )
            })
            .collect();
        let defined: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, defined);
        assert_eq!(
            layers::json_number(&benchmark_json(), &["run_seconds"]),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn smoke_sel_hot() {
        assert_matches_catalogue(&smoke("sel-hot", false), "end_to_end");
    }

    #[test]
    fn smoke_join_index() {
        assert_matches_catalogue(&smoke("join-index", false), "end_to_end");
    }

    #[test]
    fn smoke_join_3stage() {
        assert_matches_catalogue(&smoke("join-3stage", false), "end_to_end");
    }

    #[test]
    fn smoke_scan_cold() {
        assert_matches_catalogue(&smoke("scan-cold", false), "end_to_end");
    }

    #[test]
    fn smoke_ingest_query() {
        assert_matches_catalogue(&smoke("ingest-query", false), "end_to_end");
    }

    #[test]
    fn smoke_traced_run_emits_every_per_layer_metric() {
        let report = smoke("ingest-query", true);
        assert_matches_catalogue(&report, "per_layer");
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.value)
                .unwrap()
        };
        // One WAL durability wait per record, and a server whose own time
        // is most of an indexed selection over HTTP.
        assert!(value("storage.wal_fsyncs_per_rec") > 0.0);
        assert!(value("server.self_us") > 0.0);
        assert!(value("storage.recovery_ms") > 0.0);
    }
}
