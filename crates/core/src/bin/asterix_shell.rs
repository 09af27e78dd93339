//! `asterix-shell` — a small interactive shell over the engine, in the
//! spirit of AsterixDB's web console: DDL, loading, and AQL similarity
//! queries against an in-process simulated cluster.
//!
//! ```text
//! cargo run --release -p asterix-core --bin asterix_shell
//! asterix> :create Reviews id
//! asterix> :loadjson Reviews /path/to/reviews.jsonl
//! asterix> :index Reviews smix summary keyword
//! asterix> for $r in dataset Reviews
//!          where similarity-jaccard(word-tokens($r.summary),
//!                                   word-tokens('great product')) >= 0.5
//!          return $r;
//! ```
//!
//! Statements end with `;`. Meta commands start with `:`; `:help` lists
//! them.

use asterix_adm::IndexKind;
use asterix_core::{Instance, InstanceConfig};
use std::io::{BufRead, Write};

const HELP: &str = r#"meta commands:
  :create <dataset> <pk-field>          create a dataset
  :index <dataset> <name> <field> <kind>  kind: keyword | ngram<N> | btree
  :drop <dataset> <index>               drop a secondary index
  :loadjson <dataset> <path>            load newline-delimited JSON
  :count <dataset>                      number of records
  :sizes <dataset>                      index sizes
  :explain <aql...>;                    show the optimized plan
  :metrics [prom]                       telemetry snapshot (JSON or Prometheus text)
  :events [n]                           last n LSM lifecycle events (default 10)
  :slow                                 captured slow queries
  :partitions                           show partition count
  :help                                 this text
  :quit                                 exit
anything else is AQL, terminated by ';'"#;

fn main() {
    let partitions = std::env::var("ASTERIX_PARTITIONS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    // `--data-dir <dir>` opens a durable instance: file-backed components,
    // write-ahead log, and crash recovery of whatever the directory holds.
    let mut args = std::env::args().skip(1);
    let data_dir = match args.next().as_deref() {
        Some("--data-dir") => match args.next() {
            Some(dir) => Some(dir),
            None => {
                eprintln!("usage: asterix_shell [--data-dir <dir>]");
                std::process::exit(2);
            }
        },
        Some(other) => {
            eprintln!("unknown argument '{other}'; usage: asterix_shell [--data-dir <dir>]");
            std::process::exit(2);
        }
        None => None,
    };
    let mut config = InstanceConfig::with_partitions(partitions);
    if let Some(dir) = &data_dir {
        config.durability = asterix_core::DurabilityConfig::at(dir);
    }
    let db = match Instance::open(config) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("error: failed to open instance: {e}");
            std::process::exit(1);
        }
    };
    match (&data_dir, db.recovery_stats()) {
        (Some(dir), Some(stats)) => println!(
            "asterix-shell — durable {partitions}-partition cluster at {dir} \
             (recovered {} components, replayed {} WAL records in {:?}). \
             :help for commands.",
            stats.components_opened, stats.wal_records_replayed, stats.recovery_time
        ),
        _ => println!(
            "asterix-shell — simulated {partitions}-partition cluster. :help for commands."
        ),
    }

    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("asterix> ");
        } else {
            print!("      -> ");
        }
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with(':') && !trimmed.starts_with(":explain") {
            if !meta_command(&db, trimmed) {
                break;
            }
            continue;
        }
        buffer.push_str(&line);
        if !buffer.trim_end().ends_with(';') {
            continue;
        }
        let statement = std::mem::take(&mut buffer);
        let statement = statement.trim();
        if let Some(rest) = statement.strip_prefix(":explain") {
            match db.explain(rest.trim_end_matches(';')) {
                Ok(info) => {
                    println!("{}", info.explain);
                    println!("rewrites: {:?}", info.rewrites);
                }
                Err(e) => eprintln!("error: {e}"),
            }
            continue;
        }
        match db.query(statement) {
            Ok(result) => {
                for row in result.rows.iter().take(50) {
                    println!("{}", asterix_adm::json::to_string(row));
                }
                if result.rows.len() > 50 {
                    println!("... ({} rows total)", result.rows.len());
                }
                println!(
                    "-- {} row(s), compile {:?}, execute {:?}",
                    result.rows.len(),
                    result.compile_time,
                    result.execution_time
                );
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

/// Returns false to quit.
fn meta_command(db: &Instance, line: &str) -> bool {
    let parts: Vec<&str> = line.split_whitespace().collect();
    match parts.as_slice() {
        [":help"] => println!("{HELP}"),
        [":quit"] | [":exit"] => return false,
        [":partitions"] => println!("{}", db.num_partitions()),
        [":metrics"] => println!("{}", asterix_adm::json::to_string(&db.metrics_snapshot())),
        [":metrics", "prom"] => print!("{}", db.metrics_prometheus()),
        [":events"] | [":events", _] => {
            let log = db.telemetry().event_log();
            let n = parts.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
            let events = log.snapshot();
            let skip = events.len().saturating_sub(n);
            for ev in &events[skip..] {
                println!(
                    "#{:<6} +{:<10} {:<15} {:<32} {} bytes, {} component(s){}",
                    ev.seq,
                    format!("{}us", ev.at_us),
                    ev.kind.name(),
                    ev.tree,
                    ev.bytes,
                    ev.components,
                    ev.detail
                        .as_deref()
                        .map(|d| format!(" — {d}"))
                        .unwrap_or_default(),
                );
            }
            println!(
                "-- {} retained of {} recorded",
                events.len(),
                log.total_recorded()
            );
        }
        [":slow"] => {
            let t = db.telemetry();
            let entries = t.slow_queries();
            for sq in &entries {
                println!(
                    "#{} [{}] {:?} compile {:?} -> {} row(s)\n  {}",
                    sq.seq,
                    sq.class.name(),
                    sq.execution_time,
                    sq.compile_time,
                    sq.rows,
                    sq.query
                );
            }
            println!(
                "-- {} retained of {} captured (threshold {:?})",
                entries.len(),
                t.slow_queries_captured(),
                t.slow_query_threshold()
            );
        }
        [":create", ds, pk] => match db.create_dataset(ds, pk) {
            Ok(()) => println!("created dataset {ds} (pk {pk})"),
            Err(e) => eprintln!("error: {e}"),
        },
        [":index", ds, name, field, kind] => {
            let kind = match *kind {
                "keyword" => IndexKind::Keyword,
                "btree" => IndexKind::BTree,
                k if k.starts_with("ngram") => {
                    let n = k.trim_start_matches("ngram").parse().unwrap_or(2);
                    IndexKind::NGram(n)
                }
                other => {
                    eprintln!("unknown index kind '{other}' (keyword | ngramN | btree)");
                    return true;
                }
            };
            match db.create_index(ds, name, field, kind) {
                Ok(stats) => println!(
                    "built {} over {} records in {:?} ({} bytes)",
                    stats.index, stats.records_indexed, stats.build_time, stats.size_bytes
                ),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        [":drop", ds, index] => match db.drop_index(ds, index) {
            Ok(()) => println!("dropped {ds}.{index}"),
            Err(e) => eprintln!("error: {e}"),
        },
        [":loadjson", ds, path] => match std::fs::read_to_string(path) {
            Ok(text) => match db.load_json_lines(ds, &text) {
                Ok(n) => println!("loaded {n} records into {ds}"),
                Err(e) => eprintln!("error: {e}"),
            },
            Err(e) => eprintln!("cannot read {path}: {e}"),
        },
        [":count", ds] => match db.count_records(ds) {
            Ok(n) => println!("{n}"),
            Err(e) => eprintln!("error: {e}"),
        },
        [":sizes", ds] => match db.index_sizes(ds) {
            Ok(sizes) => {
                for (name, bytes) in sizes {
                    println!("{name:<24} {bytes} bytes");
                }
            }
            Err(e) => eprintln!("error: {e}"),
        },
        _ => eprintln!("unrecognized command; :help for help"),
    }
    true
}
