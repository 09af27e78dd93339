//! Documentation gates: `docs/API.md` must cover every route the server
//! actually dispatches (and every mounted admin route), docs/REFERENCE.md's
//! metrics table must be the metric catalogue, and no markdown file in the
//! repo may carry a broken relative link. CI runs these as part of the
//! server test target, so the references cannot drift from the code.

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // tests/ targets run with the crate's manifest dir as cwd
    // (crates/server), two levels below the repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

/// The admin routes mounted under `/admin/*`
/// (`asterix_core::admin_response`'s dispatch table), spelled as they
/// must appear in the API reference.
const ADMIN_ROUTES: &[&str] = &[
    "/admin/health",
    "/admin/metrics",
    "/admin/metrics.json",
    "/admin/queries",
    "/admin/queries/<id>/cancel",
    "/admin/lsm",
    "/admin/slow",
    "/admin/trace/recovery",
    "/admin/trace/<id>",
];

#[test]
fn api_reference_covers_every_route() {
    let api = fs::read_to_string(repo_root().join("docs/API.md")).expect("docs/API.md exists");
    for (method, path, _summary) in asterix_server::ROUTES {
        let line = api
            .lines()
            .find(|l| l.contains(path) && (l.contains(method) || *method == "*"));
        assert!(
            line.is_some(),
            "docs/API.md does not document `{method} {path}`"
        );
    }
    for path in ADMIN_ROUTES {
        assert!(
            api.contains(path),
            "docs/API.md does not document admin route `{path}`"
        );
    }
    // The error-mapping table must cover every machine-readable code.
    for code in [
        "parse_error",
        "translate_error",
        "schema_error",
        "queue_full",
        "admission_timeout",
        "memory_budget_exceeded",
        "execution_error",
        "timeout",
        "cancelled",
        "io_error",
        "feed_saturated",
    ] {
        assert!(
            api.contains(code),
            "docs/API.md error table is missing `{code}`"
        );
    }
}

/// docs/REFERENCE.md's "Metrics keys" table is the metric catalogue:
/// one row per `asterix_core::telemetry::METRICS` family, with its JSON
/// path, Prometheus family, kind and help, and no row the catalogue
/// lacks.
#[test]
fn reference_metrics_table_matches_the_catalogue() {
    let reference = fs::read_to_string(repo_root().join("docs/REFERENCE.md")).unwrap();
    let section = reference
        .split("## Metrics keys")
        .nth(1)
        .expect("docs/REFERENCE.md has a Metrics keys section");
    let section = section.split("\n## ").next().unwrap();
    // Table rows whose first cell is a code span: the header and its
    // rule are not rows.
    let documented: Vec<&str> = section
        .lines()
        .filter(|l| l.starts_with("| `"))
        .collect();
    let catalogue: Vec<String> = asterix_core::telemetry::METRICS
        .iter()
        .map(|f| format!("| `{}` | `{}` | {} | {} |", f.json, f.prom, f.kind.name(), f.help))
        .collect();
    let missing: Vec<&String> = catalogue
        .iter()
        .filter(|row| !documented.contains(&row.as_str()))
        .collect();
    let extra: Vec<&&str> = documented
        .iter()
        .filter(|row| !catalogue.iter().any(|c| c == **row))
        .collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "docs/REFERENCE.md Metrics keys table differs from the catalogue.\n\
         missing or changed rows:\n{}\nrows the catalogue lacks:\n{}",
        missing.iter().map(|r| r.as_str()).collect::<Vec<_>>().join("\n"),
        extra.iter().map(|r| **r).collect::<Vec<_>>().join("\n"),
    );
}

#[test]
fn markdown_relative_links_resolve() {
    let root = repo_root();
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in [root.clone(), root.join("docs")] {
        let Ok(entries) = fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            // SNIPPETS/PAPERS/PAPER/ISSUE are imported reference
            // material whose links point into their source repos, not
            // part of this repo's docs.
            let name = entry.file_name();
            if matches!(
                name.to_str(),
                Some("SNIPPETS.md" | "PAPERS.md" | "PAPER.md" | "ISSUE.md")
            ) {
                continue;
            }
            if path.extension().is_some_and(|e| e == "md") {
                files.push(path);
            }
        }
    }
    assert!(
        files.iter().any(|f| f.ends_with("docs/API.md")),
        "docs/API.md missing"
    );

    let mut broken = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).unwrap();
        let base = file.parent().unwrap();
        for target in extract_links(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.starts_with("mailto:")
            {
                continue;
            }
            let path_part = target.split('#').next().unwrap();
            if path_part.is_empty() {
                continue;
            }
            if !base.join(path_part).exists() {
                broken.push(format!("{}: {target}", file.display()));
            }
        }
    }
    assert!(broken.is_empty(), "broken markdown links:\n{}", broken.join("\n"));
}

/// Every `](target)` markdown link target in `text`.
fn extract_links(text: &str) -> Vec<String> {
    let mut links = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(end) = text[i + 2..].find(')') {
                let target = &text[i + 2..i + 2 + end];
                // Ignore images with titles: take the part before a space.
                links.push(target.split_whitespace().next().unwrap_or("").to_string());
                i += 2 + end;
                continue;
            }
        }
        i += 1;
    }
    links
}
