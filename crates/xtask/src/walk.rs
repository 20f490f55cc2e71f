//! Workspace traversal and the cross-file passes.
//!
//! Collects every `.rs` and `Cargo.toml` under the workspace root in a
//! deterministic (sorted) order, derives a [`cache::SourceArtifact`]
//! per source (served from the incremental cache when the file is
//! unchanged), then runs the passes that need a global view: the call
//! graph analyses ([`crate::graph`]), `path-deps` over every manifest,
//! and `shim-surface` over the vendored shims against the whole
//! workspace's identifier usage. Per-file and cross-file findings are
//! merged *before* allow markers are applied, so a single
//! `panic-reachability` allow marker suppresses a graph finding
//! exactly like a token finding — and goes stale exactly like one too.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::cache::{self, Cache, SourceArtifact};
use crate::graph;
use crate::lexer;
use crate::parse;
use crate::rules::{self, Finding};

/// Directories never scanned: build output, VCS metadata, and the
/// seeded-violation fixtures used by xtask's own self-tests.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Vendored third-party stand-ins: exempt from the style rules (their
/// job is to mimic crates.io APIs), but their manifests are still
/// checked and their export surface is audited by `shim-surface`.
const SHIM_PREFIX: &str = "crates/shims/";

/// Tuning knobs for one tidy run.
#[derive(Debug, Default)]
pub struct RunOpts {
    /// Incremental cache location; `None` disables caching entirely.
    pub cache_file: Option<PathBuf>,
}

/// The result of one tidy run.
#[derive(Debug)]
pub struct TidyReport {
    /// Findings sorted by (path, line, rule, message).
    pub findings: Vec<Finding>,
    /// Number of `.rs` sources scanned (workspace + shims).
    pub files: usize,
    /// Sources served from the incremental cache.
    pub cache_hits: usize,
    /// Sources that had to be lexed/scanned/parsed.
    pub cache_misses: usize,
}

fn walk_files(dir: &Path, rs: &mut Vec<PathBuf>, toml: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk_files(&p, rs, toml);
            }
        } else if name == "Cargo.toml" {
            toml.push(p);
        } else if name.ends_with(".rs") {
            rs.push(p);
        }
    }
}

fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Identifier occurrence counts capped at 2 (all the shim-surface pass
/// distinguishes is 0, 1, and "2 or more").
fn ident_counts(source: &str) -> Vec<(String, u8)> {
    let mut counts: BTreeMap<String, u8> = BTreeMap::new();
    for id in rules::ident_set(source) {
        let c = counts.entry(id).or_insert(0);
        *c = (*c + 1).min(2);
    }
    counts.into_iter().collect()
}

/// Derives one source file's artifact from scratch (a cache miss).
fn build_artifact(rel: &str, text: &str, is_shim: bool) -> SourceArtifact {
    let blanked = lexer::blank(text);
    if is_shim {
        SourceArtifact {
            findings: Vec::new(),
            allows: blanked.allows,
            summary: parse::FileSummary::default(),
            idents: ident_counts(text),
            shim_items: rules::shim_items(text),
        }
    } else {
        let findings = rules::scan_blanked(rel, &blanked);
        let summary = parse::parse_blanked(&blanked.text);
        SourceArtifact {
            findings,
            allows: blanked.allows,
            summary,
            idents: ident_counts(text),
            shim_items: Vec::new(),
        }
    }
}

fn mtime_ns(meta: &fs::Metadata) -> u128 {
    meta.modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos())
}

/// Runs every tidy pass over the workspace rooted at `root` with no
/// cache. Returns findings sorted by (path, line, rule, message).
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    run_with(root, &RunOpts::default()).map(|r| r.findings)
}

/// Runs every tidy pass with explicit options.
pub fn run_with(root: &Path, opts: &RunOpts) -> Result<TidyReport, String> {
    let mut rs = Vec::new();
    let mut tomls = Vec::new();
    walk_files(root, &mut rs, &mut tomls);
    if rs.is_empty() {
        return Err(format!("no Rust sources under {}", root.display()));
    }

    let old_cache = opts
        .cache_file
        .as_deref()
        .map(Cache::load)
        .unwrap_or_default();
    let mut new_cache = Cache::default();
    let mut hits = 0usize;
    let mut misses = 0usize;

    // Per-file artifacts, cache-served where possible.
    let mut workspace: Vec<(String, SourceArtifact)> = Vec::new();
    let mut shims: Vec<(String, SourceArtifact)> = Vec::new();
    for p in rs {
        let rel = rel_path(root, &p);
        let is_shim = rel.starts_with(SHIM_PREFIX);
        let meta = fs::metadata(&p).map_err(|e| format!("stat {rel}: {e}"))?;
        let (len, mtime) = (meta.len(), mtime_ns(&meta));

        let (key, art) = if let Some(key) = old_cache.stat_key(&rel, len, mtime) {
            // Fast path: unchanged stat — the file is not even read.
            hits += 1;
            (key, old_cache.get(key).cloned().unwrap_or_default())
        } else {
            let text = fs::read_to_string(&p).map_err(|e| format!("read {rel}: {e}"))?;
            let key = cache::file_key(&rel, &text);
            match old_cache.get(key) {
                Some(art) => {
                    // Stat changed, content did not (touch/checkout).
                    hits += 1;
                    (key, art.clone())
                }
                None => {
                    misses += 1;
                    (key, build_artifact(&rel, &text, is_shim))
                }
            }
        };
        if opts.cache_file.is_some() {
            new_cache.put(&rel, len, mtime, key, art.clone());
        }
        if is_shim {
            shims.push((rel, art));
        } else {
            workspace.push((rel, art));
        }
    }
    let files = workspace.len() + shims.len();

    // Cross-file pass 1: the call graph analyses.
    let graph_files: Vec<(String, parse::FileSummary)> = workspace
        .iter()
        .map(|(rel, art)| (rel.clone(), art.summary.clone()))
        .collect();
    let graph_findings = graph::analyze(&graph_files);

    // Cross-file pass 2: shim surface.
    let shim_findings = shim_surface_from_artifacts(&workspace, &shims);

    // Merge per-file + cross-file raw findings by path, then apply
    // allow markers once per file.
    let mut by_path: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
    let mut allows_by_path: BTreeMap<&str, &[lexer::AllowSite]> = BTreeMap::new();
    for (rel, art) in workspace.iter().chain(shims.iter()) {
        by_path.entry(rel).or_default().extend(art.findings.iter().cloned());
        allows_by_path.insert(rel, &art.allows);
    }
    for f in graph_findings.into_iter().chain(shim_findings) {
        match by_path.get_mut(f.path.as_str()) {
            Some(v) => v.push(f),
            None => {
                // A graph finding against a path we did not scan (root
                // drift against a deleted file) — keep it unsuppressed.
                by_path.entry("").or_default().push(f);
            }
        }
    }
    let mut findings = Vec::new();
    for (rel, raw) in by_path {
        if rel.is_empty() {
            findings.extend(raw);
            continue;
        }
        let allows = allows_by_path.get(rel).copied().unwrap_or(&[]);
        findings.extend(rules::apply_allows(rel, allows, raw));
    }

    // Manifests (cheap; their allow markers are handled inline).
    for p in tomls {
        let rel = rel_path(root, &p);
        let text = fs::read_to_string(&p).map_err(|e| format!("read {rel}: {e}"))?;
        findings.extend(rules::check_manifest(&rel, &text));
    }

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str())
            .cmp(&(b.path.as_str(), b.line, b.rule, b.message.as_str()))
    });

    if let Some(cache_path) = opts.cache_file.as_deref() {
        new_cache.save(cache_path)?;
    }

    Ok(TidyReport {
        findings,
        files,
        cache_hits: hits,
        cache_misses: misses,
    })
}

/// The shim-surface pass over cached artifacts: a shim export is dead
/// when the workspace never names it and the shims themselves reference
/// it at most once (the definition).
fn shim_surface_from_artifacts(
    workspace: &[(String, SourceArtifact)],
    shims: &[(String, SourceArtifact)],
) -> Vec<Finding> {
    let mut outside: BTreeSet<&str> = BTreeSet::new();
    for (_, art) in workspace {
        outside.extend(art.idents.iter().map(|(n, _)| n.as_str()));
    }
    let mut shim_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for (_, art) in shims {
        for (name, count) in &art.idents {
            *shim_counts.entry(name).or_insert(0) += usize::from(*count);
        }
    }
    let mut out = Vec::new();
    for (rel, art) in shims {
        for item in &art.shim_items {
            let internal = shim_counts.get(item.name.as_str()).copied().unwrap_or(0);
            if !outside.contains(item.name.as_str()) && internal <= 1 {
                out.push(Finding::raw(
                    rel,
                    item.line,
                    "shim-surface",
                    format!(
                        "shim export `{}` is referenced nowhere in the workspace",
                        item.name
                    ),
                ));
            }
        }
    }
    out
}

/// Flags shim exports referenced nowhere — neither by the workspace
/// nor anywhere in the shims beyond the single defining occurrence
/// (impl blocks, internal calls, and macro bodies all count as
/// references, so API kept alive internally is never flagged). Takes
/// `(path, text)` pairs so the fixture self-tests can drive it.
pub fn check_shim_surface(
    workspace: &[(&str, &str)],
    shims: &[(&str, &str)],
) -> Vec<Finding> {
    let ws: Vec<(String, SourceArtifact)> = workspace
        .iter()
        .map(|(rel, text)| {
            (
                (*rel).to_string(),
                SourceArtifact {
                    idents: ident_counts(text),
                    ..Default::default()
                },
            )
        })
        .collect();
    let sh: Vec<(String, SourceArtifact)> = shims
        .iter()
        .map(|(rel, text)| {
            let blanked = lexer::blank(text);
            (
                (*rel).to_string(),
                SourceArtifact {
                    allows: blanked.allows,
                    idents: ident_counts(text),
                    shim_items: rules::shim_items(text),
                    ..Default::default()
                },
            )
        })
        .collect();
    let raw = shim_surface_from_artifacts(&ws, &sh);
    let mut by_path: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
    for f in raw {
        let key = sh
            .iter()
            .find(|(rel, _)| *rel == f.path)
            .map(|(rel, _)| rel.as_str())
            .unwrap_or("");
        by_path.entry(key).or_default().push(f);
    }
    let mut out = Vec::new();
    for (rel, art) in &sh {
        let raw = by_path.remove(rel.as_str()).unwrap_or_default();
        out.extend(rules::apply_allows(rel, &art.allows, raw));
    }
    out
}

/// The full in-memory pipeline over `(path, source)` pairs: per-file
/// scans, the call-graph analyses, and allow-marker application. The
/// fixture self-tests drive the new rules through this.
pub fn check_files(files: &[(&str, &str)]) -> Vec<Finding> {
    let mut arts: Vec<(String, SourceArtifact)> = Vec::new();
    for (rel, text) in files {
        arts.push(((*rel).to_string(), build_artifact(rel, text, false)));
    }
    let graph_files: Vec<(String, parse::FileSummary)> = arts
        .iter()
        .map(|(rel, art)| (rel.clone(), art.summary.clone()))
        .collect();
    let graph_findings = graph::analyze(&graph_files);

    let mut by_path: BTreeMap<&str, Vec<Finding>> = BTreeMap::new();
    for (rel, art) in &arts {
        by_path.entry(rel).or_default().extend(art.findings.iter().cloned());
    }
    for f in graph_findings {
        if let Some(v) = by_path.get_mut(f.path.as_str()) {
            v.push(f);
        }
    }
    let mut out = Vec::new();
    for (rel, art) in &arts {
        let raw = by_path.remove(rel.as_str()).unwrap_or_default();
        out.extend(rules::apply_allows(rel, &art.allows, raw));
    }
    out.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str())
            .cmp(&(b.path.as_str(), b.line, b.rule, b.message.as_str()))
    });
    out
}
