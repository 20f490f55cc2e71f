//! The content-hash-keyed incremental cache.
//!
//! Lexing, scanning, and parsing every workspace source on every tidy
//! run is the cost that grows as rules multiply; the *cross-file*
//! passes (call graph, shim surface) are cheap by comparison. So the
//! cache stores, per source file, everything the cross-file passes
//! need — the raw per-file findings, the allow markers, the parsed
//! [`FileSummary`], capped identifier counts, and shim export items —
//! keyed by an FNV-64 hash of `path \0 content` (rule scoping depends
//! on the path, so a moved file must miss).
//!
//! Two lookup tiers make the warm path cheap:
//!
//! 1. a **stat index** `path → (len, mtime_ns, key)`: when the length
//!    and mtime match, the file is not even read;
//! 2. the **artifact map** `key → SourceArtifact`: when a stat changed
//!    but the content hash matches (touch, checkout), the read is paid
//!    but the lex/scan/parse is not.
//!
//! The on-disk format is line-oriented text with tab-separated,
//! escaped fields, led by a version header carrying an analyzer
//! revision and a fingerprint of the rule catalogue — any rule change
//! invalidates everything. Parsing is strict: the first anomaly drops
//! the whole cache (a tidy run from scratch is always correct, just
//! slower). Saves rewrite the file from the current run's artifacts
//! only, so entries for deleted files age out automatically.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::lexer::AllowSite;
use crate::parse::{Call, CallKind, DataflowKind, DataflowSite, FileSummary, FnInfo, PanicSite};
use crate::rules::{static_rule_name, Finding, ShimItem, RULES};

/// Bumped whenever artifact *semantics* change without a rule-catalogue
/// change (parser fixes, new harvest kinds).
pub const ANALYZER_REV: u32 = 2;

/// FNV-1a 64-bit over a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cache key for one source file: path and content together, since
/// every rule pass scopes on the workspace-relative path.
pub fn file_key(rel: &str, content: &str) -> u64 {
    let mut h = fnv64(rel.as_bytes());
    h ^= 0xff;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    for &b in content.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of the rule catalogue plus the analyzer revision: the
/// header every cache file must match.
pub fn fingerprint() -> u64 {
    let mut acc = String::new();
    for r in RULES {
        acc.push_str(r.name);
        acc.push('\u{1}');
        acc.push_str(r.summary);
        acc.push('\u{1}');
        acc.push_str(r.hint);
        acc.push('\u{1}');
    }
    fnv64(acc.as_bytes()) ^ u64::from(ANALYZER_REV)
}

/// Everything the pipeline derives from one source file in isolation.
#[derive(Debug, Clone, Default)]
pub struct SourceArtifact {
    /// Raw per-file findings (allow markers not yet applied — the walk
    /// applies them once, after merging in the cross-file findings).
    pub findings: Vec<Finding>,
    /// The file's `tidy:allow` markers.
    pub allows: Vec<AllowSite>,
    /// Parsed functions/calls/panic-sites for the call graph.
    pub summary: FileSummary,
    /// Identifier occurrence counts, capped at 2 (the shim-surface
    /// pass only distinguishes 0, 1, and "2 or more").
    pub idents: Vec<(String, u8)>,
    /// Exported items, for shim sources only.
    pub shim_items: Vec<ShimItem>,
}

/// The loaded (or freshly built) cache.
#[derive(Debug, Default)]
pub struct Cache {
    /// `path → (len, mtime_ns, key)`.
    stats: BTreeMap<String, (u64, u128, u64)>,
    arts: BTreeMap<u64, SourceArtifact>,
}

impl Cache {
    /// Loads a cache file; any anomaly (missing, wrong header, parse
    /// error, unknown rule name) yields an empty cache.
    pub fn load(path: &Path) -> Cache {
        let Ok(text) = fs::read_to_string(path) else {
            return Cache::default();
        };
        parse_cache(&text).unwrap_or_default()
    }

    /// Stat-index lookup: the artifact key for `rel` if its length and
    /// mtime are unchanged since the cache was written.
    pub fn stat_key(&self, rel: &str, len: u64, mtime_ns: u128) -> Option<u64> {
        let &(l, m, key) = self.stats.get(rel)?;
        (l == len && m == mtime_ns && self.arts.contains_key(&key)).then_some(key)
    }

    /// Artifact lookup by content key.
    pub fn get(&self, key: u64) -> Option<&SourceArtifact> {
        self.arts.get(&key)
    }

    /// Records one file's artifact under its stat and content key.
    pub fn put(&mut self, rel: &str, len: u64, mtime_ns: u128, key: u64, art: SourceArtifact) {
        self.stats.insert(rel.to_string(), (len, mtime_ns, key));
        self.arts.insert(key, art);
    }

    /// Writes the cache atomically (temp file + rename).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let text = self.serialize();
        let tmp = path.with_extension("tmp");
        if let Some(dir) = path.parent() {
            let _ = fs::create_dir_all(dir);
        }
        fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        fs::rename(&tmp, path).map_err(|e| format!("rename {}: {e}", path.display()))
    }

    fn serialize(&self) -> String {
        let mut out = format!("tidy-cache {ANALYZER_REV} {:016x}\n", fingerprint());
        for (rel, &(len, mtime, key)) in &self.stats {
            out.push_str(&format!("stat\t{len}\t{mtime}\t{key:016x}\t{}\n", esc(rel)));
        }
        for (key, art) in &self.arts {
            out.push_str(&format!("art\t{key:016x}\n"));
            for f in &art.findings {
                out.push_str(&format!(
                    "F\t{}\t{}\t{}\t{}\n",
                    f.line,
                    f.rule,
                    esc(&f.path),
                    esc(&f.message)
                ));
            }
            for a in &art.allows {
                out.push_str(&format!(
                    "A\t{}\t{}\t{}\n",
                    a.line,
                    u8::from(a.justified),
                    esc(&a.rule)
                ));
            }
            for func in &art.summary.fns {
                out.push_str(&format!(
                    "N\t{}\t{}\t{}\t{}\n",
                    func.line,
                    u8::from(func.is_test),
                    esc(&func.owner),
                    esc(&func.name)
                ));
                for c in &func.calls {
                    let (tag, qual) = match &c.kind {
                        CallKind::Method => ("m", String::new()),
                        CallKind::Free => ("f", String::new()),
                        CallKind::Qual(q) => ("q", q.clone()),
                    };
                    out.push_str(&format!(
                        "C\t{}\t{tag}\t{}\t{}\n",
                        c.line,
                        esc(&c.name),
                        esc(&qual)
                    ));
                }
                for p in &func.panics {
                    out.push_str(&format!("P\t{}\t{}\n", p.line, esc(&p.what)));
                }
                for d in &func.dataflow {
                    let tag = match d.kind {
                        DataflowKind::HashIdent => "h",
                        DataflowKind::UnorderedFloatAccum => "u",
                        DataflowKind::PartialCmp => "p",
                    };
                    out.push_str(&format!("D\t{}\t{tag}\t{}\n", d.line, esc(&d.what)));
                }
            }
            for (name, count) in &art.idents {
                out.push_str(&format!("I\t{count}\t{}\n", esc(name)));
            }
            for item in &art.shim_items {
                out.push_str(&format!("S\t{}\t{}\n", item.line, esc(&item.name)));
            }
            out.push_str(".\n");
        }
        out
    }
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

/// Strict parse of a serialized cache: `None` on any anomaly.
fn parse_cache(text: &str) -> Option<Cache> {
    let mut lines = text.lines();
    let header = lines.next()?;
    let expect = format!("tidy-cache {ANALYZER_REV} {:016x}", fingerprint());
    if header != expect {
        return None;
    }
    let mut cache = Cache::default();
    let mut cur: Option<(u64, SourceArtifact)> = None;
    for line in lines {
        let mut fields = line.split('\t');
        let tag = fields.next()?;
        match tag {
            "stat" => {
                let len: u64 = fields.next()?.parse().ok()?;
                let mtime: u128 = fields.next()?.parse().ok()?;
                let key = u64::from_str_radix(fields.next()?, 16).ok()?;
                let rel = unesc(fields.next()?)?;
                cache.stats.insert(rel, (len, mtime, key));
            }
            "art" => {
                if cur.is_some() {
                    return None; // unterminated previous artifact
                }
                let key = u64::from_str_radix(fields.next()?, 16).ok()?;
                cur = Some((key, SourceArtifact::default()));
            }
            "." => {
                let (key, art) = cur.take()?;
                cache.arts.insert(key, art);
            }
            "F" => {
                let (_, art) = cur.as_mut()?;
                let line_no: usize = fields.next()?.parse().ok()?;
                let rule = static_rule_name(fields.next()?)?;
                let path = unesc(fields.next()?)?;
                let message = unesc(fields.next()?)?;
                art.findings.push(Finding::raw(&path, line_no, rule, message));
            }
            "A" => {
                let (_, art) = cur.as_mut()?;
                let line_no: usize = fields.next()?.parse().ok()?;
                let justified = fields.next()? == "1";
                let rule = unesc(fields.next()?)?;
                art.allows.push(AllowSite {
                    line: line_no,
                    rule,
                    justified,
                });
            }
            "N" => {
                let (_, art) = cur.as_mut()?;
                let line_no: usize = fields.next()?.parse().ok()?;
                let is_test = fields.next()? == "1";
                let owner = unesc(fields.next()?)?;
                let name = unesc(fields.next()?)?;
                art.summary.fns.push(FnInfo {
                    name,
                    owner,
                    line: line_no,
                    is_test,
                    calls: Vec::new(),
                    panics: Vec::new(),
                    dataflow: Vec::new(),
                });
            }
            "C" => {
                let (_, art) = cur.as_mut()?;
                let line_no: usize = fields.next()?.parse().ok()?;
                let tag = fields.next()?;
                let name = unesc(fields.next()?)?;
                let qual = unesc(fields.next()?)?;
                let kind = match tag {
                    "m" => CallKind::Method,
                    "f" => CallKind::Free,
                    "q" => CallKind::Qual(qual),
                    _ => return None,
                };
                art.summary.fns.last_mut()?.calls.push(Call {
                    kind,
                    name,
                    line: line_no,
                });
            }
            "P" => {
                let (_, art) = cur.as_mut()?;
                let line_no: usize = fields.next()?.parse().ok()?;
                let what = unesc(fields.next()?)?;
                art.summary.fns.last_mut()?.panics.push(PanicSite {
                    line: line_no,
                    what,
                });
            }
            "D" => {
                let (_, art) = cur.as_mut()?;
                let line_no: usize = fields.next()?.parse().ok()?;
                let kind = match fields.next()? {
                    "h" => DataflowKind::HashIdent,
                    "u" => DataflowKind::UnorderedFloatAccum,
                    "p" => DataflowKind::PartialCmp,
                    _ => return None,
                };
                let what = unesc(fields.next()?)?;
                art.summary.fns.last_mut()?.dataflow.push(DataflowSite {
                    kind,
                    line: line_no,
                    what,
                });
            }
            "I" => {
                let (_, art) = cur.as_mut()?;
                let count: u8 = fields.next()?.parse().ok()?;
                let name = unesc(fields.next()?)?;
                art.idents.push((name, count));
            }
            "S" => {
                let (_, art) = cur.as_mut()?;
                let line_no: usize = fields.next()?.parse().ok()?;
                let name = unesc(fields.next()?)?;
                art.shim_items.push(ShimItem {
                    name,
                    line: line_no,
                });
            }
            _ => return None,
        }
    }
    if cur.is_some() {
        return None;
    }
    Some(cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::parse;
    use crate::rules;

    fn artifact_for(path: &str, src: &str) -> SourceArtifact {
        let blanked = lexer::blank(src);
        let findings = rules::scan_blanked(path, &blanked);
        let summary = parse::parse_blanked(&blanked.text);
        let mut idents: BTreeMap<String, u8> = BTreeMap::new();
        for id in rules::ident_set(src) {
            let c = idents.entry(id).or_insert(0);
            *c = (*c + 1).min(2);
        }
        SourceArtifact {
            findings,
            allows: blanked.allows,
            summary,
            idents: idents.into_iter().collect(),
            shim_items: Vec::new(),
        }
    }

    #[test]
    fn roundtrip_preserves_artifacts() {
        let src = "use std::collections::HashMap;\n\
                   // tidy:allow(hash-collections) -- test marker\n\
                   impl Platform { fn step(&mut self) { self.q.pop().unwrap(); } }\n\
                   fn free(m: &HashMap<u32, f64>) -> f64 {\n\
                       let mut t = 0.0f64;\n\
                       for v in m.values() { t += v; }\n\
                       t\n\
                   }\n";
        let path = "crates/faas/src/platform.rs";
        let art = artifact_for(path, src);
        assert!(!art.findings.is_empty());
        assert!(!art.allows.is_empty());
        assert_eq!(art.summary.fns.len(), 2);

        let key = file_key(path, src);
        let mut cache = Cache::default();
        cache.put(path, src.len() as u64, 42, key, art.clone());
        let text = cache.serialize();
        let back = parse_cache(&text).expect("roundtrip parses");
        assert_eq!(back.stat_key(path, src.len() as u64, 42), Some(key));
        let got = back.get(key).expect("artifact present");
        assert_eq!(got.findings.len(), art.findings.len());
        assert_eq!(got.findings[0].rule, art.findings[0].rule);
        assert_eq!(got.findings[0].message, art.findings[0].message);
        assert_eq!(got.allows.len(), art.allows.len());
        assert_eq!(got.summary.fns.len(), art.summary.fns.len());
        assert_eq!(got.summary.fns[0].calls.len(), art.summary.fns[0].calls.len());
        assert_eq!(got.summary.fns[0].panics.len(), art.summary.fns[0].panics.len());
        assert_eq!(
            got.summary.fns[1].dataflow.len(),
            art.summary.fns[1].dataflow.len()
        );
        assert_eq!(got.idents, art.idents);
    }

    #[test]
    fn wrong_header_drops_the_cache() {
        let mut cache = Cache::default();
        cache.put("a.rs", 1, 1, 7, SourceArtifact::default());
        let mut text = cache.serialize();
        text = text.replacen("tidy-cache", "tidy-cache-old", 1);
        assert!(parse_cache(&text).is_none());
    }

    #[test]
    fn truncated_artifact_drops_the_cache() {
        let mut cache = Cache::default();
        cache.put("a.rs", 1, 1, 7, SourceArtifact::default());
        let text = cache.serialize();
        let cut = text.rfind(".\n").unwrap();
        assert!(parse_cache(&text[..cut]).is_none());
    }

    #[test]
    fn escaping_survives_tabs_and_newlines() {
        assert_eq!(unesc(&esc("a\tb\nc\\d")).unwrap(), "a\tb\nc\\d");
    }

    #[test]
    fn stat_key_requires_exact_match() {
        let mut cache = Cache::default();
        cache.put("a.rs", 10, 99, 7, SourceArtifact::default());
        assert_eq!(cache.stat_key("a.rs", 10, 99), Some(7));
        assert_eq!(cache.stat_key("a.rs", 11, 99), None);
        assert_eq!(cache.stat_key("a.rs", 10, 98), None);
        assert_eq!(cache.stat_key("b.rs", 10, 99), None);
    }
}
