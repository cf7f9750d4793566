//! Parser for the `GLOBALS.toml` shared-state registry.
//!
//! The registry is the checked-in source of truth for every
//! interior-mutable `static` in the sim crates (DESIGN.md §14). The
//! format is a tiny TOML subset — an array of `[[global]]` tables with
//! string and integer values — parsed by hand so the analyzer stays
//! zero-dep:
//!
//! ```toml
//! [[global]]
//! name  = "TRAJECTORIES"
//! path  = "crates/grid/src/fastforward.rs"
//! owner = "grid::fastforward"
//! kind  = "mutex"          # mutex | rwlock | once | atomic | cell | thread-local
//! rank  = 60               # required for mutex/rwlock: lock-order rank
//! reset = "grid::fastforward::reset_all"
//! ```
//!
//! `rank` defines the global lock acquisition order: a lock may only
//! be taken while holding locks of strictly lower rank. `reset` names
//! the test hook that clears the state (or documents why none is
//! needed) so cross-test cache bleed stays impossible.

/// The accepted `kind` values.
pub const KINDS: &[&str] = &["mutex", "rwlock", "once", "atomic", "cell", "thread-local"];

/// One `[[global]]` entry.
#[derive(Debug, Clone, Default)]
pub struct GlobalEntry {
    pub name: String,
    pub path: String,
    pub owner: String,
    pub kind: String,
    pub rank: Option<u32>,
    pub reset: String,
    /// Line of the `[[global]]` header, for diagnostics.
    pub line: usize,
}

/// Parse the registry text. Returns the entries that could be
/// recovered plus `(line, message)` errors for everything malformed;
/// entries missing required fields are reported but still returned
/// when they carry enough identity (name + path) for cross-checking.
pub fn parse(text: &str) -> (Vec<GlobalEntry>, Vec<(usize, String)>) {
    let mut entries: Vec<GlobalEntry> = Vec::new();
    let mut errors: Vec<(usize, String)> = Vec::new();
    let mut cur: Option<GlobalEntry> = None;

    let finish = |e: Option<GlobalEntry>,
                  entries: &mut Vec<GlobalEntry>,
                  errors: &mut Vec<(usize, String)>| {
        let Some(e) = e else { return };
        for (field, value) in [
            ("name", &e.name),
            ("path", &e.path),
            ("owner", &e.owner),
            ("kind", &e.kind),
            ("reset", &e.reset),
        ] {
            if value.is_empty() {
                errors.push((e.line, format!("[[global]] entry is missing `{field}`")));
            }
        }
        if !e.kind.is_empty() && !KINDS.contains(&e.kind.as_str()) {
            errors.push((
                e.line,
                format!(
                    "unknown kind `{}`; expected one of {}",
                    e.kind,
                    KINDS.join("|")
                ),
            ));
        }
        if matches!(e.kind.as_str(), "mutex" | "rwlock") && e.rank.is_none() {
            errors.push((
                e.line,
                format!(
                    "lockable global `{}` needs a `rank` for lock-order checking",
                    e.name
                ),
            ));
        }
        if !e.name.is_empty() && !e.path.is_empty() {
            entries.push(e);
        }
    };

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = match raw.find('#') {
            Some(cut) if !raw[..cut].contains('"') => raw[..cut].trim(),
            _ => raw.trim(),
        };
        if line.is_empty() {
            continue;
        }
        if line == "[[global]]" {
            finish(cur.take(), &mut entries, &mut errors);
            cur = Some(GlobalEntry {
                line: lineno,
                ..GlobalEntry::default()
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            errors.push((lineno, "expected `key = value` or `[[global]]`".to_string()));
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        let Some(e) = cur.as_mut() else {
            errors.push((lineno, format!("`{key}` outside a [[global]] table")));
            continue;
        };
        match key {
            "name" | "path" | "owner" | "kind" | "reset" => {
                let Some(s) = unquote(value) else {
                    errors.push((lineno, format!("`{key}` must be a double-quoted string")));
                    continue;
                };
                match key {
                    "name" => e.name = s,
                    "path" => e.path = s,
                    "owner" => e.owner = s,
                    "kind" => e.kind = s,
                    _ => e.reset = s,
                }
            }
            "rank" => match value.parse::<u32>() {
                Ok(r) => e.rank = Some(r),
                Err(_) => errors.push((lineno, "`rank` must be an unsigned integer".to_string())),
            },
            other => errors.push((lineno, format!("unknown key `{other}` in [[global]]"))),
        }
    }
    finish(cur.take(), &mut entries, &mut errors);

    (entries, errors)
}

fn unquote(value: &str) -> Option<String> {
    let v = value.strip_prefix('"')?.strip_suffix('"')?;
    if v.contains('"') {
        return None;
    }
    Some(v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# registry
[[global]]
name  = "SEGMENT_MEMO"
path  = "crates/grid/src/fastforward.rs"
owner = "grid::fastforward"
kind  = "mutex"
rank  = 40
reset = "grid::fastforward::reset_all"

[[global]]
name  = "COUNTER"
path  = "crates/grid/src/fastforward.rs"
owner = "grid::fastforward"
kind  = "atomic"
reset = "grid::fastforward::reset_all"
"#;

    #[test]
    fn parses_entries() {
        let (entries, errors) = parse(GOOD);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "SEGMENT_MEMO");
        assert_eq!(entries[0].rank, Some(40));
        assert_eq!(entries[1].kind, "atomic");
        assert_eq!(entries[1].rank, None);
    }

    #[test]
    fn missing_rank_on_mutex_is_an_error() {
        let (_, errors) = parse(
            "[[global]]\nname = \"M\"\npath = \"crates/grid/src/x.rs\"\nowner = \"m\"\nkind = \"mutex\"\nreset = \"none\"\n",
        );
        assert!(errors.iter().any(|(_, m)| m.contains("rank")), "{errors:?}");
    }

    #[test]
    fn malformed_lines_are_reported() {
        let (_, errors) = parse("[[global]]\nname = unquoted\nbogus\nwhat = \"x\"\n");
        assert_eq!(errors.iter().filter(|(l, _)| *l == 2).count(), 1);
        assert!(errors.iter().any(|(l, _)| *l == 3));
        assert!(errors.iter().any(|(_, m)| m.contains("unknown key `what`")));
    }
}
