//! Versioned campaign wire format (`"spec_version": 1`).
//!
//! One JSON document describes a full campaign request — spec plus
//! [`RunOptions`] — and one JSON document carries the response
//! manifest. Both `vgrid serve` and `vgrid campaign --spec <file>`
//! consume requests through [`run_request_json`], so a served response
//! is byte-identical to the CLI manifest for the same body: the
//! response is a pure function of the request document, never of
//! server load, request interleaving, or cache temperature.
//!
//! The parser is hand-rolled (the workspace is dependency-free) and
//! *strict*: unknown keys are rejected with a typed [`WireError`]
//! rather than silently ignored, the wire twin of the CLI's
//! unknown-flag diagnosis, and nesting deeper than 32 levels is a
//! `json` error rather than a stack overflow. Serialization is
//! canonical — sorted keys, every field explicit, `simobs::json` float
//! formatting, seconds as the exact decimal of their picosecond count —
//! so `render_request(parse_request(doc))` is a fixed point and digests
//! over the canonical form are stable.
//!
//! Each request section has one field table: a row per key, holding the
//! key and an accessor whose `Slot` type says how the field decodes
//! and renders. The decoder, the canonical renderer and the round-trip
//! test all walk the same tables, so a key added as one row is decoded,
//! rendered and tested at once. Only keys with rules of their own are
//! written out by hand: `spec_version`, `deploy.mode` (it picks the
//! defaults), `deploy.migration` (omitted while the policy is off), the
//! `churn.level` shorthand and `options`.
//!
//! `simobs::json` deliberately has no parser (its artifacts are gated
//! with `cmp`); the wire format is the one place the workspace accepts
//! JSON *input*, which is why the parser lives here and not there.

use crate::campaign::{CampaignResult, CampaignSpec};
use crate::error::Error;
use crate::faults::ChurnConfig;
use crate::migration::MigrationPolicy;
use crate::model::{DeployConfig, ExecutionMode, PoolConfig, ProjectConfig};
use crate::options::{RunOptions, SchedulerMode};
use crate::sim::SubstrateMode;
use vgrid_simcore::time::PS_PER_SEC;
use vgrid_simcore::{SimDuration, SimTime};
use vgrid_simobs::{fnv1a64, json};
use vgrid_vmm::VmmProfile;

/// The one wire version this build speaks.
pub const SPEC_VERSION: u64 = 1;

/// Schema tag of response manifests.
pub const RESPONSE_SCHEMA: &str = "vgrid-campaign-manifest/v1";

/// Schema tag of error responses.
pub const ERROR_SCHEMA: &str = "vgrid-error/v1";

/// What went wrong with a wire request, typed so servers can map the
/// kind to a protocol status and clients can branch without string
/// matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireErrorKind {
    /// The body is not well-formed JSON.
    Json,
    /// The document's `spec_version` is missing or unsupported.
    Version,
    /// Well-formed, versioned, but semantically invalid: unknown keys,
    /// wrong value types, or a spec that fails campaign validation.
    Invalid,
}

impl WireErrorKind {
    /// Stable identifier used in error documents.
    pub fn id(self) -> &'static str {
        match self {
            WireErrorKind::Json => "json",
            WireErrorKind::Version => "version",
            WireErrorKind::Invalid => "invalid",
        }
    }
}

/// A rejected wire request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Error category.
    pub kind: WireErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    fn new(kind: WireErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
        }
    }

    fn invalid(message: impl Into<String>) -> Self {
        WireError::new(WireErrorKind::Invalid, message)
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.id(), self.message)
    }
}

impl std::error::Error for WireError {}

impl From<Error> for WireError {
    fn from(e: Error) -> Self {
        WireError::invalid(e.to_string())
    }
}

/// A parsed campaign request: the spec plus the per-request execution
/// options.
#[derive(Debug, Clone)]
pub struct WireRequest {
    /// The campaign to run.
    pub spec: CampaignSpec,
    /// Execution options for this request only.
    pub options: RunOptions,
}

// ---------------------------------------------------------------------
// JSON value parser
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw token so integer fields
/// (seeds, byte counts) round-trip through `u64` without an `f64`
/// detour.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Deepest `[`/`{` nesting a document may have. A request nests three
/// levels; the cap keeps hostile input from recursing the parser off
/// its thread's stack.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
    /// Arrays and objects open at `i`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> WireError {
        WireError::new(
            WireErrorKind::Json,
            format!("{msg} at byte {}", self.i.min(self.s.len())),
        )
    }

    fn skip_ws(&mut self) {
        while self
            .s
            .get(self.i)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), WireError> {
        if self.s[self.i..].starts_with(kw.as_bytes()) {
            self.i += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    fn value(&mut self) -> Result<Json, WireError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_keyword("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat_keyword("null").map(|_| Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, WireError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(WireError::invalid(format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, WireError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed for the
                            // config vocabulary this format carries.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8 by construction).
                    let rest =
                        std::str::from_utf8(&self.s[self.i..]).expect("parser input was a &str");
                    let c = rest.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let digits = |p: &mut Parser<'a>| {
            let before = p.i;
            while p.peek().is_some_and(|b| b.is_ascii_digit()) {
                p.i += 1;
            }
            p.i > before
        };
        let int_start = self.i;
        if !digits(self) {
            return Err(self.err("bad number"));
        }
        if self.s[int_start] == b'0' && self.i - int_start > 1 {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            if !digits(self) {
                return Err(self.err("bad number fraction"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(self.err("bad number exponent"));
            }
        }
        let raw = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number token");
        Ok(Json::Num(raw.to_string()))
    }
}

/// Parse one complete JSON document (a single value plus whitespace).
fn parse_json(text: &str) -> Result<Json, WireError> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Field tables
// ---------------------------------------------------------------------

/// A mutable view of one config field, typed by how the wire carries
/// it. [`Slot::decode`] and [`Slot::render`] hold each wire type's
/// rules, so every field of a type decodes and renders alike.
enum Slot<'a> {
    U32(&'a mut u32),
    U64(&'a mut u64),
    F64(&'a mut f64),
    Bool(&'a mut bool),
    /// Seconds on the wire, picoseconds in the struct.
    Secs(&'a mut SimDuration),
    /// An instant, carried like [`Slot::Secs`].
    Time(&'a mut SimTime),
    Str(&'a mut String),
    /// A u64 that also accepts a decimal or `"0x…"` string (u64 seeds
    /// above 2^53 do not survive an f64 JSON number in other tooling)
    /// and renders as a hex string.
    Seed(&'a mut u64),
}

/// One table row: a wire key and the accessor to the field it names.
type Key<T> = (&'static str, fn(&mut T) -> Slot<'_>);

// One table per section. Rows are in decode order, which decides the
// error a document with several bad keys reports; the renderer sorts.

const REQUEST: &[Key<CampaignSpec>] = &[
    ("label", |s| Slot::Str(&mut s.label)),
    ("seed", |s| Slot::Seed(&mut s.seed)),
    ("repetitions", |s| Slot::U32(&mut s.repetitions)),
    ("horizon_secs", |s| Slot::Time(&mut s.horizon)),
];

const PROJECT: &[Key<ProjectConfig>] = &[
    ("workunits", |p| Slot::U32(&mut p.workunits)),
    ("wu_ref_secs", |p| Slot::F64(&mut p.wu_ref_secs)),
    ("wu_input_bytes", |p| Slot::U64(&mut p.wu_input_bytes)),
    ("wu_output_bytes", |p| Slot::U64(&mut p.wu_output_bytes)),
    ("replication", |p| Slot::U32(&mut p.replication)),
    ("quorum", |p| Slot::U32(&mut p.quorum)),
    ("deadline_secs", |p| Slot::Secs(&mut p.deadline)),
    ("error_rate", |p| Slot::F64(&mut p.error_rate)),
];

const POOL: &[Key<PoolConfig>] = &[
    ("volunteers", |p| Slot::U32(&mut p.volunteers)),
    ("mean_uptime_secs", |p| Slot::F64(&mut p.mean_uptime_secs)),
    ("mean_downtime_secs", |p| {
        Slot::F64(&mut p.mean_downtime_secs)
    }),
    ("speed_min", |p| Slot::F64(&mut p.speed_range.0)),
    ("speed_max", |p| Slot::F64(&mut p.speed_range.1)),
    ("down_bw", |p| Slot::F64(&mut p.down_bw)),
    ("up_bw", |p| Slot::F64(&mut p.up_bw)),
    ("ram_min_bytes", |p| Slot::U64(&mut p.ram_range.0)),
    ("ram_max_bytes", |p| Slot::U64(&mut p.ram_range.1)),
    ("permanent_failure_prob", |p| {
        Slot::F64(&mut p.permanent_failure_prob)
    }),
];

/// `deploy`'s keys besides `mode`, which picks the defaults these
/// override, and `migration`, which is omitted while the policy is off.
const DEPLOY: &[Key<DeployConfig>] = &[
    ("image_bytes", |d| Slot::U64(&mut d.image_bytes)),
    ("checkpoint_interval_secs", |d| {
        Slot::Secs(&mut d.checkpoint_interval)
    }),
    ("native_checkpoint_bytes", |d| {
        Slot::U64(&mut d.native_checkpoint_bytes)
    }),
    ("host_headroom_bytes", |d| {
        Slot::U64(&mut d.host_headroom_bytes)
    }),
    ("migrate_on_churn", |d| Slot::Bool(&mut d.migrate_on_churn)),
];

const MIGRATION: &[Key<MigrationPolicy>] = &[
    ("rescue", |m| Slot::Bool(&mut m.rescue)),
    ("evacuate", |m| Slot::Bool(&mut m.evacuate)),
    ("rescue_slack", |m| Slot::F64(&mut m.rescue_slack)),
    ("hazard_threshold", |m| Slot::F64(&mut m.hazard_threshold)),
];

/// `churn`'s explicit knobs; the `level` shorthand stands alone.
const CHURN: &[Key<ChurnConfig>] = &[
    ("availability_shape", |c| {
        Slot::F64(&mut c.availability_shape)
    }),
    ("uptime_factor", |c| Slot::F64(&mut c.uptime_factor)),
    ("owner_arrival_mean_secs", |c| {
        Slot::F64(&mut c.owner_arrival_mean_secs)
    }),
    ("owner_session_mean_secs", |c| {
        Slot::F64(&mut c.owner_session_mean_secs)
    }),
    ("preempt_kill_prob", |c| Slot::F64(&mut c.preempt_kill_prob)),
    ("vm_kill_mean_secs", |c| Slot::F64(&mut c.vm_kill_mean_secs)),
];

fn is_digits(raw: &str) -> bool {
    raw.bytes().all(|b| b.is_ascii_digit())
}

/// Picoseconds in a seconds token that is not a plain integer, or
/// `None` when it is negative, not finite or beyond the simulated-time
/// range. A plain decimal with at most 12 fraction digits (every
/// canonical token) converts exactly; any other token rounds to the
/// nearest picosecond through f64, which cannot hold every picosecond
/// count above 2^53 ps (about 9,007 s).
fn fraction_picos(raw: &str) -> Option<u64> {
    let plain = raw
        .split_once('.')
        .filter(|(int, frac)| frac.len() <= 12 && is_digits(int) && is_digits(frac));
    match plain {
        Some((int, frac)) => {
            let frac_ps: u64 = format!("{frac:0<12}").parse().ok()?;
            int.parse::<u64>()
                .ok()?
                .checked_mul(PS_PER_SEC)?
                .checked_add(frac_ps)
        }
        None => SimDuration::checked_from_secs_f64(raw.parse().ok()?).map(SimDuration::as_picos),
    }
}

impl Slot<'_> {
    /// Decode `v` into the field; `path` names the field in errors.
    fn decode(self, path: &str, v: Json) -> Result<(), WireError> {
        let got = v.type_name();
        let err = |what: &str| WireError::invalid(format!("{path} {what}"));
        let wrong = |want: &str| err(&format!("must be {want}, got {got}"));
        let uint = |v: &Json| match v {
            Json::Num(raw) if is_digits(raw) => {
                raw.parse::<u64>().map_err(|_| err("exceeds the u64 range"))
            }
            _ => Err(wrong("a non-negative integer")),
        };
        let number = |v: &Json| match v {
            Json::Num(raw) => raw.parse::<f64>().map_err(|_| err("is not a number")),
            _ => Err(wrong("a number")),
        };
        // Simulated time is picoseconds in a u64, so anything beyond
        // about 213.5 days is rejected instead of wrapping.
        let duration = |v: &Json| -> Result<SimDuration, WireError> {
            let ps = match v {
                Json::Num(raw) if is_digits(raw) => uint(v)?.checked_mul(PS_PER_SEC),
                Json::Num(raw) => fraction_picos(raw),
                _ => return Err(wrong("a number")),
            };
            ps.map(SimDuration::from_picos).ok_or_else(|| {
                err("must be finite, >= 0 and at most 18446744 s (the simulated-time range)")
            })
        };
        match self {
            Slot::U32(x) => {
                *x = u32::try_from(uint(&v)?).map_err(|_| err("exceeds the u32 range"))?
            }
            Slot::U64(x) => *x = uint(&v)?,
            Slot::F64(x) => *x = number(&v)?,
            Slot::Bool(x) => match v {
                Json::Bool(b) => *x = b,
                _ => return Err(wrong("a bool")),
            },
            Slot::Secs(x) => *x = duration(&v)?,
            Slot::Time(x) => *x = SimTime::from_picos(duration(&v)?.as_picos()),
            Slot::Str(x) => match v {
                Json::Str(s) => *x = s,
                _ => return Err(wrong("a string")),
            },
            Slot::Seed(x) => match v {
                Json::Num(_) => *x = uint(&v)?,
                Json::Str(s) => {
                    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => s.parse::<u64>(),
                    };
                    *x = parsed
                        .map_err(|_| err(&format!("{s:?} is not a u64 (decimal or 0x-hex)")))?;
                }
                _ => return Err(wrong("an integer or string")),
            },
        }
        Ok(())
    }

    /// The field's canonical JSON token.
    fn render(self) -> String {
        match self {
            Slot::U32(x) => x.to_string(),
            Slot::U64(x) => x.to_string(),
            Slot::F64(x) => json::number(*x),
            Slot::Bool(x) => x.to_string(),
            Slot::Secs(x) => secs(x.as_picos()),
            Slot::Time(x) => secs(x.as_picos()),
            Slot::Str(x) => json::string(x),
            Slot::Seed(x) => hex64(*x),
        }
    }
}

// ---------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------

/// Field cursor over one object: `take` removes known keys, `finish`
/// rejects whatever is left (the unknown-key diagnosis).
struct Fields {
    section: &'static str,
    entries: Vec<(String, Json)>,
}

impl Fields {
    fn from(section: &'static str, v: Json) -> Result<Fields, WireError> {
        match v {
            Json::Obj(entries) => Ok(Fields { section, entries }),
            other => Err(WireError::invalid(format!(
                "{section} must be an object, got {}",
                other.type_name()
            ))),
        }
    }

    fn take(&mut self, key: &str) -> Option<Json> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(i).1)
    }

    fn path(&self, key: &str) -> String {
        if self.section == "request" {
            key.to_string()
        } else {
            format!("{}.{key}", self.section)
        }
    }

    /// Decode each of `table`'s keys this object holds into `target`.
    fn decode<T>(&mut self, table: &[Key<T>], target: &mut T) -> Result<(), WireError> {
        for (key, slot) in table {
            if let Some(v) = self.take(key) {
                slot(target).decode(&self.path(key), v)?;
            }
        }
        Ok(())
    }

    /// Take a hand-written key, decoded like a table field.
    fn take_as<V: Default>(
        &mut self,
        key: &str,
        slot: fn(&mut V) -> Slot<'_>,
    ) -> Result<Option<V>, WireError> {
        let Some(v) = self.take(key) else {
            return Ok(None);
        };
        let mut out = V::default();
        slot(&mut out).decode(&self.path(key), v)?;
        Ok(Some(out))
    }

    fn finish(self) -> Result<(), WireError> {
        if let Some((key, _)) = self.entries.first() {
            return Err(WireError::invalid(format!(
                "unknown key {key:?} in {}",
                self.section
            )));
        }
        Ok(())
    }
}

/// Resolve a mode name to an execution mode, ignoring case. Canonical
/// names are the report names (`native`, `vm-QEMU`, …); the CLI's
/// short aliases (`qemu`, `vbox`, …) resolve too.
pub fn mode_by_name(name: &str) -> Option<ExecutionMode> {
    match name.to_ascii_lowercase().as_str() {
        "native" => Some(ExecutionMode::Native),
        "vm-vmwareplayer" | "vmplayer" | "vmware" | "vmwareplayer" => {
            Some(ExecutionMode::Vm(VmmProfile::vmplayer()))
        }
        "vm-qemu" | "qemu" => Some(ExecutionMode::Vm(VmmProfile::qemu())),
        "vm-virtualbox" | "virtualbox" | "vbox" => {
            Some(ExecutionMode::Vm(VmmProfile::virtualbox()))
        }
        "vm-virtualpc" | "virtualpc" | "vpc" => Some(ExecutionMode::Vm(VmmProfile::virtualpc())),
        _ => None,
    }
}

/// Decode a section that is exactly one table.
fn decode_section<T>(
    section: &'static str,
    v: Json,
    table: &[Key<T>],
    target: &mut T,
) -> Result<(), WireError> {
    let mut f = Fields::from(section, v)?;
    f.decode(table, target)?;
    f.finish()
}

fn decode_deploy(v: Json) -> Result<DeployConfig, WireError> {
    let mut f = Fields::from("deploy", v)?;
    let mut d = match f.take_as("mode", |s| Slot::Str(s))? {
        None => DeployConfig::native(),
        Some(name) => match mode_by_name(&name) {
            Some(ExecutionMode::Native) => DeployConfig::native(),
            Some(ExecutionMode::Vm(profile)) => DeployConfig::vm(profile, 1_400 << 20),
            None => {
                return Err(WireError::invalid(format!(
                    "unknown deploy.mode {name:?} (native, vm-VMwarePlayer, vm-QEMU, vm-VirtualBox, vm-VirtualPC)"
                )))
            }
        },
    };
    f.decode(DEPLOY, &mut d)?;
    if let Some(v) = f.take("migration") {
        decode_section("deploy.migration", v, MIGRATION, &mut d.migration)?;
    }
    f.finish()?;
    Ok(d)
}

fn decode_churn(v: Json) -> Result<ChurnConfig, WireError> {
    let mut f = Fields::from("churn", v)?;
    // `level` is the one-knob shorthand; it must stand alone.
    if let Some(level) = f.take_as("level", |x| Slot::F64(x))? {
        if !level.is_finite() {
            return Err(WireError::invalid("churn.level must be finite"));
        }
        f.finish().map_err(|_| {
            WireError::invalid("churn.level is a shorthand and cannot mix with explicit knobs")
        })?;
        return Ok(ChurnConfig::intensity(level));
    }
    let mut c = ChurnConfig::default();
    f.decode(CHURN, &mut c)?;
    f.finish()?;
    Ok(c)
}

fn decode_options(v: Json) -> Result<RunOptions, WireError> {
    let mut f = Fields::from("options", v)?;
    let mut o = RunOptions::default();
    if let Some(name) = f.take_as("scheduler", |s| Slot::Str(s))? {
        o.scheduler = match name.as_str() {
            "coalesced" => SchedulerMode::Coalesced,
            "per-quantum-reference" => SchedulerMode::PerQuantumReference,
            other => {
                return Err(WireError::invalid(format!(
                    "unknown options.scheduler {other:?} (coalesced, per-quantum-reference)"
                )))
            }
        };
    }
    if let Some(name) = f.take_as("substrate", |s| Slot::Str(s))? {
        o.substrate = match name.as_str() {
            "batched" => SubstrateMode::Batched,
            "hydrated-reference" => SubstrateMode::HydratedReference,
            other => {
                return Err(WireError::invalid(format!(
                    "unknown options.substrate {other:?} (batched, hydrated-reference)"
                )))
            }
        };
    }
    if let Some(on) = f.take_as("fastforward", |b| Slot::Bool(b))? {
        o.fastforward = on;
    }
    f.finish()?;
    Ok(o)
}

/// Parse a versioned campaign request document. Strict: unknown keys
/// anywhere are an error, and `spec_version` must be present and equal
/// to [`SPEC_VERSION`].
pub fn parse_request(body: &str) -> Result<WireRequest, WireError> {
    let mut f = Fields::from("request", parse_json(body)?)?;
    let version = f
        .take_as("spec_version", |n| Slot::U64(n))
        .map_err(|e| WireError::new(WireErrorKind::Version, e.message))?
        .ok_or_else(|| {
            WireError::new(
                WireErrorKind::Version,
                "missing spec_version (this build speaks version 1)",
            )
        })?;
    if version != SPEC_VERSION {
        return Err(WireError::new(
            WireErrorKind::Version,
            format!("unsupported spec_version {version} (supported: {SPEC_VERSION})"),
        ));
    }
    let mut spec = CampaignSpec::new("campaign");
    f.decode(REQUEST, &mut spec)?;
    if let Some(v) = f.take("project") {
        decode_section("project", v, PROJECT, &mut spec.project)?;
    }
    if let Some(v) = f.take("pool") {
        decode_section("pool", v, POOL, &mut spec.pool)?;
    }
    if let Some(v) = f.take("deploy") {
        spec.deploy = decode_deploy(v)?;
    }
    if let Some(v) = f.take("churn") {
        spec.churn = decode_churn(v)?;
    }
    let options = match f.take("options") {
        Some(v) => decode_options(v)?,
        None => RunOptions::default(),
    };
    f.finish()?;
    Ok(WireRequest { spec, options })
}

// ---------------------------------------------------------------------
// Canonical serialization
// ---------------------------------------------------------------------

fn hex64(v: u64) -> String {
    json::string(&format!("{v:#018x}"))
}

/// Seconds as a canonical JSON number: the exact decimal of the
/// picosecond count, integral when whole, which parses back to the same
/// count.
fn secs(ps: u64) -> String {
    let (whole, frac) = (ps / PS_PER_SEC, ps % PS_PER_SEC);
    if frac == 0 {
        whole.to_string()
    } else {
        format!("{whole}.{}", format!("{frac:012}").trim_end_matches('0'))
    }
}

fn substrate_name(m: SubstrateMode) -> &'static str {
    match m {
        SubstrateMode::Batched => "batched",
        SubstrateMode::HydratedReference => "hydrated-reference",
    }
}

fn render_options(o: &RunOptions) -> String {
    json::object(&[
        ("fastforward", o.fastforward.to_string()),
        ("scheduler", json::string(o.scheduler.name())),
        ("substrate", json::string(substrate_name(o.substrate))),
    ])
}

/// One object of `table`'s fields of `target` and the already rendered
/// `extra` keys, in sorted key order.
fn render_object<T>(
    table: &[Key<T>],
    target: &mut T,
    mut extra: Vec<(&'static str, String)>,
) -> String {
    extra.extend(
        table
            .iter()
            .map(|(key, slot)| (*key, slot(target).render())),
    );
    extra.sort_by_key(|(key, _)| *key);
    json::object(&extra)
}

/// Canonical serialization of a request: sorted keys, every field
/// explicit. `render_request(parse_request(x))` is a fixed point,
/// and [`spec_digest`] is an FNV-1a over exactly these bytes.
pub fn render_request(spec: &CampaignSpec, options: &RunOptions) -> String {
    // The accessors hand out `&mut`, so render through a copy.
    let mut s = spec.clone();
    let d = &mut s.deploy;
    let mut deploy = vec![("mode", json::string(d.mode.name()))];
    // "migration" is omitted entirely when the policy is off, so every
    // pre-policy request renders byte-identically to its historic form.
    if !d.migration.is_off() {
        let migration = render_object(MIGRATION, &mut d.migration, Vec::new());
        deploy.push(("migration", migration));
    }
    let sections = vec![
        ("churn", render_object(CHURN, &mut s.churn, Vec::new())),
        ("deploy", render_object(DEPLOY, &mut s.deploy, deploy)),
        ("options", render_options(options)),
        ("pool", render_object(POOL, &mut s.pool, Vec::new())),
        (
            "project",
            render_object(PROJECT, &mut s.project, Vec::new()),
        ),
        ("spec_version", SPEC_VERSION.to_string()),
    ];
    render_object(REQUEST, &mut s, sections)
}

/// FNV-1a digest of the canonical request form — the stable identity
/// of `(spec, options)` on the wire.
pub fn spec_digest(spec: &CampaignSpec, options: &RunOptions) -> u64 {
    fnv1a64(render_request(spec, options).as_bytes())
}

/// Identity of the warm state a request heats up: the FNV-1a digest of
/// its trajectory-cache key — the configuration and seed, but *not* the
/// horizon (a longer horizon of the same config resumes from the stored
/// prefix) and not the label or options. Two requests with equal warm
/// keys share trajectory snapshots; `vgrid serve` counts such overlaps
/// as `serve.cache_cross_hits`.
pub fn warm_key(spec: &CampaignSpec) -> u64 {
    let key = crate::fastforward::trajectory_key(
        &spec.project,
        &spec.pool,
        &spec.deploy,
        &spec.churn,
        spec.seed,
    );
    fnv1a64(key.as_bytes())
}

/// Render the response manifest: a pure function of the request (the
/// result is deterministic given the spec and options), so equal
/// requests produce byte-identical responses under any server load.
pub fn render_response(
    spec: &CampaignSpec,
    options: &RunOptions,
    result: &CampaignResult,
) -> String {
    let mut names: Vec<&str> = result.metric_names().collect();
    if spec.deploy.migration.is_off() {
        // Policy-off responses keep the historic metric set so every
        // pre-policy golden manifest stays byte-identical.
        names.retain(|n| !matches!(*n, "evacuations" | "rescue_wins" | "transfer_secs"));
    }
    names.sort_unstable(); // simlint: allow(unstable-sort) -- distinct &str metric names, total order
    let metrics: Vec<(&str, String)> = names
        .iter()
        .map(|&name| {
            let s = result.metric(name);
            (
                name,
                json::object(&[
                    ("mean", json::number(s.mean)),
                    ("stddev", json::number(s.stddev)),
                ]),
            )
        })
        .collect();
    let report_digest = fnv1a64(format!("{:?}", result.reports()).as_bytes());
    json::object(&[
        ("label", json::string(&spec.label)),
        ("metrics", json::object(&metrics)),
        ("mode", json::string(&result.mode)),
        ("options", render_options(options)),
        ("repetitions", spec.repetitions.max(1).to_string()),
        ("report_digest", hex64(report_digest)),
        ("schema", json::string(RESPONSE_SCHEMA)),
        ("seed", hex64(spec.seed)),
        ("spec_digest", hex64(spec_digest(spec, options))),
        ("spec_version", SPEC_VERSION.to_string()),
    ]) + "\n"
}

/// Render a typed error document.
pub fn render_error(e: &WireError) -> String {
    json::object(&[
        (
            "error",
            json::object(&[
                ("kind", json::string(e.kind.id())),
                ("message", json::string(&e.message)),
            ]),
        ),
        ("schema", json::string(ERROR_SCHEMA)),
    ]) + "\n"
}

/// Validate, run, render: the one path both `vgrid campaign --spec`
/// and the serve worker take, which is what makes a served response
/// byte-identical to the CLI manifest for the same request body.
pub fn run_request(req: &WireRequest) -> Result<String, WireError> {
    let campaign = req.spec.clone().build()?;
    let result = campaign.run_with(&req.options);
    Ok(render_response(&req.spec, &req.options, &result))
}

/// [`parse_request`], then [`run_request`].
pub fn run_request_json(body: &str) -> Result<String, WireError> {
    run_request(&parse_request(body)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vgrid_simcore::SimRng;

    #[test]
    fn minimal_request_takes_defaults() {
        let req = parse_request(r#"{"spec_version": 1}"#).expect("minimal request");
        assert_eq!(req.spec.label, "campaign");
        assert_eq!(req.spec.repetitions, 1);
        assert_eq!(req.options, RunOptions::default());
    }

    #[test]
    fn missing_version_is_a_version_error() {
        let e = parse_request(r#"{"label": "x"}"#).unwrap_err();
        assert_eq!(e.kind, WireErrorKind::Version);
    }

    #[test]
    fn unsupported_version_is_a_version_error() {
        let e = parse_request(r#"{"spec_version": 2}"#).unwrap_err();
        assert_eq!(e.kind, WireErrorKind::Version);
        assert!(e.message.contains("supported: 1"), "{e}");
    }

    #[test]
    fn bad_json_is_a_json_error() {
        for body in ["{", "", "[1,]", "{\"a\": 01}", "nul", "{\"a\":1} x"] {
            let e = parse_request(body).unwrap_err();
            assert_eq!(e.kind, WireErrorKind::Json, "{body:?}");
        }
    }

    #[test]
    fn unknown_keys_are_diagnosed() {
        let e = parse_request(r#"{"spec_version": 1, "bogus": true}"#).unwrap_err();
        assert_eq!(e.kind, WireErrorKind::Invalid);
        assert!(e.message.contains("bogus"), "{e}");
        let e = parse_request(r#"{"spec_version": 1, "pool": {"volonteers": 3}}"#).unwrap_err();
        assert!(e.message.contains("volonteers"), "{e}");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let e = parse_request(r#"{"spec_version": 1, "spec_version": 1}"#).unwrap_err();
        assert_eq!(e.kind, WireErrorKind::Invalid);
    }

    #[test]
    fn seed_accepts_hex_string_and_integer() {
        let hex = parse_request(r#"{"spec_version": 1, "seed": "0xD0A157E57BED5EED"}"#)
            .expect("hex seed");
        assert_eq!(hex.spec.seed, 0xD0A1_57E5_7BED_5EED);
        let dec = parse_request(r#"{"spec_version": 1, "seed": 12345}"#).expect("int seed");
        assert_eq!(dec.spec.seed, 12345);
    }

    #[test]
    fn churn_level_shorthand_expands() {
        let req = parse_request(r#"{"spec_version": 1, "churn": {"level": 1.0}}"#).expect("level");
        assert_eq!(req.spec.churn, ChurnConfig::intensity(1.0));
        let e =
            parse_request(r#"{"spec_version": 1, "churn": {"level": 1.0, "uptime_factor": 0.5}}"#)
                .unwrap_err();
        assert!(e.message.contains("shorthand"), "{e}");
    }

    #[test]
    fn invalid_churn_is_an_invalid_error_via_build() {
        // 0.05 is below the shape floor: its spans round to 0 ps.
        for shape in ["0.0", "0.05"] {
            let body =
                format!(r#"{{"spec_version": 1, "churn": {{"availability_shape": {shape}}}}}"#);
            let req = parse_request(&body).expect("parses fine");
            let e = WireError::from(req.spec.build().unwrap_err());
            assert_eq!(e.kind, WireErrorKind::Invalid);
            assert!(e.message.contains("availability_shape"), "{e}");
        }
    }

    #[test]
    fn durations_stop_at_the_simulated_time_range() {
        // u64 picoseconds end at 18,446,744.07 s: the last whole second
        // parses exactly, the next one is a typed error, not a wrap.
        let ok = parse_request(r#"{"spec_version": 1, "horizon_secs": 18446744}"#)
            .expect("last representable second");
        assert_eq!(ok.spec.horizon, SimTime::from_secs(18_446_744));
        for body in [
            r#"{"spec_version": 1, "horizon_secs": 18446745}"#,
            r#"{"spec_version": 1, "horizon_secs": 18446744.5}"#,
            r#"{"spec_version": 1, "project": {"deadline_secs": 1e30}}"#,
        ] {
            let e = parse_request(body).unwrap_err();
            assert_eq!(e.kind, WireErrorKind::Invalid, "{body}");
            assert!(e.message.contains("18446744 s"), "{e}");
        }
    }

    #[test]
    fn canonical_render_is_a_parse_fixed_point() {
        let body = r#"{
            "spec_version": 1,
            "label": "qemu-demo",
            "seed": "0x0c11",
            "repetitions": 2,
            "horizon_secs": 604800,
            "project": {"workunits": 8, "wu_ref_secs": 600.0},
            "pool": {"volunteers": 12},
            "deploy": {"mode": "qemu", "image_bytes": 314572800},
            "churn": {"level": 0.5},
            "options": {"substrate": "hydrated-reference", "fastforward": false}
        }"#;
        let req = parse_request(body).expect("fixture request");
        let canon = render_request(&req.spec, &req.options);
        let reparsed = parse_request(&canon).expect("canonical form parses");
        assert_eq!(canon, render_request(&reparsed.spec, &reparsed.options));
        assert_eq!(
            spec_digest(&req.spec, &req.options),
            spec_digest(&reparsed.spec, &reparsed.options)
        );
        assert_eq!(reparsed.spec.deploy.mode.name(), "vm-QEMU");
        assert!(!reparsed.options.fastforward);
    }

    #[test]
    fn warm_key_ignores_horizon_and_label() {
        let a = CampaignSpec::new("a").seed(7);
        let b = CampaignSpec::new("b")
            .seed(7)
            .horizon(SimTime::from_secs(86_400));
        assert_eq!(warm_key(&a), warm_key(&b));
        assert_ne!(warm_key(&a), warm_key(&a.clone().seed(8)));
    }

    #[test]
    fn error_document_shape() {
        let doc = render_error(&WireError::new(WireErrorKind::Version, "nope"));
        assert!(doc.contains(r#""kind":"version""#), "{doc}");
        assert!(doc.contains(r#""schema":"vgrid-error/v1""#), "{doc}");
        assert!(doc.ends_with('\n'));
    }

    #[test]
    fn canonical_seconds_are_exact() {
        // f64 seconds cannot hold every picosecond count above 2^53 ps
        // (about 9,007 s). Through f64, this deadline parsed back as
        // ...491 ps and drifted one picosecond per resubmission, and
        // the last picosecond rendered as 18446744.07370955, which the
        // range check rejected.
        let mut spec = CampaignSpec::new("exact").horizon(SimTime::MAX);
        spec.project.deadline = SimDuration::from_picos(4_287_407_471_628_490);
        let doc = render_request(&spec, &RunOptions::default());
        assert!(
            doc.contains(r#""deadline_secs":4287.40747162849,"#),
            "{doc}"
        );
        assert!(
            doc.contains(r#""horizon_secs":18446744.073709551615,"#),
            "{doc}"
        );
        let back = parse_request(&doc).expect("canonical form parses");
        assert_eq!(back.spec.project.deadline, spec.project.deadline);
        assert_eq!(back.spec.horizon, SimTime::MAX);
    }

    #[test]
    fn deep_nesting_is_a_json_error_not_a_stack_overflow() {
        // 2 MiB is the default stack of a spawned thread, such as a
        // serve worker's.
        let e = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| parse_request(&"[".repeat(1_000_000)).unwrap_err())
            .expect("spawn the parser thread")
            .join()
            .expect("the parser returns");
        assert_eq!(e.kind, WireErrorKind::Json);
        assert!(e.message.contains("nesting deeper than 32 levels"), "{e}");
    }

    /// A value over the slot type's full range, edges included.
    fn fill(slot: Slot, rng: &mut SimRng) {
        let picos = |rng: &mut SimRng| match rng.next_below(5) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.next_below(18_446_745) * PS_PER_SEC,
            3 => rng.next_below(1_000 * PS_PER_SEC),
            _ => rng.next_u64(),
        };
        match slot {
            Slot::U32(x) => *x = [0, u32::MAX, rng.next_u32()][rng.next_below(3) as usize],
            Slot::U64(x) | Slot::Seed(x) => {
                *x = [0, u64::MAX, rng.next_below(1 << 20), rng.next_u64()]
                    [rng.next_below(4) as usize]
            }
            Slot::F64(x) => {
                let bits = rng.next_u64();
                let sign = if bits >> 63 == 1 { -1.0 } else { 1.0 };
                *x = match rng.next_below(6) {
                    0 => sign * 0.0,
                    1 => sign * f64::MAX,
                    2 => sign * f64::MIN_POSITIVE,
                    // Subnormal.
                    3 => sign * f64::from_bits(bits & ((1 << 52) - 1)),
                    4 => rng.range_f64(-1e6, 1e6),
                    _ => Some(f64::from_bits(bits))
                        .filter(|f| f.is_finite())
                        .unwrap_or(1.5),
                }
            }
            Slot::Bool(x) => *x = rng.chance(0.5),
            Slot::Secs(x) => *x = SimDuration::from_picos(picos(rng)),
            Slot::Time(x) => *x = SimTime::from_picos(picos(rng)),
            Slot::Str(x) => {
                let alphabet = [
                    'a', 'Z', '7', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{8}', '\u{c}',
                    '\u{1}', '\u{1f}', '\u{7f}', 'é', '€', '😀',
                ];
                let len = rng.next_below(12);
                *x = (0..len)
                    .map(|_| alphabet[rng.next_below(alphabet.len() as u64) as usize])
                    .collect();
            }
        }
    }

    fn fill_table<T>(table: &[Key<T>], target: &mut T, rng: &mut SimRng) {
        for (_, slot) in table {
            fill(slot(target), rng);
        }
    }

    /// A request with every table key set independently, in any of the
    /// five modes, with any options.
    fn random_request(rng: &mut SimRng) -> WireRequest {
        let modes = [
            "native",
            "vm-VMwarePlayer",
            "vm-QEMU",
            "vm-VirtualBox",
            "vm-VirtualPC",
        ];
        let mut spec = CampaignSpec::new("");
        spec.deploy.mode = mode_by_name(modes[rng.next_below(5) as usize]).expect("known mode");
        fill_table(REQUEST, &mut spec, rng);
        fill_table(PROJECT, &mut spec.project, rng);
        fill_table(POOL, &mut spec.pool, rng);
        fill_table(DEPLOY, &mut spec.deploy, rng);
        fill_table(MIGRATION, &mut spec.deploy.migration, rng);
        fill_table(CHURN, &mut spec.churn, rng);
        let options = RunOptions {
            scheduler: if rng.chance(0.5) {
                SchedulerMode::PerQuantumReference
            } else {
                SchedulerMode::Coalesced
            },
            substrate: if rng.chance(0.5) {
                SubstrateMode::HydratedReference
            } else {
                SubstrateMode::Batched
            },
            fastforward: rng.chance(0.5),
        };
        WireRequest { spec, options }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Round trip over every table key at full width: the canonical
        /// document parses, and re-renders to the same bytes.
        #[test]
        fn render_parse_round_trips(seed in any::<u64>()) {
            let req = random_request(&mut SimRng::new(seed));
            let doc = render_request(&req.spec, &req.options);
            let back = parse_request(&doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
            prop_assert_eq!(back.options, req.options);
            prop_assert_eq!(render_request(&back.spec, &back.options), doc);
        }
    }
}
