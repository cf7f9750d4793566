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
//! unknown-flag diagnosis. Serialization is canonical — sorted keys,
//! every field explicit, `simobs::json` float formatting — so
//! `render_request(parse_request(doc))` is a fixed point and digests
//! over the canonical form are stable.
//!
//! `simobs::json` deliberately has no parser (its artifacts are gated
//! with `cmp`); the wire format is the one place the workspace accepts
//! JSON *input*, which is why the parser lives here and not there.

use crate::campaign::{CampaignResult, CampaignSpec, METRIC_NAMES};
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

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
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
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
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
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Typed field extraction
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

fn field_path(section: &str, key: &str) -> String {
    if section == "request" {
        key.to_string()
    } else {
        format!("{section}.{key}")
    }
}

fn as_f64(section: &str, key: &str, v: Json) -> Result<f64, WireError> {
    match v {
        Json::Num(raw) => raw.parse::<f64>().map_err(|_| {
            WireError::invalid(format!("{} is not a number", field_path(section, key)))
        }),
        other => Err(WireError::invalid(format!(
            "{} must be a number, got {}",
            field_path(section, key),
            other.type_name()
        ))),
    }
}

fn as_u64(section: &str, key: &str, v: Json) -> Result<u64, WireError> {
    match v {
        Json::Num(raw) if raw.bytes().all(|b| b.is_ascii_digit()) => {
            raw.parse::<u64>().map_err(|_| {
                WireError::invalid(format!(
                    "{} exceeds the u64 range",
                    field_path(section, key)
                ))
            })
        }
        other => Err(WireError::invalid(format!(
            "{} must be a non-negative integer, got {}",
            field_path(section, key),
            other.type_name()
        ))),
    }
}

fn as_u32(section: &str, key: &str, v: Json) -> Result<u32, WireError> {
    let n = as_u64(section, key, v)?;
    u32::try_from(n).map_err(|_| {
        WireError::invalid(format!(
            "{} exceeds the u32 range",
            field_path(section, key)
        ))
    })
}

fn as_bool(section: &str, key: &str, v: Json) -> Result<bool, WireError> {
    match v {
        Json::Bool(b) => Ok(b),
        other => Err(WireError::invalid(format!(
            "{} must be a bool, got {}",
            field_path(section, key),
            other.type_name()
        ))),
    }
}

fn as_str(section: &str, key: &str, v: Json) -> Result<String, WireError> {
    match v {
        Json::Str(s) => Ok(s),
        other => Err(WireError::invalid(format!(
            "{} must be a string, got {}",
            field_path(section, key),
            other.type_name()
        ))),
    }
}

/// Seconds field: an integer maps to whole seconds exactly; a
/// fractional value rounds to the nearest picosecond. Simulated time is
/// picoseconds in a `u64`, so anything beyond about 213.5 days
/// (18,446,744 s) is rejected instead of wrapping.
fn as_duration(section: &str, key: &str, v: Json) -> Result<SimDuration, WireError> {
    let out_of_range = || {
        WireError::invalid(format!(
            "{} must be finite, >= 0 and at most 18446744 s (the simulated-time range)",
            field_path(section, key)
        ))
    };
    match &v {
        Json::Num(raw) if raw.bytes().all(|b| b.is_ascii_digit()) => {
            SimDuration::checked_from_secs(as_u64(section, key, v.clone())?)
                .ok_or_else(out_of_range)
        }
        _ => SimDuration::checked_from_secs_f64(as_f64(section, key, v)?).ok_or_else(out_of_range),
    }
}

fn as_time(section: &str, key: &str, v: Json) -> Result<SimTime, WireError> {
    Ok(SimTime::from_picos(
        as_duration(section, key, v)?.as_picos(),
    ))
}

/// Seed: a JSON integer, a decimal string, or a `"0x…"` hex string —
/// strings exist because u64 seeds above 2^53 do not survive an f64
/// JSON number in other tooling.
fn as_seed(v: Json) -> Result<u64, WireError> {
    match v {
        Json::Num(_) => as_u64("request", "seed", v),
        Json::Str(s) => {
            let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse::<u64>(),
            };
            parsed.map_err(|_| {
                WireError::invalid(format!("seed {s:?} is not a u64 (decimal or 0x-hex)"))
            })
        }
        other => Err(WireError::invalid(format!(
            "seed must be an integer or string, got {}",
            other.type_name()
        ))),
    }
}

/// Resolve a wire mode name to an execution mode. Canonical names are
/// the report names (`native`, `vm-QEMU`, …); the CLI's short aliases
/// are accepted on input.
fn mode_by_name(name: &str) -> Result<ExecutionMode, WireError> {
    match name.to_ascii_lowercase().as_str() {
        "native" => Ok(ExecutionMode::Native),
        "vm-vmwareplayer" | "vmplayer" | "vmware" | "vmwareplayer" => {
            Ok(ExecutionMode::Vm(VmmProfile::vmplayer()))
        }
        "vm-qemu" | "qemu" => Ok(ExecutionMode::Vm(VmmProfile::qemu())),
        "vm-virtualbox" | "virtualbox" | "vbox" => Ok(ExecutionMode::Vm(VmmProfile::virtualbox())),
        "vm-virtualpc" | "virtualpc" | "vpc" => Ok(ExecutionMode::Vm(VmmProfile::virtualpc())),
        _ => Err(WireError::invalid(format!(
            "unknown deploy.mode {name:?} (native, vm-VMwarePlayer, vm-QEMU, vm-VirtualBox, vm-VirtualPC)"
        ))),
    }
}

// ---------------------------------------------------------------------
// Request decoding
// ---------------------------------------------------------------------

fn decode_project(v: Json) -> Result<ProjectConfig, WireError> {
    let s = "project";
    let mut f = Fields::from(s, v)?;
    let mut p = ProjectConfig::default();
    if let Some(v) = f.take("workunits") {
        p.workunits = as_u32(s, "workunits", v)?;
    }
    if let Some(v) = f.take("wu_ref_secs") {
        p.wu_ref_secs = as_f64(s, "wu_ref_secs", v)?;
    }
    if let Some(v) = f.take("wu_input_bytes") {
        p.wu_input_bytes = as_u64(s, "wu_input_bytes", v)?;
    }
    if let Some(v) = f.take("wu_output_bytes") {
        p.wu_output_bytes = as_u64(s, "wu_output_bytes", v)?;
    }
    if let Some(v) = f.take("replication") {
        p.replication = as_u32(s, "replication", v)?;
    }
    if let Some(v) = f.take("quorum") {
        p.quorum = as_u32(s, "quorum", v)?;
    }
    if let Some(v) = f.take("deadline_secs") {
        p.deadline = as_duration(s, "deadline_secs", v)?;
    }
    if let Some(v) = f.take("error_rate") {
        p.error_rate = as_f64(s, "error_rate", v)?;
    }
    f.finish()?;
    Ok(p)
}

fn decode_pool(v: Json) -> Result<PoolConfig, WireError> {
    let s = "pool";
    let mut f = Fields::from(s, v)?;
    let mut p = PoolConfig::default();
    if let Some(v) = f.take("volunteers") {
        p.volunteers = as_u32(s, "volunteers", v)?;
    }
    if let Some(v) = f.take("mean_uptime_secs") {
        p.mean_uptime_secs = as_f64(s, "mean_uptime_secs", v)?;
    }
    if let Some(v) = f.take("mean_downtime_secs") {
        p.mean_downtime_secs = as_f64(s, "mean_downtime_secs", v)?;
    }
    if let Some(v) = f.take("speed_min") {
        p.speed_range.0 = as_f64(s, "speed_min", v)?;
    }
    if let Some(v) = f.take("speed_max") {
        p.speed_range.1 = as_f64(s, "speed_max", v)?;
    }
    if let Some(v) = f.take("down_bw") {
        p.down_bw = as_f64(s, "down_bw", v)?;
    }
    if let Some(v) = f.take("up_bw") {
        p.up_bw = as_f64(s, "up_bw", v)?;
    }
    if let Some(v) = f.take("ram_min_bytes") {
        p.ram_range.0 = as_u64(s, "ram_min_bytes", v)?;
    }
    if let Some(v) = f.take("ram_max_bytes") {
        p.ram_range.1 = as_u64(s, "ram_max_bytes", v)?;
    }
    if let Some(v) = f.take("permanent_failure_prob") {
        p.permanent_failure_prob = as_f64(s, "permanent_failure_prob", v)?;
    }
    f.finish()?;
    Ok(p)
}

fn decode_deploy(v: Json) -> Result<DeployConfig, WireError> {
    let s = "deploy";
    let mut f = Fields::from(s, v)?;
    let mode = match f.take("mode") {
        Some(v) => mode_by_name(&as_str(s, "mode", v)?)?,
        None => ExecutionMode::Native,
    };
    let mut d = match mode {
        ExecutionMode::Native => DeployConfig::native(),
        ExecutionMode::Vm(profile) => DeployConfig::vm(profile, 1_400 << 20),
    };
    if let Some(v) = f.take("image_bytes") {
        d.image_bytes = as_u64(s, "image_bytes", v)?;
    }
    if let Some(v) = f.take("checkpoint_interval_secs") {
        d.checkpoint_interval = as_duration(s, "checkpoint_interval_secs", v)?;
    }
    if let Some(v) = f.take("native_checkpoint_bytes") {
        d.native_checkpoint_bytes = as_u64(s, "native_checkpoint_bytes", v)?;
    }
    if let Some(v) = f.take("host_headroom_bytes") {
        d.host_headroom_bytes = as_u64(s, "host_headroom_bytes", v)?;
    }
    if let Some(v) = f.take("migrate_on_churn") {
        d.migrate_on_churn = as_bool(s, "migrate_on_churn", v)?;
    }
    if let Some(v) = f.take("migration") {
        d.migration = decode_migration(v)?;
    }
    f.finish()?;
    Ok(d)
}

fn decode_migration(v: Json) -> Result<MigrationPolicy, WireError> {
    let s = "deploy.migration";
    let mut f = Fields::from(s, v)?;
    let mut m = MigrationPolicy::off();
    if let Some(v) = f.take("rescue") {
        m.rescue = as_bool(s, "rescue", v)?;
    }
    if let Some(v) = f.take("evacuate") {
        m.evacuate = as_bool(s, "evacuate", v)?;
    }
    if let Some(v) = f.take("rescue_slack") {
        m.rescue_slack = as_f64(s, "rescue_slack", v)?;
    }
    if let Some(v) = f.take("hazard_threshold") {
        m.hazard_threshold = as_f64(s, "hazard_threshold", v)?;
    }
    f.finish()?;
    Ok(m)
}

fn decode_churn(v: Json) -> Result<ChurnConfig, WireError> {
    let s = "churn";
    let mut f = Fields::from(s, v)?;
    // `level` is the one-knob shorthand; it must stand alone.
    if let Some(v) = f.take("level") {
        let level = as_f64(s, "level", v)?;
        if !level.is_finite() {
            return Err(WireError::invalid("churn.level must be finite"));
        }
        f.finish().map_err(|_| {
            WireError::invalid("churn.level is a shorthand and cannot mix with explicit knobs")
        })?;
        return Ok(ChurnConfig::intensity(level));
    }
    let mut c = ChurnConfig::default();
    if let Some(v) = f.take("availability_shape") {
        c.availability_shape = as_f64(s, "availability_shape", v)?;
    }
    if let Some(v) = f.take("uptime_factor") {
        c.uptime_factor = as_f64(s, "uptime_factor", v)?;
    }
    if let Some(v) = f.take("owner_arrival_mean_secs") {
        c.owner_arrival_mean_secs = as_f64(s, "owner_arrival_mean_secs", v)?;
    }
    if let Some(v) = f.take("owner_session_mean_secs") {
        c.owner_session_mean_secs = as_f64(s, "owner_session_mean_secs", v)?;
    }
    if let Some(v) = f.take("preempt_kill_prob") {
        c.preempt_kill_prob = as_f64(s, "preempt_kill_prob", v)?;
    }
    if let Some(v) = f.take("vm_kill_mean_secs") {
        c.vm_kill_mean_secs = as_f64(s, "vm_kill_mean_secs", v)?;
    }
    f.finish()?;
    Ok(c)
}

fn decode_options(v: Json) -> Result<RunOptions, WireError> {
    let s = "options";
    let mut f = Fields::from(s, v)?;
    let mut o = RunOptions::default();
    if let Some(v) = f.take("scheduler") {
        o.scheduler = match as_str(s, "scheduler", v)?.as_str() {
            "coalesced" => SchedulerMode::Coalesced,
            "per-quantum-reference" => SchedulerMode::PerQuantumReference,
            other => {
                return Err(WireError::invalid(format!(
                    "unknown options.scheduler {other:?} (coalesced, per-quantum-reference)"
                )))
            }
        };
    }
    if let Some(v) = f.take("substrate") {
        o.substrate = match as_str(s, "substrate", v)?.as_str() {
            "batched" => SubstrateMode::Batched,
            "hydrated-reference" => SubstrateMode::HydratedReference,
            other => {
                return Err(WireError::invalid(format!(
                    "unknown options.substrate {other:?} (batched, hydrated-reference)"
                )))
            }
        };
    }
    if let Some(v) = f.take("fastforward") {
        o.fastforward = as_bool(s, "fastforward", v)?;
    }
    f.finish()?;
    Ok(o)
}

/// Parse a versioned campaign request document. Strict: unknown keys
/// anywhere are an error, and `spec_version` must be present and equal
/// to [`SPEC_VERSION`].
pub fn parse_request(body: &str) -> Result<WireRequest, WireError> {
    let doc = parse_json(body)?;
    let s = "request";
    let mut f = Fields::from(s, doc)?;
    match f.take("spec_version") {
        None => {
            return Err(WireError::new(
                WireErrorKind::Version,
                "missing spec_version (this build speaks version 1)",
            ))
        }
        Some(v) => {
            let version = as_u64(s, "spec_version", v)
                .map_err(|e| WireError::new(WireErrorKind::Version, e.message))?;
            if version != SPEC_VERSION {
                return Err(WireError::new(
                    WireErrorKind::Version,
                    format!("unsupported spec_version {version} (supported: {SPEC_VERSION})"),
                ));
            }
        }
    }
    let mut spec = CampaignSpec::new("campaign");
    if let Some(v) = f.take("label") {
        spec.label = as_str(s, "label", v)?;
    }
    if let Some(v) = f.take("seed") {
        spec.seed = as_seed(v)?;
    }
    if let Some(v) = f.take("repetitions") {
        spec.repetitions = as_u32(s, "repetitions", v)?;
    }
    if let Some(v) = f.take("horizon_secs") {
        spec.horizon = as_time(s, "horizon_secs", v)?;
    }
    if let Some(v) = f.take("project") {
        spec.project = decode_project(v)?;
    }
    if let Some(v) = f.take("pool") {
        spec.pool = decode_pool(v)?;
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

fn uint(v: u64) -> String {
    v.to_string()
}

fn hex64(v: u64) -> String {
    json::string(&format!("{v:#018x}"))
}

/// Seconds as a canonical JSON number: whole seconds render as an
/// integer token, fractional ones through the round-trip float format.
fn secs(ps: u64) -> String {
    if ps.is_multiple_of(PS_PER_SEC) {
        uint(ps / PS_PER_SEC)
    } else {
        json::number(ps as f64 / PS_PER_SEC as f64)
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

/// Canonical serialization of a request: sorted keys, every field
/// explicit. `render_request(parse_request(x))` is a fixed point,
/// and [`spec_digest`] is an FNV-1a over exactly these bytes.
pub fn render_request(spec: &CampaignSpec, options: &RunOptions) -> String {
    let p = &spec.project;
    let project = json::object(&[
        ("deadline_secs", secs(p.deadline.as_picos())),
        ("error_rate", json::number(p.error_rate)),
        ("quorum", uint(p.quorum as u64)),
        ("replication", uint(p.replication as u64)),
        ("workunits", uint(p.workunits as u64)),
        ("wu_input_bytes", uint(p.wu_input_bytes)),
        ("wu_output_bytes", uint(p.wu_output_bytes)),
        ("wu_ref_secs", json::number(p.wu_ref_secs)),
    ]);
    let pl = &spec.pool;
    let pool = json::object(&[
        ("down_bw", json::number(pl.down_bw)),
        ("mean_downtime_secs", json::number(pl.mean_downtime_secs)),
        ("mean_uptime_secs", json::number(pl.mean_uptime_secs)),
        (
            "permanent_failure_prob",
            json::number(pl.permanent_failure_prob),
        ),
        ("ram_max_bytes", uint(pl.ram_range.1)),
        ("ram_min_bytes", uint(pl.ram_range.0)),
        ("speed_max", json::number(pl.speed_range.1)),
        ("speed_min", json::number(pl.speed_range.0)),
        ("up_bw", json::number(pl.up_bw)),
        ("volunteers", uint(pl.volunteers as u64)),
    ]);
    let d = &spec.deploy;
    // "migration" is omitted entirely when the policy is off, so every
    // pre-policy request renders byte-identically to its historic form.
    let mut deploy_fields: Vec<(&str, String)> = vec![
        (
            "checkpoint_interval_secs",
            secs(d.checkpoint_interval.as_picos()),
        ),
        ("host_headroom_bytes", uint(d.host_headroom_bytes)),
        ("image_bytes", uint(d.image_bytes)),
        ("migrate_on_churn", d.migrate_on_churn.to_string()),
    ];
    if !d.migration.is_off() {
        deploy_fields.push((
            "migration",
            json::object(&[
                ("evacuate", d.migration.evacuate.to_string()),
                (
                    "hazard_threshold",
                    json::number(d.migration.hazard_threshold),
                ),
                ("rescue", d.migration.rescue.to_string()),
                ("rescue_slack", json::number(d.migration.rescue_slack)),
            ]),
        ));
    }
    deploy_fields.push(("mode", json::string(d.mode.name())));
    deploy_fields.push(("native_checkpoint_bytes", uint(d.native_checkpoint_bytes)));
    let deploy = json::object(&deploy_fields);
    let c = &spec.churn;
    let churn = json::object(&[
        ("availability_shape", json::number(c.availability_shape)),
        (
            "owner_arrival_mean_secs",
            json::number(c.owner_arrival_mean_secs),
        ),
        (
            "owner_session_mean_secs",
            json::number(c.owner_session_mean_secs),
        ),
        ("preempt_kill_prob", json::number(c.preempt_kill_prob)),
        ("uptime_factor", json::number(c.uptime_factor)),
        ("vm_kill_mean_secs", json::number(c.vm_kill_mean_secs)),
    ]);
    json::object(&[
        ("churn", churn),
        ("deploy", deploy),
        ("horizon_secs", secs(spec.horizon.as_picos())),
        ("label", json::string(&spec.label)),
        ("options", render_options(options)),
        ("pool", pool),
        ("project", project),
        ("repetitions", uint(spec.repetitions as u64)),
        ("seed", hex64(spec.seed)),
        ("spec_version", uint(SPEC_VERSION)),
    ])
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
    let mut names: Vec<&str> = METRIC_NAMES.to_vec();
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
        ("repetitions", uint(spec.repetitions.max(1) as u64)),
        ("report_digest", hex64(report_digest)),
        ("schema", json::string(RESPONSE_SCHEMA)),
        ("seed", hex64(spec.seed)),
        ("spec_digest", hex64(spec_digest(spec, options))),
        ("spec_version", uint(SPEC_VERSION)),
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

/// Parse, validate, run, render: the one entry point both `vgrid
/// campaign --spec` and the serve worker use, which is what makes a
/// served response byte-identical to the CLI manifest for the same
/// request body.
pub fn run_request_json(body: &str) -> Result<String, WireError> {
    let req = parse_request(body)?;
    let campaign = req.spec.clone().build()?;
    let result = campaign.run_with(&req.options);
    Ok(render_response(&req.spec, &req.options, &result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    prop_compose! {
        fn arb_options()(pq in any::<bool>(), hydr in any::<bool>(), ff in any::<bool>())
            -> RunOptions
        {
            RunOptions {
                scheduler: if pq {
                    SchedulerMode::PerQuantumReference
                } else {
                    SchedulerMode::Coalesced
                },
                substrate: if hydr {
                    SubstrateMode::HydratedReference
                } else {
                    SubstrateMode::Batched
                },
                fastforward: ff,
            }
        }
    }

    prop_compose! {
        fn arb_spec()(
            tag in 0u64..1_000_000,
            seed in any::<u64>(),
            reps in 1u32..4,
            horizon in 1u64..100 * 24 * 3600,
            workunits in 1u32..500,
            quorum in 1u32..4,
            extra_repl in 0u32..3,
            wu_ref in 1.0f64..50_000.0,
            error_rate in 0.0f64..0.5,
            volunteers in 1u32..300,
            mode in prop_oneof![
                Just("native"),
                Just("qemu"),
                Just("vmplayer"),
                Just("virtualbox"),
                Just("virtualpc")
            ],
            image in 0u64..4 << 30,
            ckpt in 0u64..7 * 24 * 3600,
            churn_level in prop_oneof![Just(0.0f64), 0.1f64..3.0],
            migrate in any::<bool>(),
            policy in 0u8..4,
        ) -> CampaignSpec {
            let mut deploy = mode_by_name(mode)
                .map(|m| match m {
                    ExecutionMode::Native => DeployConfig::native(),
                    ExecutionMode::Vm(p) => DeployConfig::vm(p, image),
                })
                .expect("known mode");
            deploy.checkpoint_interval = SimDuration::from_secs(ckpt);
            deploy.migrate_on_churn = migrate;
            deploy.migration = match policy {
                0 => MigrationPolicy::off(),
                1 => MigrationPolicy::rescue_only(),
                2 => MigrationPolicy::evacuate_only(),
                _ => MigrationPolicy::full(),
            };
            CampaignSpec::new(format!("spec-{tag}"))
                .seed(seed)
                .repetitions(reps)
                .horizon(SimTime::from_secs(horizon))
                .project(ProjectConfig {
                    workunits,
                    wu_ref_secs: wu_ref,
                    replication: quorum + extra_repl,
                    quorum,
                    error_rate,
                    ..Default::default()
                })
                .pool(PoolConfig {
                    volunteers,
                    ..Default::default()
                })
                .churn(ChurnConfig::intensity(churn_level))
                .deploy(deploy)
        }
    }

    proptest! {
        /// Round trip: canonical render → parse → render is byte-stable
        /// and reconstructs the same spec/options (via the canonical
        /// bytes, which cover every field).
        #[test]
        fn render_parse_round_trips(spec in arb_spec(), options in arb_options()) {
            let doc = render_request(&spec, &options);
            let req = parse_request(&doc).expect("canonical doc parses");
            prop_assert_eq!(req.options, options);
            prop_assert_eq!(render_request(&req.spec, &req.options), doc);
        }
    }
}
