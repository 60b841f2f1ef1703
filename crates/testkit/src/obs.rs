//! Observability contract checks: trace-schema validation, trace
//! normalization, and report-vs-registry differential helpers.
//!
//! The `rip-obs` layer promises two machine-checkable properties
//! (DESIGN.md "Observability"):
//!
//! 1. **Schema** — a trace file is line-delimited JSON where every event
//!    object carries at least `name`, `ph`, `ts` and `pid` keys (the
//!    chrome://tracing minimum). [`validate_trace`] checks a whole file
//!    with a small self-contained JSON parser; the `trace_check` binary
//!    exposes the same check to CI.
//! 2. **Determinism** — two runs of the same workload at different
//!    `--jobs` counts produce the same trace once schedule-dependent
//!    fields are stripped. [`normalize_trace`] performs that stripping:
//!    it removes `ts`, `dur` and `tid` from every event, drops wall-time
//!    args (keys ending in `_ms`/`_us`, mirroring
//!    [`rip_obs::trace::is_wall_time_key`]), and sorts the remaining
//!    lines.
//!
//! The differential helpers close the loop on counter mirroring:
//! [`report_registry_mismatches`] re-mirrors a [`SimReport`] into a
//! fresh registry and diffs it against the registry the simulator
//! actually wrote to, and [`prediction_registry_mismatches`] does the
//! same for [`PredictionStats`](rip_core::PredictionStats) mirrored by `Predicted<K>`.

use rip_gpusim::SimReport;
use rip_obs::trace::is_wall_time_key;
use rip_obs::{ClockMode, Obs};
use std::collections::BTreeMap;

/// A parsed JSON value. Numbers keep their source text verbatim so
/// normalization never re-rounds a `u64` through `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its exact source text.
    Num(String),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, preserving key order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serializes back to compact JSON (object key order preserved).
    pub fn to_json(&self) -> String {
        match self {
            JsonValue::Null => "null".to_string(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Num(text) => text.clone(),
            JsonValue::Str(s) => escape_json_string(s),
            JsonValue::Array(items) => {
                let inner: Vec<String> = items.iter().map(JsonValue::to_json).collect();
                format!("[{}]", inner.join(","))
            }
            JsonValue::Object(pairs) => {
                let inner: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("{}:{}", escape_json_string(k), v.to_json()))
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
        }
    }
}

fn escape_json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn eat_literal(&mut self, literal: &str) -> bool {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our own traces;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a number"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Ok(JsonValue::Num(text.to_string()))
    }
}

/// Parses one line of JSON, requiring the whole line to be consumed.
pub fn parse_json_line(line: &str) -> Result<JsonValue, String> {
    let mut parser = Parser::new(line);
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.err("trailing garbage"));
    }
    Ok(value)
}

/// Keys every chrome://tracing event must carry.
pub const REQUIRED_TRACE_KEYS: [&str; 4] = ["name", "ph", "ts", "pid"];

/// Validates a JSONL trace: every non-empty line must parse as a JSON
/// object carrying [`REQUIRED_TRACE_KEYS`]. Returns the event count.
pub fn validate_trace(jsonl: &str) -> Result<usize, String> {
    let mut count = 0;
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if !matches!(value, JsonValue::Object(_)) {
            return Err(format!("line {}: not a JSON object", i + 1));
        }
        for key in REQUIRED_TRACE_KEYS {
            if value.get(key).is_none() {
                return Err(format!("line {}: missing required key {key:?}", i + 1));
            }
        }
        count += 1;
    }
    Ok(count)
}

/// Normalizes a trace for cross-schedule comparison: drops the
/// schedule- and wall-time-dependent fields (`ts`, `dur`, `tid`, and
/// any arg whose key names a wall-time quantity per
/// [`rip_obs::trace::is_wall_time_key`]), zeroes `pid`, and sorts the
/// surviving lines. Two runs of the same workload must normalize to
/// identical strings regardless of `--jobs`.
pub fn normalize_trace(jsonl: &str) -> Result<String, String> {
    let mut lines = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let JsonValue::Object(pairs) = value else {
            return Err(format!("line {}: not a JSON object", i + 1));
        };
        let mut kept = Vec::new();
        for (key, value) in pairs {
            match key.as_str() {
                "ts" | "dur" | "tid" => continue,
                "pid" => kept.push((key, JsonValue::Num("0".to_string()))),
                "args" => {
                    let args = match value {
                        JsonValue::Object(args) => args
                            .into_iter()
                            .filter(|(k, _)| !is_wall_time_key(k))
                            .collect(),
                        other => {
                            return Err(format!("line {}: args is not an object: {other:?}", i + 1))
                        }
                    };
                    kept.push((key, JsonValue::Object(args)));
                }
                _ => kept.push((key, value)),
            }
        }
        lines.push(JsonValue::Object(kept).to_json());
    }
    lines.sort_unstable();
    Ok(lines.join("\n"))
}

/// Diffs the `gpusim.*` counters a simulator wrote into `obs` against a
/// fresh re-mirroring of `report`. Empty means the registry is exactly
/// one faithful copy of the report (the simulator mirrored once, and
/// the mirror mapping lost nothing).
pub fn report_registry_mismatches(report: &SimReport, obs: &Obs) -> Vec<String> {
    let expected_obs = Obs::new(ClockMode::Logical);
    report.mirror_into(&expected_obs);
    let expected = expected_obs.registry().snapshot();
    let actual: BTreeMap<String, u64> = obs
        .registry()
        .snapshot()
        .into_iter()
        .filter(|(path, _)| path.starts_with("gpusim."))
        .collect();
    diff_counter_maps(&expected, &actual)
}

/// Diffs the `predictor.*` counters in `obs` against `stats`
/// field-for-field. Empty means `Predicted<K>` mirrored exactly.
pub fn prediction_registry_mismatches(stats: &rip_core::PredictionStats, obs: &Obs) -> Vec<String> {
    let expected: BTreeMap<String, u64> = [
        ("predictor.rays", stats.rays),
        ("predictor.hits", stats.hits),
        ("predictor.predicted", stats.predicted),
        ("predictor.verified", stats.verified),
        (
            "predictor.predicted_nodes_evaluated",
            stats.predicted_nodes_evaluated,
        ),
        (
            "predictor.prediction_eval_fetches",
            stats.prediction_eval_fetches,
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let actual: BTreeMap<String, u64> = obs
        .registry()
        .snapshot()
        .into_iter()
        .filter(|(path, _)| path.starts_with("predictor."))
        .collect();
    diff_counter_maps(&expected, &actual)
}

fn diff_counter_maps(
    expected: &BTreeMap<String, u64>,
    actual: &BTreeMap<String, u64>,
) -> Vec<String> {
    let mut mismatches = Vec::new();
    for (path, want) in expected {
        match actual.get(path) {
            Some(got) if got == want => {}
            Some(got) => mismatches.push(format!("{path}: registry {got} != report {want}")),
            // A zero-valued field that was never touched is fine: the
            // registry only materializes counters that were added to.
            None if *want == 0 => {}
            None => mismatches.push(format!("{path}: missing from registry (want {want})")),
        }
    }
    for (path, got) in actual {
        if !expected.contains_key(path) {
            mismatches.push(format!("{path}: unexpected registry counter (= {got})"));
        }
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_round_trips_trace_lines() {
        let line = r#"{"name":"build","cat":"exec.cache","ph":"i","ts":12,"pid":7,"tid":1,"args":{"case":"sb \"q\"","built_ms":3}}"#;
        let value = parse_json_line(line).unwrap();
        assert_eq!(value.to_json(), line);
        assert_eq!(
            value.get("args").unwrap().get("case"),
            Some(&JsonValue::Str("sb \"q\"".to_string()))
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json_line("{\"a\":}").is_err());
        assert!(parse_json_line("{\"a\":1} extra").is_err());
        assert!(parse_json_line("not json").is_err());
    }

    #[test]
    fn validate_requires_trace_keys() {
        let good = "{\"name\":\"x\",\"ph\":\"i\",\"ts\":1,\"pid\":2}\n";
        assert_eq!(validate_trace(good).unwrap(), 1);
        let bad = "{\"name\":\"x\",\"ph\":\"i\",\"ts\":1}\n";
        let err = validate_trace(bad).unwrap_err();
        assert!(err.contains("pid"), "{err}");
    }

    #[test]
    fn normalize_strips_schedule_and_wall_time() {
        let a = concat!(
            "{\"name\":\"b\",\"ph\":\"i\",\"ts\":5,\"pid\":1,\"tid\":3,\"args\":{\"case\":\"sb\",\"built_ms\":9}}\n",
            "{\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"dur\":2,\"pid\":1,\"tid\":0,\"args\":{}}\n",
        );
        let b = concat!(
            "{\"name\":\"a\",\"ph\":\"X\",\"ts\":9,\"dur\":7,\"pid\":2,\"tid\":5,\"args\":{}}\n",
            "{\"name\":\"b\",\"ph\":\"i\",\"ts\":2,\"pid\":2,\"tid\":1,\"args\":{\"case\":\"sb\",\"built_ms\":1}}\n",
        );
        assert_eq!(normalize_trace(a).unwrap(), normalize_trace(b).unwrap());
        assert!(!normalize_trace(a).unwrap().contains("built_ms"));
    }

    #[test]
    fn counter_diff_reports_every_kind_of_mismatch() {
        let expected: BTreeMap<String, u64> = [
            ("a".to_string(), 1),
            ("b".to_string(), 0),
            ("c".to_string(), 3),
        ]
        .into_iter()
        .collect();
        let actual: BTreeMap<String, u64> = [("a".to_string(), 2), ("d".to_string(), 4)]
            .into_iter()
            .collect();
        let diff = diff_counter_maps(&expected, &actual);
        assert_eq!(diff.len(), 3, "{diff:?}");
        assert!(diff.iter().any(|m| m.starts_with("a:")));
        assert!(diff.iter().any(|m| m.starts_with("c:")));
        assert!(diff.iter().any(|m| m.starts_with("d:")));
    }
}
