//! Readers for what the program already exports: the `HALK_TRACE` JSONL
//! records and the daemon's `/metrics.json` snapshot.

use crate::stats::{self, Summary};
use serde_json::Value;
use std::collections::HashMap;
use std::path::Path;

/// One closed span: name, start, duration and the detail of its open
/// event.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub dur_us: u64,
    pub detail: String,
}

/// An instant (zero-duration) event.
#[derive(Debug, Clone)]
pub struct Event {
    pub name: String,
    pub ts_us: u64,
    pub detail: String,
}

/// Parses a trace file into closed spans and instants. Opens and closes
/// pair LIFO per thread, as the tracer guarantees.
pub fn parse(path: &Path) -> Result<(Vec<Span>, Vec<Event>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_text(&text)
}

pub fn parse_text(text: &str) -> Result<(Vec<Span>, Vec<Event>), String> {
    let mut open: HashMap<u64, Vec<(String, u64, String)>> = HashMap::new();
    let (mut spans, mut instants) = (Vec::new(), Vec::new());
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value =
            serde_json::from_str(line).map_err(|e| format!("trace line {}: {e:?}", i + 1))?;
        let field = |k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_string();
        let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let (ev, name, ts, tid) = (field("ev"), field("name"), num("ts_us"), num("tid"));
        match ev.as_str() {
            "o" => open
                .entry(tid)
                .or_default()
                .push((name, ts, field("detail"))),
            "c" => {
                let (oname, start, detail) = open
                    .get_mut(&tid)
                    .and_then(Vec::pop)
                    .ok_or_else(|| format!("trace line {}: close without open", i + 1))?;
                if oname != name {
                    return Err(format!("trace line {}: {name} closes {oname}", i + 1));
                }
                spans.push(Span {
                    name,
                    start_us: start,
                    dur_us: num("dur_us"),
                    detail,
                });
            }
            "i" => instants.push(Event {
                name,
                ts_us: ts,
                detail: field("detail"),
            }),
            other => return Err(format!("trace line {}: unknown event {other:?}", i + 1)),
        }
    }
    Ok((spans, instants))
}

/// `key=value` from a space-separated detail string.
pub fn detail_field<'a>(detail: &'a str, key: &str) -> Option<&'a str> {
    detail
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// What the daemon's trace says about each request.
#[derive(Debug)]
pub struct ServeLayers {
    /// Enqueue → start of its executor group, µs.
    pub queue_wait: Summary,
    /// Accept → end of its executor group, µs.
    pub accept_to_exec_end: crate::serve::Med,
    /// Mean requests per executor group.
    pub batch_mean: f64,
    pub groups: usize,
}

/// Stitches `req_accept` / `req_enqueue` instants to the `exec_group`
/// spans that name the same request ids.
pub fn serve_layers(path: &Path) -> Result<ServeLayers, String> {
    let (spans, instants) = parse(path)?;
    let mut accept = HashMap::new();
    let mut enqueue = HashMap::new();
    for i in &instants {
        let Some(req) = detail_field(&i.detail, "req").and_then(|r| r.parse::<u64>().ok()) else {
            continue;
        };
        match i.name.as_str() {
            "req_accept" => {
                accept.insert(req, i.ts_us);
            }
            "req_enqueue" => {
                enqueue.insert(req, i.ts_us);
            }
            _ => {}
        }
    }
    let (mut waits, mut totals, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.name == "exec_group") {
        let Some(reqs) = detail_field(&s.detail, "req") else {
            continue;
        };
        let ids: Vec<u64> = reqs.split(',').filter_map(|r| r.parse().ok()).collect();
        sizes.push(ids.len() as f64);
        for id in ids {
            if let Some(&t) = enqueue.get(&id) {
                waits.push(s.start_us.saturating_sub(t) as f64);
            }
            if let Some(&t) = accept.get(&id) {
                totals.push((s.start_us + s.dur_us).saturating_sub(t) as f64);
            }
        }
    }
    Ok(ServeLayers {
        queue_wait: Summary::of(&waits).map_err(|e| format!("queue wait: {e}"))?,
        accept_to_exec_end: crate::serve::Med {
            p50: stats::median(&totals).unwrap_or(0.0),
            n: totals.len(),
        },
        batch_mean: stats::mean(&sizes),
        groups: sizes.len(),
    })
}

/// Durations (µs) of every closed span called `name`.
pub fn span_durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_us as f64)
        .collect()
}

/// Flattens `/metrics.json`'s cumulative section into
/// `counter:<name>` and `hist_sum:<name>` pairs.
pub fn metrics_json_counters(body: &str) -> Result<Vec<(String, f64)>, String> {
    let v: Value =
        serde_json::from_str(body.trim()).map_err(|e| format!("/metrics.json: {e:?}"))?;
    let cum = v
        .get("cumulative")
        .ok_or("/metrics.json has no cumulative section")?;
    let mut out = Vec::new();
    if let Some(Value::Object(fields)) = cum.get("counters") {
        for (k, val) in fields {
            out.push((format!("counter:{k}"), val.as_f64().unwrap_or(0.0)));
        }
    }
    if let Some(Value::Object(fields)) = cum.get("histograms") {
        for (k, h) in fields {
            let sum = h.get("sum").and_then(Value::as_f64).unwrap_or(0.0);
            out.push((format!("hist_sum:{k}"), sum));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_pair_per_thread_and_details_parse() {
        let text = r#"{"ev":"i","name":"req_accept","ts_us":10,"tid":1,"detail":"req=7 top=10 deadline_ms=0"}
{"ev":"i","name":"req_enqueue","ts_us":15,"tid":1,"detail":"req=7 depth=1"}
{"ev":"o","name":"serve_request","ts_us":20,"tid":2}
{"ev":"o","name":"exec_group","ts_us":21,"tid":2,"detail":"req=7 lane=halk batch=1"}
{"ev":"c","name":"exec_group","ts_us":41,"tid":2,"dur_us":20}
{"ev":"c","name":"serve_request","ts_us":42,"tid":2,"dur_us":22}
"#;
        let (spans, instants) = parse_text(text).expect("valid trace");
        assert_eq!(instants.len(), 2);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "exec_group");
        assert_eq!(spans[0].start_us, 21);
        assert_eq!(detail_field(&spans[0].detail, "req"), Some("7"));
        assert_eq!(detail_field(&spans[0].detail, "batch"), Some("1"));
        assert_eq!(span_durations(&spans, "serve_request"), vec![22.0]);
        assert!(parse_text(r#"{"ev":"c","name":"x","ts_us":1,"tid":0,"dur_us":1}"#).is_err());
    }
}
