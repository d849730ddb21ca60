//! Chrome-trace / Perfetto JSON export of causal spans.
//!
//! The output is the classic Trace Event Format JSON array: one complete
//! `"ph":"X"` event per [`Span`] (plus `"ph":"M"` metadata naming the
//! process and per-node tracks, and one completeness record per span
//! ring), loadable in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
//!
//! Chrome's `ts`/`dur` are microseconds, which would lose the nanosecond
//! precision the critical-path invariant is checked at — so every span
//! event also carries the exact integer fields (`start_ns`, `dur_ns`, ids,
//! flags), and [`parse_chrome_trace`] rebuilds [`Span`]s from those for an
//! exact write → parse → compare round trip. Viewers ignore the extra
//! fields.

use crate::json::{parse_line, req_str, req_u64, JsonObj, JsonVal};
use crate::registry::ThreadTraceRow;
use crate::section::Row;
use crate::span::{Span, SpanKind};
use std::fmt::Write as _;

/// Serialise spans and per-ring completeness into a Chrome-trace JSON
/// array (strict JSON: no trailing commas, so Perfetto accepts it too).
pub fn write_chrome_trace(spans: &[Span], threads: &[ThreadTraceRow]) -> String {
    let mut events: Vec<String> = Vec::with_capacity(spans.len() + threads.len() + 8);
    events.push(
        r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"qr-acn"}}"#.to_owned(),
    );
    let mut nodes: Vec<u32> = spans.iter().map(|s| s.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    for node in nodes {
        let mut line = String::new();
        let _ = write!(
            line,
            r#"{{"ph":"M","pid":1,"tid":{node},"name":"thread_name","args":{{"name":"node {node}"}}}}"#
        );
        events.push(line);
    }
    for t in threads {
        // The row's own cells, plus the share derived from them.
        let mut o = JsonObj::new("completeness");
        t.write_fields(&mut o);
        o.u64_field("kept_pct", t.kept_pct());
        events.push(o.finish());
    }
    for s in spans {
        let mut o = JsonObj::new("span");
        o.str_field("name", s.kind.label())
            .str_field("cat", "acn")
            .str_field("ph", "X")
            .u64_field("pid", 1)
            .u64_field("tid", u64::from(s.node))
            .u64_field("ts", s.start_ns / 1_000)
            .u64_field("dur", (s.dur_ns / 1_000).max(1))
            .u64_field("id", s.id)
            .u64_field("parent", s.parent)
            .u64_field("trace", s.trace)
            .u64_field("class", u64::from(s.class))
            .i64_field("block", i64::from(s.block))
            .u64_field("start_ns", s.start_ns)
            .u64_field("dur_ns", s.dur_ns)
            .u64_field("flags", u64::from(s.flags));
        events.push(o.finish());
    }
    let mut out = String::with_capacity(events.iter().map(|e| e.len() + 2).sum::<usize>() + 4);
    out.push_str("[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]\n");
    out
}

/// Parse a trace written by [`write_chrome_trace`] back into its spans and
/// completeness rows; metadata events are skipped, malformed span or
/// completeness lines are hard errors.
pub fn parse_chrome_trace(input: &str) -> Result<(Vec<Span>, Vec<ThreadTraceRow>), String> {
    let mut spans = Vec::new();
    let mut threads = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let mut line = raw.trim();
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        if let Some(stripped) = line.strip_suffix(',') {
            line = stripped.trim_end();
        }
        let is_span = line.starts_with(r#"{"type":"span""#);
        let is_completeness = line.starts_with(r#"{"type":"completeness""#);
        if !is_span && !is_completeness {
            continue; // metadata or viewer-added content
        }
        let mut map = parse_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ctx = |e: String| format!("line {}: {e}", lineno + 1);
        if is_completeness {
            threads.push(ThreadTraceRow::default().read_from(&mut map).map_err(ctx)?);
            continue;
        }
        let kind_label = req_str(&map, "name").map_err(ctx)?;
        let kind = SpanKind::from_label(&kind_label)
            .ok_or_else(|| ctx(format!("unknown span kind {kind_label:?}")))?;
        let block = match map.get("block") {
            Some(JsonVal::Int(n)) if i32::try_from(*n).is_ok() => *n as i32,
            other => return Err(ctx(format!("bad block field {other:?}"))),
        };
        spans.push(Span {
            id: req_u64(&map, "id").map_err(ctx)?,
            parent: req_u64(&map, "parent").map_err(ctx)?,
            trace: req_u64(&map, "trace").map_err(ctx)?,
            kind,
            class: u16::try_from(req_u64(&map, "class").map_err(ctx)?)
                .map_err(|e| ctx(format!("class out of range: {e}")))?,
            block,
            node: u32::try_from(req_u64(&map, "tid").map_err(ctx)?)
                .map_err(|e| ctx(format!("tid out of range: {e}")))?,
            start_ns: req_u64(&map, "start_ns").map_err(ctx)?,
            dur_ns: req_u64(&map, "dur_ns").map_err(ctx)?,
            flags: u32::try_from(req_u64(&map, "flags").map_err(ctx)?)
                .map_err(|e| ctx(format!("flags out of range: {e}")))?,
        });
    }
    Ok((spans, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{FLAG_COMMITTED, FLAG_ROLLED_BACK};

    fn sample() -> (Vec<Span>, Vec<ThreadTraceRow>) {
        let spans = vec![
            Span {
                id: 1 << 40 | 1,
                parent: 0,
                trace: 1 << 40 | 1,
                kind: SpanKind::Txn,
                class: 2,
                block: -1,
                node: 10,
                start_ns: 1_234,
                dur_ns: 987_654,
                flags: FLAG_COMMITTED,
            },
            Span {
                id: 1 << 40 | 3,
                parent: 1 << 40 | 2,
                trace: 1 << 40 | 1,
                kind: SpanKind::ReadRound,
                class: 0,
                block: 1,
                node: 10,
                start_ns: 2_000,
                dur_ns: 500, // sub-microsecond: only exact via dur_ns
                flags: 0,
            },
            Span {
                id: (1 << 62) | 7,
                parent: 1 << 40 | 3,
                trace: 1 << 40 | 1,
                kind: SpanKind::ServerQueue,
                class: 0,
                block: -1,
                node: 3,
                start_ns: 2_100,
                dur_ns: 50,
                flags: FLAG_ROLLED_BACK,
            },
        ];
        let threads = vec![
            ThreadTraceRow {
                thread: 0,
                recorded: 100,
                dropped: 25,
                capacity: 75,
            },
            ThreadTraceRow {
                thread: crate::registry::SERVER_TRACE_THREAD,
                recorded: 7,
                dropped: 0,
                capacity: 1024,
            },
        ];
        (spans, threads)
    }

    #[test]
    fn round_trip_is_exact() {
        let (spans, threads) = sample();
        let text = write_chrome_trace(&spans, &threads);
        let (back_spans, back_threads) = parse_chrome_trace(&text).unwrap();
        assert_eq!(back_spans, spans, "spans survive export byte-exactly");
        assert_eq!(back_threads, threads);
    }

    #[test]
    fn output_is_a_strict_json_array() {
        let (spans, threads) = sample();
        let text = write_chrome_trace(&spans, &threads);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.first(), Some(&"["));
        assert_eq!(lines.last(), Some(&"]"));
        // Every event line but the last must end with a comma, and the
        // last must not — Perfetto rejects trailing commas.
        let events = &lines[1..lines.len() - 1];
        for e in &events[..events.len() - 1] {
            assert!(e.ends_with(','), "missing separator: {e}");
        }
        assert!(!events.last().unwrap().ends_with(','));
        // Metadata names the process and every node track.
        assert!(text.contains(r#""name":"process_name""#));
        assert!(text.contains(r#""name":"node 10""#));
        assert!(text.contains(r#""name":"node 3""#));
    }

    #[test]
    fn empty_trace_still_round_trips() {
        let text = write_chrome_trace(&[], &[]);
        let (spans, threads) = parse_chrome_trace(&text).unwrap();
        assert!(spans.is_empty());
        assert!(threads.is_empty());
    }

    #[test]
    fn unknown_span_kind_is_a_hard_error() {
        let bad = "[\n{\"type\":\"span\",\"name\":\"warp_drive\"}\n]\n";
        assert!(parse_chrome_trace(bad)
            .unwrap_err()
            .contains("unknown span kind"));
    }
}
