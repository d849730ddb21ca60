//! A dependency-free Prometheus text-format exporter.
//!
//! This is the scrape surface the ROADMAP's `acn-node` binary will serve:
//! [`report_to_prom`] maps a [`MetricsReport`] onto metric families, and
//! [`render_prom`] writes them in the Prometheus exposition format
//! (`# HELP` / `# TYPE` headers, one sample per line, labels escaped).
//! In keeping with the workspace's codec discipline the format is
//! round-trip-parsed, not eyeballed: [`parse_prom`] reads the exposition
//! text back into the same [`PromMetric`] values, and the figure runner
//! asserts `parse(render(m)) == m` on every export. Sample values are
//! integers — every metric here is a counter or an integer gauge — which
//! is what makes the exact round trip possible at all.

use crate::registry::MetricsReport;
use crate::section::{Cell, Row, Section};
use crate::wasted::{WorkTotals, WorkUnits};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metric family type, as Prometheus understands it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromType {
    /// Monotone counter (`_total` names).
    Counter,
    /// Point-in-time gauge.
    Gauge,
}

impl PromType {
    fn label(&self) -> &'static str {
        match self {
            PromType::Counter => "counter",
            PromType::Gauge => "gauge",
        }
    }

    fn from_label(s: &str) -> Option<PromType> {
        match s {
            "counter" => Some(PromType::Counter),
            "gauge" => Some(PromType::Gauge),
            _ => None,
        }
    }
}

/// The fixed part of a family whose samples are a section's counters:
/// declared beside that section's table, which names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromFamily {
    /// Metric family name.
    pub name: &'static str,
    /// Help line.
    pub help: &'static str,
    /// Family type.
    pub ty: PromType,
    /// Name of the one label the samples differ by; `None` for a family
    /// of a single unlabelled sample.
    pub label: Option<&'static str>,
}

/// One sample of a metric family: a label set and an integer value.
/// Labels are sorted by name so rendering is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromSample {
    /// `(name, value)` label pairs, sorted by name.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: u64,
}

/// One metric family: name, help text, type, and its samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromMetric {
    /// Metric family name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// Help line (shown by Prometheus tooling; escaped on render).
    pub help: String,
    /// Family type.
    pub ty: PromType,
    /// Samples, in insertion order.
    pub samples: Vec<PromSample>,
}

impl PromMetric {
    fn new(name: &str, help: &str, ty: PromType) -> Self {
        PromMetric {
            name: name.to_owned(),
            help: help.to_owned(),
            ty,
            samples: Vec::new(),
        }
    }

    fn sample(&mut self, labels: &[(&str, &str)], value: u64) -> &mut Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        self.samples.push(PromSample { labels, value });
        self
    }
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render metric families in the Prometheus exposition format. Families
/// with no samples are skipped (Prometheus rejects headerless bodies and
/// bodyless headers are noise).
pub fn render_prom(metrics: &[PromMetric]) -> String {
    let mut out = String::new();
    for m in metrics {
        if m.samples.is_empty() {
            continue;
        }
        let _ = writeln!(out, "# HELP {} {}", m.name, escape_help(&m.help));
        let _ = writeln!(out, "# TYPE {} {}", m.name, m.ty.label());
        for s in &m.samples {
            out.push_str(&m.name);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{k}=\"{}\"", escape_label(v));
                }
                out.push('}');
            }
            let _ = writeln!(out, " {}", s.value);
        }
    }
    out
}

fn unescape(s: &str, in_label: bool) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('"') if in_label => out.push('"'),
            other => return Err(format!("bad escape \\{other:?}")),
        }
    }
    Ok(out)
}

/// Parse exposition text produced by [`render_prom`] back into metric
/// families; the exact inverse on anything it renders. Rejects malformed
/// lines, unknown types, duplicate family headers and samples appearing
/// before their family's `# TYPE` line.
pub fn parse_prom(input: &str) -> Result<Vec<PromMetric>, String> {
    let mut out: Vec<PromMetric> = Vec::new();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let mut pending_help: Option<(String, String)> = None;
    for (lineno, line) in input.lines().enumerate() {
        let err = |e: String| format!("line {}: {e}", lineno + 1);
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| err("HELP without text".into()))?;
            pending_help = Some((name.to_owned(), unescape(help, false).map_err(err)?));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, ty) = rest
                .split_once(' ')
                .ok_or_else(|| err("TYPE without type".into()))?;
            let ty = PromType::from_label(ty)
                .ok_or_else(|| err(format!("unknown metric type {ty:?}")))?;
            if index.contains_key(name) {
                return Err(err(format!("duplicate family {name:?}")));
            }
            let help = match pending_help.take() {
                Some((h_name, help)) if h_name == name => help,
                _ => return Err(err(format!("TYPE for {name:?} without matching HELP"))),
            };
            index.insert(name.to_owned(), out.len());
            out.push(PromMetric {
                name: name.to_owned(),
                help,
                ty,
                samples: Vec::new(),
            });
            continue;
        }
        if line.starts_with('#') {
            continue; // Comments are legal exposition content.
        }
        // A sample line: name[{labels}] value
        let (head, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| err("sample without value".into()))?;
        let value: u64 = value
            .parse()
            .map_err(|e| err(format!("bad sample value {value:?}: {e}")))?;
        let (name, labels) = match head.split_once('{') {
            None => (head, Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label set".into()))?;
                let mut labels = Vec::new();
                let mut remaining = body;
                while !remaining.is_empty() {
                    let (k, rest) = remaining
                        .split_once("=\"")
                        .ok_or_else(|| err(format!("bad label in {body:?}")))?;
                    // Find the closing unescaped quote.
                    let mut end = None;
                    let mut prev_backslashes = 0usize;
                    for (i, c) in rest.char_indices() {
                        match c {
                            '"' if prev_backslashes.is_multiple_of(2) => {
                                end = Some(i);
                                break;
                            }
                            '\\' => prev_backslashes += 1,
                            _ => prev_backslashes = 0,
                        }
                    }
                    let end = end.ok_or_else(|| err("unterminated label value".into()))?;
                    labels.push((k.to_owned(), unescape(&rest[..end], true).map_err(err)?));
                    remaining = rest[end + 1..]
                        .strip_prefix(',')
                        .unwrap_or(&rest[end + 1..]);
                }
                (name, labels)
            }
        };
        let &i = index
            .get(name)
            .ok_or_else(|| err(format!("sample for undeclared family {name:?}")))?;
        out[i].samples.push(PromSample { labels, value });
    }
    if pending_help.is_some() {
        return Err("trailing HELP without TYPE".into());
    }
    Ok(out)
}

/// Every counter of a single-row section as one sample of its family:
/// the walk that makes a table row a Prometheus sample with no line here.
fn section_samples<S: Section>(row: &S, out: &mut Vec<PromMetric>) {
    for f in S::FIELDS {
        let (Cell::U64(get, _), Some(family)) = (&f.cell, f.family.or(S::FAMILY)) else {
            continue;
        };
        let at = out
            .iter()
            .position(|m| m.name == family.name)
            .unwrap_or_else(|| {
                out.push(PromMetric::new(family.name, family.help, family.ty));
                out.len() - 1
            });
        match family.label {
            Some(label) => out[at].sample(&[(label, f.label)], get(row)),
            None => out[at].sample(&[], get(row)),
        };
    }
}

/// One sample per work unit, labelled `by` and `unit`.
fn unit_samples(metric: &mut PromMetric, by: (&str, &str), units: &WorkUnits) {
    for f in WorkUnits::FIELDS {
        if let Cell::U64(get, _) = &f.cell {
            metric.sample(&[by, ("unit", f.label)], get(units));
        }
    }
}

/// Map a [`MetricsReport`] onto Prometheus metric families. Every value is
/// an integer counter/gauge; classes, kinds and scopes become labels.
pub fn report_to_prom(report: &MetricsReport) -> Vec<PromMetric> {
    let mut out = Vec::new();

    let mut info = PromMetric::new(
        "acn_run_info",
        "Run description; value is always 1, the description rides the labels",
        PromType::Gauge,
    );
    if !report.meta.is_empty() {
        let labels: Vec<(&str, &str)> = report
            .meta
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        info.sample(&labels, 1);
    }
    out.push(info);

    section_samples(&report.exec, &mut out);
    // An empty histogram has no percentiles to report.
    if report.latency.samples > 0 {
        section_samples(&report.latency, &mut out);
    }

    let mut aborts = PromMetric::new(
        "acn_aborts_total",
        "Abort attribution by kind, blamed class and block",
        PromType::Counter,
    );
    for r in &report.aborts {
        let block = r.block.map(|b| b.to_string());
        aborts.sample(
            &[
                ("kind", r.kind.label()),
                ("class", r.class.as_deref().unwrap_or("")),
                ("block", block.as_deref().unwrap_or("-1")),
            ],
            r.count,
        );
    }
    out.push(aborts);

    section_samples(&report.net, &mut out);

    let mut wasted = PromMetric::new(
        "acn_work_units_total",
        "Wasted-work ledger: work units by outcome scope and unit",
        PromType::Counter,
    );
    let mut wasted_kind = PromMetric::new(
        "acn_work_discarded_total",
        "Discarded work units by abort kind and unit",
        PromType::Counter,
    );
    if let Some(w) = &report.wasted {
        for (scope, get, _) in &WorkTotals::SCOPES {
            unit_samples(&mut wasted, ("scope", scope), get(w));
        }
        for (k, u) in &w.by_kind {
            unit_samples(&mut wasted_kind, ("kind", k.label()), u);
        }
    }
    out.push(wasted);
    out.push(wasted_kind);

    if let Some(r) = &report.recovery {
        section_samples(r, &mut out);
    }

    let mut series = PromMetric::new(
        "acn_window_commits",
        "Per-window commit counts of the live time-series",
        PromType::Gauge,
    );
    let mut series_p99 = PromMetric::new(
        "acn_window_p99_ns",
        "Per-window p99 commit latency, nanoseconds",
        PromType::Gauge,
    );
    for row in &report.series {
        let w = row.window.to_string();
        series.sample(&[("window", w.as_str())], row.commits);
        if row.samples > 0 {
            series_p99.sample(&[("window", w.as_str())], row.p99_ns);
        }
    }
    out.push(series);
    out.push(series_p99);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Vec<PromMetric> {
        let mut a = PromMetric::new("acn_txns_total", "Transaction outcomes", PromType::Counter);
        a.sample(&[("outcome", "commit")], 120)
            .sample(&[("outcome", "full_abort")], 7);
        let mut b = PromMetric::new(
            "acn_commit_latency_ns",
            "Latency with \"quotes\" and a \\ slash\nsecond line",
            PromType::Gauge,
        );
        b.sample(&[("quantile", "0.99"), ("class", "odd\"label\\value")], 42)
            .sample(&[], 7);
        vec![a, b]
    }

    #[test]
    fn exposition_round_trips_exactly() {
        let metrics = sample_metrics();
        let text = render_prom(&metrics);
        let back = parse_prom(&text).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn empty_families_are_skipped() {
        let metrics = vec![PromMetric::new(
            "acn_nothing",
            "no samples",
            PromType::Gauge,
        )];
        assert_eq!(render_prom(&metrics), "");
        assert!(parse_prom("").unwrap().is_empty());
    }

    #[test]
    fn malformed_expositions_are_rejected() {
        for bad in [
            "acn_orphan_sample 1",
            "# TYPE acn_x gauge\nacn_x 1",
            "# HELP acn_x help\n# TYPE acn_x nonsense\nacn_x 1",
            "# HELP acn_x help\n# TYPE acn_x gauge\nacn_x notanumber",
            "# HELP acn_x help\n# TYPE acn_x gauge\nacn_x{l=\"unterminated} 1",
            "# HELP acn_x help\n# TYPE acn_x gauge\n# HELP acn_x help\n# TYPE acn_x gauge\n",
            "# HELP acn_dangling help",
        ] {
            assert!(parse_prom(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn report_mapping_round_trips() {
        // An all-defaults report still renders (and round-trips) the
        // families that always carry samples.
        let report = MetricsReport::default();
        let metrics = report_to_prom(&report);
        let text = render_prom(&metrics);
        let back = parse_prom(&text).unwrap();
        let rendered: Vec<&PromMetric> = metrics.iter().filter(|m| !m.samples.is_empty()).collect();
        assert_eq!(back.len(), rendered.len());
        for (b, m) in back.iter().zip(rendered) {
            assert_eq!(b, m);
        }
    }

    /// The exposition of `registry::tests::sample_report()` as the
    /// hand-written mapping rendered it (captured at PR 21).
    const BEFORE_TABLES: &str = r#"# HELP acn_run_info Run description; value is always 1, the description rides the labels
# TYPE acn_run_info gauge
acn_run_info{seed="42",system="QrAcn"} 1
# HELP acn_txns_total Transaction outcomes by the executor
# TYPE acn_txns_total counter
acn_txns_total{outcome="commit"} 100
acn_txns_total{outcome="full_abort"} 2
acn_txns_total{outcome="partial_abort"} 7
acn_txns_total{outcome="locked_abort"} 0
acn_txns_total{outcome="unavailable_retry"} 1
# HELP acn_commit_latency_ns Commit-latency percentiles, nanoseconds
# TYPE acn_commit_latency_ns gauge
acn_commit_latency_ns{quantile="0.5"} 1000000
acn_commit_latency_ns{quantile="0.95"} 2000000
acn_commit_latency_ns{quantile="0.99"} 3000000
# HELP acn_aborts_total Abort attribution by kind, blamed class and block
# TYPE acn_aborts_total counter
acn_aborts_total{block="-1",class="",kind="commit_conflict"} 2
acn_aborts_total{block="0",class="Branch",kind="partial"} 7
# HELP acn_net_messages_total Simulated-network message counters
# TYPE acn_net_messages_total counter
acn_net_messages_total{event="sent"} 500
acn_net_messages_total{event="delivered"} 498
acn_net_messages_total{event="dropped_chaos"} 0
acn_net_messages_total{event="dropped_failed"} 0
# HELP acn_work_units_total Wasted-work ledger: work units by outcome scope and unit
# TYPE acn_work_units_total counter
acn_work_units_total{scope="executed",unit="blocks"} 120
acn_work_units_total{scope="executed",unit="read_rounds"} 60
acn_work_units_total{scope="executed",unit="lock_holds"} 40
acn_work_units_total{scope="committed",unit="blocks"} 100
acn_work_units_total{scope="committed",unit="read_rounds"} 50
acn_work_units_total{scope="committed",unit="lock_holds"} 35
acn_work_units_total{scope="discarded_full",unit="blocks"} 13
acn_work_units_total{scope="discarded_full",unit="read_rounds"} 6
acn_work_units_total{scope="discarded_full",unit="lock_holds"} 3
acn_work_units_total{scope="discarded_partial",unit="blocks"} 7
acn_work_units_total{scope="discarded_partial",unit="read_rounds"} 4
acn_work_units_total{scope="discarded_partial",unit="lock_holds"} 2
acn_work_units_total{scope="abandoned",unit="blocks"} 2
acn_work_units_total{scope="abandoned",unit="read_rounds"} 1
acn_work_units_total{scope="abandoned",unit="lock_holds"} 0
# HELP acn_work_discarded_total Discarded work units by abort kind and unit
# TYPE acn_work_discarded_total counter
acn_work_discarded_total{kind="partial",unit="blocks"} 7
acn_work_discarded_total{kind="partial",unit="read_rounds"} 4
acn_work_discarded_total{kind="partial",unit="lock_holds"} 2
acn_work_discarded_total{kind="commit_conflict",unit="blocks"} 11
acn_work_discarded_total{kind="commit_conflict",unit="read_rounds"} 5
acn_work_discarded_total{kind="commit_conflict",unit="lock_holds"} 3
# HELP acn_recovery_events_total Replica recovery and durability counters
# TYPE acn_recovery_events_total counter
acn_recovery_events_total{event="amnesia_wipes"} 1
acn_recovery_events_total{event="syncs_completed"} 1
acn_recovery_events_total{event="sync_vote_refusals"} 4
acn_recovery_events_total{event="sync_read_refusals"} 6
acn_recovery_events_total{event="restart_replays"} 1
acn_recovery_events_total{event="wal_io_errors"} 2
acn_recovery_events_total{event="wal_sync_batches"} 40
acn_recovery_events_total{event="wal_records_synced"} 210
# HELP acn_window_commits Per-window commit counts of the live time-series
# TYPE acn_window_commits gauge
acn_window_commits{window="0"} 1
acn_window_commits{window="1"} 1
# HELP acn_window_p99_ns Per-window p99 commit latency, nanoseconds
# TYPE acn_window_p99_ns gauge
acn_window_p99_ns{window="0"} 1212415
acn_window_p99_ns{window="1"} 901119
"#;

    #[test]
    fn every_sample_the_hand_written_mapping_exported_is_still_exported() {
        let report = crate::registry::tests::sample_report();
        let text = render_prom(&report_to_prom(&report));
        for line in BEFORE_TABLES.lines() {
            assert!(text.lines().any(|l| l == line), "lost {line:?}");
        }
    }

    /// Give every counter of `S` its own value, export the report `install`
    /// puts it in, and find each one — by walking the table, so a counter
    /// that reaches one export reaches both.
    fn assert_parity<S: Section + Default>(install: impl Fn(&mut MetricsReport, S)) {
        let mut section = S::default();
        for (i, f) in S::FIELDS.iter().enumerate() {
            let Cell::U64(_, set) = &f.cell else {
                panic!(
                    "{}.{}: a single-row section holds only counters",
                    S::TYPE,
                    f.key
                );
            };
            set(&mut section, 1000 + i as u64);
        }
        let json = section.json_line();
        let mut report = MetricsReport::default();
        install(&mut report, section);
        let families = report_to_prom(&report);
        for (i, f) in S::FIELDS.iter().enumerate() {
            let value = 1000 + i as u64;
            assert!(json.contains(&format!("\"{}\":{value}", f.key)), "{json}");
            let family = f
                .family
                .or(S::FAMILY)
                .unwrap_or_else(|| panic!("{}.{} has no Prometheus family", S::TYPE, f.key));
            let labels: Vec<(String, String)> = family
                .label
                .map(|name| (name.to_owned(), f.label.to_owned()))
                .into_iter()
                .collect();
            let metric = families.iter().find(|m| m.name == family.name).unwrap();
            assert_eq!((metric.help.as_str(), metric.ty), (family.help, family.ty));
            assert!(
                metric.samples.contains(&PromSample { labels, value }),
                "{}.{} is missing from {}",
                S::TYPE,
                f.key,
                family.name
            );
        }
    }

    #[test]
    fn every_counter_of_a_single_row_section_reaches_both_exports() {
        use crate::event::ExecStats;
        use crate::registry::{LatencySummary, NetCounters, RecoveryCounters};
        assert_parity::<ExecStats>(|r, s| r.exec = s);
        assert_parity::<RecoveryCounters>(|r, s| r.recovery = Some(s));
        assert_parity::<NetCounters>(|r, s| r.net = s);
        assert_parity::<LatencySummary>(|r, s| r.latency = s);
    }
}
