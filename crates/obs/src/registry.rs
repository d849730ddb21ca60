//! The unified metrics report: one value where a run's executor, network,
//! latency, contention, and attribution numbers meet.
//!
//! `acn-obs` sits below every other crate, so it cannot import their stats
//! types; the report's rows are neutral mirrors the upper layers fill in
//! (the executor counters are the exception — [`ExecStats`] is declared
//! here, next to the events it is derived from). The payoff is a single
//! [`MetricsReport`] that serialises to JSON-lines and parses back to an
//! equal value, so exports are verifiable by round-trip rather than by
//! inspection.

use crate::attribution::{AbortSite, AbortTable};
use crate::event::{AbortKind, ExecStats};
use crate::json::{parse_line, req_str, req_u64, JsonObj, JsonVal};
use crate::slo::FlightRecord;
use crate::timeseries::WindowedSeries;
use crate::trace::TraceSummary;
use crate::wasted::{WorkTotals, WorkUnits};
use std::collections::BTreeMap;

/// Version of the JSON-lines schema this build writes. Parsers accept the
/// current version plus version-1 exports (which predate the field); any
/// other value is rejected loudly rather than misparsed silently.
pub const SCHEMA_VERSION: u64 = 2;

/// Replica-recovery counters, aggregated across servers (the wipe/sync
/// side) and clients (the repair side) of a run. Present only when the run
/// exercised crash-with-amnesia faults or read repair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Crash-with-amnesia wipes performed by servers.
    pub amnesia_wipes: u64,
    /// Catch-up rounds that completed (responders covered a read quorum).
    pub syncs_completed: u64,
    /// Objects whose copy moved forward while absorbing peer inventories.
    pub sync_objects_received: u64,
    /// Prepare votes refused by replicas still catching up.
    pub sync_vote_refusals: u64,
    /// Read rounds refused by replicas still catching up.
    pub sync_read_refusals: u64,
    /// Read-repair messages clients sent to lagging replicas.
    pub repair_writes_sent: u64,
    /// Repaired objects that actually advanced a replica's copy.
    pub repair_writes_applied: u64,
    /// Crash-restart recoveries performed (WAL replayed, delta fetched).
    pub restart_replays: u64,
    /// WAL records servers applied across restart replays.
    pub wal_records_replayed: u64,
    /// Torn/corrupt WAL tails detected by checksum and truncated.
    pub torn_tails_truncated: u64,
    /// Objects shipped in delta-sync responses after restart replays —
    /// the recovery work that must scale with the outage, not the store.
    pub delta_objects_fetched: u64,
    /// WAL append/sync failures surfaced by the storage backend.
    pub wal_io_errors: u64,
    /// Successful WAL syncs that made at least one new record durable.
    pub wal_sync_batches: u64,
    /// Records made durable across those batches; divided by
    /// `wal_sync_batches` this is the group-commit records-per-sync
    /// batching factor.
    pub wal_records_synced: u64,
}

/// Mirror of the simulated network's `NetStatsSnapshot`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages enqueued on live inboxes.
    pub delivered: u64,
    /// Drops: destination failed.
    pub dropped_failed: u64,
    /// Drops: destination inbox closed.
    pub dropped_closed: u64,
    /// Drops: directed link failed (partitions).
    pub dropped_link: u64,
    /// Drops: chaos rule drop draw.
    pub dropped_chaos: u64,
    /// Extra copies from chaos duplication.
    pub chaos_duplicated: u64,
    /// Messages delay-reordered by chaos.
    pub chaos_delayed: u64,
    /// Payload bytes handed to the network.
    pub bytes_sent: u64,
    /// Payload bytes enqueued on live inboxes.
    pub bytes_delivered: u64,
}

/// Commit-latency percentiles in nanoseconds (integer, so the JSON
/// round-trip is exact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub samples: u64,
    /// Median, as the containing bucket's upper bound.
    pub p50_nanos: u64,
    /// 95th percentile.
    pub p95_nanos: u64,
    /// 99th percentile.
    pub p99_nanos: u64,
}

/// One class's contention-window reading from the DTM's Dynamic Module:
/// mean writes / aborts per touched object in the last complete window.
/// Levels are stored in integer milli-units (level × 1000, rounded) so the
/// JSON round-trip is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionLevel {
    /// Class name.
    pub class: String,
    /// Write level × 1000.
    pub writes_milli: u64,
    /// Abort level × 1000.
    pub aborts_milli: u64,
}

/// One attribution row, flattened for export ([`AbortTable`] carries
/// `&'static` class names, which an importer cannot reconstruct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortRow {
    /// Blamed class name, `None` when no object was blamed.
    pub class: Option<String>,
    /// Block index, `None` = flat body or commit phase.
    pub block: Option<u32>,
    /// Abort kind.
    pub kind: AbortKind,
    /// Occurrences.
    pub count: u64,
}

impl AbortRow {
    /// Flatten an [`AbortTable`] into export rows, in key order.
    pub fn from_table(table: &AbortTable) -> Vec<AbortRow> {
        table
            .iter()
            .map(|(site, &count)| {
                let AbortSite { class, block, kind } = *site;
                AbortRow {
                    class: class.map(|c| c.name.to_owned()),
                    block,
                    kind,
                    count,
                }
            })
            .collect()
    }
}

/// One `(class, block)` row of the aggregated commit critical path: where
/// the end-to-end latency of committed transactions went. Transaction-wide
/// segments (`redo`, `local`) live on the class's `block = -1` row;
/// per-Block rows carry only the `{net, srvq, lock}` split of their rounds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CritPathRow {
    /// Workload class (transaction template) name.
    pub class: String,
    /// Block index (`-1` = outside any Block / whole transaction).
    pub block: i64,
    /// Committed transactions contributing to this row.
    pub txns: u64,
    /// Local compute + bookkeeping nanoseconds.
    pub local_ns: u64,
    /// Network + server-handle nanoseconds.
    pub net_ns: u64,
    /// Server inbox dwell nanoseconds (slowest responder per round).
    pub srvq_ns: u64,
    /// Client lock-wait sleep nanoseconds.
    pub lock_ns: u64,
    /// Rollback-redo nanoseconds (discarded attempts + restart backoff).
    pub redo_ns: u64,
    /// WAL fsync-park nanoseconds (slowest responder per round).
    pub wal_ns: u64,
}

/// One interval window of the live time-series, flattened for export:
/// counters plus the window's latency quantiles (integer nanoseconds, as
/// histogram-bucket upper bounds, so the round trip is exact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeriesRow {
    /// Grid index: `window × window_ns` is the window's start on the
    /// run-relative clock.
    pub window: u64,
    /// Width of every window in this series, nanoseconds.
    pub window_ns: u64,
    /// Commits in the window.
    pub commits: u64,
    /// Full restarts in the window, lock-outs included.
    pub full_aborts: u64,
    /// Partial aborts in the window.
    pub partial_aborts: u64,
    /// Commit-latency samples in the window.
    pub samples: u64,
    /// Window p50 commit latency (bucket upper bound, ns); 0 if empty.
    pub p50_ns: u64,
    /// Window p99 commit latency.
    pub p99_ns: u64,
    /// Window p999 commit latency.
    pub p999_ns: u64,
}

impl SeriesRow {
    /// Flatten a [`WindowedSeries`] into export rows, one per non-idle
    /// window, in grid order.
    pub fn from_series(s: &WindowedSeries) -> Vec<SeriesRow> {
        s.iter()
            .map(|(window, cell)| {
                let (p50_ns, p99_ns, p999_ns) = cell.latency.quantile_snapshot();
                SeriesRow {
                    window,
                    window_ns: s.window_ns(),
                    commits: cell.stats.commits,
                    full_aborts: cell.stats.full_aborts + cell.stats.locked_aborts,
                    partial_aborts: cell.stats.partial_aborts,
                    samples: cell.latency.len(),
                    p50_ns,
                    p99_ns,
                    p999_ns,
                }
            })
            .collect()
    }
}

/// `ThreadTraceRow::thread` value naming the shared server-side span
/// collector rather than a client worker thread. Chosen to fit the JSON
/// codec's `i64` integers while never colliding with a thread index.
pub const SERVER_TRACE_THREAD: u64 = 1 << 32;

/// One worker thread's span-ring completeness: how much of its trace the
/// bounded ring kept. `thread == SERVER_TRACE_THREAD` is the server-side
/// collector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadTraceRow {
    /// Worker thread index (or [`SERVER_TRACE_THREAD`]).
    pub thread: u64,
    /// Spans recorded (dropped ones included).
    pub recorded: u64,
    /// Spans overwritten because the ring was full.
    pub dropped: u64,
    /// Ring capacity, in spans.
    pub capacity: u64,
}

impl ThreadTraceRow {
    /// Share of recorded spans the ring kept, as an integer percentage
    /// (an empty ring counts as 100% complete).
    pub fn kept_pct(&self) -> u64 {
        ((self.recorded - self.dropped) * 100)
            .checked_div(self.recorded)
            .unwrap_or(100)
    }
}

/// Everything a run exports, in one comparable value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Free-form run description (`system`, `threads`, `seed`, …), in
    /// insertion order.
    pub meta: Vec<(String, String)>,
    /// Executor counters.
    pub exec: ExecStats,
    /// Replica-recovery counters, when the run exercised amnesia faults or
    /// read repair.
    pub recovery: Option<RecoveryCounters>,
    /// Network counters.
    pub net: NetCounters,
    /// Commit-latency percentiles.
    pub latency: LatencySummary,
    /// Per-class contention-window levels, as sampled.
    pub contention: Vec<ContentionLevel>,
    /// Abort attribution rows, in [`AbortTable`] key order.
    pub aborts: Vec<AbortRow>,
    /// Aggregated critical-path rows, keyed by `(class, block)`.
    pub critpath: Vec<CritPathRow>,
    /// Per-thread span-ring completeness rows.
    pub thread_traces: Vec<ThreadTraceRow>,
    /// Trace-ring counters summed over threads.
    pub trace: TraceSummary,
    /// Wasted-work totals, when the run recorded the ledger.
    pub wasted: Option<WorkTotals>,
    /// Live time-series windows, in grid order.
    pub series: Vec<SeriesRow>,
    /// Flight-recorder artifacts written by tripped anomaly triggers.
    pub flights: Vec<FlightRecord>,
}

impl MetricsReport {
    /// Total attributed aborts over the given kinds.
    pub fn attributed_total_of(&self, kinds: &[AbortKind]) -> u64 {
        self.aborts
            .iter()
            .filter(|r| kinds.contains(&r.kind))
            .map(|r| r.count)
            .sum()
    }

    /// Induced-abort count per class name, heaviest first (`None` groups
    /// unattributed aborts; ties break on name).
    pub fn top_classes(&self, k: usize) -> Vec<(String, u64)> {
        let mut agg: BTreeMap<Option<&str>, u64> = BTreeMap::new();
        for r in &self.aborts {
            *agg.entry(r.class.as_deref()).or_insert(0) += r.count;
        }
        let mut out: Vec<(String, u64)> = agg
            .into_iter()
            .map(|(c, n)| (c.unwrap_or("<none>").to_owned(), n))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// Serialise to JSON-lines: one flat object per line, first line is the
    /// report header, last line is `{"type":"end"}` so truncation is
    /// detectable.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        {
            let mut o = JsonObj::new("report");
            o.u64_field("schema_version", SCHEMA_VERSION);
            out.push_str(&o.finish());
            out.push('\n');
        }
        for (k, v) in &self.meta {
            let mut o = JsonObj::new("meta");
            o.str_field("key", k).str_field("value", v);
            out.push_str(&o.finish());
            out.push('\n');
        }
        {
            let mut o = JsonObj::new("exec");
            o.u64_field("commits", self.exec.commits)
                .u64_field("full_aborts", self.exec.full_aborts)
                .u64_field("partial_aborts", self.exec.partial_aborts)
                .u64_field("locked_aborts", self.exec.locked_aborts)
                .u64_field("unavailable_retries", self.exec.unavailable_retries);
            out.push_str(&o.finish());
            out.push('\n');
        }
        if let Some(r) = &self.recovery {
            let mut o = JsonObj::new("recovery");
            o.u64_field("amnesia_wipes", r.amnesia_wipes)
                .u64_field("syncs_completed", r.syncs_completed)
                .u64_field("sync_objects_received", r.sync_objects_received)
                .u64_field("sync_vote_refusals", r.sync_vote_refusals)
                .u64_field("sync_read_refusals", r.sync_read_refusals)
                .u64_field("repair_writes_sent", r.repair_writes_sent)
                .u64_field("repair_writes_applied", r.repair_writes_applied)
                .u64_field("restart_replays", r.restart_replays)
                .u64_field("wal_records_replayed", r.wal_records_replayed)
                .u64_field("torn_tails_truncated", r.torn_tails_truncated)
                .u64_field("delta_objects_fetched", r.delta_objects_fetched)
                .u64_field("wal_io_errors", r.wal_io_errors)
                .u64_field("wal_sync_batches", r.wal_sync_batches)
                .u64_field("wal_records_synced", r.wal_records_synced);
            out.push_str(&o.finish());
            out.push('\n');
        }
        {
            let n = &self.net;
            let mut o = JsonObj::new("net");
            o.u64_field("sent", n.sent)
                .u64_field("delivered", n.delivered)
                .u64_field("dropped_failed", n.dropped_failed)
                .u64_field("dropped_closed", n.dropped_closed)
                .u64_field("dropped_link", n.dropped_link)
                .u64_field("dropped_chaos", n.dropped_chaos)
                .u64_field("chaos_duplicated", n.chaos_duplicated)
                .u64_field("chaos_delayed", n.chaos_delayed)
                .u64_field("bytes_sent", n.bytes_sent)
                .u64_field("bytes_delivered", n.bytes_delivered);
            out.push_str(&o.finish());
            out.push('\n');
        }
        {
            let l = &self.latency;
            let mut o = JsonObj::new("latency");
            o.u64_field("samples", l.samples)
                .u64_field("p50_nanos", l.p50_nanos)
                .u64_field("p95_nanos", l.p95_nanos)
                .u64_field("p99_nanos", l.p99_nanos);
            out.push_str(&o.finish());
            out.push('\n');
        }
        for c in &self.contention {
            let mut o = JsonObj::new("contention");
            o.str_field("class", &c.class)
                .u64_field("writes_milli", c.writes_milli)
                .u64_field("aborts_milli", c.aborts_milli);
            out.push_str(&o.finish());
            out.push('\n');
        }
        for r in &self.aborts {
            let mut o = JsonObj::new("abort");
            if let Some(c) = &r.class {
                o.str_field("class", c);
            }
            o.i64_field("block", r.block.map(i64::from).unwrap_or(-1))
                .str_field("kind", r.kind.label())
                .u64_field("count", r.count);
            out.push_str(&o.finish());
            out.push('\n');
        }
        for r in &self.critpath {
            let mut o = JsonObj::new("critpath");
            o.str_field("class", &r.class)
                .i64_field("block", r.block)
                .u64_field("txns", r.txns)
                .u64_field("local_ns", r.local_ns)
                .u64_field("net_ns", r.net_ns)
                .u64_field("srvq_ns", r.srvq_ns)
                .u64_field("lock_ns", r.lock_ns)
                .u64_field("redo_ns", r.redo_ns)
                .u64_field("wal_ns", r.wal_ns);
            out.push_str(&o.finish());
            out.push('\n');
        }
        for t in &self.thread_traces {
            let mut o = JsonObj::new("trace_thread");
            o.u64_field("thread", t.thread)
                .u64_field("recorded", t.recorded)
                .u64_field("dropped", t.dropped)
                .u64_field("capacity", t.capacity);
            out.push_str(&o.finish());
            out.push('\n');
        }
        {
            let t = &self.trace;
            let mut o = JsonObj::new("trace");
            o.u64_field("recorded", t.recorded)
                .u64_field("dropped", t.dropped)
                .u64_field("capacity", t.capacity);
            out.push_str(&o.finish());
            out.push('\n');
        }
        if let Some(w) = &self.wasted {
            for (scope, u) in [
                ("executed", w.executed),
                ("committed", w.committed),
                ("discarded_full", w.discarded_full),
                ("discarded_partial", w.discarded_partial),
                ("abandoned", w.abandoned),
            ] {
                let mut o = JsonObj::new("wasted");
                o.str_field("scope", scope)
                    .u64_field("blocks", u.blocks)
                    .u64_field("read_rounds", u.read_rounds)
                    .u64_field("lock_holds", u.lock_holds);
                out.push_str(&o.finish());
                out.push('\n');
            }
            for (k, u) in &w.by_kind {
                let mut o = JsonObj::new("wasted_kind");
                o.str_field("kind", k.label())
                    .u64_field("blocks", u.blocks)
                    .u64_field("read_rounds", u.read_rounds)
                    .u64_field("lock_holds", u.lock_holds);
                out.push_str(&o.finish());
                out.push('\n');
            }
        }
        for r in &self.series {
            let mut o = JsonObj::new("series");
            o.u64_field("window", r.window)
                .u64_field("window_ns", r.window_ns)
                .u64_field("commits", r.commits)
                .u64_field("full_aborts", r.full_aborts)
                .u64_field("partial_aborts", r.partial_aborts)
                .u64_field("samples", r.samples)
                .u64_field("p50_ns", r.p50_ns)
                .u64_field("p99_ns", r.p99_ns)
                .u64_field("p999_ns", r.p999_ns);
            out.push_str(&o.finish());
            out.push('\n');
        }
        for f in &self.flights {
            let mut o = JsonObj::new("flight");
            o.str_field("trigger", &f.trigger)
                .u64_field("value_milli", f.value_milli)
                .u64_field("budget_milli", f.budget_milli)
                .str_field("artifact", &f.artifact);
            out.push_str(&o.finish());
            out.push('\n');
        }
        out.push_str(&JsonObj::new("end").finish());
        out.push('\n');
        out
    }

    /// Parse a JSON-lines export back into a report; inverse of
    /// [`MetricsReport::to_json_lines`].
    pub fn parse_json_lines(input: &str) -> Result<MetricsReport, String> {
        let mut report = MetricsReport::default();
        let mut saw_header = false;
        let mut saw_end = false;
        for (lineno, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if saw_end {
                return Err(format!("line {}: content after end marker", lineno + 1));
            }
            let map = parse_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let ty = req_str(&map, "type").map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let ctx = |e: String| format!("line {} ({ty}): {e}", lineno + 1);
            match ty.as_str() {
                "report" => {
                    saw_header = true;
                    match map.get("schema_version") {
                        // Version-1 exports predate the field.
                        None | Some(JsonVal::Int(1)) => {}
                        Some(JsonVal::Int(n)) if *n >= 0 && *n as u64 == SCHEMA_VERSION => {}
                        Some(other) => {
                            return Err(ctx(format!(
                                "unsupported schema_version {other:?} \
                                 (this reader handles versions 1..={SCHEMA_VERSION})"
                            )))
                        }
                    }
                }
                "end" => saw_end = true,
                "meta" => report.meta.push((req_str(&map, "key").map_err(ctx)?, {
                    req_str(&map, "value").map_err(ctx)?
                })),
                "exec" => {
                    report.exec = ExecStats {
                        commits: req_u64(&map, "commits").map_err(ctx)?,
                        full_aborts: req_u64(&map, "full_aborts").map_err(ctx)?,
                        partial_aborts: req_u64(&map, "partial_aborts").map_err(ctx)?,
                        locked_aborts: req_u64(&map, "locked_aborts").map_err(ctx)?,
                        unavailable_retries: req_u64(&map, "unavailable_retries").map_err(ctx)?,
                    }
                }
                "recovery" => {
                    report.recovery = Some(RecoveryCounters {
                        amnesia_wipes: req_u64(&map, "amnesia_wipes").map_err(ctx)?,
                        syncs_completed: req_u64(&map, "syncs_completed").map_err(ctx)?,
                        sync_objects_received: req_u64(&map, "sync_objects_received")
                            .map_err(ctx)?,
                        sync_vote_refusals: req_u64(&map, "sync_vote_refusals").map_err(ctx)?,
                        sync_read_refusals: req_u64(&map, "sync_read_refusals").map_err(ctx)?,
                        repair_writes_sent: req_u64(&map, "repair_writes_sent").map_err(ctx)?,
                        repair_writes_applied: req_u64(&map, "repair_writes_applied")
                            .map_err(ctx)?,
                        restart_replays: req_u64(&map, "restart_replays").map_err(ctx)?,
                        wal_records_replayed: req_u64(&map, "wal_records_replayed").map_err(ctx)?,
                        torn_tails_truncated: req_u64(&map, "torn_tails_truncated").map_err(ctx)?,
                        delta_objects_fetched: req_u64(&map, "delta_objects_fetched")
                            .map_err(ctx)?,
                        wal_io_errors: req_u64(&map, "wal_io_errors").map_err(ctx)?,
                        wal_sync_batches: req_u64(&map, "wal_sync_batches").map_err(ctx)?,
                        wal_records_synced: req_u64(&map, "wal_records_synced").map_err(ctx)?,
                    })
                }
                "net" => {
                    report.net = NetCounters {
                        sent: req_u64(&map, "sent").map_err(ctx)?,
                        delivered: req_u64(&map, "delivered").map_err(ctx)?,
                        dropped_failed: req_u64(&map, "dropped_failed").map_err(ctx)?,
                        dropped_closed: req_u64(&map, "dropped_closed").map_err(ctx)?,
                        dropped_link: req_u64(&map, "dropped_link").map_err(ctx)?,
                        dropped_chaos: req_u64(&map, "dropped_chaos").map_err(ctx)?,
                        chaos_duplicated: req_u64(&map, "chaos_duplicated").map_err(ctx)?,
                        chaos_delayed: req_u64(&map, "chaos_delayed").map_err(ctx)?,
                        bytes_sent: req_u64(&map, "bytes_sent").map_err(ctx)?,
                        bytes_delivered: req_u64(&map, "bytes_delivered").map_err(ctx)?,
                    }
                }
                "latency" => {
                    report.latency = LatencySummary {
                        samples: req_u64(&map, "samples").map_err(ctx)?,
                        p50_nanos: req_u64(&map, "p50_nanos").map_err(ctx)?,
                        p95_nanos: req_u64(&map, "p95_nanos").map_err(ctx)?,
                        p99_nanos: req_u64(&map, "p99_nanos").map_err(ctx)?,
                    }
                }
                "contention" => report.contention.push(ContentionLevel {
                    class: req_str(&map, "class").map_err(ctx)?,
                    writes_milli: req_u64(&map, "writes_milli").map_err(ctx)?,
                    aborts_milli: req_u64(&map, "aborts_milli").map_err(ctx)?,
                }),
                "abort" => {
                    let block = match map.get("block") {
                        Some(JsonVal::Int(-1)) => None,
                        Some(JsonVal::Int(n)) if (0..=i64::from(u32::MAX)).contains(n) => {
                            Some(*n as u32)
                        }
                        other => return Err(ctx(format!("bad block field {other:?}"))),
                    };
                    let kind_label = req_str(&map, "kind").map_err(ctx)?;
                    let kind = AbortKind::from_label(&kind_label)
                        .ok_or_else(|| ctx(format!("unknown abort kind {kind_label:?}")))?;
                    report.aborts.push(AbortRow {
                        class: map.get("class").and_then(|v| v.as_str()).map(str::to_owned),
                        block,
                        kind,
                        count: req_u64(&map, "count").map_err(ctx)?,
                    });
                }
                "critpath" => report.critpath.push(CritPathRow {
                    class: req_str(&map, "class").map_err(ctx)?,
                    block: match map.get("block") {
                        Some(JsonVal::Int(n)) => *n,
                        other => return Err(ctx(format!("bad block field {other:?}"))),
                    },
                    txns: req_u64(&map, "txns").map_err(ctx)?,
                    local_ns: req_u64(&map, "local_ns").map_err(ctx)?,
                    net_ns: req_u64(&map, "net_ns").map_err(ctx)?,
                    srvq_ns: req_u64(&map, "srvq_ns").map_err(ctx)?,
                    lock_ns: req_u64(&map, "lock_ns").map_err(ctx)?,
                    redo_ns: req_u64(&map, "redo_ns").map_err(ctx)?,
                    wal_ns: req_u64(&map, "wal_ns").map_err(ctx)?,
                }),
                "trace_thread" => report.thread_traces.push(ThreadTraceRow {
                    thread: req_u64(&map, "thread").map_err(ctx)?,
                    recorded: req_u64(&map, "recorded").map_err(ctx)?,
                    dropped: req_u64(&map, "dropped").map_err(ctx)?,
                    capacity: req_u64(&map, "capacity").map_err(ctx)?,
                }),
                "trace" => {
                    report.trace = TraceSummary {
                        recorded: req_u64(&map, "recorded").map_err(ctx)?,
                        dropped: req_u64(&map, "dropped").map_err(ctx)?,
                        capacity: req_u64(&map, "capacity").map_err(ctx)?,
                    }
                }
                "wasted" => {
                    let u = WorkUnits {
                        blocks: req_u64(&map, "blocks").map_err(ctx)?,
                        read_rounds: req_u64(&map, "read_rounds").map_err(ctx)?,
                        lock_holds: req_u64(&map, "lock_holds").map_err(ctx)?,
                    };
                    let w = report.wasted.get_or_insert_with(WorkTotals::default);
                    let scope = req_str(&map, "scope").map_err(ctx)?;
                    match scope.as_str() {
                        "executed" => w.executed = u,
                        "committed" => w.committed = u,
                        "discarded_full" => w.discarded_full = u,
                        "discarded_partial" => w.discarded_partial = u,
                        "abandoned" => w.abandoned = u,
                        other => return Err(ctx(format!("unknown wasted scope {other:?}"))),
                    }
                }
                "wasted_kind" => {
                    let kind_label = req_str(&map, "kind").map_err(ctx)?;
                    let kind = AbortKind::from_label(&kind_label)
                        .ok_or_else(|| ctx(format!("unknown abort kind {kind_label:?}")))?;
                    let u = WorkUnits {
                        blocks: req_u64(&map, "blocks").map_err(ctx)?,
                        read_rounds: req_u64(&map, "read_rounds").map_err(ctx)?,
                        lock_holds: req_u64(&map, "lock_holds").map_err(ctx)?,
                    };
                    report
                        .wasted
                        .get_or_insert_with(WorkTotals::default)
                        .by_kind
                        .insert(kind, u);
                }
                "series" => report.series.push(SeriesRow {
                    window: req_u64(&map, "window").map_err(ctx)?,
                    window_ns: req_u64(&map, "window_ns").map_err(ctx)?,
                    commits: req_u64(&map, "commits").map_err(ctx)?,
                    full_aborts: req_u64(&map, "full_aborts").map_err(ctx)?,
                    partial_aborts: req_u64(&map, "partial_aborts").map_err(ctx)?,
                    samples: req_u64(&map, "samples").map_err(ctx)?,
                    p50_ns: req_u64(&map, "p50_ns").map_err(ctx)?,
                    p99_ns: req_u64(&map, "p99_ns").map_err(ctx)?,
                    p999_ns: req_u64(&map, "p999_ns").map_err(ctx)?,
                }),
                "flight" => report.flights.push(FlightRecord {
                    trigger: req_str(&map, "trigger").map_err(ctx)?,
                    value_milli: req_u64(&map, "value_milli").map_err(ctx)?,
                    budget_milli: req_u64(&map, "budget_milli").map_err(ctx)?,
                    artifact: req_str(&map, "artifact").map_err(ctx)?,
                }),
                other => return Err(format!("line {}: unknown type {other:?}", lineno + 1)),
            }
        }
        if !saw_header {
            return Err("missing report header line".into());
        }
        if !saw_end {
            return Err("missing end marker (truncated export?)".into());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acn_txir::ObjClass;

    fn sample_report() -> MetricsReport {
        let mut table = AbortTable::new();
        table.record_n(
            AbortSite {
                class: Some(ObjClass::new(1, "Branch")),
                block: Some(0),
                kind: AbortKind::Partial,
            },
            7,
        );
        table.record_n(
            AbortSite {
                class: None,
                block: None,
                kind: AbortKind::CommitConflict,
            },
            2,
        );
        let mut wasted = WorkTotals {
            executed: WorkUnits {
                blocks: 120,
                read_rounds: 60,
                lock_holds: 40,
            },
            committed: WorkUnits {
                blocks: 100,
                read_rounds: 50,
                lock_holds: 35,
            },
            discarded_full: WorkUnits {
                blocks: 13,
                read_rounds: 6,
                lock_holds: 3,
            },
            discarded_partial: WorkUnits {
                blocks: 7,
                read_rounds: 4,
                lock_holds: 2,
            },
            abandoned: WorkUnits {
                blocks: 2,
                read_rounds: 1,
                lock_holds: 0,
            },
            by_kind: BTreeMap::new(),
        };
        wasted.by_kind.insert(
            AbortKind::Partial,
            WorkUnits {
                blocks: 7,
                read_rounds: 4,
                lock_holds: 2,
            },
        );
        wasted.by_kind.insert(
            AbortKind::CommitConflict,
            WorkUnits {
                blocks: 11,
                read_rounds: 5,
                lock_holds: 3,
            },
        );
        wasted.check().expect("sample totals balance");
        let commit = ExecStats {
            commits: 1,
            ..ExecStats::default()
        };
        let mut series = WindowedSeries::new(100_000_000);
        series.record(50_000_000, &commit, Some(1_200_000));
        let busy = ExecStats {
            commits: 1,
            full_aborts: 1,
            partial_aborts: 3,
            ..ExecStats::default()
        };
        series.record(150_000_000, &busy, Some(900_000));
        MetricsReport {
            meta: vec![
                ("system".into(), "QrAcn".into()),
                ("seed".into(), "42".into()),
            ],
            exec: ExecStats {
                commits: 100,
                full_aborts: 2,
                partial_aborts: 7,
                locked_aborts: 0,
                unavailable_retries: 1,
            },
            recovery: Some(RecoveryCounters {
                amnesia_wipes: 1,
                syncs_completed: 1,
                sync_objects_received: 250,
                sync_vote_refusals: 4,
                sync_read_refusals: 6,
                repair_writes_sent: 9,
                repair_writes_applied: 5,
                restart_replays: 1,
                wal_records_replayed: 180,
                torn_tails_truncated: 1,
                delta_objects_fetched: 12,
                wal_io_errors: 2,
                wal_sync_batches: 40,
                wal_records_synced: 210,
            }),
            net: NetCounters {
                sent: 500,
                delivered: 498,
                bytes_sent: 12_345,
                bytes_delivered: 12_000,
                ..Default::default()
            },
            latency: LatencySummary {
                samples: 100,
                p50_nanos: 1_000_000,
                p95_nanos: 2_000_000,
                p99_nanos: 3_000_000,
            },
            contention: vec![ContentionLevel {
                class: "Branch".into(),
                writes_milli: 50_000,
                aborts_milli: 9_000,
            }],
            aborts: AbortRow::from_table(&table),
            critpath: vec![
                CritPathRow {
                    class: "transfer".into(),
                    block: -1,
                    txns: 100,
                    local_ns: 5_000,
                    net_ns: 1_000,
                    srvq_ns: 200,
                    lock_ns: 0,
                    redo_ns: 900,
                    wal_ns: 150,
                },
                CritPathRow {
                    class: "transfer".into(),
                    block: 0,
                    txns: 100,
                    local_ns: 0,
                    net_ns: 7_000,
                    srvq_ns: 800,
                    lock_ns: 300,
                    redo_ns: 0,
                    wal_ns: 0,
                },
            ],
            thread_traces: vec![
                ThreadTraceRow {
                    thread: 0,
                    recorded: 600,
                    dropped: 12,
                    capacity: 2048,
                },
                ThreadTraceRow {
                    thread: SERVER_TRACE_THREAD,
                    recorded: 400,
                    dropped: 0,
                    capacity: 2048,
                },
            ],
            trace: TraceSummary {
                recorded: 1_000,
                dropped: 12,
                capacity: 4096,
            },
            wasted: Some(wasted),
            series: SeriesRow::from_series(&series),
            flights: vec![FlightRecord {
                trigger: "p99_latency".into(),
                value_milli: 3_000,
                budget_milli: 2_000,
                artifact: "flights/flight-fig1-p99_latency.json".into(),
            }],
        }
    }

    #[test]
    fn json_lines_round_trip_is_exact() {
        let report = sample_report();
        let text = report.to_json_lines();
        let back = MetricsReport::parse_json_lines(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn attribution_matches_exec_counters() {
        let report = sample_report();
        assert_eq!(
            report.attributed_total_of(&AbortKind::EXECUTOR_KINDS),
            report.exec.total_aborts()
        );
        assert_eq!(report.top_classes(1), vec![("Branch".to_owned(), 7)]);
    }

    #[test]
    fn completeness_percentage_is_sane() {
        let report = sample_report();
        assert_eq!(report.thread_traces[0].kept_pct(), 98);
        assert_eq!(report.thread_traces[1].kept_pct(), 100);
        assert_eq!(ThreadTraceRow::default().kept_pct(), 100);
    }

    #[test]
    fn unknown_schema_version_is_rejected_with_a_clear_error() {
        let report = sample_report();
        let text = report.to_json_lines();
        let header = format!("{{\"type\":\"report\",\"schema_version\":{SCHEMA_VERSION}}}");
        assert!(text.starts_with(&header), "header carries the version");
        // A version-1 export (no field at all) still parses.
        let v1 = text.replacen(&header, "{\"type\":\"report\"}", 1);
        assert!(MetricsReport::parse_json_lines(&v1).is_ok());
        // An explicit version 1 still parses.
        let v1e = text.replacen(&header, "{\"type\":\"report\",\"schema_version\":1}", 1);
        assert!(MetricsReport::parse_json_lines(&v1e).is_ok());
        // A future version is refused loudly, naming the supported range.
        let v99 = text.replacen(&header, "{\"type\":\"report\",\"schema_version\":99}", 1);
        let err = MetricsReport::parse_json_lines(&v99).unwrap_err();
        assert!(err.contains("unsupported schema_version"), "{err}");
        assert!(err.contains(&format!("1..={SCHEMA_VERSION}")), "{err}");
    }

    #[test]
    fn wasted_rows_reconstruct_balanced_totals() {
        let report = sample_report();
        let text = report.to_json_lines();
        let back = MetricsReport::parse_json_lines(&text).unwrap();
        let w = back.wasted.expect("wasted rows present");
        w.check().expect("parsed totals still balance");
        assert_eq!(Some(w), report.wasted);
    }

    #[test]
    fn truncated_export_is_rejected() {
        let report = sample_report();
        let text = report.to_json_lines();
        let cut = &text[..text.len() - "{\"type\":\"end\"}\n".len()];
        assert!(MetricsReport::parse_json_lines(cut)
            .unwrap_err()
            .contains("end marker"));
        assert!(MetricsReport::parse_json_lines("")
            .unwrap_err()
            .contains("header"));
    }
}
