//! The unified metrics report: one value where a run's executor, network,
//! latency, contention, and attribution numbers meet.
//!
//! `acn-obs` sits below every other crate, so it cannot import their stats
//! types: [`NetCounters`] and [`RecoveryCounters`] are declared here and
//! filled by name from the tables the network and the servers keep beside
//! their own counters ([`Section::collect_from`]); the executor counters
//! ([`ExecStats`]) are declared in this crate, next to the events they are
//! derived from. Every section names its exported fields once, in the
//! table beside its struct ([`crate::section`]); the JSON-lines writer and
//! parser below walk those tables, so a [`MetricsReport`] serialises and
//! parses back to an equal value by construction, and exports are
//! verifiable by round-trip rather than by inspection.

use crate::attribution::{AbortSite, AbortTable};
use crate::event::{AbortKind, ExecStats};
use crate::json::{parse_line, JsonMap, JsonObj, JsonVal};
use crate::prom::{PromFamily, PromType};
use crate::section::{section, Cell, Field, Row, Section};
use crate::timeseries::WindowedSeries;
use crate::wasted::{WorkTotals, WorkUnits};
use std::collections::{BTreeMap, BTreeSet};

/// Version of the JSON-lines schema this build writes. Parsers accept the
/// current version plus version-1 exports (which predate the field); any
/// other value is rejected loudly rather than misparsed silently.
pub const SCHEMA_VERSION: u64 = 4;

section! {
    /// Replica-recovery counters, aggregated across servers (the crash
    /// recovery / sync side) and clients (the repair side) of a run. Present
    /// only when the run exercised server crashes or read repair.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RecoveryCounters: "recovery" => RECOVERY_EVENTS {
        /// Recoveries from a crash that lost the disk too (crash-with-amnesia).
        pub amnesia_wipes: u64 = "amnesia_wipes",
        /// Catch-up rounds that completed (responders covered a read quorum).
        pub syncs_completed: u64 = "syncs_completed",
        /// Objects whose copy moved forward while absorbing peer inventories.
        pub sync_objects_received: u64 = "sync_objects_received",
        /// Prepare votes refused by replicas still catching up.
        pub sync_vote_refusals: u64 = "sync_vote_refusals",
        /// Read rounds refused by replicas still catching up.
        pub sync_read_refusals: u64 = "sync_read_refusals",
        /// Read-repair messages clients sent to lagging replicas.
        pub repair_writes_sent: u64 = "repair_writes_sent",
        /// Repaired objects that actually advanced a replica's copy.
        pub repair_writes_applied: u64 = "repair_writes_applied",
        /// Recoveries from a crash the log survived (WAL replayed, delta fetched).
        pub restart_replays: u64 = "restart_replays",
        /// WAL records servers applied across recovery replays.
        pub wal_records_replayed: u64 = "wal_records_replayed",
        /// Torn/corrupt WAL tails detected by checksum and truncated.
        pub torn_tails_truncated: u64 = "torn_tails_truncated",
        /// Entries peers shipped to recovering replicas — the recovery work
        /// that after a restart must scale with the outage, not the store
        /// (after a disk loss it is the store).
        pub delta_objects_fetched: u64 = "delta_objects_fetched",
        /// WAL append/sync failures surfaced by the storage backend.
        pub wal_io_errors: u64 = "wal_io_errors",
        /// Successful WAL syncs that made at least one new record durable.
        pub wal_sync_batches: u64 = "wal_sync_batches",
        /// Records made durable across those batches; divided by
        /// `wal_sync_batches` this is the group-commit records-per-sync
        /// batching factor.
        pub wal_records_synced: u64 = "wal_records_synced",
    }
}

const RECOVERY_EVENTS: PromFamily = PromFamily {
    name: "acn_recovery_events_total",
    help: "Replica recovery and durability counters",
    ty: PromType::Counter,
    label: Some("event"),
};

section! {
    /// The simulated network's counters, filled by name from its
    /// `NetStatsSnapshot`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct NetCounters: "net" => NET_MESSAGES {
        /// Messages handed to the network.
        pub sent: u64 = "sent",
        /// Messages enqueued on live inboxes.
        pub delivered: u64 = "delivered",
        /// Drops: destination failed.
        pub dropped_failed: u64 = "dropped_failed",
        /// Drops: destination inbox closed.
        pub dropped_closed: u64 = "dropped_closed",
        /// Drops: directed link failed (partitions).
        pub dropped_link: u64 = "dropped_link",
        /// Drops: chaos rule drop draw.
        pub dropped_chaos: u64 = "dropped_chaos",
        /// Extra copies from chaos duplication.
        pub chaos_duplicated: u64 = "chaos_duplicated",
        /// Messages delay-reordered by chaos.
        pub chaos_delayed: u64 = "chaos_delayed",
        /// Payload bytes handed to the network.
        pub bytes_sent: u64 = "bytes_sent" in NET_BYTES as "sent",
        /// Payload bytes enqueued on live inboxes.
        pub bytes_delivered: u64 = "bytes_delivered" in NET_BYTES as "delivered",
    }
}

const NET_MESSAGES: PromFamily = PromFamily {
    name: "acn_net_messages_total",
    help: "Simulated-network message counters",
    ty: PromType::Counter,
    label: Some("event"),
};
const NET_BYTES: PromFamily = PromFamily {
    name: "acn_net_bytes_total",
    help: "Simulated-network payload bytes, as declared by senders",
    ty: PromType::Counter,
    label: Some("event"),
};

section! {
    /// Commit-latency percentiles in nanoseconds (integer, so the JSON
    /// round-trip is exact).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LatencySummary: "latency" => LATENCY {
        /// Samples recorded.
        pub samples: u64 = "samples" in LATENCY_SAMPLES,
        /// Median, as the containing bucket's upper bound.
        pub p50_nanos: u64 = "p50_nanos" as "0.5",
        /// 95th percentile.
        pub p95_nanos: u64 = "p95_nanos" as "0.95",
        /// 99th percentile.
        pub p99_nanos: u64 = "p99_nanos" as "0.99",
    }
}

const LATENCY: PromFamily = PromFamily {
    name: "acn_commit_latency_ns",
    help: "Commit-latency percentiles, nanoseconds",
    ty: PromType::Gauge,
    label: Some("quantile"),
};
const LATENCY_SAMPLES: PromFamily = PromFamily {
    name: "acn_commit_latency_samples_total",
    help: "Commit-latency samples behind the percentiles",
    ty: PromType::Counter,
    label: None,
};

section! {
    /// One class's contention-window reading from the DTM's Dynamic Module:
    /// mean writes / aborts per touched object in the last complete window.
    /// Levels are stored in integer milli-units (level × 1000, rounded) so the
    /// JSON round-trip is exact.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ContentionLevel: "contention" {
        /// Class name.
        pub class: String = "class",
        /// Write level × 1000.
        pub writes_milli: u64 = "writes_milli",
        /// Abort level × 1000.
        pub aborts_milli: u64 = "aborts_milli",
    }
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

impl Row for AbortRow {
    const FIELDS: &'static [Field<Self>] = &[
        // Irregular: the key is left out when no object was blamed.
        Field::new(
            "class",
            Cell::OptStr(
                |r| r.class.as_deref(),
                |r, v| {
                    r.class = Some(v.to_owned());
                    Ok(())
                },
            ),
        ),
        // Irregular: `None` (flat body or commit phase) travels as -1.
        Field::new(
            "block",
            Cell::I64(
                |r| r.block.map_or(-1, i64::from),
                |r, v| {
                    r.block = match v {
                        -1 => None,
                        _ => Some(u32::try_from(v).map_err(|_| format!("bad block {v}"))?),
                    };
                    Ok(())
                },
            ),
        ),
        Field::new(
            "kind",
            Cell::Str(
                |r| r.kind.label(),
                |r, v| {
                    r.kind = AbortKind::from_label(v)
                        .ok_or_else(|| format!("unknown abort kind {v:?}"))?;
                    Ok(())
                },
            ),
        ),
        Field::new("count", section!(@cell u64 count)),
    ];
}

impl Section for AbortRow {
    const TYPE: &'static str = "abort";
}

section! {
    /// One `(class, block)` row of the aggregated commit critical path: where
    /// the end-to-end latency of committed transactions went. Transaction-wide
    /// segments (`redo`, `local`) live on the class's `block = -1` row;
    /// per-Block rows carry only the `{net, srvq, lock}` split of their rounds.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct CritPathRow: "critpath" {
        /// Workload class (transaction template) name.
        pub class: String = "class",
        /// Block index (`-1` = outside any Block / whole transaction).
        pub block: i64 = "block",
        /// Committed transactions contributing to this row.
        pub txns: u64 = "txns",
        /// Local compute + bookkeeping nanoseconds.
        pub local_ns: u64 = "local_ns",
        /// Network + server-handle nanoseconds.
        pub net_ns: u64 = "net_ns",
        /// Server inbox dwell nanoseconds (slowest responder per round).
        pub srvq_ns: u64 = "srvq_ns",
        /// Client lock-wait sleep nanoseconds.
        pub lock_ns: u64 = "lock_ns",
        /// Rollback-redo nanoseconds (discarded attempts + restart backoff).
        pub redo_ns: u64 = "redo_ns",
        /// WAL fsync-park nanoseconds (slowest responder per round).
        pub wal_ns: u64 = "wal_ns",
    }
}

section! {
    /// One interval window of the live time-series, flattened for export:
    /// counters plus the window's latency quantiles (integer nanoseconds, as
    /// histogram-bucket upper bounds, so the round trip is exact).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SeriesRow: "series" {
        /// Grid index: `window × window_ns` is the window's start on the
        /// run-relative clock.
        pub window: u64 = "window",
        /// Width of every window in this series, nanoseconds.
        pub window_ns: u64 = "window_ns",
        /// Commits in the window.
        pub commits: u64 = "commits",
        /// Full restarts in the window, lock-outs included.
        pub full_aborts: u64 = "full_aborts",
        /// Partial aborts in the window.
        pub partial_aborts: u64 = "partial_aborts",
        /// Commit-latency samples in the window.
        pub samples: u64 = "samples",
        /// Window p50 commit latency (bucket upper bound, ns); 0 if empty.
        pub p50_ns: u64 = "p50_ns",
        /// Window p99 commit latency.
        pub p99_ns: u64 = "p99_ns",
        /// Window p999 commit latency.
        pub p999_ns: u64 = "p999_ns",
    }
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

section! {
    /// One worker thread's span-ring completeness: how much of its trace the
    /// bounded ring kept. `thread == SERVER_TRACE_THREAD` is the server-side
    /// collector.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ThreadTraceRow: "trace_thread" {
        /// Worker thread index (or [`SERVER_TRACE_THREAD`]).
        pub thread: u64 = "thread",
        /// Spans recorded (dropped ones included).
        pub recorded: u64 = "recorded",
        /// Spans overwritten because the ring was full.
        pub dropped: u64 = "dropped",
        /// Ring capacity, in spans.
        pub capacity: u64 = "capacity",
    }
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

/// One `(key, value)` pair of [`MetricsReport::meta`].
type MetaRow = (String, String);

impl Row for MetaRow {
    const FIELDS: &'static [Field<Self>] = &[
        Field::new("key", section!(@cell String 0)),
        Field::new("value", section!(@cell String 1)),
    ];
}

impl Section for MetaRow {
    const TYPE: &'static str = "meta";
}

/// The ledger's two line types carry no struct of their own: a line is a
/// [`WorkUnits`] under a discriminator — `(type, discriminator key)`. A
/// `wasted` line's `scope` names a member of [`WorkTotals`]
/// ([`WorkTotals::SCOPES`]); a `wasted_kind` line's `kind` is a key of
/// [`WorkTotals::by_kind`].
const WASTED: (&str, &str) = ("wasted", "scope");
const WASTED_KIND: (&str, &str) = ("wasted_kind", "kind");

fn units_line((ty, by): (&str, &str), name: &str, units: &WorkUnits) -> String {
    let mut o = JsonObj::new(ty);
    o.str_field(by, name);
    units.write_fields(&mut o);
    o.finish_line()
}

/// The header and trailer line types, and the header's one field.
const HEADER: &str = "report";
const HEADER_VERSION: &str = "schema_version";
const END: &str = "end";

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
    /// Wasted-work totals, when the run recorded the ledger.
    pub wasted: Option<WorkTotals>,
    /// Live time-series windows, in grid order.
    pub series: Vec<SeriesRow>,
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
        fn lines<S: Section>(rows: &[S]) -> String {
            rows.iter().map(S::json_line).collect()
        }
        let mut header = JsonObj::new(HEADER);
        header.u64_field(HEADER_VERSION, SCHEMA_VERSION);
        let mut out = header.finish_line();
        out += &lines(&self.meta);
        out += &self.exec.json_line();
        out += &lines(self.recovery.as_slice());
        out += &self.net.json_line();
        out += &self.latency.json_line();
        out += &lines(&self.contention);
        out += &lines(&self.aborts);
        out += &lines(&self.critpath);
        out += &lines(&self.thread_traces);
        if let Some(w) = &self.wasted {
            for (scope, get, _) in &WorkTotals::SCOPES {
                out += &units_line(WASTED, scope, get(w));
            }
            for (kind, units) in &w.by_kind {
                out += &units_line(WASTED_KIND, kind.label(), units);
            }
        }
        out += &lines(&self.series);
        out + &JsonObj::new(END).finish_line()
    }

    /// Parse a JSON-lines export back into a report; inverse of
    /// [`MetricsReport::to_json_lines`]. Strict: a key no table names, a
    /// second line of a single-row section and a second header are refused
    /// with the line number, so a spliced or hand-edited export cannot
    /// parse to a plausible wrong report.
    pub fn parse_json_lines(input: &str) -> Result<MetricsReport, String> {
        let mut report = MetricsReport::default();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut saw_end = false;
        for (lineno, line) in input.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            if saw_end {
                return Err(at("content after end marker".into()));
            }
            let mut map = parse_line(line).map_err(at)?;
            let ty = take_str(&mut map, "type").map_err(at)?;
            let first = seen.insert(ty.clone());
            report
                .read_line(&ty, &mut map, first)
                .and_then(|()| match map.keys().next() {
                    Some(key) => Err(format!("unknown field {key:?}")),
                    None => Ok(()),
                })
                .map_err(|e| format!("line {} ({ty}): {e}", lineno + 1))?;
            saw_end = ty == END;
        }
        if !seen.contains(HEADER) {
            return Err("missing report header line".into());
        }
        if !saw_end {
            return Err("missing end marker (truncated export?)".into());
        }
        Ok(report)
    }

    /// Move one parsed line of type `ty` into the report, consuming the
    /// keys it knows; `first` is false when an earlier line had this type.
    fn read_line(&mut self, ty: &str, map: &mut JsonMap, first: bool) -> Result<(), String> {
        fn single<S: Section + Default>(first: bool, map: &mut JsonMap) -> Result<S, String> {
            if !first {
                return Err("a second line of a single-row section".into());
            }
            S::default().read_from(map)
        }
        match ty {
            HEADER => {
                if !first {
                    return Err("a second header".into());
                }
                match map.remove(HEADER_VERSION) {
                    // Version-1 exports predate the field.
                    None | Some(JsonVal::Int(1)) => {}
                    Some(JsonVal::Int(n)) if n >= 0 && n as u64 == SCHEMA_VERSION => {}
                    Some(other) => {
                        return Err(format!(
                            "unsupported schema_version {other:?} \
                             (this reader handles versions 1..={SCHEMA_VERSION})"
                        ))
                    }
                }
            }
            END => {}
            MetaRow::TYPE => self.meta.push(MetaRow::default().read_from(map)?),
            ExecStats::TYPE => self.exec = single(first, map)?,
            RecoveryCounters::TYPE => self.recovery = Some(single(first, map)?),
            NetCounters::TYPE => self.net = single(first, map)?,
            LatencySummary::TYPE => self.latency = single(first, map)?,
            ContentionLevel::TYPE => self
                .contention
                .push(ContentionLevel::default().read_from(map)?),
            AbortRow::TYPE => {
                // `kind` has no default; the read overwrites it.
                let blank = AbortRow {
                    class: None,
                    block: None,
                    kind: AbortKind::Partial,
                    count: 0,
                };
                self.aborts.push(blank.read_from(map)?);
            }
            CritPathRow::TYPE => self.critpath.push(CritPathRow::default().read_from(map)?),
            ThreadTraceRow::TYPE => self
                .thread_traces
                .push(ThreadTraceRow::default().read_from(map)?),
            t if t == WASTED.0 => {
                let scope = take_str(map, WASTED.1)?;
                let (_, _, member) = WorkTotals::SCOPES
                    .iter()
                    .find(|(name, ..)| *name == scope)
                    .ok_or_else(|| format!("unknown wasted scope {scope:?}"))?;
                *member(self.wasted.get_or_insert_with(WorkTotals::default)) =
                    WorkUnits::default().read_from(map)?;
            }
            t if t == WASTED_KIND.0 => {
                let label = take_str(map, WASTED_KIND.1)?;
                let kind = AbortKind::from_label(&label)
                    .ok_or_else(|| format!("unknown abort kind {label:?}"))?;
                let units = WorkUnits::default().read_from(map)?;
                let wasted = self.wasted.get_or_insert_with(WorkTotals::default);
                wasted.by_kind.insert(kind, units);
            }
            SeriesRow::TYPE => self.series.push(SeriesRow::default().read_from(map)?),
            other => return Err(format!("unknown type {other:?}")),
        }
        Ok(())
    }
}

/// Move a required string field out of a parsed line.
fn take_str(map: &mut JsonMap, key: &str) -> Result<String, String> {
    match map.remove(key) {
        Some(JsonVal::Str(s)) => Ok(s),
        other => Err(format!("missing string field {key:?} (got {other:?})")),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use acn_txir::ObjClass;

    pub(crate) fn sample_report() -> MetricsReport {
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
            wasted: Some(wasted),
            series: SeriesRow::from_series(&series),
        }
    }

    /// `sample_report().to_json_lines()` as the hand-written writer produced
    /// it before the field tables existed, less the `trace` line schema
    /// version 3 dropped and the `flight` line version 4 dropped: the wire
    /// format — line types, keys, key order — is pinned byte for byte.
    const GOLDEN: &str = r#"{"type":"report","schema_version":4}
{"type":"meta","key":"system","value":"QrAcn"}
{"type":"meta","key":"seed","value":"42"}
{"type":"exec","commits":100,"full_aborts":2,"partial_aborts":7,"locked_aborts":0,"unavailable_retries":1}
{"type":"recovery","amnesia_wipes":1,"syncs_completed":1,"sync_objects_received":250,"sync_vote_refusals":4,"sync_read_refusals":6,"repair_writes_sent":9,"repair_writes_applied":5,"restart_replays":1,"wal_records_replayed":180,"torn_tails_truncated":1,"delta_objects_fetched":12,"wal_io_errors":2,"wal_sync_batches":40,"wal_records_synced":210}
{"type":"net","sent":500,"delivered":498,"dropped_failed":0,"dropped_closed":0,"dropped_link":0,"dropped_chaos":0,"chaos_duplicated":0,"chaos_delayed":0,"bytes_sent":12345,"bytes_delivered":12000}
{"type":"latency","samples":100,"p50_nanos":1000000,"p95_nanos":2000000,"p99_nanos":3000000}
{"type":"contention","class":"Branch","writes_milli":50000,"aborts_milli":9000}
{"type":"abort","block":-1,"kind":"commit_conflict","count":2}
{"type":"abort","class":"Branch","block":0,"kind":"partial","count":7}
{"type":"critpath","class":"transfer","block":-1,"txns":100,"local_ns":5000,"net_ns":1000,"srvq_ns":200,"lock_ns":0,"redo_ns":900,"wal_ns":150}
{"type":"critpath","class":"transfer","block":0,"txns":100,"local_ns":0,"net_ns":7000,"srvq_ns":800,"lock_ns":300,"redo_ns":0,"wal_ns":0}
{"type":"trace_thread","thread":0,"recorded":600,"dropped":12,"capacity":2048}
{"type":"trace_thread","thread":4294967296,"recorded":400,"dropped":0,"capacity":2048}
{"type":"wasted","scope":"executed","blocks":120,"read_rounds":60,"lock_holds":40}
{"type":"wasted","scope":"committed","blocks":100,"read_rounds":50,"lock_holds":35}
{"type":"wasted","scope":"discarded_full","blocks":13,"read_rounds":6,"lock_holds":3}
{"type":"wasted","scope":"discarded_partial","blocks":7,"read_rounds":4,"lock_holds":2}
{"type":"wasted","scope":"abandoned","blocks":2,"read_rounds":1,"lock_holds":0}
{"type":"wasted_kind","kind":"partial","blocks":7,"read_rounds":4,"lock_holds":2}
{"type":"wasted_kind","kind":"commit_conflict","blocks":11,"read_rounds":5,"lock_holds":3}
{"type":"series","window":0,"window_ns":100000000,"commits":1,"full_aborts":0,"partial_aborts":0,"samples":1,"p50_ns":1212415,"p99_ns":1212415,"p999_ns":1212415}
{"type":"series","window":1,"window_ns":100000000,"commits":1,"full_aborts":1,"partial_aborts":3,"samples":1,"p50_ns":901119,"p99_ns":901119,"p999_ns":901119}
{"type":"end"}
"#;

    #[test]
    fn wire_format_matches_the_golden_export() {
        assert_eq!(sample_report().to_json_lines(), GOLDEN);
        assert_eq!(
            MetricsReport::parse_json_lines(GOLDEN).unwrap(),
            sample_report()
        );
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

    /// 1-based number of the first line of `text` of the given type.
    fn line_of(text: &str, ty: &str) -> usize {
        let tag = format!("{{\"type\":\"{ty}\"");
        1 + text.lines().position(|l| l.starts_with(&tag)).unwrap()
    }

    #[test]
    fn a_second_line_of_a_single_row_section_is_rejected() {
        let text = sample_report().to_json_lines();
        for ty in ["report", "exec", "recovery", "net", "latency"] {
            // Splice a copy of the section's line in right after it — what
            // concatenating a truncated export with a whole one produces.
            let n = line_of(&text, ty);
            let mut lines: Vec<&str> = text.lines().collect();
            lines.insert(n, lines[n - 1]);
            let err = MetricsReport::parse_json_lines(&lines.join("\n")).unwrap_err();
            assert!(
                err.starts_with(&format!("line {} ({ty}): a second", n + 1)),
                "{err}"
            );
        }
        // Repeated sections stay repeatable.
        let n = line_of(&text, "contention");
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(n, lines[n - 1]);
        let twice = MetricsReport::parse_json_lines(&lines.join("\n")).unwrap();
        assert_eq!(twice.contention.len(), 2);
    }

    #[test]
    fn an_unknown_key_on_a_known_line_is_rejected() {
        let text = sample_report().to_json_lines();
        for ty in [
            "report",
            "meta",
            "exec",
            "abort",
            "wasted",
            "wasted_kind",
            "series",
            "end",
        ] {
            let n = line_of(&text, ty);
            let edited: Vec<String> = text
                .lines()
                .enumerate()
                .map(|(i, l)| match i + 1 == n {
                    true => l.replacen('}', ",\"comits\":1}", 1),
                    false => l.to_owned(),
                })
                .collect();
            let err = MetricsReport::parse_json_lines(&edited.join("\n")).unwrap_err();
            assert_eq!(err, format!("line {n} ({ty}): unknown field \"comits\""));
        }
    }
}
