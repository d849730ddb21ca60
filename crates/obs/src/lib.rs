//! Unified observability layer for the QR-ACN workspace.
//!
//! One crate, zero upward dependencies (only `acn-txir` for object
//! identity, so every other crate can use it without cycles). Everything a
//! transaction does reaches it as one stream of structured [`TxnEvent`]s
//! — begin / Block start and commit / batched-read round / partial abort /
//! full restart / commit — which the executor emits once per site, to its
//! [`ExecStats`] and to the one [`TxnObserver`] installed on the worker's
//! client:
//!
//! - **Abort attribution** ([`AbortTable`]): exact counts keyed by
//!   `(class, block, kind)`. [`ExecStats`] is counted from the same
//!   events, so attributed totals reconcile against it to the unit.
//! - **Metrics report** ([`MetricsReport`]): the executor counters
//!   ([`ExecStats`], derived from the event stream) next to the network,
//!   recovery, latency and contention sections the driver fills by name.
//!   Each section's exported fields are one table ([`Row::FIELDS`]); the
//!   JSON-lines exporter, its strict parser and the Prometheus mapping
//!   walk it, and the output parses back to an equal report.
//! - **Span tracer** ([`Tracer`] / [`SpanCollector`] / [`critical_path`]):
//!   causal spans across client, wire and servers — attempts and Blocks
//!   read off the same events — with a per-committed-txn critical-path
//!   decomposition and a Chrome-trace/Perfetto exporter
//!   ([`write_chrome_trace`]) whose output parses back exactly.
//! - **Live telemetry** ([`LogHistogram`] / [`WindowedSeries`] /
//!   [`WorkLedger`]): log-bucketed latency histograms with lossless merge
//!   and bounded-error quantiles, grid-aligned per-window counters, and a
//!   wasted-work ledger whose totals obey
//!   `committed + discarded(full) + discarded(partial) == executed`
//!   exactly.
//! - **Prometheus surface** ([`report_to_prom`] / [`render_prom`] /
//!   [`parse_prom`]): the dependency-free exposition-format exporter the
//!   future `acn-node` will scrape, round-trip-parsed like every codec
//!   here.

#![warn(missing_docs)]

mod attribution;
mod chrome;
mod event;
pub mod json;
mod prom;
mod registry;
mod ring;
mod section;
mod span;
mod timeseries;
mod wasted;

pub use attribution::{AbortSite, AbortTable, ObsConfig, TxnObserver};
pub use chrome::{parse_chrome_trace, write_chrome_trace};
pub use event::{AbortKind, ExecStats, TxnEvent};
pub use prom::{
    parse_prom, render_prom, report_to_prom, PromFamily, PromMetric, PromSample, PromType,
};
pub use registry::{
    AbortRow, ContentionLevel, CritPathRow, LatencySummary, MetricsReport, NetCounters,
    RecoveryCounters, SeriesRow, ThreadTraceRow, SCHEMA_VERSION, SERVER_TRACE_THREAD,
};
pub use section::{Cell, Field, Getter, Row, Section};
pub use span::{
    aggregate_critpath, critical_path, BlockCost, PendingSpan, RawSpan, Span, SpanCollector,
    SpanKind, TraceCtx, Tracer, TxnCritPath, DEFAULT_SPAN_CAPACITY, FLAG_COMMITTED,
    FLAG_ROLLED_BACK,
};
pub use timeseries::{LogHistogram, WindowCell, WindowedSeries};
pub use wasted::{WorkLedger, WorkScope, WorkTotals, WorkUnits};
