//! Property tests for the export codecs: any fully populated
//! [`MetricsReport`] — every section present, counts anywhere in the
//! integer range the wire carries, names full of quotes, backslashes and
//! newlines — survives JSON-lines and the Prometheus exposition exactly.
//!
//! Sections are filled by walking their field tables, so a counter added
//! to a table is generated, written, parsed and compared here with no edit
//! to this file.

use acn_obs::{
    parse_prom, render_prom, report_to_prom, AbortKind, AbortRow, Cell, ContentionLevel,
    CritPathRow, MetricsReport, PromMetric, Row, SeriesRow, ThreadTraceRow, WorkTotals, WorkUnits,
};
use proptest::prelude::*;

/// Characters the two text formats must escape, plus ones they must not.
const ALPHABET: [char; 18] = [
    'a', 'Z', '0', '_', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '{', '}', ',', '=', '#', 'é',
    '😀',
];

fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..ALPHABET.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Counts over the whole range the wire's signed 64-bit integers carry.
fn count() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..4, 0u64..100_000, any::<u64>().prop_map(|n| n >> 1)]
}

/// The raw material of one report: more numbers and names than any report
/// consumes, and how many rows each repeated section gets.
type Material = (Vec<u64>, Vec<String>, Vec<usize>);

fn material() -> impl Strategy<Value = Material> {
    (
        prop::collection::vec(count(), 400),
        prop::collection::vec(text(), 80),
        prop::collection::vec(1usize..4, 7),
    )
}

struct Source {
    ints: std::vec::IntoIter<u64>,
    strs: std::vec::IntoIter<String>,
}

impl Source {
    fn int(&mut self) -> u64 {
        self.ints.next().expect("enough numbers")
    }

    fn str(&mut self) -> String {
        self.strs.next().expect("enough names")
    }

    /// A row with every table cell set from the source.
    fn row<T: Row + Default>(&mut self) -> T {
        let mut row = T::default();
        for f in T::FIELDS {
            match &f.cell {
                Cell::U64(_, set) => set(&mut row, self.int()),
                // Signed cells see both signs.
                Cell::I64(_, set) => set(&mut row, self.int() as i64 - 2).unwrap(),
                Cell::Str(_, set) | Cell::OptStr(_, set) => set(&mut row, &self.str()).unwrap(),
            }
        }
        row
    }

    fn rows<T: Row + Default>(&mut self, n: usize) -> Vec<T> {
        (0..n).map(|_| self.row()).collect()
    }

    fn kind(&mut self) -> AbortKind {
        let kinds = AbortKind::EXECUTOR_KINDS;
        kinds[self.int() as usize % kinds.len()]
    }
}

/// A report with every section present. `meta_keys` names the meta rows:
/// Prometheus carries them as label *names*, which it does not escape.
fn report(
    (ints, strs, sizes): Material,
    meta_key: impl Fn(usize, String) -> String,
) -> MetricsReport {
    let mut src = Source {
        ints: ints.into_iter(),
        strs: strs.into_iter(),
    };
    let mut wasted = WorkTotals::default();
    for (_, _, member) in &WorkTotals::SCOPES {
        *member(&mut wasted) = src.row::<WorkUnits>();
    }
    for _ in 0..sizes[0] {
        wasted.by_kind.insert(src.kind(), src.row());
    }
    MetricsReport {
        meta: (0..sizes[1])
            .map(|i| (meta_key(i, src.str()), src.str()))
            .collect(),
        exec: src.row(),
        recovery: Some(src.row()),
        net: src.row(),
        latency: src.row(),
        contention: src.rows::<ContentionLevel>(sizes[2]),
        // The one section whose cells are narrower than the table's types.
        aborts: (0..sizes[3])
            .map(|i| AbortRow {
                class: (i % 2 == 0).then(|| src.str()),
                block: (i % 3 != 0).then(|| src.int() as u32),
                kind: src.kind(),
                count: src.int(),
            })
            .collect(),
        critpath: src.rows::<CritPathRow>(sizes[4]),
        thread_traces: src.rows::<ThreadTraceRow>(sizes[5]),
        wasted: Some(wasted),
        series: src.rows::<SeriesRow>(sizes[6]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// parse(write(r)) == r for JSON-lines, whatever the report holds.
    #[test]
    fn json_lines_round_trip_any_report(m in material()) {
        let r = report(m, |_, key| key);
        let text = r.to_json_lines();
        prop_assert_eq!(MetricsReport::parse_json_lines(&text).unwrap(), r);
    }

    /// parse(render(families)) == the families that made the wire, and a
    /// re-render is byte-identical.
    #[test]
    fn prometheus_round_trip_any_report(m in material()) {
        let r = report(m, |i, _| format!("k{i}"));
        let families = report_to_prom(&r);
        let text = render_prom(&families);
        let rendered: Vec<PromMetric> =
            families.into_iter().filter(|f| !f.samples.is_empty()).collect();
        let parsed = parse_prom(&text).unwrap();
        prop_assert_eq!(&parsed, &rendered);
        prop_assert_eq!(render_prom(&parsed), text);
    }
}
