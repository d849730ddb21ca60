//! Field tables: the one place an exported counter is named.
//!
//! Every section of the [`crate::MetricsReport`] export — a line type of
//! the JSON-lines format — carries a `const` table of [`Field`]s: the wire
//! key, how the cell is read and written, and (for single-row sections)
//! the Prometheus sample it becomes. [`section!`] declares a struct and
//! its table from one field list; the two irregular sections (`abort`,
//! `meta`) write theirs by hand. The JSON-lines writer, its parser and the
//! Prometheus mapping are generic walks over those tables, so a counter
//! added to a declaration reaches all three without another edit, and a
//! key can be neither forgotten by one of them nor spelled differently by
//! two.

use crate::json::{JsonMap, JsonObj, JsonVal};
use crate::prom::PromFamily;

/// How one cell of an exported row is read and written. Setters that can
/// meet a value the row cannot hold (an unknown label, an out-of-range
/// index) refuse it with a message.
pub enum Cell<T> {
    /// An unsigned counter or gauge.
    U64(fn(&T) -> u64, fn(&mut T, u64)),
    /// A signed integer.
    I64(fn(&T) -> i64, fn(&mut T, i64) -> Result<(), String>),
    /// A string.
    Str(fn(&T) -> &str, fn(&mut T, &str) -> Result<(), String>),
    /// A string whose key is left off the wire while the getter has none.
    OptStr(
        fn(&T) -> Option<&str>,
        fn(&mut T, &str) -> Result<(), String>,
    ),
}

/// One row of a section's table.
pub struct Field<T: 'static> {
    /// JSON key.
    pub key: &'static str,
    /// The cell behind it.
    pub cell: Cell<T>,
    /// Prometheus family of this counter when it is not the section's own
    /// ([`Section::FAMILY`]).
    pub family: Option<&'static PromFamily>,
    /// Value of the family's label, if it has one, on this counter's
    /// sample.
    pub label: &'static str,
}

impl<T> Field<T> {
    /// A row whose Prometheus label value is its JSON key.
    pub const fn new(key: &'static str, cell: Cell<T>) -> Self {
        Field {
            key,
            cell,
            family: None,
            label: key,
        }
    }
}

/// Declare a struct and its field table in one list, so that a field
/// cannot exist without its row:
///
/// ```text
/// section! {
///     /// Docs and derives, as on any struct.
///     pub struct Name: "line_type" => DEFAULT_FAMILY {
///         /// Field docs.
///         pub field: u64 = "json_key" in OTHER_FAMILY as "label_value",
///     }
/// }
/// ```
///
/// Field types are `u64`, `i64` and `String`. `: "line_type"` makes the
/// struct a [`Section`] (without it, only a [`Row`]); `=> FAMILY` names the
/// [`PromFamily`] constant its counters are samples of; `in` and `as`
/// override the family and the label value (default: the key) per field.
macro_rules! section {
    (
        $(#[$meta:meta])*
        pub struct $name:ident $(: $ty:literal $(=> $family:ident)?)? {
            $(
                $(#[$fmeta:meta])*
                pub $f:ident: $t:tt = $key:literal $(in $ffamily:ident)? $(as $label:literal)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $f: $t, )*
        }

        impl $crate::section::Row for $name {
            const FIELDS: &'static [$crate::section::Field<Self>] = &[$(
                $crate::section::Field {
                    key: $key,
                    cell: $crate::section::section!(@cell $t $f),
                    family: $crate::section::section!(@family $($ffamily)?),
                    label: $crate::section::section!(@label $key $($label)?),
                },
            )*];
        }

        $(
            impl $crate::section::Section for $name {
                const TYPE: &'static str = $ty;
                $( const FAMILY: Option<&'static $crate::prom::PromFamily> = Some(&$family); )?
            }
        )?
    };
    (@cell u64 $f:tt) => {
        $crate::section::Cell::U64(|r| r.$f, |r, v| r.$f = v)
    };
    (@cell i64 $f:tt) => {
        $crate::section::Cell::I64(|r| r.$f, |r, v| { r.$f = v; Ok(()) })
    };
    (@cell String $f:tt) => {
        $crate::section::Cell::Str(|r| r.$f.as_str(), |r, v| { r.$f = v.to_owned(); Ok(()) })
    };
    (@family) => { None };
    (@family $family:ident) => { Some(&$family) };
    (@label $key:literal) => { $key };
    (@label $key:literal $label:literal) => { $label };
}
pub(crate) use section;

/// A struct whose exported cells are listed in one table.
pub trait Row: Sized + 'static {
    /// Every exported cell, in wire order.
    const FIELDS: &'static [Field<Self>];

    /// Append the row's cells to an open JSON object.
    fn write_fields(&self, o: &mut JsonObj) {
        for f in Self::FIELDS {
            match &f.cell {
                Cell::U64(get, _) => o.u64_field(f.key, get(self)),
                Cell::I64(get, _) => o.i64_field(f.key, get(self)),
                Cell::Str(get, _) => o.str_field(f.key, get(self)),
                Cell::OptStr(get, _) => match get(self) {
                    Some(s) => o.str_field(f.key, s),
                    None => continue,
                },
            };
        }
    }

    /// The row with its cells moved out of a parsed line. Every key but an
    /// [`Cell::OptStr`]'s must be present and of the cell's type, so what
    /// `self` held does not show; keys the table does not name stay in
    /// `map` for the caller to judge.
    fn read_from(mut self, map: &mut JsonMap) -> Result<Self, String> {
        for f in Self::FIELDS {
            match (&f.cell, map.remove(f.key)) {
                (Cell::U64(_, set), Some(JsonVal::Int(n))) if n >= 0 => set(&mut self, n as u64),
                (Cell::I64(_, set), Some(JsonVal::Int(n))) => set(&mut self, n)?,
                (Cell::Str(_, set) | Cell::OptStr(_, set), Some(JsonVal::Str(s))) => {
                    set(&mut self, &s)?
                }
                (Cell::OptStr(..), None) => {}
                (_, None) => return Err(format!("missing field {:?}", f.key)),
                (_, Some(v)) => return Err(format!("bad {:?} field {v:?}", f.key)),
            }
        }
        Ok(self)
    }
}

/// A [`Row`] that is a line type of the JSON-lines export.
pub trait Section: Row {
    /// The line's `type`.
    const TYPE: &'static str;
    /// The Prometheus family a single-row section's counters are samples
    /// of, unless a row names its own. Repeated sections have none: their
    /// Prometheus shape, where they have one, is not a walk of the table.
    const FAMILY: Option<&'static PromFamily> = None;

    /// The row as one line of the export, newline included.
    fn json_line(&self) -> String {
        let mut o = JsonObj::new(Self::TYPE);
        self.write_fields(&mut o);
        o.finish_line()
    }

    /// Fill a single-row section from a table of named getters over some
    /// other struct `S` — the layer that counted — by joining on the name.
    /// `read` turns a getter into the value (one snapshot's, or a sum over
    /// several); a key `source` does not name keeps its default.
    fn collect_from<S>(source: &[Getter<S>], read: impl Fn(fn(&S) -> u64) -> u64) -> Self
    where
        Self: Default,
    {
        let mut row = Self::default();
        for f in Self::FIELDS {
            if let (Cell::U64(_, set), Some((_, get))) =
                (&f.cell, source.iter().find(|(name, _)| *name == f.key))
            {
                set(&mut row, read(*get));
            }
        }
        row
    }
}

/// A counter of `S` by name: the table shape of the layers below (or
/// beside) this crate, which cannot name [`Field`].
pub type Getter<S> = (&'static str, fn(&S) -> u64);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::parse_line;

    /// A section this crate's writer and parser have never heard of.
    #[derive(Debug, Default, PartialEq)]
    struct Probe {
        name: String,
        delta: i64,
        hits: u64,
    }

    impl Row for Probe {
        const FIELDS: &'static [Field<Self>] = &[
            Field::new("name", section!(@cell String name)),
            Field::new("delta", section!(@cell i64 delta)),
            Field::new("hits", section!(@cell u64 hits)),
        ];
    }

    impl Section for Probe {
        const TYPE: &'static str = "probe";
    }

    #[test]
    fn a_section_declared_here_round_trips_with_no_codec_edit() {
        let probe = Probe {
            name: "q\"uo\\te\n".into(),
            delta: -3,
            hits: 7,
        };
        let line = probe.json_line();
        assert_eq!(
            line,
            "{\"type\":\"probe\",\"name\":\"q\\\"uo\\\\te\\n\",\"delta\":-3,\"hits\":7}\n"
        );
        let mut map = parse_line(line.trim()).unwrap();
        assert_eq!(map.remove("type"), Some(JsonVal::Str(Probe::TYPE.into())));
        assert_eq!(Probe::default().read_from(&mut map).unwrap(), probe);
        assert!(map.is_empty(), "every key was consumed");
    }

    #[test]
    fn missing_and_mistyped_cells_are_refused() {
        let mut map = parse_line(r#"{"name":"n","delta":1}"#).unwrap();
        let err = Probe::default().read_from(&mut map).unwrap_err();
        assert!(err.contains("missing field \"hits\""), "{err}");
        let mut map = parse_line(r#"{"name":"n","delta":1,"hits":-1}"#).unwrap();
        let err = Probe::default().read_from(&mut map).unwrap_err();
        assert!(err.contains("bad \"hits\" field"), "{err}");
        let mut map = parse_line(r#"{"name":5,"delta":1,"hits":1}"#).unwrap();
        assert!(Probe::default().read_from(&mut map).is_err());
    }
}
