//! Counter tables: each layer declares its counters once, in a
//! [`counter_table!`](crate::counter_table), and every view of them —
//! `counters()`, `absorb`, the checkpoint values, report and `/statsz`
//! JSON, `/metricsz` text — is derived from that one declaration.

/// The JSON type the renderers build, re-exported for the macro.
pub use mcm_core::json::Json;

/// How a counter combines across snapshots, and how `/metricsz` types it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A flow, summed by `absorb`; rendered as `<name>_total`.
    Counter,
    /// A level, summed by `absorb` (the levels of disjoint parts add
    /// up); rendered as a bare-named gauge.
    Gauge,
    /// A high-water mark, combined by taking the maximum; rendered as a
    /// bare-named gauge.
    Max,
}

impl Kind {
    /// `a` absorbing `b` the way this kind merges.
    ///
    /// # Panics
    ///
    /// Panics when the merged value does not fit the field's type.
    #[must_use]
    pub fn merge<V: CounterValue>(self, a: V, b: V) -> V {
        let (a, b) = (a.to_u64(), b.to_u64());
        let merged = match self {
            Kind::Counter | Kind::Gauge => a + b,
            Kind::Max => a.max(b),
        };
        V::from_u64(merged).expect("merged counter fits its field")
    }
}

/// A field type a counter table can hold, widened to `u64` for
/// `counters()`, checkpoints and `/metricsz`. JSON renders it natively.
pub trait CounterValue: Copy + Into<Json> {
    /// The value as a `u64` (`bool` as 0/1).
    fn to_u64(self) -> u64;
    /// The value back from a `u64`; `None` when it does not fit.
    fn from_u64(value: u64) -> Option<Self>;
}

impl CounterValue for u64 {
    fn to_u64(self) -> u64 {
        self
    }
    fn from_u64(value: u64) -> Option<Self> {
        Some(value)
    }
}

impl CounterValue for usize {
    fn to_u64(self) -> u64 {
        self as u64
    }
    fn from_u64(value: u64) -> Option<Self> {
        usize::try_from(value).ok()
    }
}

impl CounterValue for bool {
    fn to_u64(self) -> u64 {
        u64::from(self)
    }
    fn from_u64(value: u64) -> Option<Self> {
        Some(value != 0)
    }
}

/// Writes one table's entries as Prometheus exposition text, each name
/// behind `prefix`.
pub fn write_prometheus(
    out: &mut String,
    prefix: &str,
    kinds: &[Kind],
    counters: &[(&'static str, u64)],
) {
    use std::fmt::Write;
    for (kind, (name, value)) in kinds.iter().zip(counters) {
        let (suffix, typ) = match kind {
            Kind::Counter => ("_total", "counter"),
            Kind::Gauge | Kind::Max => ("", "gauge"),
        };
        let _ = writeln!(out, "# TYPE {prefix}{name}{suffix} {typ}");
        let _ = writeln!(out, "{prefix}{name}{suffix} {value}");
    }
}

/// Declares a counter struct once and derives its views from it.
///
/// Each entry is a field's doc comment, its name, its type (`u64`,
/// `usize` or `bool`) and its kind: `counter`, `gauge` or `max`
/// ([`Kind`](crate::table::Kind)). The macro generates the plain struct,
/// fields in table order, and:
///
/// * `counters()`: the entries as `(name, value)` pairs;
/// * `absorb(other)`: merges another snapshot in, per kind;
/// * `values()` / `from_values(next)`: the entries, then each nested
///   group's values, as one flat `u64` sequence: the checkpoint layout;
/// * `json_fields()` / `to_json()`: the one JSON renderer, for report
///   sections and `/statsz`;
/// * `render_prometheus(prefix, out)`: the `/metricsz` text, `_total`
///   and `# TYPE … counter` for counters, the bare name and
///   `# TYPE … gauge` for gauges and maxima.
///
/// A table may end with nested `groups` (`sat: SolverStats`): counter
/// structs carried whole, which take part in `absorb` and the checkpoint
/// values but not in the renderers. A group type needs `absorb`,
/// `counters()` and `from_values` of the shapes the macro generates.
///
/// ```
/// mcm_obs::counter_table! {
///     /// What one run did.
///     #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
///     pub struct RunStats {
///         /// Items processed.
///         items: u64 = counter,
///         /// Largest batch held at once.
///         peak: usize = max,
///     }
/// }
/// let mut a = RunStats { items: 3, peak: 8 };
/// a.absorb(RunStats { items: 4, peak: 5 });
/// assert_eq!(a.counters(), [("items", 7), ("peak", 8)]);
/// let mut out = String::new();
/// a.render_prometheus("mcm_run_", &mut out);
/// assert!(out.contains("mcm_run_items_total 7") && out.contains("mcm_run_peak 8"));
/// ```
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident : $ty:ty = $kind:ident ),* $(,)?
        }
        $( groups {
            $( $(#[$gmeta:meta])* $group:ident : $gty:ty ),* $(,)?
        } )?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
            $($( $(#[$gmeta])* pub $group: $gty, )*)?
        }

        impl $name {
            /// The entries as stable `(name, value)` pairs, in table order
            /// (nested groups have views of their own).
            #[must_use]
            pub fn counters(&self) -> [(&'static str, u64); [$(stringify!($field)),*].len()] {
                [$((
                    stringify!($field),
                    $crate::table::CounterValue::to_u64(self.$field),
                )),*]
            }

            /// Merges `other` in: counters and gauges add, maxima take the
            /// larger value, nested groups absorb theirs.
            pub fn absorb(&mut self, other: Self) {
                $( self.$field = $crate::__counter_kind!($kind).merge(self.$field, other.$field); )*
                $($( self.$group.absorb(other.$group); )*)?
            }

            /// The entries, then every nested group's values, in table
            /// order: the checkpoint layout.
            #[must_use]
            pub fn values(&self) -> ::std::vec::Vec<u64> {
                let values = self.counters().into_iter().map(|(_, value)| value);
                $($( let values = values
                    .chain(self.$group.counters().into_iter().map(|(_, value)| value)); )*)?
                values.collect()
            }

            /// The inverse of `values()`: reads each value from `next` in
            /// table order; `None` when one is missing or does not fit.
            pub fn from_values(next: &mut dyn FnMut() -> Option<u64>) -> Option<Self> {
                Some($name {
                    $( $field: $crate::table::CounterValue::from_u64(next()?)?, )*
                    $($( $group: <$gty>::from_values(next)?, )*)?
                })
            }

            /// The entries as JSON object fields, in table order.
            #[must_use]
            pub fn json_fields(&self) -> ::std::vec::Vec<(::std::string::String, $crate::table::Json)> {
                ::std::vec![$( (stringify!($field).to_string(), self.$field.into()) ),*]
            }

            /// The entries as one JSON object.
            #[must_use]
            #[allow(clippy::wrong_self_convention)]
            pub fn to_json(&self) -> $crate::table::Json {
                $crate::table::Json::Object(self.json_fields())
            }

            /// Appends the entries to `out` as Prometheus exposition text,
            /// each name behind `prefix`.
            pub fn render_prometheus(&self, prefix: &str, out: &mut ::std::string::String) {
                let kinds = [$($crate::__counter_kind!($kind)),*];
                $crate::table::write_prometheus(out, prefix, &kinds, &self.counters());
            }
        }
    };
}

/// A table entry's kind keyword as a [`Kind`].
#[doc(hidden)]
#[macro_export]
macro_rules! __counter_kind {
    (counter) => {
        $crate::table::Kind::Counter
    };
    (gauge) => {
        $crate::table::Kind::Gauge
    };
    (max) => {
        $crate::table::Kind::Max
    };
}

#[cfg(test)]
mod tests {
    use super::Json;

    crate::counter_table! {
        /// A table with every kind and value type, and a nested group.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct Outer {
            /// A flow.
            calls: u64 = counter,
            /// A level.
            entries: usize = gauge,
            /// A high-water mark.
            peak: usize = max,
            /// A flag.
            flag: bool = gauge,
        }
        groups {
            /// A nested table.
            inner: Inner,
        }
    }

    /// The group's own views are not exercised here.
    #[allow(dead_code)]
    mod group {
        crate::counter_table! {
            /// A group.
            #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
            pub struct Inner {
                /// One flow.
                rows: u64 = counter,
            }
        }
    }
    use group::Inner;

    #[test]
    fn every_view_follows_the_table() {
        let one = Outer {
            calls: 5,
            entries: 2,
            peak: 80,
            flag: true,
            inner: Inner { rows: 9 },
        };
        let mut two = one;
        two.absorb(one);
        let summed = (10, 4, 80, true, 18);
        assert_eq!(
            (two.calls, two.entries, two.peak, two.flag, two.inner.rows),
            summed
        );

        let values = one.values();
        assert_eq!(values, [5, 2, 80, 1, 9]);
        let mut it = values.into_iter();
        assert_eq!(Outer::from_values(&mut || it.next()), Some(one));
        let mut short = [5u64, 2].into_iter();
        assert_eq!(Outer::from_values(&mut || short.next()), None);

        assert_eq!(
            one.to_json(),
            Json::object([
                ("calls", Json::from(5u64)),
                ("entries", Json::from(2u64)),
                ("peak", Json::from(80u64)),
                ("flag", Json::Bool(true)),
            ])
        );
        let mut text = String::new();
        one.render_prometheus("mcm_t_", &mut text);
        assert_eq!(
            text,
            "# TYPE mcm_t_calls_total counter\nmcm_t_calls_total 5\n\
             # TYPE mcm_t_entries gauge\nmcm_t_entries 2\n\
             # TYPE mcm_t_peak gauge\nmcm_t_peak 80\n\
             # TYPE mcm_t_flag gauge\nmcm_t_flag 1\n"
        );
    }
}
