//! Versioned, exportable snapshots of a [`Registry`](crate::Registry).
//!
//! A [`TelemetrySnapshot`] is the single export format for GesturePrint
//! observability: benches write it (wrapped in the gp-codec `Artifact`
//! envelope) as `BENCH_*.json` trajectory artifacts, the socket server
//! answers `StatsQuery` with it, and the soak test dumps one for CI to
//! upload. The schema is versioned independently of the artifact
//! envelope: decoders accept any snapshot up to their own
//! [`TELEMETRY_SCHEMA_VERSION`] and reject newer ones with a typed
//! error, mirroring the artifact-layer policy.
//!
//! Histograms travel sparsely — `[bucket_index, count]` pairs plus the
//! exact `count/sum/min/max` — so an idle registry costs bytes
//! proportional to what it observed, not to [`crate::hist::BUCKETS`].

use crate::hist::Histogram;
use gp_codec::{Decode, DecodeError, Encode, Value};
use std::collections::BTreeMap;

/// Current snapshot schema version. Bump on any breaking layout
/// change; additive fields ride on the same version (absent fields
/// decode to defaults, the workspace-wide compatibility idiom).
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// A point-in-time export of every registered metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Schema version the producer wrote ([`TELEMETRY_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// Latency histograms by name (µs).
    pub histograms: BTreeMap<String, Histogram>,
    /// Free-form producer attributes (workload shape, config echo).
    pub attrs: BTreeMap<String, Value>,
}

impl TelemetrySnapshot {
    /// An empty snapshot stamped with the current schema version.
    pub fn new() -> Self {
        TelemetrySnapshot {
            schema_version: TELEMETRY_SCHEMA_VERSION,
            ..TelemetrySnapshot::default()
        }
    }

    /// Serialises to deterministic gp-codec JSON.
    pub fn to_json(&self) -> String {
        gp_codec::to_json(&self.encode()).expect("snapshots are finite and shallow")
    }

    /// Parses a snapshot from gp-codec JSON.
    pub fn from_json(text: &str) -> Result<Self, DecodeError> {
        gp_codec::decode_from_json(text)
    }

    /// Renders the histograms whose names start with `prefix` as an
    /// aligned `name count p50 p99 max` table (µs→ms formatting), the
    /// shared final-report shape for examples and benches.
    pub fn render_table(&self, prefix: &str) -> String {
        let rows: Vec<(&str, &Histogram)> = self
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, h)| (name.as_str(), h))
            .collect();
        let name_w = rows
            .iter()
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(5)
            .max("stage".len());
        let ms = |us: Option<u64>| match us {
            Some(us) => format!("{:.3}", us as f64 / 1000.0),
            None => "-".into(),
        };
        let mut out = format!(
            "{:<name_w$}  {:>9}  {:>10}  {:>10}  {:>10}\n",
            "stage", "count", "p50 ms", "p99 ms", "max ms"
        );
        for (name, h) in rows {
            out.push_str(&format!(
                "{:<name_w$}  {:>9}  {:>10}  {:>10}  {:>10}\n",
                name,
                h.count(),
                ms(h.percentile(50.0)),
                ms(h.percentile(99.0)),
                ms(h.max()),
            ));
        }
        out
    }
}

fn encode_histogram(h: &Histogram) -> Value {
    let buckets: Vec<Value> = h
        .nonzero_buckets()
        .map(|(i, c)| Value::Seq(vec![(i as u64).encode(), c.encode()]))
        .collect();
    Value::record([
        ("buckets", Value::Seq(buckets)),
        ("count", h.count().encode()),
        ("sum", h.sum().encode()),
        ("min", h.min().unwrap_or(0).encode()),
        ("max", h.max().unwrap_or(0).encode()),
    ])
}

fn decode_histogram(value: &Value) -> Result<Histogram, DecodeError> {
    let rows = value.field("buckets")?.as_seq()?;
    let mut buckets = Vec::with_capacity(rows.len());
    for row in rows {
        let row = row.as_seq()?;
        if row.len() != 2 {
            return Err(DecodeError::new(
                "histogram bucket rows are [index, count] pairs",
            ));
        }
        let index = u64::decode(&row[0])? as usize;
        let count = u64::decode(&row[1])?;
        buckets.push((index, count));
    }
    let sum: u64 = value.get("sum")?;
    let min: u64 = value.get("min")?;
    let max: u64 = value.get("max")?;
    let h = Histogram::from_parts(buckets, sum, min, max).map_err(DecodeError::new)?;
    let count: u64 = value.get("count")?;
    if count != h.count() {
        return Err(DecodeError::new(format!(
            "histogram count {count} disagrees with bucket total {}",
            h.count()
        )));
    }
    Ok(h)
}

fn encode_string_map<F: Fn(&str, &V) -> Value, V>(map: &BTreeMap<String, V>, f: F) -> Value {
    Value::Map(
        map.iter()
            .map(|(name, v)| (name.clone(), f(name, v)))
            .collect(),
    )
}

impl Encode for TelemetrySnapshot {
    fn encode(&self) -> Value {
        Value::record([
            ("schema_version", self.schema_version.encode()),
            (
                "counters",
                encode_string_map(&self.counters, |_, c| c.encode()),
            ),
            ("gauges", encode_string_map(&self.gauges, |_, g| g.encode())),
            (
                "histograms",
                encode_string_map(&self.histograms, |_, h| encode_histogram(h)),
            ),
            ("attrs", Value::Map(self.attrs.clone())),
        ])
    }
}

impl Decode for TelemetrySnapshot {
    fn decode(value: &Value) -> Result<Self, DecodeError> {
        let schema_version: u32 = value.get("schema_version")?;
        if schema_version > TELEMETRY_SCHEMA_VERSION {
            return Err(DecodeError::new(format!(
                "telemetry snapshot schema v{schema_version} is newer than supported v{TELEMETRY_SCHEMA_VERSION}"
            )));
        }
        let mut snap = TelemetrySnapshot {
            schema_version,
            ..TelemetrySnapshot::default()
        };
        for (name, v) in value.field("counters")?.as_map()? {
            snap.counters
                .insert(name.clone(), u64::decode(v).map_err(|e| e.in_field(name))?);
        }
        for (name, v) in value.field("gauges")?.as_map()? {
            snap.gauges
                .insert(name.clone(), i64::decode(v).map_err(|e| e.in_field(name))?);
        }
        for (name, v) in value.field("histograms")?.as_map()? {
            snap.histograms.insert(
                name.clone(),
                decode_histogram(v).map_err(|e| e.in_field(name))?,
            );
        }
        snap.attrs = value.field("attrs")?.as_map()?.clone();
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new();
        snap.counters.insert("net.accepted".into(), 12);
        snap.gauges.insert("serve.gate.depth".into(), 3);
        let mut h = Histogram::new();
        for v in [150u64, 900, 900, 12_000, u64::MAX] {
            h.record(v);
        }
        snap.histograms.insert("serve.stage.inference".into(), h);
        snap.attrs.insert("sessions".into(), Value::Int(8));
        snap
    }

    #[test]
    fn snapshot_roundtrips_bit_exactly() {
        let snap = sample();
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
        // Deterministic serialisation: identical JSON both times.
        assert_eq!(back.to_json(), snap.to_json());
    }

    #[test]
    fn empty_histograms_roundtrip() {
        let mut snap = TelemetrySnapshot::new();
        snap.histograms.insert("idle".into(), Histogram::new());
        let back = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn future_schema_is_rejected() {
        let mut snap = sample();
        snap.schema_version = TELEMETRY_SCHEMA_VERSION + 1;
        let err = TelemetrySnapshot::from_json(&snap.to_json()).unwrap_err();
        assert!(err.to_string().contains("newer than supported"));
    }

    #[test]
    fn corrupt_bucket_count_is_rejected() {
        let mut json = sample().to_json();
        json = json.replace("\"count\":5", "\"count\":6");
        assert!(TelemetrySnapshot::from_json(&json).is_err());
    }

    #[test]
    fn overflowing_bucket_counts_are_rejected_not_panicked_on() {
        let mut snap = TelemetrySnapshot::new();
        snap.histograms.insert("h".into(), Histogram::new());
        let json = snap.to_json();
        assert!(json.contains("\"buckets\":[]"), "{json}");
        let max = i64::MAX;
        let json = json.replace(
            "\"buckets\":[]",
            &format!("\"buckets\":[[0,{max}],[0,{max}],[0,2]]"),
        );
        let err = TelemetrySnapshot::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn render_table_filters_by_prefix() {
        let mut snap = sample();
        let mut other = Histogram::new();
        other.record(5);
        snap.histograms.insert("net.flush".into(), other);
        let table = snap.render_table("serve.");
        assert!(table.contains("serve.stage.inference"));
        assert!(!table.contains("net.flush"));
    }
}
