//! Figure data containers and rendering (markdown tables, CSV, JSON), plus
//! the per-run cache-efficiency summary experiment runs emit.

use crate::experiment::{AppCacheUsage, ExperimentResult, SloClassSummary};
use kcache::AdaptiveStats;
use serde::Serialize;
use std::fmt::Write as _;
use std::path::Path;

/// One candidate's lifetime ghost hit rate in the JSON summary.
#[derive(Debug, Clone, Serialize)]
pub struct GhostRateReport {
    pub policy: String,
    pub hits: u64,
    pub misses: u64,
    pub rate: f64,
}

/// One policy switch in the JSON summary.
#[derive(Debug, Clone, Serialize)]
pub struct SwitchReport {
    pub epoch: u64,
    pub from: String,
    pub to: String,
    pub from_rate: f64,
    pub to_rate: f64,
}

/// One quota transfer in the JSON summary, with the marginal-utility
/// evidence (per-epoch ghost refault counts) the tuner acted on.
#[derive(Debug, Clone, Serialize)]
pub struct QuotaMoveReport {
    pub epoch: u64,
    pub from_app: u32,
    pub to_app: u32,
    pub frames: u64,
    /// The loser's epoch refault count (frames hurt it least).
    pub from_refaults: u64,
    /// The winner's epoch refault count (frames help it most).
    pub to_refaults: u64,
}

/// The adaptive meta-policy's slice of [`CacheEfficiency`]: epoch and
/// switch counts, the per-epoch switch log, lifetime ghost hit rates per
/// candidate, and the quota-tuner move log.
#[derive(Debug, Clone, Serialize)]
pub struct AdaptiveReport {
    pub epochs: u64,
    pub switches: u64,
    pub quota_moves: u64,
    /// Per candidate, the ghost's lifetime hits and misses over its key
    /// sample only: from 128 frames up the ghosts replay 1/R of
    /// the keys (R = 2 … 16), so the counts are about 1/R of the live
    /// cache's accesses; the rate estimates the full one.
    pub ghost_hit_rates: Vec<GhostRateReport>,
    pub switch_log: Vec<SwitchReport>,
    pub quota_log: Vec<QuotaMoveReport>,
}

impl AdaptiveReport {
    fn from_stats(s: &AdaptiveStats) -> AdaptiveReport {
        AdaptiveReport {
            epochs: s.epochs,
            switches: s.switches,
            quota_moves: s.quota_moves,
            ghost_hit_rates: s
                .ghost_rates
                .iter()
                .map(|g| GhostRateReport {
                    policy: g.kind.name().to_string(),
                    hits: g.hits,
                    misses: g.misses,
                    rate: g.rate(),
                })
                .collect(),
            switch_log: s
                .switch_log
                .iter()
                .map(|r| SwitchReport {
                    epoch: r.epoch,
                    from: r.from.name().to_string(),
                    to: r.to.name().to_string(),
                    from_rate: r.from_rate,
                    to_rate: r.to_rate,
                })
                .collect(),
            quota_log: s
                .quota_log
                .iter()
                .map(|r| QuotaMoveReport {
                    epoch: r.epoch,
                    from_app: r.from.0,
                    to_app: r.to.0,
                    frames: r.frames as u64,
                    from_refaults: r.from_refaults,
                    to_refaults: r.to_refaults,
                })
                .collect(),
        }
    }
}

/// One histogram's digest in the telemetry summary. Percentiles come
/// from the log2 buckets, so each is an upper bound with at most one
/// power-of-two of slack.
#[derive(Debug, Clone, Serialize)]
pub struct HistogramReport {
    pub count: u64,
    pub sum: u64,
    pub mean: f64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// One node's slice of the telemetry summary.
#[derive(Debug, Clone, Serialize)]
pub struct NodeTelemetryReport {
    pub node: String,
    pub trace_dropped: u64,
    pub counters: std::collections::BTreeMap<String, u64>,
    pub gauges: std::collections::BTreeMap<String, u64>,
    pub histograms: std::collections::BTreeMap<String, HistogramReport>,
}

fn digest_histograms(
    hists: std::collections::BTreeMap<String, kcache::obs::HistogramSnapshot>,
) -> std::collections::BTreeMap<String, HistogramReport> {
    hists
        .into_iter()
        .map(|(n, h)| {
            let mean = if h.count > 0 { h.sum as f64 / h.count as f64 } else { 0.0 };
            let r = HistogramReport {
                count: h.count,
                sum: h.sum,
                mean,
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
            };
            (n, r)
        })
        .collect()
}

/// The `telemetry` section of experiment JSON output: the cluster-rollup
/// counters/gauges, histogram digests with p50/p95/p99, the
/// fetch-latency SLO line, trace-drop bookkeeping, and the per-node
/// breakdown. Full snapshots and the raw trace stay behind
/// `--metrics-out`/`--trace-out` — this section is the glanceable slice.
#[derive(Debug, Clone, Serialize)]
pub struct TelemetryReport {
    /// Trace events dropped on ring overflow, summed over every node's
    /// ring (0 = the rings kept up).
    pub trace_dropped: u64,
    /// Cluster rollup: counters and histograms sum across nodes; a
    /// gauge holds the last write, so per-node gauges live in `nodes`.
    pub counters: std::collections::BTreeMap<String, u64>,
    pub gauges: std::collections::BTreeMap<String, u64>,
    pub histograms: std::collections::BTreeMap<String, HistogramReport>,
    /// Fetch-latency percentiles vs the SLO target (caching runs with
    /// traffic only).
    pub slo: Vec<SloClassSummary>,
    /// Per-node breakdown, node order.
    pub nodes: Vec<NodeTelemetryReport>,
}

impl TelemetryReport {
    /// Digest a finished run's telemetry plane: cluster rollup, SLO
    /// lines and the node breakdown. `None` when the run had telemetry
    /// off.
    pub fn from_run(r: &crate::experiment::ExperimentResult) -> Option<TelemetryReport> {
        let cluster = r.obs.as_ref()?;
        let rollup = cluster.rollup();
        let nodes = cluster
            .hubs()
            .map(|(name, hub)| {
                let snap = hub.snapshot();
                NodeTelemetryReport {
                    node: name.to_string(),
                    trace_dropped: hub.trace_dropped(),
                    counters: snap.counters,
                    gauges: snap.gauges,
                    histograms: digest_histograms(snap.histograms),
                }
            })
            .collect();
        Some(TelemetryReport {
            trace_dropped: cluster.trace_dropped(),
            counters: rollup.counters,
            gauges: rollup.gauges,
            histograms: digest_histograms(rollup.histograms),
            slo: r.slo.clone().unwrap_or_default(),
            nodes,
        })
    }
}

/// Cache-efficiency summary of one caching run: the replacement policy and
/// partitioning mode in effect, the hit/miss/eviction ledger, and the
/// per-application breakdown, serialized into experiment JSON output so
/// runs report cache behavior, not just makespan.
#[derive(Debug, Clone, Serialize)]
pub struct CacheEfficiency {
    pub policy: String,
    /// Frame-quota mode: "shared", "strict", or "soft".
    pub partitioning: String,
    pub hit_ratio: f64,
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions_clean: u64,
    pub evictions_dirty: u64,
    pub eviction_scans: u64,
    pub writes_absorbed: u64,
    pub writes_passthrough: u64,
    pub invalidated: u64,
    /// Per-application occupancy and hit ratios (ascending by app id).
    pub apps: Vec<AppCacheUsage>,
    /// Meta-policy observability (adaptive runs only).
    pub adaptive: Option<AdaptiveReport>,
}

impl CacheEfficiency {
    /// Extract the summary from a finished run (`None` for uncached runs).
    pub fn from_run(r: &ExperimentResult) -> Option<CacheEfficiency> {
        let cache = r.cache.as_ref()?;
        let policy = r.policy.clone()?;
        let ps = r.policy_stats.as_ref().copied().unwrap_or_default();
        Some(CacheEfficiency {
            policy,
            partitioning: r.partitioning.clone().unwrap_or_else(|| "shared".into()),
            hit_ratio: r.hit_ratio().unwrap_or(0.0),
            hits: ps.hits,
            misses: ps.misses,
            inserts: ps.inserts,
            evictions_clean: ps.evictions_clean,
            evictions_dirty: ps.evictions_dirty,
            eviction_scans: ps.scans,
            writes_absorbed: cache.writes_absorbed,
            writes_passthrough: cache.writes_passthrough,
            invalidated: cache.invalidated,
            apps: r.app_usage.clone().unwrap_or_default(),
            adaptive: r.adaptive.as_ref().map(AdaptiveReport::from_stats),
        })
    }
}

/// One regenerated figure (or subplot): x values against named series.
#[derive(Debug, Clone, Serialize)]
pub struct FigureData {
    /// e.g. "fig6a"
    pub id: String,
    pub title: String,
    pub x_label: String,
    pub y_label: String,
    pub series: Vec<String>,
    pub rows: Vec<FigRow>,
}

#[derive(Debug, Clone, Serialize)]
pub struct FigRow {
    pub x: f64,
    pub y: Vec<f64>,
}

impl FigureData {
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
        series: Vec<String>,
    ) -> FigureData {
        FigureData {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series,
            rows: Vec::new(),
        }
    }

    pub fn push(&mut self, x: f64, y: Vec<f64>) {
        assert_eq!(y.len(), self.series.len(), "row width mismatch in {}", self.id);
        self.rows.push(FigRow { x, y });
    }

    /// Column of values for one series.
    pub fn column(&self, series: &str) -> Option<Vec<f64>> {
        let i = self.series.iter().position(|s| s == series)?;
        Some(self.rows.iter().map(|r| r.y[i]).collect())
    }

    /// Render as a GitHub-markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}", self.id, self.title);
        let _ = writeln!(out);
        let _ = write!(out, "| {} |", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {} |", s);
        }
        let _ = writeln!(out);
        let _ = write!(out, "|---|");
        for _ in &self.series {
            let _ = write!(out, "---|");
        }
        let _ = writeln!(out);
        for r in &self.rows {
            let _ = write!(out, "| {} |", format_x(r.x));
            for v in &r.y {
                let _ = write!(out, " {:.6} |", v);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV (x, then one column per series). A label holding a
    /// comma or a quote is quoted (RFC 4180).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}", csv_field(&self.x_label));
        for s in &self.series {
            let _ = write!(out, ",{}", csv_field(s));
        }
        let _ = writeln!(out);
        for r in &self.rows {
            let _ = write!(out, "{}", r.x);
            for v in &r.y {
                let _ = write!(out, ",{}", v);
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// `field` as one CSV field: quoted, its quotes doubled, when it holds a
/// comma, a quote or a line break; as it is otherwise.
fn csv_field(field: &str) -> std::borrow::Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\"")).into()
    } else {
        field.into()
    }
}

fn format_x(x: f64) -> String {
    let v = x as u64;
    if v >= 1 << 20 && v.is_multiple_of(1 << 20) {
        format!("{}M", v >> 20)
    } else if v >= 1024 && v.is_multiple_of(1024) {
        format!("{}K", v >> 10)
    } else {
        format!("{}", v)
    }
}

/// Write each figure as `<id>.csv` and `<id>.json` plus a combined
/// `figures.md` under `dir`.
pub fn write_outputs(dir: &Path, figs: &[FigureData]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut md = String::new();
    for f in figs {
        std::fs::write(dir.join(format!("{}.csv", f.id)), f.to_csv())?;
        std::fs::write(
            dir.join(format!("{}.json", f.id)),
            serde_json::to_string_pretty(f).expect("figure serialization"),
        )?;
        md.push_str(&f.to_markdown());
        md.push('\n');
    }
    std::fs::write(dir.join("figures.md"), md)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> FigureData {
        let mut f =
            FigureData::new("t1", "test figure", "size", "seconds", vec!["a".into(), "b".into()]);
        f.push(1024.0, vec![0.5, 0.25]);
        f.push(1048576.0, vec![1.5, 1.25]);
        f
    }

    #[test]
    fn markdown_contains_all_cells() {
        let md = fig().to_markdown();
        assert!(md.contains("| size | a | b |"));
        assert!(md.contains("| 1K | 0.500000 | 0.250000 |"));
        assert!(md.contains("| 1M | 1.500000 | 1.250000 |"));
    }

    #[test]
    fn csv_round_trip_shape() {
        let csv = fig().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "size,a,b");
        assert!(lines[1].starts_with("1024,"));
    }

    #[test]
    fn csv_quotes_a_label_with_a_comma_or_a_quote() {
        let mut f = FigureData::new(
            "t2",
            "labels",
            "quota (app 0, app 1)",
            "ratio",
            vec!["plain".into(), "say \"hi\"".into()],
        );
        f.push(1.0, vec![0.5, 0.25]);
        let csv = f.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines, ["\"quota (app 0, app 1)\",plain,\"say \"\"hi\"\"\"", "1,0.5,0.25"]);
    }

    #[test]
    fn column_extraction() {
        let f = fig();
        assert_eq!(f.column("a").unwrap(), vec![0.5, 1.5]);
        assert_eq!(f.column("b").unwrap(), vec![0.25, 1.25]);
        assert!(f.column("zzz").is_none());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut f = fig();
        f.push(1.0, vec![0.0]);
    }
}
