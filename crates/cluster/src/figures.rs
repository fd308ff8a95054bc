//! Per-figure experiment drivers: one function per figure of the paper's
//! evaluation (§4.2), each regenerating the same series the paper plots,
//! and the one harness every figure and ablation runs on.
//!
//! A figure is declared, not run: a [`Figure`] names its id, title, axis
//! labels and x values, and lists its series, each a name and the
//! [`Point`] (cache config or none, optional fabric, the apps) it plots at
//! an x. [`run_figures`] runs every point of every figure it is given in
//! one [`parallel_map`] at [`Grid::seed`], checks that each run completed
//! with no verify failure, applies the figure's [`Measure`] and fills the
//! table row by row. So a new figure is a declaration:
//!
//! ```no_run
//! use cluster_harness::figures::{by_cache, Figure, Grid};
//! use kcache::CacheConfig;
//! use workload::Mode;
//!
//! let grid = Grid::smoke();
//! let apps = |d: f64| vec![grid.instance("app0", d as u32, 4, Mode::Read, 0.5, 0.0)];
//! let caches = [("caching", Some(CacheConfig::paper())), ("no caching", None)];
//! let table = Figure::makespan_vs_d(&grid, "id", "title", by_cache(apps, caches)).run(&grid);
//! ```
//!
//! [`Figure::makespan_vs_d`] is the common shape (total time against the
//! grid's request sizes); other axes and measures override its fields by
//! struct update.

use crate::builder::ClusterSpec;
use crate::experiment::{run_experiment, ExperimentResult};
use crate::report::FigureData;
use crate::sweep::parallel_map;
use kcache::CacheConfig;
use sim_core::Dur;
use sim_net::{NetConfig, NodeId};
use workload::{AppSpec, Mode};

/// Sweep resolution and sizing shared by all figures.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Application-level request sizes `d` (the x axis of every figure).
    pub d_values: Vec<u32>,
    /// Total bytes moved per instance (constant across the sweep, §4.2.3).
    pub total_bytes: u64,
    /// Logical size of each file.
    pub file_size: u64,
    pub seed: u64,
}

impl Grid {
    /// Small grid for CI / Criterion: a few d points, 2 MB per instance.
    pub fn quick() -> Grid {
        Grid {
            d_values: vec![1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20],
            total_bytes: 2 << 20,
            file_size: 8 << 20,
            seed: 42,
        }
    }

    /// Full grid matching the paper's x-axis density (1 KB .. 1 MB).
    pub fn full() -> Grid {
        Grid {
            d_values: vec![
                1 << 10,
                2 << 10,
                4 << 10,
                8 << 10,
                16 << 10,
                32 << 10,
                64 << 10,
                128 << 10,
                256 << 10,
                512 << 10,
                1 << 20,
            ],
            total_bytes: 6 << 20,
            file_size: 16 << 20,
            seed: 42,
        }
    }

    /// Tiny grid for smoke tests.
    pub fn smoke() -> Grid {
        Grid {
            d_values: vec![4 << 10, 256 << 10],
            total_bytes: 512 << 10,
            file_size: 4 << 20,
            seed: 42,
        }
    }

    /// The request size of the ablations that fix `d`: the grid's first
    /// of at least 64 KB, else its first.
    pub fn ablation_d(&self) -> u32 {
        *self.d_values.iter().find(|&&d| d >= 64 << 10).unwrap_or(&self.d_values[0])
    }

    /// An instance on nodes `0..p` moving the grid's bytes of the shared
    /// file, one request at least, with no hot spot and no phases.
    pub fn instance(&self, name: &str, d: u32, p: u16, mode: Mode, l: f64, s: f64) -> AppSpec {
        AppSpec {
            name: name.into(),
            nodes: (0..p).map(NodeId).collect(),
            total_bytes: self.total_bytes,
            request_size: d,
            mode,
            locality: l,
            sharing: s,
            hotspot: 0.0,
            shared_file: "shared".into(),
            file_size: self.file_size,
            start_delay: Dur::ZERO,
            min_requests: 1,
            phases: Vec::new(),
        }
    }
}

/// `a`, then a copy of it named `appB`: two instances of one spec.
pub fn pair(a: AppSpec) -> Vec<AppSpec> {
    let b = AppSpec { name: "appB".into(), ..a.clone() };
    vec![a, b]
}

/// One run a figure plots.
#[derive(Debug, Clone)]
pub struct Point {
    /// `None` runs the uncached baseline.
    pub cache: Option<CacheConfig>,
    /// `None` runs the paper's fabric.
    pub net: Option<NetConfig>,
    pub apps: Vec<AppSpec>,
}

impl Point {
    pub fn new(cache: Option<CacheConfig>, apps: Vec<AppSpec>) -> Point {
        Point { cache, net: None, apps }
    }
}

/// What a figure reads off its runs.
#[derive(Debug, Clone, Copy)]
pub enum Measure {
    /// One run per (x, series), one value each.
    Each(fn(&ExperimentResult) -> f64),
    /// One run per series (its point at the first x), whose values are
    /// the series' column, one per x.
    Column(fn(&ExperimentResult) -> Vec<f64>),
}

/// A series: its name and the point it plots at each x.
pub type Series<'a> = (String, Box<dyn Fn(f64) -> Point + 'a>);

/// The series `name` that plots `at(x)` at each x.
pub fn series<'a>(name: impl Into<String>, at: impl Fn(f64) -> Point + 'a) -> Series<'a> {
    (name.into(), Box::new(at))
}

/// One series per cache config (`None`: no caching), all over the same
/// apps at each x.
pub fn by_cache<'a, N: Into<String>>(
    apps: impl Fn(f64) -> Vec<AppSpec> + Copy + 'a,
    caches: impl IntoIterator<Item = (N, Option<CacheConfig>)>,
) -> Vec<Series<'a>> {
    caches
        .into_iter()
        .map(|(name, cache)| series(name, move |x| Point::new(cache.clone(), apps(x))))
        .collect()
}

/// A declared figure: its table's labels, x values and series, and what
/// it reads off each run.
pub struct Figure<'a> {
    pub id: String,
    pub title: String,
    pub x_label: &'static str,
    pub y_label: &'static str,
    pub xs: Vec<f64>,
    pub series: Vec<Series<'a>>,
    pub measure: Measure,
}

impl<'a> Figure<'a> {
    /// Mean instance completion time against the grid's request sizes.
    pub fn makespan_vs_d(
        grid: &Grid,
        id: impl Into<String>,
        title: impl Into<String>,
        series: Vec<Series<'a>>,
    ) -> Figure<'a> {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: "request size d (bytes)",
            y_label: "total time (s)",
            xs: grid.d_values.iter().map(|&d| d as f64).collect(),
            series,
            measure: Measure::Each(ExperimentResult::mean_makespan_s),
        }
    }

    pub fn run(self, grid: &Grid) -> FigureData {
        run_figures(grid, vec![self]).remove(0)
    }
}

/// Run every point of `figs` in one sweep at `grid.seed` and tabulate them.
/// Panics if a run stops at the horizon or reads wrong bytes.
pub fn run_figures(grid: &Grid, figs: Vec<Figure>) -> Vec<FigureData> {
    let mut points = Vec::new();
    for f in &figs {
        let xs = match f.measure {
            Measure::Each(_) => &f.xs[..],
            Measure::Column(_) => &f.xs[..1],
        };
        for &x in xs {
            for (name, at) in &f.series {
                points.push((format!("{} \"{name}\" at x = {x}", f.id), at(x), f.measure));
            }
        }
    }
    let mut vals = parallel_map(points, |(label, p, measure)| {
        let mut spec = ClusterSpec::paper(p.cache.clone());
        if let Some(net) = &p.net {
            spec.net = net.clone();
        }
        spec.seed = grid.seed;
        let r = run_experiment(&spec, &p.apps);
        assert!(
            r.completed && r.total_verify_failures() == 0,
            "{label}: completed = {}, verify failures = {}",
            r.completed,
            r.total_verify_failures()
        );
        match measure {
            Measure::Each(m) => vec![m(&r)],
            Measure::Column(m) => m(&r),
        }
    })
    .into_iter();
    figs.into_iter()
        .map(|f| {
            let names = f.series.iter().map(|(name, _)| name.clone()).collect();
            let mut fig = FigureData::new(f.id, f.title, f.x_label, f.y_label, names);
            let n = f.series.len();
            let rows: Vec<Vec<f64>> = match f.measure {
                Measure::Each(_) => {
                    f.xs.iter().map(|_| vals.by_ref().take(n).flatten().collect()).collect()
                }
                Measure::Column(_) => {
                    let cols: Vec<Vec<f64>> = vals.by_ref().take(n).collect();
                    (0..f.xs.len()).map(|i| cols.iter().map(|c| c[i]).collect()).collect()
                }
            };
            for (&x, row) in f.xs.iter().zip(rows) {
                fig.push(x, row);
            }
            fig
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 4 and 5: one instance, p = 4
// ---------------------------------------------------------------------

/// Figures 4(a) and 4(b): per-request read and write time vs `d` with no
/// locality — the worst case for the caching version.
pub fn fig4(grid: &Grid) -> Vec<FigureData> {
    fig45(grid, 0.0, "fig4", "caching overhead (l=0)", &grid.d_values)
}

/// Figures 5(a) and 5(b): same sweep with perfect locality. The paper only
/// plots d up to ~100 KB here ("an individual request size cannot exceed
/// the cache size"): filter the sweep accordingly.
pub fn fig5(grid: &Grid) -> Vec<FigureData> {
    let ds: Vec<u32> = grid.d_values.iter().copied().filter(|d| *d <= 256 << 10).collect();
    fig45(grid, 1.0, "fig5", "locality benefit (l=1)", &ds)
}

fn fig45(grid: &Grid, l: f64, id: &str, title: &str, ds: &[u32]) -> Vec<FigureData> {
    let sub = |sub: &str, mode: Mode, measure: fn(&ExperimentResult) -> f64| {
        // Per-request latency figures need steady state, not cold start.
        let apps = move |d: f64| {
            vec![AppSpec { min_requests: 32, ..grid.instance("app0", d as u32, 4, mode, l, 0.0) }]
        };
        Figure {
            y_label: "time per request (s)",
            xs: ds.iter().map(|&d| d as f64).collect(),
            measure: Measure::Each(measure),
            ..Figure::makespan_vs_d(
                grid,
                format!("{id}{sub}"),
                format!("{title} — {mode:?}s, p=4"),
                by_cache(apps, [("caching", Some(CacheConfig::paper())), ("no caching", None)]),
            )
        }
    };
    run_figures(
        grid,
        vec![
            sub("a", Mode::Read, ExperimentResult::mean_read_latency_s),
            sub("b", Mode::Write, ExperimentResult::mean_write_latency_s),
        ],
    )
}

// ---------------------------------------------------------------------
// Figures 6-8: two instances sharing data
// ---------------------------------------------------------------------

/// Figure 6: two instances on the same p=4 nodes, reads, l ∈ {0, .5, 1},
/// sharing ∈ {25, 50, 75, 100}%.
pub fn fig6(grid: &Grid) -> Vec<FigureData> {
    sharing_figure(grid, 4, "fig6", "two instances, reads, p=4", false)
}

/// Figure 7: same as Figure 6 with p = 2.
pub fn fig7(grid: &Grid) -> Vec<FigureData> {
    sharing_figure(grid, 2, "fig7", "two instances, reads, p=2", false)
}

/// Figure 8: can caching compensate for loss of parallelism? Two instances
/// either co-located on 3 nodes (with/without caching) or spread over 6
/// distinct nodes (without caching).
pub fn fig8(grid: &Grid) -> Vec<FigureData> {
    let title = "caching vs parallelism, two instances on 3 vs 6 nodes";
    sharing_figure(grid, 3, "fig8", title, true)
}

const SHARINGS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const LOCALITIES: [(char, f64); 3] = [('a', 0.0), ('b', 0.5), ('c', 1.0)];

/// Two read instances on nodes `0..p`, one figure per locality: caching
/// at each sharing degree, and no caching. `spread` adds no caching with
/// the second instance on `p` more nodes (and names the series so).
fn sharing_figure(grid: &Grid, p: u16, id: &str, title: &str, spread: bool) -> Vec<FigureData> {
    let (caching, plain) = if spread { (" (3 nodes)", " (same 3 nodes)") } else { ("", "") };
    let figs = LOCALITIES.map(|(sub, l)| {
        // Instance B runs on nodes `base..base + p`.
        let two = move |cache: Option<CacheConfig>, s: f64, base: u16| {
            move |d: f64| {
                let mut apps = pair(grid.instance("appA", d as u32, p, Mode::Read, l, s));
                apps[1].nodes = (base..base + p).map(NodeId).collect();
                Point::new(cache.clone(), apps)
            }
        };
        let mut lines: Vec<Series> = SHARINGS
            .iter()
            .map(|&s| {
                let name = format!("caching {}%{caching}", s * 100.0);
                series(name, two(Some(CacheConfig::paper()), s, 0))
            })
            .collect();
        // The no-caching version issues network requests regardless of s:
        // one line (run at s = 25%).
        lines.push(series(format!("no caching{plain}"), two(None, 0.25, 0)));
        if spread {
            lines.push(series("no caching (6 distinct nodes)", two(None, 0.25, p)));
        }
        Figure::makespan_vs_d(grid, format!("{id}{sub}"), format!("{title}, l={l}"), lines)
    });
    run_figures(grid, figs.into())
}

/// Run every figure of the paper.
pub fn all_figures(grid: &Grid) -> Vec<FigureData> {
    let mut out = Vec::new();
    out.extend(fig4(grid));
    out.extend(fig5(grid));
    out.extend(fig6(grid));
    out.extend(fig7(grid));
    out.extend(fig8(grid));
    out
}
