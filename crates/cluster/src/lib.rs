//! # cluster-harness — assembly and experiment harness
//!
//! Builds complete simulated clusters (nodes, hub, disks, iods, mgr,
//! optional cache modules, application processes), runs experiments, and
//! regenerates every figure of the paper's evaluation plus ablations of its
//! design decisions.
//!
//! * [`builder`] — cluster wiring ([`ClusterSpec`], [`build`]).
//! * [`config`] — the JSON experiment-config surface (serde).
//! * [`experiment`] — one-shot runs with full metric extraction.
//! * [`figures`] — Figure 4-8 drivers ([`figures::all_figures`]).
//! * [`ablations`] — design-choice ablations ([`ablations::all_ablations`]).
//! * [`report`] — markdown/CSV/JSON rendering of figure data.
//! * [`sweep`] — order-preserving parallel sweep execution.

pub mod ablations;
pub mod builder;
pub mod config;
pub mod experiment;
pub mod figures;
pub mod report;
pub mod sweep;

pub use builder::{build, Cluster, ClusterSpec};
pub use config::ExperimentConfig;
pub use experiment::{
    run_experiment, run_experiment_profiled, AppCacheUsage, ExperimentResult, InstanceResult,
    SloClassSummary,
};
pub use figures::{all_figures, fig4, fig5, fig6, fig7, fig8, Grid};
pub use report::{
    write_outputs, AppEfficiency, CacheEfficiency, FigRow, FigureData, NodeTelemetryReport,
    SloReport, TelemetryReport,
};
pub use sweep::parallel_map;
