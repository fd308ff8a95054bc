//! The benchmark's whole footprint on the program's public API.
//!
//! Every call into the workspace crates is made from this module's three
//! files; the rest of the benchmark sees only the plain types defined
//! here. A change that renames or removes one of the items used here
//! breaks the benchmark, so it has to come after a benchmark change. The
//! full list is in README.md ("API footprint").
//!
//! * [`sim`] — a whole simulated experiment: config → spec → run → every
//!   layer's counters.
//! * [`manager`] — the buffer manager driven directly by real threads.
//! * [`substrate`] — engine, fabric, disk, striping and telemetry
//!   primitives driven alone, for the per-layer host-time micro-loops.

pub mod manager;
pub mod sim;
pub mod substrate;
