//! One bench per paper figure: each runs the corresponding experiment
//! driver on the smoke grid and reports host time per full figure
//! regeneration. The figure *data* itself is produced by
//! `cargo run --release -p cluster-harness --bin figures -- --out DIR`
//! (markdown, CSV and JSON per figure; nothing is committed); these
//! benches keep regeneration cost visible and the drivers exercised under
//! `cargo bench`. DESIGN.md, "Where the host time goes", says what that
//! cost is made of.

use cluster_harness::figures::{fig4, fig5, fig6, fig7, fig8, Grid};
use criterion::{criterion_group, criterion_main, Criterion};

fn grid() -> Grid {
    Grid::smoke()
}

fn bench_fig4_overhead(c: &mut Criterion) {
    c.bench_function("fig4_overhead", |b| {
        b.iter(|| {
            let figs = fig4(&grid());
            assert_eq!(figs.len(), 2);
            figs
        })
    });
}

fn bench_fig5_locality(c: &mut Criterion) {
    c.bench_function("fig5_locality", |b| {
        b.iter(|| {
            let figs = fig5(&grid());
            assert_eq!(figs.len(), 2);
            figs
        })
    });
}

fn bench_fig6_sharing_p4(c: &mut Criterion) {
    c.bench_function("fig6_sharing_p4", |b| {
        b.iter(|| {
            let figs = fig6(&grid());
            assert_eq!(figs.len(), 3);
            figs
        })
    });
}

fn bench_fig7_sharing_p2(c: &mut Criterion) {
    c.bench_function("fig7_sharing_p2", |b| {
        b.iter(|| {
            let figs = fig7(&grid());
            assert_eq!(figs.len(), 3);
            figs
        })
    });
}

fn bench_fig8_parallelism(c: &mut Criterion) {
    c.bench_function("fig8_parallelism", |b| {
        b.iter(|| {
            let figs = fig8(&grid());
            assert_eq!(figs.len(), 3);
            figs
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(8));
    targets = bench_fig4_overhead, bench_fig5_locality, bench_fig6_sharing_p4,
              bench_fig7_sharing_p2, bench_fig8_parallelism
}
criterion_main!(benches);
