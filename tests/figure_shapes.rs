//! Shape tests: pin the *qualitative* claims of every figure in the
//! paper's evaluation on a reduced grid, so a regression that flips a
//! conclusion fails CI even though absolute numbers are free to move.

use cluster_harness::figures::{fig4, fig5, fig6, fig7, fig8, Grid};

fn grid() -> Grid {
    Grid::smoke()
}

#[test]
fn fig4a_read_overhead_is_small() {
    let figs = fig4(&grid());
    let f = &figs[0];
    let caching = f.column("caching").unwrap();
    let plain = f.column("no caching").unwrap();
    for (i, (&c, &p)) in caching.iter().zip(plain.iter()).enumerate() {
        assert!(c < p * 1.35, "fig4a row {}: caching read overhead too large ({} vs {})", i, c, p);
    }
}

#[test]
fn fig4b_writes_win_and_converge() {
    // Saturating the 1.2 MB cache needs enough written data at the largest
    // d: with min_requests=32, d=1M writes 32 MB per instance.
    let g = Grid {
        d_values: vec![16 << 10, 64 << 10, 1 << 20],
        total_bytes: 1 << 20,
        file_size: 8 << 20,
        seed: 42,
    };
    let figs = fig4(&g);
    let f = &figs[1];
    let caching = f.column("caching").unwrap();
    let plain = f.column("no caching").unwrap();
    // Small writes: write-behind wins.
    assert!(
        caching[0] < plain[0],
        "small writes should benefit from write-behind: {} vs {}",
        caching[0],
        plain[0]
    );
    // Large writes: the cache saturates with dirty data awaiting drain and
    // the gap narrows from its peak (the paper's "writes may need to block
    // for availability of cache space").
    let gaps: Vec<f64> = caching.iter().zip(plain.iter()).map(|(c, p)| p / c).collect();
    let peak = gaps[..gaps.len() - 1].iter().cloned().fold(0.0, f64::max);
    let last = *gaps.last().unwrap();
    assert!(
        last < peak,
        "write-behind gap should shrink once the cache saturates: gaps {:?}",
        gaps
    );
}

#[test]
fn fig5_locality_benefit_grows_with_request_size() {
    let figs = fig5(&grid());
    for f in &figs {
        let caching = f.column("caching").unwrap();
        let plain = f.column("no caching").unwrap();
        let last = caching.len() - 1;
        assert!(
            caching[last] < plain[last] * 0.75,
            "{}: l=1 caching should clearly win at the largest size ({} vs {})",
            f.id,
            caching[last],
            plain[last]
        );
        let first_ratio = plain[0] / caching[0];
        let last_ratio = plain[last] / caching[last];
        assert!(
            last_ratio >= first_ratio * 0.9,
            "{}: benefit should grow (or hold) with request size: {}x -> {}x",
            f.id,
            first_ratio,
            last_ratio
        );
    }
}

#[test]
fn fig6_sharing_beats_no_caching_even_without_locality() {
    let figs = fig6(&grid());
    // Subplot (a): l = 0.
    let f = &figs[0];
    let plain = f.column("no caching").unwrap();
    let c100 = f.column("caching 100%").unwrap();
    let last = plain.len() - 1;
    assert!(
        c100[last] < plain[last],
        "fig6a: full sharing should beat no caching at the largest d ({} vs {})",
        c100[last],
        plain[last]
    );
    // Subplot (c): l = 1 — caching must win everywhere.
    let f = &figs[2];
    let plain = f.column("no caching").unwrap();
    for series in ["caching 25%", "caching 100%"] {
        let c = f.column(series).unwrap();
        for i in 0..c.len() {
            assert!(
                c[i] < plain[i] * 1.05,
                "fig6c row {i}: {series} should not lose to no caching ({} vs {})",
                c[i],
                plain[i]
            );
        }
    }
}

#[test]
fn fig6_more_sharing_helps_at_large_requests() {
    let figs = fig6(&grid());
    let f = &figs[0]; // l = 0: the inter-application effect in isolation
    let c25 = f.column("caching 25%").unwrap();
    let c100 = f.column("caching 100%").unwrap();
    let last = c25.len() - 1;
    assert!(
        c100[last] < c25[last],
        "fig6a: 100% sharing should beat 25% at the largest d ({} vs {})",
        c100[last],
        c25[last]
    );
}

/// Figure 7 is figure 6 on two nodes per instance. What holds there on the
/// smoke grid is the large-request end; fig6c's "caching never loses by 5 %"
/// does not — at p = 2 and 4 KB requests the cache's per-call overhead shows
/// (0.504 s against 0.471 s at seed 42).
#[test]
fn fig7_sharing_pays_at_large_requests_on_two_nodes() {
    let figs = fig7(&grid());
    let f = &figs[0]; // l = 0
    let plain = f.column("no caching").unwrap();
    let c25 = f.column("caching 25%").unwrap();
    let c100 = f.column("caching 100%").unwrap();
    let last = plain.len() - 1;
    assert!(
        c100[last] < plain[last],
        "fig7a: full sharing should beat no caching at the largest d ({} vs {})",
        c100[last],
        plain[last]
    );
    assert!(
        c100[last] < c25[last],
        "fig7a: 100% sharing should beat 25% at the largest d ({} vs {})",
        c100[last],
        c25[last]
    );
    let f = &figs[2]; // l = 1
    let plain = f.column("no caching").unwrap();
    for series in ["caching 25%", "caching 100%"] {
        let c = f.column(series).unwrap();
        assert!(
            c[last] < plain[last],
            "fig7c: {series} should beat no caching at the largest d ({} vs {})",
            c[last],
            plain[last]
        );
    }
}

#[test]
fn fig8_parallelism_wins_without_locality_but_caching_wins_with_it() {
    let figs = fig8(&grid());
    // (a) l = 0, low sharing: running on 6 distinct nodes must beat
    // co-located caching at the smallest request size (overhead-bound,
    // no locality to exploit).
    let f = &figs[0];
    let disjoint = f.column("no caching (6 distinct nodes)").unwrap();
    let c25 = f.column("caching 25% (3 nodes)").unwrap();
    assert!(
        disjoint[0] < c25[0],
        "fig8a: parallelism should win at l=0/s=25%/small d ({} vs {})",
        disjoint[0],
        c25[0]
    );
    // (c) l = 1: co-located caching must offset the lost parallelism at
    // the largest request size (the paper's scheduling headline).
    let f = &figs[2];
    let disjoint = f.column("no caching (6 distinct nodes)").unwrap();
    let c100 = f.column("caching 100% (3 nodes)").unwrap();
    let last = disjoint.len() - 1;
    assert!(
        c100[last] < disjoint[last],
        "fig8c: caching should beat extra parallelism at l=1 ({} vs {})",
        c100[last],
        disjoint[last]
    );
    // And caching co-located always beats no-caching co-located.
    let same = f.column("no caching (same 3 nodes)").unwrap();
    for i in 0..same.len() {
        assert!(
            c100[i] < same[i] * 1.05,
            "fig8c row {i}: caching must not lose to no-caching on the same nodes"
        );
    }
}
