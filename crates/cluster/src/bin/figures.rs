//! Regenerate the paper's figures (and the ablations) from the command
//! line.
//!
//! ```text
//! cargo run --release -p cluster-harness --bin figures -- \
//!     [--fig 4|5|6|7|8|all|ablations|policy|policy-grid|partition|adaptive] \
//!     [--quick|--full|--smoke] [--out results/] [--seed N]
//! ```

use cluster_harness::ablations::{
    ablation_adaptive, ablation_partitioning, ablation_policy_comparison, ablation_policy_grid,
    all_ablations,
};
use cluster_harness::figures::{all_figures, fig4, fig5, fig6, fig7, fig8, Grid};
use cluster_harness::report::{write_outputs, FigureData};
use std::path::PathBuf;

type Driver = fn(&Grid) -> Vec<FigureData>;

/// Every `--fig` name and the tables it regenerates.
const FIGS: &[(&str, Driver)] = &[
    ("4", fig4),
    ("5", fig5),
    ("6", fig6),
    ("7", fig7),
    ("8", fig8),
    ("all", |g| all_figures(g).into_iter().chain(all_ablations(g)).collect()),
    ("ablations", all_ablations),
    ("policy", |g| vec![ablation_policy_comparison(g)]),
    ("policy-grid", ablation_policy_grid),
    ("partition", |g| vec![ablation_partitioning(g)]),
    ("adaptive", ablation_adaptive),
];

fn usage() -> ! {
    let names: Vec<&str> = FIGS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: figures [--fig {}] [--quick|--full|--smoke] [--out DIR] [--seed N]",
        names.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut fig = "all".to_string();
    let mut grid = Grid::quick();
    let mut out = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fig" => fig = args.next().unwrap_or_else(|| usage()),
            "--quick" => grid = Grid::quick(),
            "--full" => grid = Grid::full(),
            "--smoke" => grid = Grid::smoke(),
            "--out" => out = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--seed" => {
                grid.seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }

    let t0 = std::time::Instant::now();
    let Some((_, driver)) = FIGS.iter().find(|(name, _)| *name == fig) else {
        eprintln!("unknown figure: {fig}");
        std::process::exit(2);
    };
    let figs = driver(&grid);
    for f in &figs {
        println!("{}", f.to_markdown());
    }
    if let Err(e) = write_outputs(&out, &figs) {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(2);
    }
    eprintln!(
        "regenerated {} figure table(s) in {:.1}s -> {}",
        figs.len(),
        t0.elapsed().as_secs_f64(),
        out.display()
    );
}
