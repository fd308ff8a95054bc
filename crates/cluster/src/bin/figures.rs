//! Regenerate the paper's figures (and the ablations) from the command
//! line.
//!
//! ```text
//! cargo run --release -p cluster-harness --bin figures -- \
//!     [--fig 4|5|6|7|8|all|ablations|policy|policy-grid|partition|adaptive] \
//!     [--quick|--full|--smoke] [--out results/] [--seed N]
//! ```

use cluster_harness::figures::{all_figures, fig4, fig5, fig6, fig7, fig8, Grid};
use cluster_harness::report::{write_outputs, FigureData};
use std::path::PathBuf;

fn main() {
    let mut fig = "all".to_string();
    let mut grid = Grid::quick();
    let mut out = PathBuf::from("results");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--fig" => fig = args.next().expect("--fig needs a value"),
            "--quick" => grid = Grid::quick(),
            "--full" => grid = Grid::full(),
            "--smoke" => grid = Grid::smoke(),
            "--out" => out = PathBuf::from(args.next().expect("--out needs a value")),
            "--seed" => {
                grid.seed = args.next().expect("--seed needs a value").parse().expect("seed")
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: figures [--fig 4|5|6|7|8|all|ablations|policy|policy-grid|partition|adaptive] [--quick|--full|--smoke] [--out DIR] [--seed N]");
                std::process::exit(2);
            }
        }
    }

    let t0 = std::time::Instant::now();
    let figs: Vec<FigureData> = match fig.as_str() {
        "4" => fig4(&grid),
        "5" => fig5(&grid),
        "6" => fig6(&grid),
        "7" => fig7(&grid),
        "8" => fig8(&grid),
        "ablations" => cluster_harness::ablations::all_ablations(&grid),
        "policy" => vec![cluster_harness::ablations::ablation_policy_comparison(&grid)],
        "policy-grid" => cluster_harness::ablations::ablation_policy_grid(&grid),
        "partition" => vec![cluster_harness::ablations::ablation_partitioning(&grid)],
        "adaptive" => cluster_harness::ablations::ablation_adaptive(&grid),
        "all" => {
            let mut f = all_figures(&grid);
            f.extend(cluster_harness::ablations::all_ablations(&grid));
            f
        }
        other => {
            eprintln!("unknown figure: {other}");
            std::process::exit(2);
        }
    };
    for f in &figs {
        println!("{}", f.to_markdown());
    }
    write_outputs(&out, &figs).expect("writing outputs");
    eprintln!(
        "regenerated {} figure table(s) in {:.1}s -> {}",
        figs.len(),
        t0.elapsed().as_secs_f64(),
        out.display()
    );
}
