//! A gate for "no decision moved": every config in `tests/golden/configs/`
//! runs through the built `experiment` binary at two seeds, and each run is
//! fingerprinted against `tests/golden/outputs.txt`.
//!
//! The configs are the ones CI's `experiment` steps run (CI reads the same
//! files) plus the benchmark's three simulated rows as perfbench generates
//! them at `Size::Smoke` with telemetry off (`coop_adaptive_cold` runs warm
//! here: its cold start is not part of the JSON). `horizon.json` is left
//! out: it runs 3600 simulated seconds and CI pins what it prints.
//!
//! One line per run: config, seed, an FNV-1a hash of stdout with the
//! `"events"` line removed, then `events`, `simulated_seconds` and
//! `cache_hit_ratio`. A change that only removes engine events moves only
//! the `events` column; any decision that moves changes the hash.
//!
//! The figures get the same treatment in `tests/golden/figures.txt`: the
//! built `figures` binary regenerates `--fig all` and `--fig policy-grid`
//! on the smoke grid, and each table is one line: its id, then FNV-1a
//! hashes of its CSV and of its JSON. Every line of every regenerated CSV
//! must also have as many fields as its header.
//!
//! A change meant to move a decision rewrites the files in the same diff,
//! `GOLDEN_BLESS=1 cargo test -p cluster-harness --test golden_outputs`,
//! and says why.

use std::path::{Path, PathBuf};
use std::process::Command;

const SEEDS: [u64; 2] = [42, 20_261_017];
const NOT_RUN: &[&str] = &["horizon"];
const HEADER: &str =
    "# config seed fnv1a64(stdout without \"events\") events simulated_seconds cache_hit_ratio";

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// `config` with its one `"seed"` value replaced by `seed`.
fn with_seed(config: &str, seed: u64) -> String {
    let key = config.find("\"seed\"").expect("config names a seed");
    assert_eq!(config.matches("\"seed\"").count(), 1, "one seed per config");
    let after_key = key + "\"seed\"".len();
    let start = after_key
        + config[after_key..].find(|c: char| c.is_ascii_digit()).expect("seed has a value");
    let end = start + config[start..].find(|c: char| !c.is_ascii_digit()).expect("seed ends");
    format!("{}{seed}{}", &config[..start], &config[end..])
}

/// The value of a top-level summary line (`  "key": value,`), or `-`.
fn summary_value<'a>(stdout: &'a str, key: &str) -> &'a str {
    let prefix = format!("  \"{key}\": ");
    stdout.lines().find_map(|l| l.strip_prefix(&prefix)).map_or("-", |v| v.trim_end_matches(','))
}

fn fingerprint(name: &str, seed: u64, config: &str) -> String {
    let path = std::env::temp_dir().join(format!("clusterio-golden-{}.json", std::process::id()));
    std::fs::write(&path, with_seed(config, seed)).expect("write the config");
    let out = Command::new(env!("CARGO_BIN_EXE_experiment"))
        .arg(&path)
        .output()
        .expect("spawn experiment");
    std::fs::remove_file(&path).ok();
    assert!(
        out.status.success(),
        "{name} at seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let without_events: String = stdout
        .lines()
        .filter(|l| !l.starts_with("  \"events\": "))
        .map(|l| l.to_owned() + "\n")
        .collect();
    format!(
        "{name} {seed} {:016x} {} {} {}",
        fnv1a64(without_events.as_bytes()),
        summary_value(&stdout, "events"),
        summary_value(&stdout, "simulated_seconds"),
        summary_value(&stdout, "cache_hit_ratio"),
    )
}

/// Compare `got` with the blessed `file` under `tests/golden/`, or
/// rewrite it under `GOLDEN_BLESS`.
fn check_blessed(file: &str, got: &str) {
    let golden = golden_dir().join(file);
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(&golden, got).expect("write the blessed file");
        return;
    }
    let want = std::fs::read_to_string(&golden).unwrap_or_default();
    let moved: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  blessed {w}\n  now     {g}"))
        .collect();
    assert!(
        want == got,
        "{file}: fingerprints moved ({} blessed lines, {} now):\n{}\n\
         A change meant to move a decision re-blesses with GOLDEN_BLESS=1 and says why.",
        want.lines().count(),
        got.lines().count(),
        moved.join("\n")
    );
}

#[test]
fn outputs_match_the_blessed_fingerprints() {
    let dir = golden_dir();
    let mut configs: Vec<PathBuf> = std::fs::read_dir(dir.join("configs"))
        .expect("tests/golden/configs")
        .map(|e| e.expect("directory entry").path())
        .collect();
    configs.sort();
    let mut lines = vec![HEADER.to_owned()];
    for path in configs {
        let name = path.file_stem().and_then(|s| s.to_str()).expect("utf-8 name").to_owned();
        if NOT_RUN.contains(&name.as_str()) {
            continue;
        }
        let config = std::fs::read_to_string(&path).expect("read the config");
        lines.extend(SEEDS.iter().map(|&seed| fingerprint(&name, seed, &config)));
    }
    check_blessed("outputs.txt", &(lines.join("\n") + "\n"));
}

/// Fields on one CSV line: commas outside quoted fields, plus one.
fn csv_fields(line: &str) -> usize {
    let mut quoted = false;
    1 + line
        .chars()
        .filter(|&c| {
            quoted ^= c == '"';
            c == ',' && !quoted
        })
        .count()
}

/// One line per table `figures --smoke --fig <fig>` writes, in id order,
/// once each CSV is seen to have one field count on every line.
fn figure_fingerprints(fig: &str) -> Vec<String> {
    let out = std::env::temp_dir().join(format!("clusterio-figures-{}-{fig}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--smoke", "--fig", fig, "--out"])
        .arg(&out)
        .output()
        .expect("spawn figures");
    assert!(run.status.success(), "figures --fig {fig}: {}", String::from_utf8_lossy(&run.stderr));
    let mut ids: Vec<String> = std::fs::read_dir(&out)
        .expect("the figures' output directory")
        .filter_map(|e| {
            let name = e.expect("directory entry").file_name().into_string().expect("utf-8 name");
            name.strip_suffix(".csv").map(str::to_owned)
        })
        .collect();
    ids.sort();
    let lines = ids
        .iter()
        .map(|id| {
            let read = |ext: &str| std::fs::read(out.join(format!("{id}.{ext}"))).expect("table");
            let csv = read("csv");
            let text = std::str::from_utf8(&csv).expect("utf-8 CSV");
            let header = text.lines().next().map_or(0, csv_fields);
            for (n, line) in text.lines().enumerate() {
                assert_eq!(csv_fields(line), header, "{id}.csv line {}: {line}", n + 1);
            }
            format!("{id} {:016x} {:016x}", fnv1a64(&csv), fnv1a64(&read("json")))
        })
        .collect();
    std::fs::remove_dir_all(&out).ok();
    lines
}

#[test]
fn figures_match_the_blessed_fingerprints() {
    let mut lines =
        vec!["# figure fnv1a64(csv) fnv1a64(json); --smoke, --fig all then policy-grid".to_owned()];
    lines.extend(figure_fingerprints("all"));
    lines.extend(figure_fingerprints("policy-grid"));
    check_blessed("figures.txt", &(lines.join("\n") + "\n"));
}
