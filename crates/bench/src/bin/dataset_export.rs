//! Exports the measured dataset as CSV for external analysis
//! (spreadsheets, pandas, R) — one row per sample with identity columns,
//! the full static feature vector, the per-class energies and the label.
//!
//! ```text
//! cargo run --release -p pulp-bench --bin dataset_export            # stdout
//! cargo run --release -p pulp-bench --bin dataset_export -- --json d.json
//! ```
//!
//! (`--json` dumps the raw `LabeledDataset` record instead of CSV.)

use pulp_bench::{load_or_build_dataset, CommonArgs};
use pulp_energy::{dynamic_feature_names, static_feature_names};

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn main() {
    let start = std::time::Instant::now();
    let args = CommonArgs::parse();
    let opts = args.pipeline_options();
    let data = load_or_build_dataset(&opts, &args, None);

    // Header.
    let mut cols: Vec<String> = vec![
        "id".into(),
        "kernel".into(),
        "suite".into(),
        "dtype".into(),
        "payload_bytes".into(),
        "label_cores".into(),
    ];
    cols.extend((1..=8).map(|c| format!("energy_fj_{c}c")));
    cols.extend((1..=8).map(|c| format!("cycles_{c}c")));
    cols.extend(static_feature_names());
    cols.extend(dynamic_feature_names());
    println!("{}", cols.join(","));

    for s in &data.samples {
        let mut row: Vec<String> = vec![
            csv_escape(&s.id),
            csv_escape(&s.kernel),
            s.suite.to_string(),
            s.dtype.to_string(),
            s.payload_bytes.to_string(),
            (s.label + 1).to_string(),
        ];
        row.extend(s.energy.iter().map(|e| format!("{e}")));
        row.extend(s.cycles.iter().map(|c| c.to_string()));
        row.extend(s.static_x.iter().map(|v| format!("{v}")));
        row.extend(s.dynamic_x.iter().map(|v| format!("{v}")));
        println!("{}", row.join(","));
    }
    if !args.quiet {
        args.logger().info(
            "export",
            "rows written to stdout",
            &[
                ("rows", data.len().to_string()),
                ("columns", cols.len().to_string()),
            ],
        );
    }
    args.dump_json(&data);
    args.write_manifest("dataset_export", &opts, None, start);
}
