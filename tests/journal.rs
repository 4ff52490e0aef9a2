//! Golden tests over the committed fixture journal: the journal's bytes
//! are exactly what the canonical writer produces, and `pulp_cli report`'s
//! output on it is byte-deterministic.
//!
//! The fixture pair lives in `tests/fixtures/`:
//!
//! * `sweep_journal.jsonl` — a two-shard labeling sweep, written by
//!   [`fixture_journal`] through the real [`JournalWriter`];
//! * `sweep_journal_report.txt` — `render_report` (the body of
//!   `pulp_cli report`) over that journal.
//!
//! Regenerate both after an intentional schema change with
//! `cargo test -p pulp-obs --test journal -- --ignored regenerate` and
//! review the diff like any other golden update.

use pulp_obs::{
    render_journal, render_report, validate_journal, JournalEvent, JournalReader, JournalWriter,
};

const FIXTURE: &str = include_str!("fixtures/sweep_journal.jsonl");
const GOLDEN_REPORT: &str = include_str!("fixtures/sweep_journal_report.txt");

/// The fixture's event stream: a plausible two-shard sweep with fixed
/// values everywhere a real run would record wall-clock measurements.
fn fixture_journal() -> String {
    let mut w = JournalWriter::in_memory("headline", "0b3bdbc67d8b88ea", 42);
    let events = [
        JournalEvent::StageStart {
            stage: "enumerate".into(),
        },
        JournalEvent::StageEnd {
            stage: "enumerate".into(),
            wall_ms: 3.25,
        },
        JournalEvent::StageStart {
            stage: "measure".into(),
        },
        JournalEvent::Heartbeat {
            shard: 0,
            done: 16,
            assigned: 32,
            elapsed_ms: 1200,
            kernels_per_s: 13.333,
            cache_hits: 10,
            cache_misses: 6,
        },
        JournalEvent::Heartbeat {
            shard: 1,
            done: 12,
            assigned: 31,
            elapsed_ms: 1200,
            kernels_per_s: 10.0,
            cache_hits: 0,
            cache_misses: 12,
        },
        JournalEvent::Heartbeat {
            shard: 0,
            done: 32,
            assigned: 32,
            elapsed_ms: 2400,
            kernels_per_s: 13.333,
            cache_hits: 20,
            cache_misses: 12,
        },
        JournalEvent::Heartbeat {
            shard: 1,
            done: 31,
            assigned: 31,
            elapsed_ms: 3100,
            kernels_per_s: 10.0,
            cache_hits: 1,
            cache_misses: 30,
        },
        JournalEvent::SlowKernel {
            sample: "linalg/gemm/i32/8192".into(),
            wall_ms: 412.5,
            cycles: 1_250_000,
        },
        JournalEvent::SlowKernel {
            sample: "dsp/fir/f32/8192".into(),
            wall_ms: 201.0,
            cycles: 640_000,
        },
        JournalEvent::Cache {
            hits: 21,
            misses: 42,
            invalidations: 1,
        },
        JournalEvent::StageEnd {
            stage: "measure".into(),
            wall_ms: 3100.0,
        },
        JournalEvent::StageStart {
            stage: "train_eval".into(),
        },
        JournalEvent::StageEnd {
            stage: "train_eval".into(),
            wall_ms: 96.5,
        },
        JournalEvent::BenchRecord {
            bench: "headline".into(),
            name: "static_at_5".into(),
            value: 0.79,
        },
    ];
    w.events(events).expect("in-memory journal writes succeed");
    w.finalize_to_string().expect("finalize")
}

#[test]
fn fixture_is_exactly_what_the_writer_produces() {
    assert_eq!(
        fixture_journal(),
        FIXTURE,
        "committed fixture drifted from the canonical writer; regenerate \
         with `cargo test -p pulp-obs --test journal -- --ignored regenerate`"
    );
}

#[test]
fn fixture_validates_and_round_trips_bit_identically() {
    validate_journal(FIXTURE).expect("fixture validates");
    let journal = JournalReader::read_str(FIXTURE).expect("fixture parses");
    assert!(journal.ok());
    assert_eq!(journal.run_start(), ("headline", "0b3bdbc67d8b88ea", 42));
    // parse → canonical re-encode reproduces the file bytes.
    assert_eq!(render_journal(&journal), FIXTURE);
}

#[test]
fn report_on_the_fixture_is_byte_deterministic() {
    let journal = JournalReader::read_str(FIXTURE).expect("fixture parses");
    let report = render_report(&journal);
    assert_eq!(report, render_report(&journal), "report must be pure");
    assert_eq!(
        report, GOLDEN_REPORT,
        "report drifted from the golden; regenerate with \
         `cargo test -p pulp-obs --test journal -- --ignored regenerate`"
    );
}

#[test]
fn report_names_the_fixtures_headline_facts() {
    // Sanity on the golden itself, so a bad regeneration can't silently
    // pin a useless report.
    for needle in [
        "0b3bdbc67d8b88ea", // manifest hash
        "measure",          // stage table
        "linalg/gemm/i32/8192",
        "static_at_5",
        "21",                  // cache hits
        "42",                  // cache misses
        "finish spread 22.6%", // (3100 - 2400) / 3100 ms
    ] {
        assert!(
            GOLDEN_REPORT.contains(needle),
            "golden report lost {needle:?}:\n{GOLDEN_REPORT}"
        );
    }
}

/// Rewrites both fixture files. Run explicitly after intentional schema
/// changes: `cargo test -p pulp-obs --test journal -- --ignored regenerate`.
#[test]
#[ignore = "writes tests/fixtures/; run explicitly to regenerate goldens"]
fn regenerate() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
    std::fs::create_dir_all(dir).expect("fixture dir");
    let text = fixture_journal();
    let journal = JournalReader::read_str(&text).expect("generated journal parses");
    std::fs::write(format!("{dir}/sweep_journal.jsonl"), &text).expect("write journal");
    std::fs::write(
        format!("{dir}/sweep_journal_report.txt"),
        render_report(&journal),
    )
    .expect("write report");
}
