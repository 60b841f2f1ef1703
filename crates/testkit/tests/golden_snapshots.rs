//! Golden-snapshot gate: every experiment's report text must match its
//! committed snapshot (modulo the documented float tolerance).
//!
//! Set `RIP_UPDATE_SNAPSHOTS=1` (or run the `snapshots` bin with
//! `--update`) to regenerate after an intentional output change.

use rip_bench::experiments;
use rip_testkit::snapshot;

#[test]
fn all_experiments_match_committed_snapshots() {
    let update = std::env::var("RIP_UPDATE_SNAPSHOTS").is_ok_and(|v| v == "1");
    let ctx = snapshot::snapshot_context();
    let reports = experiments::run_all(&ctx);
    assert_eq!(reports.len(), experiments::ALL.len());

    let mut failures = Vec::new();
    for ((name, _), report) in experiments::ALL.iter().zip(reports) {
        let text = report.to_string();
        if update {
            snapshot::update(name, &text).expect("snapshot write failed");
        } else if let Err(e) = snapshot::verify(name, &text) {
            failures.push(e);
        }
    }
    assert!(
        failures.is_empty(),
        "{} experiment snapshot(s) diverged:\n{}",
        failures.len(),
        failures.join("\n---\n")
    );
}

#[test]
fn snapshot_directory_covers_every_experiment() {
    let dir = snapshot::snapshot_dir();
    for (name, _) in experiments::ALL {
        assert!(
            snapshot::snapshot_path(name).is_file(),
            "missing committed snapshot for {name} in {}",
            dir.display()
        );
    }
    // Digest snapshots owned by the SIMD differential suite (see
    // tests/wide_simd.rs), the artifact-format suite (see
    // tests/artifact_format.rs) and the tree-identity suite (see
    // tests/tree_digest.rs) share the directory but are not experiments.
    let digests = [
        "wide_simd_hits.snap",
        "wide_bvh_serial.snap",
        "artifact_case.snap",
        "tree_digest.snap",
    ];
    for name in digests {
        assert!(
            dir.join(name).is_file(),
            "missing committed digest snapshot {name} in {}",
            dir.display()
        );
    }
    let committed = std::fs::read_dir(&dir)
        .expect("snapshot dir must exist")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "snap"))
        .count();
    assert_eq!(
        committed,
        experiments::ALL.len() + digests.len(),
        "stray or missing .snap files under {}",
        dir.display()
    );
}
