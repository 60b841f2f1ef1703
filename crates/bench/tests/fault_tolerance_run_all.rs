//! End-to-end fault tolerance of the `run_all` binary (ISSUE 3
//! acceptance): an injected panicking unit plus an unrecoverable corrupt
//! artifact must not stop the sweep — every other experiment completes, a
//! failure report names both faults, and the exit status flips to 1.
//! A sweep killed partway must resume from its journal and produce
//! stdout tables byte-identical to an uninterrupted run.
//!
//! These tests drive the real binary (`CARGO_BIN_EXE_run_all`) at tiny
//! scale with one scene. The tests run in parallel, so each one works on
//! its own copy of the artifact cache the reference sweep warmed: one
//! test flipping bits in its `.bvh` files must not race another rebuilding
//! them.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

fn temp_root() -> &'static PathBuf {
    static ROOT: OnceLock<PathBuf> = OnceLock::new();
    ROOT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("rip-run-all-e2e-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    })
}

/// Runs the `run_all` binary at tiny scale / 1 scene with the artifact
/// cache in `cache_dir`, extra args, and extra environment.
fn run_all(cache_dir: &Path, extra_args: &[&str], extra_env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_run_all"));
    cmd.args(["--scale", "tiny", "--scenes", "1", "--jobs", "2"])
        .args(extra_args)
        .env("RIP_CACHE_DIR", cache_dir)
        .env_remove("RIP_FAULT_INJECT")
        .env_remove("RIP_UNIT_TIMEOUT")
        .env_remove("RIP_JOURNAL");
    for (key, value) in extra_env {
        cmd.env(key, value);
    }
    cmd.output().expect("run_all binary must spawn")
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("stdout is UTF-8")
}

/// The artifact cache the reference sweep populates; tests only copy it.
fn reference_cache() -> PathBuf {
    temp_root().join("reference-artifacts")
}

/// The uninterrupted reference sweep, run once and shared.
fn reference_stdout() -> &'static str {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let output = run_all(&reference_cache(), &[], &[]);
        assert!(
            output.status.success(),
            "reference sweep must succeed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        stdout_of(&output)
    })
}

/// A private copy, named after the test, of the cache the reference
/// sweep warmed.
fn warm_cache(test: &str) -> PathBuf {
    reference_stdout();
    let dir = temp_root().join(format!("{test}-artifacts"));
    copy_dir(&reference_cache(), &dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

#[test]
fn faulted_sweep_completes_reports_and_exits_nonzero() {
    let reference = reference_stdout();

    // Damage the on-disk cache for real (exercises quarantine+rebuild on
    // stderr) and inject one panicking unit plus one unrecoverable
    // corruption fault (both must be *named* in the failure report).
    let cache_dir = warm_cache("faulted");
    let mut flipped = 0;
    for entry in std::fs::read_dir(&cache_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "bvh") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x08;
            std::fs::write(&path, bytes).unwrap();
            flipped += 1;
        }
    }
    assert!(flipped > 0, "reference run must have populated the cache");

    let output = run_all(
        &cache_dir,
        &[],
        &[(
            "RIP_FAULT_INJECT",
            "panic:fig12_speedup;corrupt:table8_hash",
        )],
    );
    assert_eq!(
        output.status.code(),
        Some(1),
        "a faulted sweep must exit 1; stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = stdout_of(&output);
    let stderr = String::from_utf8_lossy(&output.stderr);

    // The failure report names both injected faults.
    assert!(
        stdout.contains("=== Failure report ==="),
        "missing report:\n{stdout}"
    );
    assert!(stdout.contains("fig12_speedup"), "panicking unit not named");
    assert!(stdout.contains("Panic"), "panic fault kind not named");
    assert!(stdout.contains("table8_hash"), "corrupt unit not named");
    assert!(
        stdout.contains("CacheCorrupt"),
        "corrupt fault kind not named"
    );
    assert!(
        stdout.contains("2 of 23 unit(s) failed"),
        "wrong failure count"
    );

    // Every *other* experiment completed, byte-identically to the
    // reference run (the failed units' reports are simply absent).
    for report in reference.split("=== ").filter(|s| !s.is_empty()) {
        let header = report.lines().next().unwrap_or_default();
        if header.contains("Figure 12") || header.contains("Table 8") {
            assert!(
                !stdout.contains(&format!("=== {report}")),
                "failed unit '{header}' must not print a report"
            );
        } else {
            assert!(
                stdout.contains(&format!("=== {report}")),
                "surviving unit '{header}' must print its exact report"
            );
        }
    }

    // The bit-flipped artifact was quarantined and rebuilt underneath.
    assert!(
        stderr.contains("quarantined"),
        "expected a quarantine log line on stderr:\n{stderr}"
    );
    let quarantined = std::fs::read_dir(&cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "quarantine"))
        .count();
    assert!(quarantined > 0, "expected *.quarantine files in the cache");
}

#[test]
fn killed_sweep_resumes_from_the_journal_byte_identically() {
    let reference = reference_stdout();
    let cache_dir = warm_cache("resume");
    let journal = temp_root().join("resume.journal");
    let journal_arg = journal.to_str().unwrap();

    // Phase 1: the sweep is killed (simulated `kill -9` via the fault
    // injection hook) when fig15_repacking starts.
    let killed = run_all(
        &cache_dir,
        &["--journal", journal_arg],
        &[("RIP_FAULT_INJECT", "kill:fig15_repacking")],
    );
    assert_eq!(
        killed.status.code(),
        Some(9),
        "the injected kill must end the process; stderr:\n{}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(journal.exists(), "the journal must survive the kill");

    // Phase 2: resume. Only the remaining units run; completed units are
    // restored from the journal.
    let resumed = run_all(&cache_dir, &["--journal", journal_arg, "--resume"], &[]);
    assert!(
        resumed.status.success(),
        "resume must complete cleanly; stderr:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        resumed_stderr.contains("resuming:"),
        "resume must restore journal units; stderr:\n{resumed_stderr}"
    );
    assert_eq!(
        stdout_of(&resumed),
        *reference,
        "a resumed sweep must reproduce the uninterrupted tables byte-for-byte"
    );
}

#[test]
fn resume_refuses_a_journal_from_another_configuration() {
    let cache_dir = warm_cache("mismatch");
    let journal = temp_root().join("mismatch.journal");
    let journal_arg = journal.to_str().unwrap();
    std::fs::write(
        &journal,
        "rip-journal v1 run_all scale=Paper scenes=SB schedule=x formats=s1b1\n",
    )
    .unwrap();
    let output = run_all(&cache_dir, &["--journal", journal_arg, "--resume"], &[]);
    assert!(
        output.status.success(),
        "a mismatched journal restarts the sweep instead of failing"
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("does not match this configuration"),
        "the mismatch must be reported on stderr"
    );
    assert_eq!(stdout_of(&output), *reference_stdout());
}
