//! The `repro` binary's argument handling.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_instead_of_running_the_full_suite() {
    // A script that still passes a typo, a retired per-PR gate flag, or a
    // value flag without the flag it modifies must fail fast, not fall
    // through to the full suite with the flag ignored.
    for args in [
        &["--bogus"][..],
        &["--table3", "--quik"],
        &["--trace-out"],
        &["--query-log", "q.jsonl"],
        &["--cases", "5"],
        &["--bench-pr4"],
        &["--bench-pr6"],
        &["--bench-pr9"],
        &["--bench-pr10"],
        &["--cyclic"],
        &["--orderby"],
        &["--rows", "100"],
        &["--check-baseline"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} must not run anything");
        let usage = String::from_utf8_lossy(&output.stderr);
        assert!(usage.contains("--table3"), "{args:?}: {usage}");
    }
}
