//! The `repro` binary's argument handling.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_instead_of_running_the_full_suite() {
    // `--bench-pr9` is not a flag; a script that still passes it must fail
    // fast, not fall through to the full suite.
    for args in [
        &["--bogus"][..],
        &["--bench-pr9"],
        &["--table3", "--quik"],
        &["--rows"],
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
