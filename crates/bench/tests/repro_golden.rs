//! `repro --quick --table3 --plans --profiles` prints the committed
//! `testdata/repro_quick_golden.txt`, wall-clock fields masked.
//!
//! Everything else in those sections (Table 3, the EXPLAIN trees and
//! planner log, PROFILE with simulated seconds, shuffled bytes, memory and
//! recovery) comes from the simulated clock and is deterministic, so a
//! change that moves any of it shows here. On a mismatch the masked output
//! is written to `target/tmp/repro_quick_actual.txt` for a `diff` against
//! the golden.

use std::process::Command;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/testdata/repro_quick_golden.txt"
);

/// Replaces the number of every `t_wall=<n>s` and `wall: <n>s` with `<n>`.
fn mask_wall_times(text: &str) -> String {
    let mut masked = text.to_string();
    for field in ["t_wall=", "wall: "] {
        let mut out = String::with_capacity(masked.len());
        let mut rest = masked.as_str();
        while let Some(at) = rest.find(field) {
            let (before, after) = rest.split_at(at + field.len());
            out.push_str(before);
            let digits = after
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(after.len());
            if digits > 0 && after[digits..].starts_with('s') {
                out.push_str("<n>");
                rest = &after[digits..];
            } else {
                rest = after;
            }
        }
        out.push_str(rest);
        masked = out;
    }
    masked
}

#[test]
fn masking_keeps_everything_but_the_wall_seconds() {
    assert_eq!(
        mask_wall_times("t_sim=0.0286s t_wall=0.0005s\nsimulated: 0.2258s   wall: 12.5s wall: n/a"),
        "t_sim=0.0286s t_wall=<n>s\nsimulated: 0.2258s   wall: <n>s wall: n/a"
    );
}

#[test]
fn quick_table3_plans_and_profiles_match_the_golden() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--table3", "--plans", "--profiles"])
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "repro failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = mask_wall_times(&String::from_utf8(output.stdout).expect("utf-8 output"));
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file");
    if actual != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro_quick_actual.txt");
        std::fs::write(&path, &actual).expect("write the actual output");
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .map_or(actual.lines().count().min(golden.lines().count()), |i| i);
        panic!(
            "repro output differs from {GOLDEN_PATH} first at line {}; the masked output is in {}",
            line + 1,
            path.display()
        );
    }
}
