//! `tq-loadgen` rejects counts and rates that are not positive, finite
//! numbers with exit code 2, before it starts any server or client —
//! instead of panicking on a zero rate or silently running the defaults.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_tq-loadgen"))
        .args(args)
        .output()
        .expect("run tq-loadgen")
        .status
        .code()
}

#[test]
fn bad_numbers_exit_2() {
    for args in [
        ["--rate", "0"],
        ["--rate", "xyz"],
        ["--rate", "-5"],
        ["--rate", "inf"],
        ["--rate", "NaN"],
        ["--requests", "abc"],
        ["--requests", "0"],
        ["--requests", "1.5"],
        ["--workers", "abc"],
        ["--workers", "0"],
        ["--clients", "abc"],
    ] {
        assert_eq!(exit_code(&args), Some(2), "tq-loadgen {args:?}");
    }
}

#[test]
fn bad_number_after_smoke_exits_2() {
    assert_eq!(
        exit_code(&["--smoke", "--requests", "abc", "--rate", "xyz"]),
        Some(2)
    );
}
