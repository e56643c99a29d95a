//! `btstat`'s command line: a flag its verb does not know, or one
//! missing its value, is a usage error that names the flag, reported
//! before any run directory is read.

use std::process::Command;

/// Run `btstat` with `args`; returns (exit code, stderr).
fn btstat(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_btstat"))
        .args(args)
        .output()
        .expect("btstat runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn misspelt_or_valueless_flags_exit_2_naming_the_flag() {
    // The directories need not exist: the flags are checked first.
    for (args, flag) in [
        (
            &["merge", "--htm", "fleet.html", "no-such-dir"][..],
            "--htm",
        ),
        (
            &["bisect", "no-such-a", "no-such-b", "--windw", "5"][..],
            "--windw",
        ),
        (&["diff", "no-such-a", "no-such-b", "--top"][..], "--top"),
    ] {
        let (code, stderr) = btstat(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        // Backquoted, so the usage text's `--html` cannot stand in for
        // `--htm`.
        assert!(
            stderr.contains(&format!("`{flag}`")),
            "{args:?}: {flag} not named in {stderr}"
        );
        assert!(
            !stderr.contains("no-such"),
            "{args:?} read a directory: {stderr}"
        );
    }
}

#[test]
fn a_flag_of_another_verb_is_unknown() {
    let (code, stderr) = btstat(&["merge", "--window", "3", "no-such-dir"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag `--window`"), "{stderr}");
}
