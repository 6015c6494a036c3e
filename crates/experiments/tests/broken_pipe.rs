//! A reader that closes stdout early (`all | head -2`) stops the `all`
//! binary quietly: no panic, no backtrace, status 0.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn all_stops_quietly_when_its_reader_goes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--quick", "--jobs", "1", "fig4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn all");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    // The reader is gone; fig4's table is still to be printed.
    let out = child.wait_with_output().expect("wait for all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
