//! Records the compiler version and source revision for the run
//! provenance line. Both fall back to `unknown` (a source tree without
//! git metadata is a normal way to build the benchmark).

use std::process::Command;

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        first_line(&rustc, &["--version"])
    );
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        first_line("git", &["rev-parse", "--short=12", "HEAD"])
    );
    println!("cargo:rerun-if-changed=build.rs");
}
