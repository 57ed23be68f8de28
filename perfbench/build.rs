//! Records the build's identity for the benchmark's result lines: the git
//! commit when the source is a git checkout, a hash of the repository's
//! sources either way, and the rustc version.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for watched in ["crates", "Cargo.toml", "Cargo.lock"] {
        println!("cargo:rerun-if-changed={}", root.join(watched).display());
    }
    println!("cargo:rerun-if-changed=src");

    // Only the repository's own commit counts: a checkout that is not a git
    // repository may still sit inside one.
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(&root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    let own_repository = git(&["rev-parse", "--show-toplevel"])
        .and_then(|top| Path::new(&top).canonicalize().ok())
        .is_some_and(|top| root.canonicalize().is_ok_and(|r| r == top));
    let commit = own_repository
        .then(|| git(&["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");

    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    collect(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.sort();
    // FNV-1a over each file's path (relative to the repository) and contents.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let relative = file.strip_prefix(&root).unwrap_or(&file).to_string_lossy().into_owned();
        let contents = std::fs::read(&file).unwrap_or_default();
        for byte in relative.as_bytes().iter().chain(&contents) {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_HASH={hash:016x}");
}

/// Every file under `dir`, skipping build output.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}
