//! The machine and provenance block every result carries.

use serde_json::Value;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where a result was measured, and on which code.
pub struct Machine {
    nproc: usize,
    cpu_model: String,
    rustc: String,
    git_sha: Option<String>,
    source_digest: String,
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// HEAD of the git repository rooted exactly at `root`, if any (a
/// checkout nested in some other repository does not borrow its sha).
fn git_sha(root: &Path) -> Option<String> {
    let top = command_line("git", &["rev-parse", "--show-toplevel"], root)?;
    let same = Path::new(&top).canonicalize().ok()? == root.canonicalize().ok()?;
    same.then(|| command_line("git", &["rev-parse", "HEAD"], root))?
}

/// Every regular file under `path`, skipping build output and hidden
/// entries, in a stable order.
fn files_under(path: &Path, out: &mut Vec<PathBuf>) {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name.starts_with('.') || name == "target" {
        return;
    }
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for e in entries {
            files_under(&e, out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// A digest of the source the benchmark was built from: the checkout
/// it runs in need not be a git repository, so the sha alone may be
/// missing.
fn source_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "vendor",
        "perfbench",
    ] {
        files_under(&root.join(top), &mut files);
    }
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for f in &files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x} ({} files)", h.finish(), files.len())
}

impl Machine {
    /// Probes the machine and the checkout at `root`.
    pub fn probe(root: &Path) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".into()),
            git_sha: git_sha(root),
            source_digest: source_digest(root),
        }
    }

    /// One line for the human-readable report.
    pub fn render(&self) -> String {
        format!(
            "machine: nproc {}, cpu {}, {}, git {}, source {}",
            self.nproc,
            self.cpu_model,
            self.rustc,
            self.git_sha
                .as_deref()
                .unwrap_or("none (not a git checkout)"),
            self.source_digest
        )
    }

    /// The block as a JSON object.
    pub fn to_value(&self) -> Value {
        crate::object([
            ("nproc", Value::Number(self.nproc as f64)),
            ("cpu_model", crate::text(&self.cpu_model)),
            ("rustc", crate::text(&self.rustc)),
            (
                "git_sha",
                self.git_sha.as_deref().map_or(Value::Null, crate::text),
            ),
            ("source_digest", crate::text(&self.source_digest)),
        ])
    }
}
