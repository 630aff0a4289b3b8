//! Host facts recorded with every result.

use std::path::{Path, PathBuf};

fn nproc() -> String {
    std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` in the working directory
/// only (no search of parent directories); "unavailable" elsewhere.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let hash = match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(name).map(|h| h.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
    };
    hash.filter(|h| !h.is_empty())
        .unwrap_or_else(|| "unavailable".into())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// FNV-1a over the paths and contents of the program's and the
/// benchmark's sources: identifies the code measured where no git
/// metadata exists.
fn source_digest() -> String {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "crates",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        let p = Path::new(root);
        if p.is_file() {
            files.push(p.to_path_buf());
        } else {
            collect(p, &mut files);
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

pub fn facts_json(seed: u64) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "{{\"nproc\": \"{}\", \"available_parallelism\": {parallelism}, \
         \"rayon_num_threads\": \"{rayon}\", \"profile\": \"{}\", \"rustc\": \"{}\", \
         \"commit\": \"{}\", \"source_digest\": \"{}\", \"seed\": {seed}}}",
        nproc(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        commit(),
        source_digest()
    )
}
