//! Process and file-system probes: resident memory, directory sizes and the
//! scratch directory the benchmark keeps inside its checkout.

use std::path::{Path, PathBuf};

/// Where the benchmark writes everything it leaves behind (store
/// directories, span files), relative to the directory it runs from.
pub const OUTPUT_DIR: &str = ".perfbench";

/// Resident set size of this process in MB (10^6 bytes), from
/// `/proc/self/status`; 0 where that file does not exist.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Bytes in regular files under `dir`, recursively, split by what the file
/// holds: `(journal, container objects, everything)`.
pub fn dir_bytes(dir: &Path) -> (u64, u64, u64) {
    let mut sizes = (0, 0, 0);
    let Ok(entries) = std::fs::read_dir(dir) else {
        return sizes;
    };
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (j, o, t) = dir_bytes(&entry.path());
            sizes = (sizes.0 + j, sizes.1 + o, sizes.2 + t);
        } else {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".wal") {
                sizes.0 += meta.len();
            } else if name.ends_with(".sc") {
                sizes.1 += meta.len();
            }
            sizes.2 += meta.len();
        }
    }
    sizes
}

/// A fresh, empty directory under [`OUTPUT_DIR`], removed again on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(OUTPUT_DIR)
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_bytes_splits_journal_and_objects() {
        let dir = ScratchDir::new("sys-test").unwrap();
        std::fs::create_dir_all(dir.path().join("node-0")).unwrap();
        std::fs::write(dir.path().join("node-0/journal.wal"), [0u8; 10]).unwrap();
        std::fs::write(dir.path().join("node-0/container-1.sc"), [0u8; 7]).unwrap();
        std::fs::write(dir.path().join("other"), [0u8; 3]).unwrap();
        assert_eq!(dir_bytes(dir.path()), (10, 7, 20));
        let kept = dir.path().to_path_buf();
        drop(dir);
        assert!(!kept.exists());
    }

    #[test]
    fn rss_is_positive_on_linux() {
        if Path::new("/proc/self/status").exists() {
            assert!(rss_mb() > 0.0);
        }
    }
}
