//! Unique, self-cleaning scratch directories for tests, benches and the
//! script engine.
//!
//! Every directory is `<system temp>/<tag>-<pid>-<n>`, where `n` comes
//! from a process-wide counter, so two scratch directories never share a
//! path — not across processes, and not across the parallel test threads
//! of one process even when they use the same tag. The directory is
//! created by [`ScratchDir::new`] and removed (with its contents) when the
//! value is dropped.
//!
//! ```
//! use adawave_api::ScratchDir;
//!
//! let scratch = ScratchDir::new("doc-example");
//! let file = scratch.join("labels.csv");
//! std::fs::write(&file, "0\n1\n").unwrap();
//! let dir = scratch.path().to_path_buf();
//! drop(scratch);
//! assert!(!dir.exists());
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory under the system temp dir, removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Reserve `<temp>/<tag>-<pid>-<n>` and create it. Creation is best
    /// effort: if it fails, the first write into the directory reports
    /// the I/O error together with the path.
    pub fn new(tag: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::create_dir_all(&path);
        Self { path }
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    /// Best-effort removal: a directory that is already gone or cannot be
    /// removed is left alone; dropping never panics.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_tag_gets_distinct_directories_and_drop_removes_them() {
        let a = ScratchDir::new("adawave-scratch-test");
        let b = ScratchDir::new("adawave-scratch-test");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        std::fs::write(a.join("file.txt"), "x").unwrap();
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        assert!(!pa.exists(), "drop removes the directory and its contents");
        assert!(pb.is_dir(), "dropping one leaves the other alone");
        // Dropping after the directory vanished underneath is fine too.
        std::fs::remove_dir_all(&pb).unwrap();
        drop(b);
    }
}
