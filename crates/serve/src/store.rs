//! The served-model store: named `Arc<dyn Model>` entries behind a
//! read-mostly lock, with **atomic hot reload**.
//!
//! Requests take a cheap read-lock only long enough to clone the entry's
//! `Arc`, then predict with no lock held — so a reload never blocks
//! in-flight predictions, and an in-flight prediction never observes a
//! half-swapped model: every request is answered entirely by the one
//! model version it snapshotted. Reload parses the new file *before*
//! taking the write-lock; a file that fails to load leaves the old model
//! serving untouched.
//!
//! The store does not know how to parse model files — the umbrella
//! crate's `load_model` is injected as a [`ModelLoader`] closure, keeping
//! this crate's dependencies to `adawave-api` alone.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError, RwLock};

use adawave_api::Model;

/// How the store turns a file path into a model — injected by the host
/// (the CLI wires in `adawave::load_model`).
pub type ModelLoader = Arc<dyn Fn(&Path) -> Result<Box<dyn Model>, String> + Send + Sync>;

/// One served model: the immutable artifact plus its provenance.
pub struct ModelEntry {
    /// The serving name (what requests address).
    pub name: String,
    /// The file the model was loaded from (reload re-reads it).
    pub path: PathBuf,
    /// The trained model, shared across worker threads.
    pub model: Arc<dyn Model>,
    /// Monotonic per-name version, bumped on every successful reload —
    /// lets clients prove a swap was atomic (no mixed-version responses).
    pub version: u64,
}

/// Named models behind a read-mostly lock. See the module docs for the
/// locking discipline.
///
/// Lock poisoning is deliberately recovered (`PoisonError::into_inner`)
/// rather than propagated as a panic: every critical section is a single
/// map operation that cannot leave the map logically inconsistent, and
/// the request path must stay panic-free.
pub struct ModelStore {
    loader: ModelLoader,
    entries: RwLock<BTreeMap<String, Arc<ModelEntry>>>,
}

impl ModelStore {
    /// An empty store that loads model files through `loader`.
    pub fn new(loader: ModelLoader) -> ModelStore {
        ModelStore {
            loader,
            entries: RwLock::new(BTreeMap::new()),
        }
    }

    /// Load `path` and serve it under `name` (replacing any previous
    /// entry for the name, version restarting at 1).
    pub fn load(&self, name: &str, path: &Path) -> Result<(), String> {
        let model: Arc<dyn Model> = Arc::from((self.loader)(path)?);
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            path: path.to_path_buf(),
            model,
            version: 1,
        });
        self.entries
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), entry);
        Ok(())
    }

    /// Atomically re-load `name` from its original file and swap it in,
    /// returning the new version. On any error the old model keeps
    /// serving unchanged.
    pub fn reload(&self, name: &str) -> Result<u64, String> {
        let current = self
            .get(name)
            .ok_or_else(|| format!("unknown model '{name}'"))?;
        // Parse the file with no lock held — reload cost never blocks
        // readers, and a corrupt file never evicts the serving model.
        let model: Arc<dyn Model> = Arc::from((self.loader)(&current.path)?);
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        // Re-read the live version under the write-lock so concurrent
        // reloads still produce strictly increasing versions.
        let version = entries.get(name).map_or(1, |e| e.version + 1);
        entries.insert(
            name.to_string(),
            Arc::new(ModelEntry {
                name: current.name.clone(),
                path: current.path.clone(),
                model,
                version,
            }),
        );
        Ok(version)
    }

    /// Snapshot the entry serving `name` (cheap: clones one `Arc`).
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
    }

    /// All serving names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Snapshot every entry, sorted by name.
    pub fn entries(&self) -> Vec<Arc<ModelEntry>> {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .cloned()
            .collect()
    }

    /// How many models are serving.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no model is serving.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adawave_api::ScratchDir;

    /// A toy one-dimensional threshold model: label 0 below `cut`, 1 at
    /// or above, noise for non-finite input.
    struct Threshold {
        cut: f64,
    }

    impl Model for Threshold {
        fn algorithm(&self) -> &str {
            "threshold"
        }
        fn dims(&self) -> usize {
            1
        }
        fn predict_one(&self, point: &[f64]) -> Option<usize> {
            if point.len() != 1 || !point[0].is_finite() {
                return None;
            }
            Some(usize::from(point[0] >= self.cut))
        }
        fn summary(&self) -> String {
            format!("threshold at {}", self.cut)
        }
    }

    /// A loader that "parses" the file's text as the threshold; the word
    /// `bad` fails, exercising the reload-keeps-old-model path.
    fn text_loader() -> ModelLoader {
        Arc::new(|path: &Path| {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            let cut: f64 = text.trim().parse().map_err(|_| "bad file".to_string())?;
            Ok(Box::new(Threshold { cut }) as Box<dyn Model>)
        })
    }

    fn temp_file(scratch: &ScratchDir, name: &str, text: &str) -> PathBuf {
        let path = scratch.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn load_get_and_reload_swap_atomically() {
        let store = ModelStore::new(text_loader());
        let scratch = ScratchDir::new("adawave-store");
        let path = temp_file(&scratch, "swap", "0.5");
        store.load("blobs", &path).unwrap();
        assert_eq!(store.names(), vec!["blobs".to_string()]);

        let before = store.get("blobs").unwrap();
        assert_eq!(before.version, 1);
        assert_eq!(before.model.predict_one(&[0.4]), Some(0));

        // Retrain (rewrite the file), hot reload, and verify: the old
        // snapshot still answers with the old rule — no mixed state —
        // while new snapshots see the new rule and a bumped version.
        std::fs::write(&path, "0.1").unwrap();
        assert_eq!(store.reload("blobs").unwrap(), 2);
        assert_eq!(before.model.predict_one(&[0.4]), Some(0));
        let after = store.get("blobs").unwrap();
        assert_eq!(after.version, 2);
        assert_eq!(after.model.predict_one(&[0.4]), Some(1));
    }

    #[test]
    fn failed_reload_keeps_the_old_model_serving() {
        let store = ModelStore::new(text_loader());
        let scratch = ScratchDir::new("adawave-store");
        let path = temp_file(&scratch, "bad_reload", "0.5");
        store.load("blobs", &path).unwrap();
        std::fs::write(&path, "bad").unwrap();
        assert!(store.reload("blobs").is_err());
        let entry = store.get("blobs").unwrap();
        assert_eq!(entry.version, 1);
        assert_eq!(entry.model.predict_one(&[0.9]), Some(1));
    }

    #[test]
    fn unknown_names_and_unreadable_files_error() {
        let store = ModelStore::new(text_loader());
        assert!(store.reload("ghost").unwrap_err().contains("ghost"));
        assert!(store
            .load("ghost", Path::new("/definitely/not/here"))
            .is_err());
        assert!(store.is_empty());
    }
}
