//! The crash-safe content-addressed on-disk result cache.
//!
//! ## Layout
//!
//! ```text
//! <root>/
//!   objects/<kk>/<key>     committed entries (kk = first 2 hex digits)
//!   tmp/<key>.<pid>.<seq>  in-flight writes (swept at open)
//!   quarantine/<key>.<n>   entries that failed verification
//! ```
//!
//! `<key>` is the lowercase SHA-256 hex of the client's canonical
//! manifest (see `RunRequest::cache_manifest` in `scd-guest`).
//!
//! ## Entry format
//!
//! A 24-byte header followed by the payload:
//!
//! ```text
//! magic    4 bytes  "SCDC"
//! version  u32 LE   entry-format version (1)
//! len      u64 LE   payload length in bytes
//! fnv      u64 LE   FNV-1a over the payload
//! payload  len bytes
//! ```
//!
//! ## Atomicity protocol
//!
//! Writers never touch `objects/` directly: the full entry is written
//! to `tmp/`, `fsync`ed, then published with an atomic `rename`. A
//! reader therefore sees either no entry or a complete one — never a
//! torn write. A process killed mid-write leaves only a `tmp/` file,
//! which the next [`Cache::open`] deletes (counted in
//! [`CacheStats::recovered_tmp`]).
//!
//! ## Degradation, not panics
//!
//! Every verification failure on read — short file, bad magic, version
//! skew, length mismatch, checksum mismatch — moves the entry to
//! `quarantine/` (preserving the evidence) and reports a miss, so the
//! client recomputes and overwrites. Corruption can cost time, never
//! correctness and never a crash.

use scd_sim::{fnv1a, FNV_OFFSET};
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Entry header magic.
const MAGIC: [u8; 4] = *b"SCDC";
/// Entry format version.
const VERSION: u32 = 1;
/// Header size in bytes.
const HEADER: usize = 24;

/// Counters describing what the cache did, all monotonic. Shared
/// (`&Cache`) across worker threads, hence atomics.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// Successful loads.
    pub hits: AtomicU64,
    /// Absent entries.
    pub misses: AtomicU64,
    /// Entries written.
    pub stores: AtomicU64,
    /// Entries that failed verification and were quarantined.
    pub quarantined: AtomicU64,
    /// Stale `tmp/` files removed at open (killed-writer recovery).
    pub recovered_tmp: AtomicU64,
}

impl CacheStats {
    /// Hit rate over all lookups, in `[0, 1]`; `None` before any lookup.
    pub fn hit_rate(&self) -> Option<f64> {
        let hits = self.hits.load(Ordering::Relaxed);
        let total =
            hits + self.misses.load(Ordering::Relaxed) + self.quarantined.load(Ordering::Relaxed);
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// One-line end-of-run summary of every counter — the canonical
    /// form both `scd serve` and `sweep --cache` print behind their
    /// `--cache-stats` flags.
    pub fn summary(&self) -> String {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            "{} hit(s), {} miss(es), {} store(s), {} quarantined, {} tmp recovered",
            get(&self.hits),
            get(&self.misses),
            get(&self.stores),
            get(&self.quarantined),
            get(&self.recovered_tmp),
        )
    }
}

/// A content-addressed result cache rooted at one directory.
pub struct Cache {
    root: PathBuf,
    /// Monotonic suffix making concurrent `tmp/` names unique within
    /// this process (the pid handles cross-process collisions).
    seq: AtomicU64,
    /// What the cache has done so far.
    pub stats: CacheStats,
}

impl Cache {
    /// Opens (creating if needed) the cache at `root`, sweeping any
    /// stale `tmp/` files a killed writer left behind.
    ///
    /// # Errors
    /// I/O errors creating the directory layout.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Cache> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("tmp"))?;
        fs::create_dir_all(root.join("quarantine"))?;
        let cache = Cache {
            root,
            seq: AtomicU64::new(0),
            stats: CacheStats::default(),
        };
        for entry in fs::read_dir(cache.root.join("tmp"))? {
            let entry = entry?;
            if fs::remove_file(entry.path()).is_ok() {
                cache.stats.recovered_tmp.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(cache)
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Derives the cache key for a canonical manifest.
    pub fn key(manifest: &str) -> String {
        crate::sha256::sha256_hex(manifest.as_bytes())
    }

    fn object_path(&self, key: &str) -> PathBuf {
        let shard = key.get(..2).unwrap_or("xx");
        self.root.join("objects").join(shard).join(key)
    }

    /// Loads and verifies the payload stored under `key`. Absent
    /// entries are a plain miss; entries failing any verification step
    /// are moved to `quarantine/` and also reported as a miss, so the
    /// caller's only obligation is to recompute and [`Cache::store`].
    pub fn load(&self, key: &str) -> Option<Vec<u8>> {
        let path = self.object_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => {
                // Unreadable (permissions, I/O error): degrade to a miss
                // without touching the file.
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match verify(&bytes) {
            Ok(payload) => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload.to_vec())
            }
            Err(_) => {
                self.quarantine(key, &path);
                None
            }
        }
    }

    /// Moves a failed entry aside, keeping the evidence. Never errors:
    /// if even the rename fails the entry is deleted, and if *that*
    /// fails the next lookup simply re-quarantines.
    fn quarantine(&self, key: &str, path: &Path) {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let dst = self.root.join("quarantine").join(format!("{key}.{n}"));
        if fs::rename(path, &dst).is_err() {
            let _ = fs::remove_file(path);
        }
        self.stats.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores `payload` under `key` via the temp-file + atomic-rename
    /// protocol. Safe to call concurrently for distinct or identical
    /// keys (last rename wins; the entries are identical by
    /// construction since keys are content hashes of the inputs).
    ///
    /// # Errors
    /// I/O errors writing or publishing the entry; the temp file is
    /// cleaned up on failure.
    pub fn store(&self, key: &str, payload: &[u8]) -> io::Result<()> {
        let mut entry = Vec::with_capacity(HEADER + payload.len());
        entry.extend_from_slice(&MAGIC);
        entry.extend_from_slice(&VERSION.to_le_bytes());
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(&fnv1a(FNV_OFFSET, payload).to_le_bytes());
        entry.extend_from_slice(payload);

        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .root
            .join("tmp")
            .join(format!("{key}.{}.{n}", std::process::id()));
        let publish = (|| -> io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&entry)?;
            // The entry must be durable *before* the rename publishes
            // it, or a crash could commit a hole.
            f.sync_all()?;
            let dst = self.object_path(key);
            if let Some(dir) = dst.parent() {
                fs::create_dir_all(dir)?;
            }
            fs::rename(&tmp, &dst)
        })();
        if publish.is_err() {
            let _ = fs::remove_file(&tmp);
        } else {
            self.stats.stores.fetch_add(1, Ordering::Relaxed);
        }
        publish
    }

    /// Flushes directory metadata so committed renames survive a crash
    /// of the host right after exit. Advisory: errors (e.g. platforms
    /// where directories cannot be `fsync`ed) are swallowed — entry
    /// *contents* were already synced at store time.
    pub fn flush(&self) {
        let objects = self.root.join("objects");
        let mut dirs = vec![objects.clone()];
        if let Ok(rd) = fs::read_dir(&objects) {
            dirs.extend(rd.flatten().map(|e| e.path()));
        }
        for dir in dirs {
            if let Ok(f) = File::open(&dir) {
                let _ = f.sync_all();
            }
        }
    }
}

/// Checks an entry's header and checksum, returning the payload slice.
fn verify(bytes: &[u8]) -> Result<&[u8], String> {
    if bytes.len() < HEADER {
        return Err(format!("short entry: {} bytes", bytes.len()));
    }
    if bytes[..4] != MAGIC {
        return Err("bad magic".to_string());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(format!("entry version {version}, want {VERSION}"));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER..];
    if payload.len() as u64 != len {
        return Err(format!(
            "length mismatch: header {len}, file {}",
            payload.len()
        ));
    }
    let want = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let got = fnv1a(FNV_OFFSET, payload);
    if got != want {
        return Err(format!("checksum mismatch: {got:#018x} != {want:#018x}"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch directory per test, cleaned up on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("scd-serve-test-{tag}-{}-{n}", std::process::id()));
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn stat(a: &AtomicU64) -> u64 {
        a.load(Ordering::Relaxed)
    }

    #[test]
    fn roundtrip() {
        let dir = TempDir::new("roundtrip");
        let cache = Cache::open(dir.path()).expect("open");
        let key = Cache::key("manifest-a");
        assert_eq!(cache.load(&key), None);
        cache.store(&key, b"hello payload").expect("store");
        assert_eq!(cache.load(&key).as_deref(), Some(&b"hello payload"[..]));
        assert_eq!(stat(&cache.stats.hits), 1);
        assert_eq!(stat(&cache.stats.misses), 1);
        assert_eq!(stat(&cache.stats.stores), 1);
    }

    #[test]
    fn distinct_manifests_distinct_keys() {
        assert_ne!(Cache::key("a"), Cache::key("b"));
        assert_eq!(Cache::key("a"), Cache::key("a"));
    }

    #[test]
    fn empty_payload_roundtrips() {
        let dir = TempDir::new("empty");
        let cache = Cache::open(dir.path()).expect("open");
        let key = Cache::key("empty");
        cache.store(&key, b"").expect("store");
        assert_eq!(cache.load(&key).as_deref(), Some(&b""[..]));
    }

    #[test]
    fn truncated_entry_is_quarantined_and_recomputable() {
        let dir = TempDir::new("truncate");
        let cache = Cache::open(dir.path()).expect("open");
        let key = Cache::key("truncate-me");
        cache
            .store(&key, b"some payload that will be cut short")
            .expect("store");
        let path = cache.object_path(&key);
        let full = fs::read(&path).expect("read entry");
        fs::write(&path, &full[..full.len() / 2]).expect("truncate");

        assert_eq!(
            cache.load(&key),
            None,
            "truncated entry must read as a miss"
        );
        assert_eq!(stat(&cache.stats.quarantined), 1);
        assert!(
            !path.exists(),
            "corrupt entry must be moved out of objects/"
        );
        let quarantined = fs::read_dir(dir.path().join("quarantine"))
            .expect("quarantine dir")
            .count();
        assert_eq!(quarantined, 1, "the evidence must be preserved");

        // Recompute path: store again, load cleanly.
        cache.store(&key, b"recomputed").expect("re-store");
        assert_eq!(cache.load(&key).as_deref(), Some(&b"recomputed"[..]));
    }

    #[test]
    fn bit_flip_is_quarantined() {
        let dir = TempDir::new("bitflip");
        let cache = Cache::open(dir.path()).expect("open");
        let key = Cache::key("flip-me");
        cache.store(&key, b"payload under test").expect("store");
        let path = cache.object_path(&key);
        let mut bytes = fs::read(&path).expect("read entry");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).expect("write corrupted");

        assert_eq!(
            cache.load(&key),
            None,
            "bit-flipped entry must read as a miss"
        );
        assert_eq!(stat(&cache.stats.quarantined), 1);
    }

    #[test]
    fn header_corruptions_are_quarantined() {
        // Each mutation targets a different header field: magic,
        // version, declared length.
        type Mutation = fn(&mut Vec<u8>);
        let cases: [(&str, Mutation); 4] = [
            ("magic", |b| b[0] = b'X'),
            ("version", |b| b[4] = 0xee),
            ("declared length", |b| b[8] ^= 0x01),
            ("shorter than header", |b| b.truncate(HEADER - 1)),
        ];
        for (what, mutate) in cases {
            let dir = TempDir::new("header");
            let cache = Cache::open(dir.path()).expect("open");
            let key = Cache::key(what);
            cache.store(&key, b"payload").expect("store");
            let path = cache.object_path(&key);
            let mut bytes = fs::read(&path).expect("read entry");
            mutate(&mut bytes);
            fs::write(&path, &bytes).expect("write corrupted");
            assert_eq!(cache.load(&key), None, "{what} corruption must miss");
            assert_eq!(stat(&cache.stats.quarantined), 1, "{what} must quarantine");
        }
    }

    #[test]
    fn stale_tmp_file_is_swept_at_open_and_never_served() {
        let dir = TempDir::new("staletmp");
        {
            let cache = Cache::open(dir.path()).expect("open");
            let key = Cache::key("interrupted");
            // Simulate a writer killed mid-write: a partial entry in
            // tmp/ that never got renamed.
            let tmp = dir.path().join("tmp").join(format!("{key}.999.0"));
            fs::write(&tmp, b"SCDC\x01\x00\x00\x00partial garbage").expect("write stale tmp");
            drop(cache);
        }
        let cache = Cache::open(dir.path()).expect("reopen");
        assert_eq!(
            stat(&cache.stats.recovered_tmp),
            1,
            "stale tmp must be swept"
        );
        assert_eq!(
            fs::read_dir(dir.path().join("tmp"))
                .expect("tmp dir")
                .count(),
            0,
            "tmp/ must be empty after recovery"
        );
        // The interrupted write never published, so the key is a miss.
        assert_eq!(cache.load(&Cache::key("interrupted")), None);
    }

    #[test]
    fn store_failure_cleans_its_temp_file() {
        let dir = TempDir::new("storefail");
        let cache = Cache::open(dir.path()).expect("open");
        // Force the publish to fail: make the object shard path an
        // existing *file*, so create_dir_all errors.
        let key = Cache::key("blocked");
        let shard = dir.path().join("objects").join(&key[..2]);
        fs::write(&shard, b"not a directory").expect("block shard");
        assert!(cache.store(&key, b"payload").is_err());
        assert_eq!(
            fs::read_dir(dir.path().join("tmp"))
                .expect("tmp dir")
                .count(),
            0,
            "failed store must not leak its temp file"
        );
    }

    #[test]
    fn concurrent_stores_and_loads() {
        let dir = TempDir::new("concurrent");
        let cache = Cache::open(dir.path()).expect("open");
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..16 {
                        let key = Cache::key(&format!("item-{}", (t * 16 + i) % 8));
                        let payload = format!("payload-{}", (t * 16 + i) % 8);
                        cache.store(&key, payload.as_bytes()).expect("store");
                        assert_eq!(cache.load(&key), Some(payload.into_bytes()));
                    }
                });
            }
        });
        assert_eq!(stat(&cache.stats.quarantined), 0);
    }

    #[test]
    fn flush_is_safe_to_call() {
        let dir = TempDir::new("flush");
        let cache = Cache::open(dir.path()).expect("open");
        cache.store(&Cache::key("x"), b"p").expect("store");
        cache.flush();
    }
}
