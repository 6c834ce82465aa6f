//! The on-disk, content-addressed, crash-consistent schedule cache.
//!
//! Artifacts are the existing `.sched` text format (see `ktiler::io`),
//! stored as `<dir>/<key>.sched` where `<key>` is the 32-hex-digit
//! [`CacheKey`] of the request's content hash. The format and the naming
//! are the whole contract: a cache directory can be inspected with a
//! pager, primed by `ktiler_tool schedule --out`, or shipped to another
//! machine.
//!
//! **Trust model.** An artifact on disk is untrusted input — it may be
//! truncated, hand-edited, produced by an older binary whose tiler had a
//! bug, or simply corrupted. [`ScheduleCache::probe`] therefore runs the
//! full [`ktiler::verify_schedule`] pass against the *current* request's
//! graph, trace and tiling parameters; anything short of a clean report
//! degrades to a cache miss (and a recompute that replaces the bad
//! artifact), never to a bad schedule. The service probes each artifact
//! once per process: it keeps the exact bytes it verified in memory and
//! serves a later read only if the file still holds those bytes, compared
//! byte for byte (see [`crate::service`]). Any other content — a changed,
//! swapped or missing file — goes through the probe again.
//!
//! **Quarantine.** A bad artifact is evidence — of bit rot, of a tiler
//! bug, of operator error — so instead of silently overwriting it, the
//! probe renames it to `<key>.sched.bad` for inspection. At most one
//! quarantined file is kept per key: a second corruption of the same key
//! replaces the first, so a flapping artifact cannot fill the disk. A
//! quarantine rename that itself fails is counted
//! (`quarantine_failures`) and reported in the probe's reason — the
//! recompute that follows replaces the artifact either way.
//!
//! **Durability contract** (DESIGN.md §16). A store is *committed* only
//! once three steps have all succeeded, in order: the text is written to
//! a same-directory temporary file, the temporary file is fsynced, and
//! the rename over the final path is made durable by fsyncing the
//! directory. A crash — including SIGKILL — at any point leaves either
//! the old committed artifact (or nothing) or the new one, never a torn
//! file under the live name. Temporary files orphaned by a crash are
//! swept on [`ScheduleCache::open`]; they are uncommitted by definition.
//!
//! **Disk pressure.** Running out of space is an operational state, not
//! an error: a store that hits ENOSPC cleans up its temporary file,
//! counts `store_skipped`, and reports [`StoreOutcome::SkippedNoSpace`] —
//! the computed schedule is still served, only the persist is bypassed.
//! An optional size budget bounds the directory: after each committed
//! store (and after an ENOSPC, to make room) a sweeper evicts artifacts
//! least-recently-modified-first — quarantined `.bad` files before live
//! ones — until the directory fits the budget again.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use kgraph::{AppGraph, GraphTrace};
use ktiler::{schedule_from_text, verify_schedule, Schedule, TileParams};

use crate::fault::{points, FaultInjector};
use crate::key::CacheKey;
use crate::metrics::{bump, Metrics};

/// Outcome of probing the cache for a key.
#[derive(Debug)]
pub enum CacheProbe {
    /// A verified artifact was found; the stored text and parsed schedule.
    Hit {
        /// The artifact's exact bytes as stored on disk.
        text: String,
        /// The parsed schedule.
        schedule: Schedule,
    },
    /// No artifact exists for this key.
    Absent,
    /// An artifact exists but failed parsing or verification; the reason
    /// is reported so the caller can count and log it before recomputing.
    Invalid(String),
}

/// Outcome of a successful [`ScheduleCache::store`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The artifact was durably committed under its final name.
    Stored,
    /// The volume is out of space; the store was skipped (cache-bypass).
    /// The caller serves the computed schedule as usual — only the
    /// persist is lost, and `store_skipped` counts it.
    SkippedNoSpace,
}

/// A directory of content-addressed `.sched` artifacts.
#[derive(Debug, Clone)]
pub struct ScheduleCache {
    dir: PathBuf,
    budget_bytes: Option<u64>,
    faults: Arc<FaultInjector>,
    metrics: Arc<Metrics>,
    tmp_recovered: u64,
}

/// Whether an I/O error means the volume is out of space.
fn is_no_space(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::StorageFull || e.raw_os_error() == Some(28)
}

impl ScheduleCache {
    /// Opens (creating if needed) a cache rooted at `dir`, and removes
    /// any temporary files orphaned by a crashed store — a `.tmp.*` file
    /// is uncommitted by definition (commit is the rename), so deleting
    /// it can never lose a committed artifact. The number removed is
    /// reported by [`ScheduleCache::tmp_recovered`].
    ///
    /// # Errors
    ///
    /// Any error from creating or scanning the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut recovered = 0;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.contains(".sched.tmp.") && std::fs::remove_file(&path).is_ok() {
                recovered += 1;
            }
        }
        Ok(ScheduleCache {
            dir,
            budget_bytes: None,
            faults: FaultInjector::inert(),
            metrics: Arc::new(Metrics::default()),
            tmp_recovered: recovered,
        })
    }

    /// Attaches the service's fault injector (builder-style); without
    /// one the cache's fault points are inert.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<FaultInjector>) -> Self {
        self.faults = faults;
        self
    }

    /// Attaches the service's metrics registry (builder-style); without
    /// one the cache counts against a private, unobserved registry.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the size budget in bytes (builder-style). `None` disables
    /// the sweeper; `Some(n)` keeps the directory's `.sched` +
    /// `.sched.bad` footprint at or under `n` bytes by evicting
    /// least-recently-modified artifacts after each committed store.
    #[must_use]
    pub fn with_budget(mut self, budget_bytes: Option<u64>) -> Self {
        self.budget_bytes = budget_bytes;
        self
    }

    /// Torn temporary files removed by [`ScheduleCache::open`].
    pub fn tmp_recovered(&self) -> u64 {
        self.tmp_recovered
    }

    /// The directory this cache lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The artifact path of a key (whether or not it exists).
    pub fn path_of(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{key}.sched"))
    }

    /// Where a bad artifact of `key` is quarantined for inspection.
    pub fn quarantine_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{key}.sched.bad"))
    }

    /// Moves a bad artifact aside to [`Self::quarantine_path`], replacing
    /// any earlier quarantined file of the same key (cap: one per key).
    /// A failed rename leaves the bad artifact under its live name (the
    /// recompute's store will replace it); the failure is counted and
    /// returned so the probe can report it.
    fn quarantine(&self, key: &CacheKey) -> Result<(), io::Error> {
        match std::fs::rename(self.path_of(key), self.quarantine_path(key)) {
            Ok(()) => Ok(()),
            Err(e) => {
                bump(&self.metrics.quarantine_failures);
                Err(e)
            }
        }
    }

    /// Quarantines and renders the probe's `Invalid` reason, appending
    /// the quarantine failure (if any) so it is never silently dropped.
    fn invalidate(&self, key: &CacheKey, reason: String) -> CacheProbe {
        match self.quarantine(key) {
            Ok(()) => CacheProbe::Invalid(reason),
            Err(e) => CacheProbe::Invalid(format!("{reason}; quarantine failed: {e}")),
        }
    }

    /// Probes the cache: loads, parses and verifies the artifact of `key`
    /// against the request's graph, trace and tiling parameters. A bad
    /// artifact is quarantined (renamed to `<key>.sched.bad`) before the
    /// probe reports it invalid.
    ///
    /// I/O errors other than "not found" are treated as [`CacheProbe::Invalid`]
    /// — a cache must degrade to recomputation, not fail the request.
    pub fn probe(
        &self,
        key: &CacheKey,
        g: &AppGraph,
        gt: &GraphTrace,
        params: &TileParams,
    ) -> CacheProbe {
        let path = self.path_of(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return CacheProbe::Absent,
            Err(e) => {
                return self.invalidate(key, format!("read {}: {e}", path.display()));
            }
        };
        let schedule = match schedule_from_text(&text) {
            Ok(s) => s,
            Err(e) => {
                return self.invalidate(key, format!("parse {}: {e}", path.display()));
            }
        };
        let report = verify_schedule(&schedule, g, gt, params);
        if !report.is_clean() {
            return self.invalidate(key, format!("verify {}: {report}", path.display()));
        }
        CacheProbe::Hit { text, schedule }
    }

    /// Loads the raw artifact text of `key`, **without** verification.
    /// Two callers: the `FETCH` path serving a peer's read-through fill
    /// (the fetching node verifies the text against its own request
    /// context before serving or storing it), and the service's warm HIT,
    /// which serves the text only if it equals bytes this process has
    /// already verified.
    pub fn load_text(&self, key: &CacheKey) -> Option<String> {
        std::fs::read_to_string(self.path_of(key)).ok()
    }

    /// Persists an artifact crash-consistently:
    ///
    /// 1. the text is written to a temporary file in the same directory;
    /// 2. the temporary file is fsynced (fault point `cache.fsync`) —
    ///    nothing unsynced is ever renamed into the live namespace;
    /// 3. it is renamed over the final path, so a concurrent reader sees
    ///    either the old artifact or the new one, never a torn write;
    /// 4. the directory is fsynced, making the rename itself durable.
    ///
    /// ENOSPC anywhere along the way (fault point `cache.enospc`)
    /// degrades to cache-bypass: the temporary file is removed, the skip
    /// is counted, and the call *succeeds* with
    /// [`StoreOutcome::SkippedNoSpace`] — running out of disk must never
    /// fail a request that already holds its computed schedule. A
    /// committed store (and an ENOSPC, to make room) triggers the size
    /// budget sweeper, if one is configured.
    ///
    /// # Errors
    ///
    /// Any non-ENOSPC error from writing, syncing or renaming the
    /// temporary file. The temporary file is removed on every error path.
    pub fn store(&self, key: &CacheKey, text: &str) -> io::Result<StoreOutcome> {
        let final_path = self.path_of(key);
        let tmp_path = self.dir.join(format!("{key}.sched.tmp.{}", std::process::id()));
        match self.store_inner(&tmp_path, &final_path, text) {
            Ok(()) => {
                self.sweep_if_over_budget();
                Ok(StoreOutcome::Stored)
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp_path);
                if is_no_space(&e) {
                    bump(&self.metrics.store_skipped);
                    // Make room so a later store can succeed again.
                    self.sweep_if_over_budget();
                    Ok(StoreOutcome::SkippedNoSpace)
                } else {
                    Err(e)
                }
            }
        }
    }

    fn store_inner(&self, tmp_path: &Path, final_path: &Path, text: &str) -> io::Result<()> {
        self.faults
            .fire_io(points::CACHE_ENOSPC)
            .map_err(|e| io::Error::new(io::ErrorKind::StorageFull, e))?;
        let mut f = std::fs::File::create(tmp_path)?;
        io::Write::write_all(&mut f, text.as_bytes())?;
        // The fsync fault fires while the artifact is still only a tmp
        // file — the exact window a SIGKILL must be able to hit without
        // corrupting the committed namespace.
        self.faults.fire_io(points::CACHE_FSYNC)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(tmp_path, final_path)?;
        // Make the rename durable. The artifact is already valid and
        // readable; a failure here only means the *directory entry* may
        // not survive a power cut, so it is reported as a store failure
        // (response still served) without removing the committed file.
        std::fs::File::open(&self.dir)?.sync_all()
    }

    /// Runs the sweeper when a budget is configured; sweep errors are
    /// deliberately swallowed (eviction is advisory — the next store
    /// retries it), but evictions are counted.
    fn sweep_if_over_budget(&self) {
        if self.budget_bytes.is_some() {
            let _ = self.sweep();
        }
    }

    /// Evicts artifacts — quarantined `.sched.bad` files first, then
    /// live `.sched` files, each least-recently-modified first — until
    /// the directory's artifact footprint fits the configured budget.
    /// Returns the number of files evicted. A no-op without a budget.
    ///
    /// # Errors
    ///
    /// The injected `cache.sweep` fault, or any error scanning the
    /// directory. Races with concurrent stores/loads are benign: a file
    /// that vanishes mid-sweep is simply skipped.
    pub fn sweep(&self) -> io::Result<u64> {
        let Some(budget) = self.budget_bytes else {
            return Ok(0);
        };
        self.faults.fire_io(points::CACHE_SWEEP)?;
        // (is_live, mtime, size, path): sorting puts quarantined files
        // (is_live = false) ahead of live ones, oldest first within each.
        let mut entries: Vec<(bool, std::time::SystemTime, u64, PathBuf)> = Vec::new();
        let mut total: u64 = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            let is_live = name.ends_with(".sched");
            if !is_live && !name.ends_with(".sched.bad") {
                continue;
            }
            let Ok(md) = entry.metadata() else { continue };
            let mtime = md.modified().unwrap_or(std::time::UNIX_EPOCH);
            total += md.len();
            entries.push((is_live, mtime, md.len(), path));
        }
        if total <= budget {
            return Ok(0);
        }
        entries.sort_by_key(|e| (e.0, e.1));
        let mut evicted = 0;
        for (_, _, size, path) in entries {
            if total <= budget {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(size);
                evicted += 1;
                bump(&self.metrics.cache_evictions);
            }
        }
        Ok(evicted)
    }

    /// The keys of every live `.sched` artifact, sorted — the node's
    /// side of the anti-entropy `DIGEST` exchange. Quarantined and
    /// temporary files are excluded: a key whose artifact was
    /// quarantined is *missing* from this digest, which is exactly what
    /// makes a peer's copy eligible to be pulled back in.
    ///
    /// # Errors
    ///
    /// Any error from reading the directory.
    pub fn keys(&self) -> io::Result<Vec<CacheKey>> {
        let mut keys = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if let Some(stem) = name.strip_suffix(".sched") {
                if let Ok(key) = stem.parse::<CacheKey>() {
                    keys.push(key);
                }
            }
        }
        keys.sort_unstable_by_key(|k| (k.hi, k.lo));
        Ok(keys)
    }

    /// Number of `.sched` artifacts currently in the cache directory.
    ///
    /// # Errors
    ///
    /// Any error from reading the directory.
    pub fn len(&self) -> io::Result<usize> {
        let mut n = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "sched") {
                n += 1;
            }
        }
        Ok(n)
    }

    /// Whether the cache directory holds no artifacts.
    ///
    /// # Errors
    ///
    /// Any error from reading the directory.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::metrics::Metrics;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("ktiler-cache-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u64) -> CacheKey {
        CacheKey { hi: n, lo: !n }
    }

    fn armed(point: &str, spec: FaultSpec) -> Arc<FaultInjector> {
        let inj = FaultInjector::inert();
        inj.load_plan(&FaultPlan::new(1).arm(point, spec));
        inj
    }

    #[test]
    fn store_commits_and_leaves_no_tmp_file() {
        let dir = temp_dir("commit");
        let cache = ScheduleCache::open(&dir).expect("open");
        let k = key(1);
        assert_eq!(cache.store(&k, "artifact body\n").expect("store"), StoreOutcome::Stored);
        assert_eq!(cache.load_text(&k).as_deref(), Some("artifact body\n"));
        assert_eq!(cache.keys().expect("keys"), vec![k]);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "tmp files must not survive a commit: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_fault_fails_the_store_without_touching_the_live_name() {
        let dir = temp_dir("fsync");
        let cache = ScheduleCache::open(&dir)
            .expect("open")
            .with_faults(armed(points::CACHE_FSYNC, FaultSpec::io("injected fsync failure")));
        let k = key(2);
        assert!(cache.store(&k, "old\n").is_err());
        assert!(!cache.path_of(&k).exists(), "a failed store must not commit");
        assert!(
            std::fs::read_dir(&dir).expect("read dir").next().is_none(),
            "the error path must remove its tmp file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_degrades_to_cache_bypass_and_counts_the_skip() {
        let dir = temp_dir("enospc");
        let metrics = Arc::new(Metrics::default());
        let cache = ScheduleCache::open(&dir)
            .expect("open")
            .with_faults(armed(points::CACHE_ENOSPC, FaultSpec::io("disk full")))
            .with_metrics(Arc::clone(&metrics));
        let k = key(3);
        assert_eq!(cache.store(&k, "body\n").expect("bypass"), StoreOutcome::SkippedNoSpace);
        assert!(!cache.path_of(&k).exists());
        assert_eq!(Metrics::get(&metrics.store_skipped), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tmp_files_are_recovered_on_open() {
        let dir = temp_dir("torn");
        {
            let cache = ScheduleCache::open(&dir).expect("open");
            cache.store(&key(4), "committed\n").expect("store");
        }
        // A crash between create and rename leaves exactly this.
        std::fs::write(dir.join(format!("{}.sched.tmp.999", key(5))), "torn half-wri")
            .expect("tmp");
        let cache = ScheduleCache::open(&dir).expect("reopen");
        assert_eq!(cache.tmp_recovered(), 1);
        assert_eq!(cache.keys().expect("keys"), vec![key(4)], "committed artifact must survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweeper_evicts_quarantined_files_first_then_oldest_live() {
        let dir = temp_dir("sweep");
        let metrics = Arc::new(Metrics::default());
        let cache = ScheduleCache::open(&dir)
            .expect("open")
            .with_metrics(Arc::clone(&metrics))
            .with_budget(None);
        let body = "x".repeat(100);
        for n in 10..15 {
            cache.store(&key(n), &body).expect("store");
            // mtime order must match store order even on coarse clocks.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        std::fs::write(cache.quarantine_path(&key(99)), &body).expect("bad file");
        // 6 files x 100 bytes; a 350-byte budget must evict the .bad file
        // first and then the two oldest live artifacts.
        let cache = cache.with_budget(Some(350));
        assert_eq!(cache.sweep().expect("sweep"), 3);
        assert!(!cache.quarantine_path(&key(99)).exists(), "quarantined file evicts first");
        assert_eq!(
            cache.keys().expect("keys"),
            vec![key(12), key(13), key(14)],
            "oldest live evict next"
        );
        assert_eq!(Metrics::get(&metrics.cache_evictions), 3);
        // Under budget: the sweeper is a no-op.
        assert_eq!(cache.sweep().expect("sweep"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_fault_is_contained_to_the_sweeper() {
        let dir = temp_dir("sweepfault");
        let cache = ScheduleCache::open(&dir)
            .expect("open")
            .with_faults(armed(points::CACHE_SWEEP, FaultSpec::io("injected sweep failure")))
            .with_budget(Some(1));
        // The store still commits; the failed sweep is advisory.
        assert_eq!(cache.store(&key(6), "body\n").expect("store"), StoreOutcome::Stored);
        assert!(cache.path_of(&key(6)).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
