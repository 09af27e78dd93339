//! The disk: a set of append-only page files with I/O counters, behind a
//! pluggable [`PageStore`] backend.
//!
//! Two backends implement the same page-file contract:
//!
//! * [`MemStore`] (the default, [`Disk::new`]) — a process-wide
//!   `HashMap<FileId, Vec<Bytes>>`. Nothing survives the process; unit
//!   tests and in-memory instances use it because it is fast and needs
//!   no directory.
//! * [`FileStore`] ([`Disk::file_backed`]) — one append-only file per
//!   LSM component under a configurable data directory. Every page is
//!   framed as `len ‖ crc32 ‖ payload`; the CRC is verified on read and a
//!   mismatch surfaces as a typed corruption error
//!   ([`IoError::corruption`], [`crate::fault::IoErrorKind::Corruption`]),
//!   never as silently wrong bytes. Files are fsynced when a component is
//!   sealed ([`Disk::sync`]), which is what lets the manifest reference
//!   them after a crash.
//!
//! I/O counts — not wall-clock seek times — remain the first-class
//! metric; they drive the buffer-cache experiments and the index-size
//! accounting of Table 5, and they are identical across backends.
//!
//! Every read and append consults the optional [`FaultInjector`] first,
//! so storage failures surface as typed [`IoError`]s that propagate up
//! through cache → component → LSM → index instead of panicking.
//!
//! Deleting a file also invalidates its pages in every
//! [`crate::cache::BufferCache`] registered via [`Disk::register_cache`]
//! (caches built with [`crate::cache::BufferCache::shared`] register
//! themselves), so a deleted component's pages never linger in cache
//! until LRU churn happens to evict them.

use crate::fault::{FaultInjector, IoError, IoOp};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt::Debug;
use std::fs::{File, OpenOptions};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Identifies one page file (one LSM component).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// CRC-32 (IEEE 802.3 polynomial, the `zlib`/`gzip` checksum), table
/// driven. Hand-rolled because the workspace vendors no checksum crate;
/// the WAL and the file-backed page store both frame their records with
/// it.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The backend contract behind [`Disk`]: an append-only page file store.
/// Implementations do **not** consult the fault injector or bump I/O
/// counters — the [`Disk`] facade does both before delegating.
pub trait PageStore: Send + Sync + Debug {
    /// Create the (empty) file for a pre-allocated id.
    fn create(&self, file: FileId) -> Result<(), IoError>;
    /// Append one page, returning its page number.
    fn append(&self, file: FileId, page: Bytes) -> Result<u32, IoError>;
    /// Read one page; `Ok(None)` when the file or page does not exist.
    fn read(&self, file: FileId, page_no: u32) -> Result<Option<Bytes>, IoError>;
    /// Drop a file (best-effort; a missing file is not an error).
    fn delete(&self, file: FileId);
    /// Force the file's pages to stable storage (no-op for [`MemStore`]).
    fn sync(&self, file: FileId) -> Result<(), IoError>;
    /// Number of pages in the file (0 when absent).
    fn file_pages(&self, file: FileId) -> u32;
    /// Total payload bytes in the file (0 when absent).
    fn file_bytes(&self, file: FileId) -> u64;
    /// Total payload bytes across all live files.
    fn total_bytes(&self) -> u64;
    /// Every live file id, unordered.
    fn list_files(&self) -> Vec<FileId>;
    /// True when pages survive a process restart (drives fsync
    /// accounting: a memory store never fsyncs).
    fn is_durable(&self) -> bool;
}

/// The in-memory backend: pages live in a `HashMap` and die with the
/// process. This is the seed behaviour, kept for unit tests and
/// in-memory instances.
#[derive(Debug, Default)]
pub struct MemStore {
    files: Mutex<HashMap<FileId, Vec<Bytes>>>,
}

impl PageStore for MemStore {
    fn create(&self, file: FileId) -> Result<(), IoError> {
        self.files.lock().insert(file, Vec::new());
        Ok(())
    }

    fn append(&self, file: FileId, page: Bytes) -> Result<u32, IoError> {
        let mut files = self.files.lock();
        let pages = files
            .get_mut(&file)
            .ok_or_else(|| IoError::permanent(format!("append to deleted file {}", file.0)))?;
        pages.push(page);
        Ok((pages.len() - 1) as u32)
    }

    fn read(&self, file: FileId, page_no: u32) -> Result<Option<Bytes>, IoError> {
        Ok(self
            .files
            .lock()
            .get(&file)
            .and_then(|pages| pages.get(page_no as usize).cloned()))
    }

    fn delete(&self, file: FileId) {
        self.files.lock().remove(&file);
    }

    fn sync(&self, _file: FileId) -> Result<(), IoError> {
        Ok(())
    }

    fn file_pages(&self, file: FileId) -> u32 {
        self.files.lock().get(&file).map_or(0, |p| p.len() as u32)
    }

    fn file_bytes(&self, file: FileId) -> u64 {
        self.files
            .lock()
            .get(&file)
            .map_or(0, |p| p.iter().map(|b| b.len() as u64).sum())
    }

    fn total_bytes(&self) -> u64 {
        self.files
            .lock()
            .values()
            .map(|pages| pages.iter().map(|b| b.len() as u64).sum::<u64>())
            .sum()
    }

    fn list_files(&self) -> Vec<FileId> {
        self.files.lock().keys().copied().collect()
    }

    fn is_durable(&self) -> bool {
        false
    }
}

/// Byte length of a page frame header: `u32 payload_len ‖ u32 crc32`.
const FRAME_HEADER: u64 = 8;

#[derive(Debug)]
struct FileEntry {
    handle: File,
    /// `(payload offset, payload len)` per page, in page order.
    pages: Vec<(u64, u32)>,
    /// Total payload bytes (frame headers excluded).
    bytes: u64,
    /// Write position for the next frame.
    end: u64,
}

/// The durable backend: one append-only file per [`FileId`] under a data
/// directory, named `f<id>.cmp`. Pages are framed
/// `u32 len ‖ u32 crc32(payload) ‖ payload` (little-endian); the CRC is
/// verified on every read. Appends buffer in the OS page cache until
/// [`PageStore::sync`] (fsync-on-seal) — a component is only referenced
/// by the manifest after it has been sealed, so a crash can only tear
/// files the manifest does not yet know about.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    files: Mutex<HashMap<FileId, FileEntry>>,
}

fn os_err(context: &str, e: std::io::Error) -> IoError {
    IoError::permanent(format!("{context}: {e}"))
}

/// Result of walking a component file's frames: the `(offset, len)` of
/// each complete page, total payload bytes, end offset of the last
/// complete frame, and whether a torn tail followed it.
type FrameScan = (Vec<(u64, u32)>, u64, u64, bool);

impl FileStore {
    fn path(&self, file: FileId) -> PathBuf {
        self.dir.join(format!("f{}.cmp", file.0))
    }

    /// Open (creating if needed) a store rooted at `dir`, scanning any
    /// existing `f<id>.cmp` files. Returns the store and the highest file
    /// id seen (for [`Disk`]'s id allocator). A torn final frame — the
    /// signature of a crash mid-append, before the seal fsync — is
    /// truncated away; sealed files are never torn, and a manifest that
    /// references a truncated file is detected at recovery by its
    /// recorded page count.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(FileStore, u64), IoError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| os_err("create data dir", e))?;
        let mut files = HashMap::new();
        let mut max_id = 0u64;
        let entries = std::fs::read_dir(&dir).map_err(|e| os_err("read data dir", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| os_err("read data dir entry", e))?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix('f'))
                .and_then(|n| n.strip_suffix(".cmp"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue; // not a component file (wal/, MANIFEST, …)
            };
            let path = entry.path();
            let mut handle = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .map_err(|e| os_err("open component file", e))?;
            let (pages, bytes, end, torn) = Self::scan_frames(&mut handle)?;
            if torn {
                handle
                    .set_len(end)
                    .map_err(|e| os_err("truncate torn component tail", e))?;
            }
            max_id = max_id.max(id);
            files.insert(
                FileId(id),
                FileEntry {
                    handle,
                    pages,
                    bytes,
                    end,
                },
            );
        }
        Ok((
            FileStore {
                dir,
                files: Mutex::new(files),
            },
            max_id,
        ))
    }

    /// Walk the frames of an open file: `(pages, payload bytes, end
    /// offset of the last complete frame, torn-tail?)`. Only frame
    /// *structure* is validated here; payload CRCs are checked on read.
    fn scan_frames(handle: &mut File) -> Result<FrameScan, IoError> {
        let len = handle
            .metadata()
            .map_err(|e| os_err("stat component file", e))?
            .len();
        let mut buf = Vec::with_capacity(len as usize);
        handle
            .read_to_end(&mut buf)
            .map_err(|e| os_err("read component file", e))?;
        let mut pages = Vec::new();
        let mut bytes = 0u64;
        let mut off = 0u64;
        loop {
            let rest = &buf[off as usize..];
            if rest.is_empty() {
                return Ok((pages, bytes, off, false));
            }
            if rest.len() < FRAME_HEADER as usize {
                return Ok((pages, bytes, off, true)); // torn header
            }
            let plen = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as u64;
            if (rest.len() as u64) < FRAME_HEADER + plen {
                return Ok((pages, bytes, off, true)); // torn payload
            }
            pages.push((off + FRAME_HEADER, plen as u32));
            bytes += plen;
            off += FRAME_HEADER + plen;
        }
    }
}

impl PageStore for FileStore {
    fn create(&self, file: FileId) -> Result<(), IoError> {
        let handle = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.path(file))
            .map_err(|e| os_err("create component file", e))?;
        self.files.lock().insert(
            file,
            FileEntry {
                handle,
                pages: Vec::new(),
                bytes: 0,
                end: 0,
            },
        );
        Ok(())
    }

    fn append(&self, file: FileId, page: Bytes) -> Result<u32, IoError> {
        use std::os::unix::fs::FileExt;
        let mut files = self.files.lock();
        let entry = files
            .get_mut(&file)
            .ok_or_else(|| IoError::permanent(format!("append to deleted file {}", file.0)))?;
        let mut frame = Vec::with_capacity(FRAME_HEADER as usize + page.len());
        frame.extend_from_slice(&(page.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&page).to_le_bytes());
        frame.extend_from_slice(&page);
        entry
            .handle
            .write_all_at(&frame, entry.end)
            .map_err(|e| os_err("append page", e))?;
        entry.pages.push((entry.end + FRAME_HEADER, page.len() as u32));
        entry.bytes += page.len() as u64;
        entry.end += frame.len() as u64;
        Ok((entry.pages.len() - 1) as u32)
    }

    fn read(&self, file: FileId, page_no: u32) -> Result<Option<Bytes>, IoError> {
        use std::os::unix::fs::FileExt;
        let files = self.files.lock();
        let Some(entry) = files.get(&file) else {
            return Ok(None);
        };
        let Some(&(off, plen)) = entry.pages.get(page_no as usize) else {
            return Ok(None);
        };
        let mut payload = vec![0u8; plen as usize];
        entry
            .handle
            .read_exact_at(&mut payload, off)
            .map_err(|e| os_err("read page", e))?;
        let mut header = [0u8; 4];
        entry
            .handle
            .read_exact_at(&mut header, off - 4)
            .map_err(|e| os_err("read page header", e))?;
        let stored = u32::from_le_bytes(header);
        let computed = crc32(&payload);
        if stored != computed {
            return Err(IoError::corruption(format!(
                "page checksum mismatch in file {} page {page_no}: stored {stored:#010x}, computed {computed:#010x}",
                file.0
            )));
        }
        Ok(Some(Bytes::from(payload)))
    }

    fn delete(&self, file: FileId) {
        if self.files.lock().remove(&file).is_some() {
            let _ = std::fs::remove_file(self.path(file));
        }
    }

    fn sync(&self, file: FileId) -> Result<(), IoError> {
        let files = self.files.lock();
        let Some(entry) = files.get(&file) else {
            return Ok(()); // deleted while sealing: nothing to persist
        };
        entry.handle.sync_all().map_err(|e| os_err("fsync", e))
    }

    fn file_pages(&self, file: FileId) -> u32 {
        self.files.lock().get(&file).map_or(0, |e| e.pages.len() as u32)
    }

    fn file_bytes(&self, file: FileId) -> u64 {
        self.files.lock().get(&file).map_or(0, |e| e.bytes)
    }

    fn total_bytes(&self) -> u64 {
        self.files.lock().values().map(|e| e.bytes).sum()
    }

    fn list_files(&self) -> Vec<FileId> {
        self.files.lock().keys().copied().collect()
    }

    fn is_durable(&self) -> bool {
        true
    }
}

/// The disk shared by all indexes of one partition: a [`PageStore`]
/// backend plus I/O counters, the fault-injection hook, and cache
/// delete-invalidation fan-out.
#[derive(Debug)]
pub struct Disk {
    backend: Box<dyn PageStore>,
    /// Directory of a file-backed disk; `None` for the in-memory backend.
    data_dir: Option<PathBuf>,
    next_file: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    fsyncs: AtomicU64,
    fault: Mutex<Option<Arc<FaultInjector>>>,
    /// Buffer caches to invalidate on [`Disk::delete`] (weak: the cache
    /// owns the disk, not the other way around).
    caches: Mutex<Vec<Weak<crate::cache::BufferCache>>>,
}

impl Default for Disk {
    fn default() -> Self {
        Self::new()
    }
}

impl Disk {
    /// An in-memory disk (the seed behaviour): fast, test-friendly,
    /// nothing survives the process.
    pub fn new() -> Self {
        Disk {
            backend: Box::new(MemStore::default()),
            data_dir: None,
            next_file: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            fault: Mutex::new(None),
            caches: Mutex::new(Vec::new()),
        }
    }

    /// A file-backed disk rooted at `dir` (created if absent). Existing
    /// component files are scanned and re-exposed under their original
    /// [`FileId`]s — the manifest decides which of them are live.
    pub fn file_backed(dir: impl Into<PathBuf>) -> Result<Self, IoError> {
        let (store, max_id) = FileStore::open(dir)?;
        let dir = store.dir.clone();
        Ok(Disk {
            backend: Box::new(store),
            data_dir: Some(dir),
            next_file: AtomicU64::new(max_id + 1),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            fault: Mutex::new(None),
            caches: Mutex::new(Vec::new()),
        })
    }

    /// The data directory of a file-backed disk; `None` when in-memory.
    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// True when this disk's pages survive a restart.
    pub fn is_durable(&self) -> bool {
        self.backend.is_durable()
    }

    /// Install (or replace) the fault injector consulted by every I/O.
    pub fn set_fault_injector(&self, injector: Arc<FaultInjector>) {
        *self.fault.lock() = Some(injector);
    }

    /// Remove the fault injector; subsequent I/O always succeeds.
    pub fn clear_fault_injector(&self) {
        *self.fault.lock() = None;
    }

    /// The currently installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.fault.lock().clone()
    }

    /// Consult the injector for a (possibly file-less) operation. The LSM
    /// layer uses this for [`IoOp::Flush`] checks before building a run;
    /// the WAL and manifest use it for their `WalAppend`/`WalFlush`/
    /// `ManifestCommit` checks.
    pub fn fault_check(&self, op: IoOp, file: Option<FileId>) -> Result<(), IoError> {
        match &*self.fault.lock() {
            Some(inj) => inj.check(op, file),
            None => Ok(()),
        }
    }

    /// Register a buffer cache for delete-invalidation: when a file is
    /// deleted, its pages are dropped from every registered cache
    /// immediately instead of lingering until LRU churn evicts them.
    pub fn register_cache(&self, cache: &Arc<crate::cache::BufferCache>) {
        let mut caches = self.caches.lock();
        caches.retain(|w| w.strong_count() > 0);
        caches.push(Arc::downgrade(cache));
    }

    /// Create a new empty file.
    pub fn create(&self) -> Result<FileId, IoError> {
        let id = FileId(self.next_file.fetch_add(1, Ordering::Relaxed));
        self.backend.create(id)?;
        Ok(id)
    }

    /// Append a page to a file, returning its page number.
    pub fn append(&self, file: FileId, page: Bytes) -> Result<u32, IoError> {
        self.fault_check(IoOp::Append, Some(file))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.backend.append(file, page)
    }

    /// Read a page (counted as one physical I/O). `Ok(None)` means the
    /// page does not exist; `Err` is a (possibly injected) device fault
    /// or — on the file-backed store — a typed corruption error when the
    /// page's CRC32 does not match.
    pub fn read(&self, file: FileId, page_no: u32) -> Result<Option<Bytes>, IoError> {
        self.fault_check(IoOp::Read, Some(file))?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.backend.read(file, page_no)
    }

    /// Drop a file (after a merge supersedes its component), invalidating
    /// its pages in every registered buffer cache.
    pub fn delete(&self, file: FileId) {
        self.backend.delete(file);
        let caches = self.caches.lock();
        for weak in caches.iter() {
            if let Some(cache) = weak.upgrade() {
                cache.invalidate_file(file);
            }
        }
    }

    /// Force a file's pages to stable storage (fsync-on-seal). A no-op
    /// on the in-memory backend; on the file-backed store this is the
    /// barrier after which the manifest may reference the component.
    pub fn sync(&self, file: FileId) -> Result<(), IoError> {
        if self.backend.is_durable() {
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        self.backend.sync(file)
    }

    /// Number of pages in a file (0 when absent).
    pub fn file_pages(&self, file: FileId) -> u32 {
        self.backend.file_pages(file)
    }

    /// Total payload bytes in a file (0 when absent).
    pub fn file_bytes(&self, file: FileId) -> u64 {
        self.backend.file_bytes(file)
    }

    /// Total bytes across all live files.
    pub fn total_bytes(&self) -> u64 {
        self.backend.total_bytes()
    }

    /// Every live file id, unordered (recovery's orphan sweep compares
    /// this against the manifest's referenced set).
    pub fn list_files(&self) -> Vec<FileId> {
        self.backend.list_files()
    }

    /// Physical page reads performed (faulted attempts excluded).
    pub fn physical_reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Physical page appends performed (faulted attempts excluded).
    pub fn physical_writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Component-seal fsyncs performed (always 0 for the in-memory
    /// backend; WAL fsyncs are counted by the WAL itself).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultRule;

    #[test]
    fn create_append_read() {
        let d = Disk::new();
        let f = d.create().unwrap();
        let p0 = d.append(f, Bytes::from_static(b"page0")).unwrap();
        let p1 = d.append(f, Bytes::from_static(b"page1")).unwrap();
        assert_eq!(p0, 0);
        assert_eq!(p1, 1);
        assert_eq!(d.read(f, 0).unwrap().unwrap().as_ref(), b"page0");
        assert_eq!(d.read(f, 1).unwrap().unwrap().as_ref(), b"page1");
        assert_eq!(d.read(f, 2).unwrap(), None);
        assert_eq!(d.physical_reads(), 3);
        assert_eq!(d.physical_writes(), 2);
    }

    #[test]
    fn delete_frees_space() {
        let d = Disk::new();
        let f = d.create().unwrap();
        d.append(f, Bytes::from_static(b"0123456789")).unwrap();
        assert_eq!(d.total_bytes(), 10);
        d.delete(f);
        assert_eq!(d.total_bytes(), 0);
        assert_eq!(d.read(f, 0).unwrap(), None);
    }

    #[test]
    fn distinct_files() {
        let d = Disk::new();
        let f1 = d.create().unwrap();
        let f2 = d.create().unwrap();
        assert_ne!(f1, f2);
        d.append(f1, Bytes::from_static(b"a")).unwrap();
        assert_eq!(d.file_pages(f1), 1);
        assert_eq!(d.file_pages(f2), 0);
    }

    #[test]
    fn append_to_deleted_file_is_error_not_panic() {
        let d = Disk::new();
        let f = d.create().unwrap();
        d.delete(f);
        let err = d.append(f, Bytes::from_static(b"x")).unwrap_err();
        assert!(!err.transient);
        assert!(err.message.contains("deleted file"));
    }

    #[test]
    fn injected_read_fault_surfaces() {
        let d = Disk::new();
        let f = d.create().unwrap();
        d.append(f, Bytes::from_static(b"x")).unwrap();
        d.set_fault_injector(Arc::new(FaultInjector::new(7).with_rule(FaultRule {
            op: IoOp::Read,
            file: Some(f),
            nth: 1,
            transient: true,
        })));
        assert!(d.read(f, 0).is_err());
        // Transient: the retry succeeds and the counters only saw one
        // physical read (the failed attempt never reached the platter).
        assert_eq!(d.read(f, 0).unwrap().unwrap().as_ref(), b"x");
        assert_eq!(d.physical_reads(), 1);
        d.clear_fault_injector();
        assert!(d.fault_injector().is_none());
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "asterix_disk_test_{}_{}",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn file_backed_roundtrip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let f;
        {
            let d = Disk::file_backed(&dir).unwrap();
            assert!(d.is_durable());
            f = d.create().unwrap();
            d.append(f, Bytes::from_static(b"alpha")).unwrap();
            d.append(f, Bytes::from_static(b"beta")).unwrap();
            d.sync(f).unwrap();
            assert_eq!(d.fsyncs(), 1);
            assert_eq!(d.read(f, 0).unwrap().unwrap().as_ref(), b"alpha");
            assert_eq!(d.file_bytes(f), 9);
        }
        // Reopen: pages survive, ids are preserved, the allocator skips
        // past the recovered maximum.
        let d2 = Disk::file_backed(&dir).unwrap();
        assert_eq!(d2.read(f, 1).unwrap().unwrap().as_ref(), b"beta");
        assert_eq!(d2.file_pages(f), 2);
        let f2 = d2.create().unwrap();
        assert!(f2.0 > f.0, "id allocator must not reuse recovered ids");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backed_detects_corruption() {
        let dir = tmpdir("corrupt");
        let f;
        {
            let d = Disk::file_backed(&dir).unwrap();
            f = d.create().unwrap();
            d.append(f, Bytes::from_static(b"precious payload")).unwrap();
            d.sync(f).unwrap();
        }
        // Flip one payload byte on disk.
        let path = dir.join(format!("f{}.cmp", f.0));
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xff;
        std::fs::write(&path, &raw).unwrap();
        let d = Disk::file_backed(&dir).unwrap();
        let err = d.read(f, 0).unwrap_err();
        assert!(err.is_corruption(), "expected corruption, got {err}");
        assert!(!err.transient);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backed_truncates_torn_tail() {
        let dir = tmpdir("torn");
        let f;
        {
            let d = Disk::file_backed(&dir).unwrap();
            f = d.create().unwrap();
            d.append(f, Bytes::from_static(b"whole page")).unwrap();
            d.append(f, Bytes::from_static(b"doomed page")).unwrap();
            d.sync(f).unwrap();
        }
        // Tear the second frame mid-payload, as a crash mid-append would.
        let path = dir.join(format!("f{}.cmp", f.0));
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        let d = Disk::file_backed(&dir).unwrap();
        assert_eq!(d.file_pages(f), 1, "torn frame must be truncated away");
        assert_eq!(d.read(f, 0).unwrap().unwrap().as_ref(), b"whole page");
        assert_eq!(d.read(f, 1).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delete_invalidates_registered_caches() {
        // Satellite bugfix pin: `Disk::delete` must drop the deleted
        // file's pages from the buffer cache instead of leaving them
        // resident until LRU churn.
        let disk = Arc::new(Disk::new());
        let cache = crate::cache::BufferCache::shared(disk.clone(), 8);
        let f = disk.create().unwrap();
        for i in 0u8..4 {
            disk.append(f, Bytes::from(vec![i; 16])).unwrap();
        }
        for i in 0..4 {
            cache.get(f, i).unwrap();
        }
        assert_eq!(cache.resident_pages(), 4);
        disk.delete(f);
        assert_eq!(
            cache.resident_pages(),
            0,
            "deleted file's pages must leave the cache immediately"
        );
    }
}
