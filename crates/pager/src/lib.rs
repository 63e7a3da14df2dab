//! `clio-pager` — fixed-size paged heap files and a shared buffer pool,
//! so the engine can stream over source databases larger than memory.
//!
//! This crate knows nothing about relations or values: it stores and
//! retrieves opaque byte *records* in **heap files** made of fixed-size
//! pages, and serves page reads through a bounded [`Pager`] buffer pool
//! (pin/unpin, LRU eviction preferring clean frames, dirty-page
//! write-back). `clio-relational`'s paged storage backend encodes rows
//! into records on top of it (see `docs/storage.md`).
//!
//! ## File format (version 1)
//!
//! A heap file is `page_count + 1` pages of `page_size` bytes each. All
//! integers are little-endian; every page carries the magic, the format
//! version, and a trailing FNV-1a 64 checksum over everything before it
//! — the same checksummed binary idiom as `clio-incr`'s disk cache.
//!
//! ```text
//! header page (page 0):
//!   magic        b"CLPG"
//!   version      u32            (currently 1)
//!   page_size    u32
//!   page_count   u64            (data pages, excluding this header)
//!   record_count u64
//!   ...zero padding...
//!   checksum     u64            (FNV-1a 64 over the bytes above)
//!
//! data page n (n in 1..=page_count, at byte offset n * page_size):
//!   magic        b"CLPG"
//!   version      u32
//!   page_no      u64            (= n; catches misplaced/torn pages)
//!   used         u32            (payload bytes in this page)
//!   payload      `used` bytes of record fragments
//!   ...zero padding...
//!   checksum     u64
//! ```
//!
//! Records may be larger than a page, so the payload is a sequence of
//! *fragments* in the log-record style: a flag byte (`1` full, `2`
//! first, `3` middle, `4` last), a `u32` length, and the bytes. A
//! fragment never spans a page boundary; [`HeapCursor`] reassembles
//! multi-fragment records while keeping only one page pinned.
//!
//! ## Crash safety and tolerance
//!
//! [`HeapWriter`] builds the whole file in an [`AtomicFile`]: a
//! `.tmp-{pid}-{seq}` sibling renamed into place after an fsync, so
//! readers never observe a half-written heap. [`write_atomic`] writes
//! any other file the same way; every file clio persists goes through
//! the one `AtomicFile`. Reads never trust the file: a truncated file, a
//! torn header, a wrong magic or version, or a failed page checksum
//! degrades to a typed [`PagerError`] — one rate-limited stderr line
//! (category `pager.load`) and a `pager.load_errors` count, never a
//! wrong answer and never a panic. In-place page updates
//! ([`Pager::with_page_mut`]) re-checksum the frame immediately, so a
//! crash between dirtying and write-back can at worst lose the update,
//! not corrupt the page silently.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use clio_obs::Counter;

/// First bytes of every page.
pub const MAGIC: [u8; 4] = *b"CLPG";
/// Current heap-file format version.
pub const FORMAT_VERSION: u32 = 1;
/// Smallest accepted page size (headers plus a useful payload).
pub const MIN_PAGE_SIZE: usize = 64;
/// Largest accepted page size.
pub const MAX_PAGE_SIZE: usize = 1 << 20;
/// Default page size for new heap files.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

const DATA_HEADER_LEN: usize = 20; // magic + version + page_no + used
const CHECKSUM_LEN: usize = 8;
const FRAG_HEADER_LEN: usize = 5; // flag + len

const FRAG_FULL: u8 = 1;
const FRAG_FIRST: u8 = 2;
const FRAG_MIDDLE: u8 = 3;
const FRAG_LAST: u8 = 4;

/// The FNV-1a 64 offset basis: the state a fresh [`fnv1a`] digest
/// starts from.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a 64 `state`. Streaming: feeding a byte
/// string in pieces gives the same digest as feeding it whole. Start
/// from [`FNV_OFFSET_BASIS`]. Page checksums, the evaluation cache's
/// file checksums and its structural fingerprints all use it, so their
/// digests are stable across processes and toolchains.
#[inline]
#[must_use]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Record-fragment payload capacity of one data page.
fn payload_cap(page_size: usize) -> usize {
    page_size - DATA_HEADER_LEN - CHECKSUM_LEN
}

/// Why a heap file (or one of its pages) could not be served.
#[derive(Debug)]
pub enum PagerError {
    /// The operating system failed the read or write.
    Io(std::io::Error),
    /// The bytes on disk are not a valid heap file/page. The detail is
    /// a short human phrase (`"checksum mismatch"`, `"truncated
    /// header"`, ...).
    Corrupt {
        /// The offending heap file.
        file: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for PagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PagerError::Io(e) => write!(f, "i/o error: {e}"),
            PagerError::Corrupt { file, detail } => {
                write!(f, "`{}`: {detail}", file.display())
            }
        }
    }
}

impl std::error::Error for PagerError {}

/// Build a [`PagerError::Corrupt`], logging one rate-limited stderr
/// line and bumping `pager.load_errors` — the single degradation path
/// for every defect a read can encounter.
fn degraded(file: &Path, detail: impl Into<String>) -> PagerError {
    let detail = detail.into();
    clio_obs::incr(Counter::PagerLoadErrors);
    clio_obs::warn_limited(
        "pager.load",
        &format!("cannot read heap file `{}`: {detail}", file.display()),
    );
    PagerError::Corrupt {
        file: file.to_path_buf(),
        detail,
    }
}

/// Wrap an I/O failure on `file` the same way (logged + counted).
fn degraded_io(file: &Path, e: std::io::Error) -> PagerError {
    clio_obs::incr(Counter::PagerLoadErrors);
    clio_obs::warn_limited(
        "pager.load",
        &format!("cannot read heap file `{}`: {e}", file.display()),
    );
    PagerError::Io(e)
}

/// Handle to a heap file registered with a [`Pager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(usize);

/// A pinned, immutable view of one data page. The page stays resident
/// (the buffer pool will not evict its frame) until every `PageRef` to
/// it is dropped — pinning is the `Arc` reference count.
#[derive(Debug, Clone)]
pub struct PageRef {
    data: Arc<Vec<u8>>,
    used: usize,
}

impl PageRef {
    /// The page's record-fragment payload (the `used` bytes).
    #[must_use]
    pub fn payload(&self) -> &[u8] {
        &self.data[DATA_HEADER_LEN..DATA_HEADER_LEN + self.used]
    }
}

struct FileState {
    path: PathBuf,
    file: File,
    writable: bool,
    page_size: usize,
    page_count: u64,
    record_count: u64,
}

struct Frame {
    data: Arc<Vec<u8>>,
    used: usize,
    dirty: bool,
    tick: u64,
}

impl Frame {
    /// A frame is pinned while any [`PageRef`] still holds its buffer.
    fn pinned(&self) -> bool {
        Arc::strong_count(&self.data) > 1
    }
}

struct Inner {
    files: Vec<FileState>,
    frames: HashMap<(usize, u64), Frame>,
    tick: u64,
}

/// A buffer pool serving fixed-size pages from registered heap files.
///
/// One pool is shared across all of a database's heap files: frames are
/// keyed by `(file, page)`, capacity is a global page budget, and
/// eviction is LRU preferring clean unpinned frames (a dirty victim is
/// written back first). All methods take `&self`; the pool is
/// internally synchronized and safe to share across threads.
pub struct Pager {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Pager {
    /// A pool holding at most `pool_pages` resident pages (minimum 1).
    #[must_use]
    pub fn new(pool_pages: usize) -> Pager {
        Pager {
            capacity: pool_pages.max(1),
            inner: Mutex::new(Inner {
                files: Vec::new(),
                frames: HashMap::new(),
                tick: 0,
            }),
        }
    }

    /// The pool's page budget.
    #[must_use]
    pub fn pool_pages(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register a heap file, validating its header page and its length
    /// against the header's page count.
    ///
    /// # Errors
    ///
    /// [`PagerError`] if the file cannot be opened or its header is
    /// torn, truncated, from another format/version, or checksummed
    /// wrong — each logged and counted in `pager.load_errors`.
    pub fn open(&self, path: &Path) -> Result<FileId, PagerError> {
        let (file, writable) = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(f) => (f, true),
            // A read-only database directory is fine until something
            // needs write-back.
            Err(_) => match File::open(path) {
                Ok(f) => (f, false),
                Err(e) => return Err(degraded_io(path, e)),
            },
        };
        let mut state = FileState {
            path: path.to_path_buf(),
            file,
            writable,
            page_size: 0,
            page_count: 0,
            record_count: 0,
        };
        read_header(&mut state)?;
        let mut inner = self.lock();
        inner.files.push(state);
        Ok(FileId(inner.files.len() - 1))
    }

    /// Number of records in a registered heap file (from its header).
    #[must_use]
    pub fn record_count(&self, file: FileId) -> u64 {
        self.lock().files[file.0].record_count
    }

    /// Number of data pages in a registered heap file.
    #[must_use]
    pub fn page_count(&self, file: FileId) -> u64 {
        self.lock().files[file.0].page_count
    }

    /// Fetch data page `page_no` (1-based) of `file`, pinned. Resident
    /// frames are served from the pool (`pager.hits`); otherwise the
    /// page is read and verified from disk (`pager.misses` +
    /// `pager.page_reads`), evicting the least-recently-used unpinned
    /// frame if the pool is full.
    ///
    /// # Errors
    ///
    /// [`PagerError`] if the page is out of range, unreadable, or fails
    /// verification (logged + counted, see the crate docs).
    pub fn fetch(&self, file: FileId, page_no: u64) -> Result<PageRef, PagerError> {
        let _span = clio_obs::span("pager.fetch");
        let mut inner = self.lock();
        self.ensure_resident(&mut inner, file, page_no)?;
        let frame = &inner.frames[&(file.0, page_no)];
        Ok(PageRef {
            data: Arc::clone(&frame.data),
            used: frame.used,
        })
    }

    /// Mutate the payload of data page `page_no` in place. The frame is
    /// re-checksummed immediately and marked dirty; it reaches disk on
    /// eviction or [`Pager::flush`]. A concurrently pinned [`PageRef`]
    /// keeps its pre-update snapshot.
    ///
    /// # Errors
    ///
    /// [`PagerError`] if the page cannot be loaded.
    pub fn with_page_mut(
        &self,
        file: FileId,
        page_no: u64,
        f: impl FnOnce(&mut [u8]),
    ) -> Result<(), PagerError> {
        let mut inner = self.lock();
        self.ensure_resident(&mut inner, file, page_no)?;
        let page_size = inner.files[file.0].page_size;
        let frame = inner
            .frames
            .get_mut(&(file.0, page_no))
            .expect("frame resident");
        let used = frame.used;
        let data = Arc::make_mut(&mut frame.data);
        f(&mut data[DATA_HEADER_LEN..DATA_HEADER_LEN + used]);
        let sum = fnv1a(FNV_OFFSET_BASIS, &data[..page_size - CHECKSUM_LEN]);
        data[page_size - CHECKSUM_LEN..].copy_from_slice(&sum.to_le_bytes());
        frame.dirty = true;
        Ok(())
    }

    /// Write every dirty frame back to its file and fsync the touched
    /// files.
    ///
    /// # Errors
    ///
    /// [`PagerError::Io`] on the first failed write.
    pub fn flush(&self) -> Result<(), PagerError> {
        let mut inner = self.lock();
        let dirty: Vec<(usize, u64)> = inner
            .frames
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(k, _)| *k)
            .collect();
        let mut touched: Vec<usize> = Vec::new();
        for key in dirty {
            write_back(&mut inner, key)?;
            if !touched.contains(&key.0) {
                touched.push(key.0);
            }
        }
        for idx in touched {
            inner.files[idx].file.sync_all().map_err(PagerError::Io)?;
        }
        Ok(())
    }

    /// A streaming cursor over `file`'s records, front to back.
    #[must_use]
    pub fn cursor(&self, file: FileId) -> HeapCursor<'_> {
        HeapCursor {
            pager: self,
            file,
            page_count: self.page_count(file),
            next_page: 1,
            page: None,
            offset: 0,
            done: false,
        }
    }

    /// Make `(file, page_no)` resident, evicting if the pool is full.
    fn ensure_resident(
        &self,
        inner: &mut Inner,
        file: FileId,
        page_no: u64,
    ) -> Result<(), PagerError> {
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(frame) = inner.frames.get_mut(&(file.0, page_no)) {
            frame.tick = tick;
            clio_obs::incr(Counter::PagerHits);
            return Ok(());
        }
        clio_obs::incr(Counter::PagerMisses);
        while inner.frames.len() >= self.capacity {
            // If every frame is pinned the pool overflows temporarily
            // rather than deadlocking; it shrinks back as pins drop.
            if !evict_one(inner)? {
                break;
            }
        }
        let (data, used) = read_page(&mut inner.files[file.0], page_no)?;
        inner.frames.insert(
            (file.0, page_no),
            Frame {
                data: Arc::new(data),
                used,
                dirty: false,
                tick,
            },
        );
        Ok(())
    }
}

/// Evict one unpinned frame (clean preferred, then least recently
/// used), writing it back first if dirty. Returns `false` when every
/// frame is pinned.
fn evict_one(inner: &mut Inner) -> Result<bool, PagerError> {
    let victim = inner
        .frames
        .iter()
        .filter(|(_, f)| !f.pinned())
        .min_by_key(|(_, f)| (f.dirty, f.tick))
        .map(|(k, _)| *k);
    let Some(key) = victim else {
        return Ok(false);
    };
    if inner.frames[&key].dirty {
        write_back(inner, key)?;
    }
    inner.frames.remove(&key);
    clio_obs::incr(Counter::PagerEvictions);
    Ok(true)
}

/// Write one (dirty) frame's bytes back to its page slot.
fn write_back(inner: &mut Inner, key: (usize, u64)) -> Result<(), PagerError> {
    let state = &mut inner.files[key.0];
    if !state.writable {
        return Err(PagerError::Io(std::io::Error::new(
            std::io::ErrorKind::PermissionDenied,
            format!("heap file `{}` is read-only", state.path.display()),
        )));
    }
    let offset = key.1 * state.page_size as u64;
    let frame = inner.frames.get_mut(&key).expect("frame exists");
    let state = &mut inner.files[key.0];
    state
        .file
        .seek(SeekFrom::Start(offset))
        .and_then(|_| state.file.write_all(&frame.data))
        .map_err(PagerError::Io)?;
    frame.dirty = false;
    clio_obs::incr(Counter::PagerPageWrites);
    Ok(())
}

/// Read and validate a heap file's header page into `state`.
fn read_header(state: &mut FileState) -> Result<(), PagerError> {
    let len = state
        .file
        .metadata()
        .map_err(|e| degraded_io(&state.path, e))?
        .len();
    let mut prefix = [0u8; 12];
    state
        .file
        .seek(SeekFrom::Start(0))
        .and_then(|_| state.file.read_exact(&mut prefix))
        .map_err(|_| degraded(&state.path, "truncated header"))?;
    if prefix[0..4] != MAGIC {
        return Err(degraded(&state.path, "bad magic"));
    }
    let version = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(degraded(
            &state.path,
            format!("format version {version}, expected {FORMAT_VERSION}"),
        ));
    }
    let page_size = u32::from_le_bytes(prefix[8..12].try_into().unwrap()) as usize;
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
        return Err(degraded(&state.path, format!("bad page size {page_size}")));
    }
    let mut header = vec![0u8; page_size];
    state
        .file
        .seek(SeekFrom::Start(0))
        .and_then(|_| state.file.read_exact(&mut header))
        .map_err(|_| degraded(&state.path, "truncated header"))?;
    let stored = u64::from_le_bytes(header[page_size - CHECKSUM_LEN..].try_into().unwrap());
    if stored != fnv1a(FNV_OFFSET_BASIS, &header[..page_size - CHECKSUM_LEN]) {
        return Err(degraded(&state.path, "header checksum mismatch"));
    }
    let page_count = u64::from_le_bytes(header[12..20].try_into().unwrap());
    let record_count = u64::from_le_bytes(header[20..28].try_into().unwrap());
    // untrusted sizes: a forged page count must degrade, not overflow
    let Some(expected) = page_count
        .checked_add(1)
        .and_then(|pages| pages.checked_mul(page_size as u64))
    else {
        return Err(degraded(
            &state.path,
            format!("page count {page_count} overflows the file size"),
        ));
    };
    if len < expected {
        return Err(degraded(
            &state.path,
            format!("truncated page file ({len} bytes, expected {expected})"),
        ));
    }
    if len > expected {
        return Err(degraded(&state.path, "trailing bytes"));
    }
    state.page_size = page_size;
    state.page_count = page_count;
    state.record_count = record_count;
    Ok(())
}

/// Read and verify one data page from disk (`pager.page_reads`).
fn read_page(state: &mut FileState, page_no: u64) -> Result<(Vec<u8>, usize), PagerError> {
    if page_no == 0 || page_no > state.page_count {
        return Err(degraded(
            &state.path,
            format!("page {page_no} out of range (1..={})", state.page_count),
        ));
    }
    let page_size = state.page_size;
    let mut buf = vec![0u8; page_size];
    state
        .file
        .seek(SeekFrom::Start(page_no * page_size as u64))
        .and_then(|_| state.file.read_exact(&mut buf))
        .map_err(|_| degraded(&state.path, format!("truncated page {page_no}")))?;
    clio_obs::incr(Counter::PagerPageReads);
    if buf[0..4] != MAGIC {
        return Err(degraded(&state.path, format!("page {page_no}: bad magic")));
    }
    let version = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(degraded(
            &state.path,
            format!("page {page_no}: format version {version}, expected {FORMAT_VERSION}"),
        ));
    }
    let stored = u64::from_le_bytes(buf[page_size - CHECKSUM_LEN..].try_into().unwrap());
    if stored != fnv1a(FNV_OFFSET_BASIS, &buf[..page_size - CHECKSUM_LEN]) {
        return Err(degraded(
            &state.path,
            format!("page {page_no}: checksum mismatch"),
        ));
    }
    let stored_no = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    if stored_no != page_no {
        return Err(degraded(
            &state.path,
            format!("page {page_no} carries number {stored_no}"),
        ));
    }
    let used = u32::from_le_bytes(buf[16..20].try_into().unwrap()) as usize;
    if used > payload_cap(page_size) {
        return Err(degraded(
            &state.path,
            format!("page {page_no}: payload overruns the page"),
        ));
    }
    Ok((buf, used))
}

/// A streaming record iterator over one heap file, reassembling
/// fragmented records while pinning one page at a time.
pub struct HeapCursor<'a> {
    pager: &'a Pager,
    file: FileId,
    page_count: u64,
    next_page: u64,
    page: Option<PageRef>,
    offset: usize,
    done: bool,
}

impl HeapCursor<'_> {
    /// The heap file this cursor reads.
    #[must_use]
    pub fn file(&self) -> FileId {
        self.file
    }

    fn fail(&mut self, e: PagerError) -> Option<Result<Vec<u8>, PagerError>> {
        self.done = true;
        self.page = None;
        Some(Err(e))
    }

    fn corrupt(&mut self, detail: String) -> Option<Result<Vec<u8>, PagerError>> {
        let path = {
            let inner = self.pager.lock();
            inner.files[self.file.0].path.clone()
        };
        let e = degraded(&path, detail);
        self.fail(e)
    }
}

impl Iterator for HeapCursor<'_> {
    type Item = Result<Vec<u8>, PagerError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut partial: Option<Vec<u8>> = None;
        loop {
            // Advance to a page with at least one more fragment.
            let exhausted = match &self.page {
                None => true,
                Some(p) => self.offset + FRAG_HEADER_LEN > p.payload().len(),
            };
            if exhausted {
                self.page = None;
                if self.next_page > self.page_count {
                    self.done = true;
                    if partial.is_some() {
                        return self.corrupt("record truncated at end of file".into());
                    }
                    return None;
                }
                match self.pager.fetch(self.file, self.next_page) {
                    Ok(p) => {
                        self.page = Some(p);
                        self.offset = 0;
                        self.next_page += 1;
                    }
                    Err(e) => return self.fail(e),
                }
                continue;
            }
            let payload = self.page.as_ref().expect("page resident").payload();
            let flag = payload[self.offset];
            let len = u32::from_le_bytes(
                payload[self.offset + 1..self.offset + FRAG_HEADER_LEN]
                    .try_into()
                    .unwrap(),
            ) as usize;
            let start = self.offset + FRAG_HEADER_LEN;
            if start + len > payload.len() {
                return self.corrupt(format!(
                    "fragment overruns page {}",
                    self.next_page.saturating_sub(1)
                ));
            }
            let bytes = payload[start..start + len].to_vec();
            self.offset = start + len;
            match (flag, partial.as_mut()) {
                (FRAG_FULL, None) => return Some(Ok(bytes)),
                (FRAG_FIRST, None) => partial = Some(bytes),
                (FRAG_MIDDLE, Some(p)) => p.extend_from_slice(&bytes),
                (FRAG_LAST, Some(p)) => {
                    p.extend_from_slice(&bytes);
                    return Some(Ok(partial.take().expect("partial record")));
                }
                (other, _) => {
                    return self.corrupt(format!(
                        "bad fragment flag {other} in page {}",
                        self.next_page.saturating_sub(1)
                    ))
                }
            }
        }
    }
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A file built under a `.tmp-{pid}-{seq}` name beside its target and
/// renamed over the target by [`commit`] after an fsync, so readers
/// see the old file or the whole new one, never a torn one, and a
/// committed file survives a crash. Dropped
/// uncommitted (a failed or abandoned write), it removes its tmp file.
///
/// [`commit`]: AtomicFile::commit
#[derive(Debug)]
pub struct AtomicFile {
    path: PathBuf,
    tmp: PathBuf,
    file: File,
}

impl AtomicFile {
    /// Start the file that [`AtomicFile::commit`] puts at `path`.
    pub fn create(path: &Path) -> std::io::Result<AtomicFile> {
        let tmp = path.with_file_name(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            path: path.to_path_buf(),
            tmp,
            file,
        })
    }

    /// Fsync the file, rename it into place and fsync the directory
    /// holding it; on an error the tmp file is removed.
    pub fn commit(self) -> std::io::Result<()> {
        self.file.sync_all()?;
        std::fs::rename(&self.tmp, &self.path)?;
        // the rename survives a crash once its directory is synced
        let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
        // Drop runs next; the tmp file is gone, so its cleanup is a
        // no-op.
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl Seek for AtomicFile {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.file.seek(pos)
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.tmp);
    }
}

/// Write `bytes` to `path` through an [`AtomicFile`].
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = AtomicFile::create(path)?;
    file.write_all(bytes)?;
    file.commit()
}

/// Builds a heap file record by record, spilling full pages as it goes,
/// into an [`AtomicFile`]: [`finish`] writes the header and commits it,
/// so a crash mid-build leaves at most a stray tmp file, never a
/// half-valid heap.
///
/// [`finish`]: HeapWriter::finish
pub struct HeapWriter {
    file: BufWriter<AtomicFile>,
    page_size: usize,
    payload: Vec<u8>,
    next_page: u64,
    record_count: u64,
}

impl HeapWriter {
    /// Start a heap file at `path` with the given page size.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an out-of-range page size; otherwise the
    /// underlying file-creation error.
    pub fn create(path: &Path, page_size: usize) -> std::io::Result<HeapWriter> {
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("page size {page_size} out of range ({MIN_PAGE_SIZE}..={MAX_PAGE_SIZE})"),
            ));
        }
        let mut file = BufWriter::new(AtomicFile::create(path)?);
        // Reserve the header page; it is rewritten with real contents
        // (and a real checksum) by `finish`.
        file.write_all(&vec![0u8; page_size])?;
        Ok(HeapWriter {
            file,
            page_size,
            payload: Vec::with_capacity(payload_cap(page_size)),
            next_page: 1,
            record_count: 0,
        })
    }

    /// Append one record, fragmenting it across pages as needed.
    ///
    /// # Errors
    ///
    /// The underlying write error.
    pub fn append(&mut self, record: &[u8]) -> std::io::Result<()> {
        self.record_count += 1;
        let cap = payload_cap(self.page_size);
        let mut rest = record;
        let mut first = true;
        loop {
            let free = cap - self.payload.len();
            // A fragment needs its header plus at least one byte of
            // progress (zero-length records are a lone `Full`).
            if free < FRAG_HEADER_LEN + usize::from(!rest.is_empty()) {
                self.spill_page()?;
                continue;
            }
            let take = rest.len().min(free - FRAG_HEADER_LEN);
            let flag = match (first, take == rest.len()) {
                (true, true) => FRAG_FULL,
                (true, false) => FRAG_FIRST,
                (false, true) => FRAG_LAST,
                (false, false) => FRAG_MIDDLE,
            };
            self.payload.push(flag);
            self.payload.extend_from_slice(&(take as u32).to_le_bytes());
            self.payload.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if flag == FRAG_FULL || flag == FRAG_LAST {
                return Ok(());
            }
            first = false;
        }
    }

    /// Records appended so far.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    fn spill_page(&mut self) -> std::io::Result<()> {
        let page = encode_data_page(self.page_size, self.next_page, &self.payload);
        self.file.write_all(&page)?;
        clio_obs::incr(Counter::PagerPageWrites);
        self.next_page += 1;
        self.payload.clear();
        Ok(())
    }

    /// Flush the tail page, write the real header, and commit the file.
    ///
    /// # Errors
    ///
    /// The underlying write/rename error (the tmp file is removed).
    pub fn finish(mut self) -> std::io::Result<()> {
        if !self.payload.is_empty() {
            self.spill_page()?;
        }
        let page_count = self.next_page - 1;
        let mut header = vec![0u8; self.page_size];
        header[0..4].copy_from_slice(&MAGIC);
        header[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&(self.page_size as u32).to_le_bytes());
        header[12..20].copy_from_slice(&page_count.to_le_bytes());
        header[20..28].copy_from_slice(&self.record_count.to_le_bytes());
        let sum = fnv1a(FNV_OFFSET_BASIS, &header[..self.page_size - CHECKSUM_LEN]);
        header[self.page_size - CHECKSUM_LEN..].copy_from_slice(&sum.to_le_bytes());
        let mut file = self.file.into_inner()?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        file.commit()?;
        clio_obs::incr(Counter::PagerPageWrites); // the header page
        Ok(())
    }
}

fn encode_data_page(page_size: usize, page_no: u64, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= payload_cap(page_size));
    let mut page = vec![0u8; page_size];
    page[0..4].copy_from_slice(&MAGIC);
    page[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    page[8..16].copy_from_slice(&page_no.to_le_bytes());
    page[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    page[20..20 + payload.len()].copy_from_slice(payload);
    let sum = fnv1a(FNV_OFFSET_BASIS, &page[..page_size - CHECKSUM_LEN]);
    page[page_size - CHECKSUM_LEN..].copy_from_slice(&sum.to_le_bytes());
    page
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("clio-pager-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build_heap(dir: &Path, name: &str, page_size: usize, records: &[Vec<u8>]) -> PathBuf {
        let path = dir.join(name);
        let mut w = HeapWriter::create(&path, page_size).unwrap();
        for r in records {
            w.append(r).unwrap();
        }
        w.finish().unwrap();
        path
    }

    fn records(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                (0..len)
                    .map(|j| u8::try_from((i * 31 + j * 7) % 251).unwrap())
                    .collect()
            })
            .collect()
    }

    fn read_all(pager: &Pager, file: FileId) -> Vec<Vec<u8>> {
        pager
            .cursor(file)
            .collect::<Result<Vec<_>, _>>()
            .expect("clean cursor")
    }

    #[test]
    fn round_trips_records_within_one_page() {
        let dir = tmp_dir("small");
        let recs = vec![b"alpha".to_vec(), b"".to_vec(), b"gamma".to_vec()];
        let path = build_heap(&dir, "r.clh", 4096, &recs);
        let pager = Pager::new(4);
        let file = pager.open(&path).unwrap();
        assert_eq!(pager.record_count(file), 3);
        assert_eq!(pager.page_count(file), 1);
        assert_eq!(read_all(&pager, file), recs);
    }

    #[test]
    fn round_trips_records_spanning_many_pages() {
        let dir = tmp_dir("span");
        // Page 64 → 36 payload bytes; a 300-byte record spans ~9 pages.
        let recs = records(7, 300);
        let path = build_heap(&dir, "r.clh", 64, &recs);
        let pager = Pager::new(2);
        let file = pager.open(&path).unwrap();
        assert_eq!(pager.record_count(file), 7);
        assert!(pager.page_count(file) > 7, "records must span pages");
        assert_eq!(read_all(&pager, file), recs);
        // A second scan gives the same answer through the (tiny) pool.
        assert_eq!(read_all(&pager, file), recs);
    }

    #[test]
    fn pool_counts_hits_misses_and_evictions() {
        let dir = tmp_dir("pool");
        let path = build_heap(&dir, "r.clh", 64, &records(6, 120));
        let pager = Pager::new(2);
        let file = pager.open(&path).unwrap();
        let pages = pager.page_count(file);
        assert!(pages > 2, "working set must exceed the pool");
        let rec = clio_obs::Recorder::new();
        rec.run(|| read_all(&pager, file)); // cold: all misses
        let snap1 = rec.snapshot();
        rec.run(|| {
            // The last page is still resident, so refetching it is a hit…
            let _ = pager.fetch(file, pages).unwrap();
            // …while a full rescan through a pool smaller than the file
            // keeps missing (sequential LRU's worst case).
            read_all(&pager, file)
        });
        let snap2 = rec.snapshot();
        assert_eq!(snap1.get(Counter::PagerMisses), pages);
        assert_eq!(snap1.get(Counter::PagerPageReads), pages);
        assert_eq!(snap1.get(Counter::PagerEvictions), pages - 2);
        assert_eq!(snap1.get(Counter::PagerLoadErrors), 0);
        assert_eq!(snap2.get(Counter::PagerHits), 1);
        assert_eq!(snap2.get(Counter::PagerMisses), 2 * pages);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let dir = tmp_dir("pin");
        let path = build_heap(&dir, "r.clh", 64, &records(6, 120));
        let pager = Pager::new(1);
        let file = pager.open(&path).unwrap();
        let pinned = pager.fetch(file, 1).unwrap();
        let before = pinned.payload().to_vec();
        // Fetching other pages with a 1-page pool must not invalidate
        // the pinned view (the pool temporarily overflows instead).
        for n in 2..=pager.page_count(file) {
            let _ = pager.fetch(file, n).unwrap();
        }
        assert_eq!(pinned.payload(), &before[..]);
        drop(pinned);
        // With the pin gone, the pool can shrink back below budget.
        let _ = pager.fetch(file, 1).unwrap();
    }

    #[test]
    fn dirty_pages_write_back_on_eviction_and_flush() {
        let dir = tmp_dir("dirty");
        let path = build_heap(&dir, "r.clh", 64, &records(6, 120));
        let pager = Pager::new(2);
        let file = pager.open(&path).unwrap();
        let original = pager.fetch(file, 1).unwrap().payload().to_vec();
        pager
            .with_page_mut(file, 1, |payload| {
                for b in payload.iter_mut() {
                    *b = b.wrapping_add(1);
                }
            })
            .unwrap();
        // Evict the dirty frame by touring the rest of the file…
        for n in 2..=pager.page_count(file) {
            let _ = pager.fetch(file, n).unwrap();
        }
        pager.flush().unwrap();
        // …then re-open cold: the update survived, checksummed.
        let pager2 = Pager::new(2);
        let file2 = pager2.open(&path).unwrap();
        let after = pager2.fetch(file2, 1).unwrap().payload().to_vec();
        assert_ne!(after, original);
        assert_eq!(after.len(), original.len());
        assert!(after
            .iter()
            .zip(&original)
            .all(|(a, b)| *a == b.wrapping_add(1)));
    }

    /// The satellite fault-injection matrix: every defect degrades to a
    /// typed error with `pager.load_errors` bumped — never a changed
    /// answer, never a panic.
    #[test]
    fn fault_injection_degrades_to_logged_errors() {
        let dir = tmp_dir("faults");
        let recs = records(5, 120);
        let path = build_heap(&dir, "good.clh", 64, &recs);
        let good = std::fs::read(&path).unwrap();
        let rec = clio_obs::Recorder::new();
        let mut expected_errors = 0u64;
        let mut check = |name: &str, bytes: &[u8], detail: &str| {
            let p = dir.join(name);
            std::fs::write(&p, bytes).unwrap();
            let pager = Pager::new(4);
            let err = rec.run(|| match pager.open(&p) {
                Err(e) => e.to_string(),
                Ok(file) => pager
                    .cursor(file)
                    .collect::<Result<Vec<_>, _>>()
                    .expect_err("defect must surface")
                    .to_string(),
            });
            assert!(err.contains(detail), "{name}: `{err}` lacks `{detail}`");
            expected_errors += 1;
        };

        // Truncated page file: half the last page is gone.
        check("trunc.clh", &good[..good.len() - 32], "truncated");
        // Torn header: the file ends inside page 0.
        check("torn.clh", &good[..40], "truncated header");
        // Wrong magic.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        check("magic.clh", &bad_magic, "bad magic");
        // Version from the future, header re-checksummed so the
        // version check itself fires.
        let mut future = good.clone();
        future[4..8].copy_from_slice(&99u32.to_le_bytes());
        let sum = fnv1a(FNV_OFFSET_BASIS, &future[..64 - CHECKSUM_LEN]);
        future[64 - CHECKSUM_LEN..64].copy_from_slice(&sum.to_le_bytes());
        check("future.clh", &future, "format version 99, expected 1");
        // Bit flip in a data page: caught by that page's checksum.
        let mut flipped = good.clone();
        flipped[64 + 24] ^= 0x40;
        check("flip.clh", &flipped, "checksum mismatch");
        // A data page transplanted over another: self-describing page
        // numbers catch the tear even though the checksum passes.
        let mut swapped = good.clone();
        let page2 = swapped[128..192].to_vec();
        swapped[64..128].copy_from_slice(&page2);
        check("swap.clh", &swapped, "carries number");
        // Trailing bytes after the last page.
        let mut padded = good.clone();
        padded.extend_from_slice(b"junk");
        check("padded.clh", &padded, "trailing bytes");

        assert_eq!(
            rec.snapshot().get(Counter::PagerLoadErrors),
            expected_errors
        );

        // The untouched file still reads perfectly after all of that.
        let pager = Pager::new(4);
        let file = pager.open(&path).unwrap();
        assert_eq!(read_all(&pager, file), recs);
    }

    #[test]
    fn forged_page_counts_degrade_instead_of_overflowing() {
        let dir = tmp_dir("forged");
        let good = std::fs::read(build_heap(&dir, "good.clh", 64, &records(3, 50))).unwrap();
        // a re-checksummed header whose page count makes the expected
        // file size overflow, in the `+ 1` and in the `* page_size`
        for count in [u64::MAX, u64::MAX / 64] {
            let mut forged = good.clone();
            forged[12..20].copy_from_slice(&count.to_le_bytes());
            let sum = fnv1a(FNV_OFFSET_BASIS, &forged[..64 - CHECKSUM_LEN]);
            forged[64 - CHECKSUM_LEN..64].copy_from_slice(&sum.to_le_bytes());
            let path = dir.join("forged.clh");
            std::fs::write(&path, &forged).unwrap();
            let err = Pager::new(4).open(&path).expect_err("forged count");
            assert!(err.to_string().contains("overflows"), "{count}: {err}");
        }
    }

    #[test]
    fn no_tmp_files_left_behind() {
        let dir = tmp_dir("tmp");
        build_heap(&dir, "a.clh", 64, &records(3, 50));
        // An abandoned writer cleans up its tmp file on drop.
        let w = HeapWriter::create(&dir.join("b.clh"), 64).unwrap();
        drop(w);
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(stray.is_empty(), "stray tmp files: {stray:?}");
        assert!(!dir.join("b.clh").exists(), "unfinished heap not renamed");
    }

    #[test]
    fn atomic_writes_replace_whole_files_and_abandoned_ones_leave_nothing() {
        let dir = tmp_dir("atomic");
        let path = dir.join("manifest.txt");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // an uncommitted write leaves the old file and no tmp file
        let mut f = AtomicFile::create(&path).unwrap();
        f.write_all(b"torn").unwrap();
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["manifest.txt"]);
        // a target in a missing directory fails without a trace
        assert!(write_atomic(&dir.join("gone").join("x"), b"x").is_err());
    }

    #[test]
    fn writer_rejects_bad_page_sizes() {
        let dir = tmp_dir("badsize");
        assert!(HeapWriter::create(&dir.join("x.clh"), 8).is_err());
        assert!(HeapWriter::create(&dir.join("x.clh"), MAX_PAGE_SIZE + 1).is_err());
    }

    #[test]
    fn one_pool_serves_many_files() {
        let dir = tmp_dir("multi");
        let a = build_heap(&dir, "a.clh", 64, &records(4, 90));
        let b = build_heap(&dir, "b.clh", 64, &records(4, 70));
        let pager = Pager::new(3);
        let fa = pager.open(&a).unwrap();
        let fb = pager.open(&b).unwrap();
        // Interleaved scans across files share the one budget.
        let ra: Vec<_> = read_all(&pager, fa);
        let rb: Vec<_> = read_all(&pager, fb);
        assert_eq!(ra, records(4, 90));
        assert_eq!(rb, records(4, 70));
    }
}
