//! Page stores: the "disk" abstraction underneath the buffer pool.
//!
//! Three implementations are provided:
//!
//! * [`MemPageStore`] — pages live in memory. This is the default backend for
//!   experiments; physical reads are still counted by the buffer pool, so the
//!   simulated I/O cost model of Section 7 applies unchanged, while the
//!   actual runtime reflects the *"alternative setting where the dataset and
//!   inverted lists are cached in main memory"* that the paper mentions in
//!   its CPU discussion.
//! * [`FilePageStore`] — pages live in a real file accessed with positioned
//!   reads (`pread`-style, one syscall per page instead of the former
//!   seek-then-read pair); used by the disk-resident configuration and by
//!   the storage round-trip tests.
//! * `MmapPageStore` (in the `mmap` module, behind the `mmap` cargo
//!   feature) — the file is memory-mapped read-only, so a page miss costs a
//!   memory copy (plus, at worst, a soft page fault serviced by the OS)
//!   instead of a read syscall.
//!
//! All stores are *self-validating*: each stored page carries a 64-bit
//! checksum (see [`crate::page::frame`]) that is verified on every read, and
//! the file-backed stores open with a versioned header check. Damage
//! surfaces as a typed [`IrError::Corruption`] naming the page, never as
//! silently wrong bytes. Out-of-range accesses likewise return the same
//! typed [`IrError::PageOutOfBounds`] from every backend.
//!
//! Every store keeps its own device-level [`ShardedIoStats`]: `logical_reads`
//! counts page reads served by the store (for the mmap store these are the
//! *page-fault-equivalent* reads — no syscall happens, but a page's worth of
//! data crossed from the mapping), `read_syscalls` counts actual read system
//! calls issued, and `pages_written` counts page writes. The buffer pool's
//! own counters — the ones the experiment harness reports — are *backend
//! independent*: every store sees exactly the pool's miss sequence, so
//! `store.io_snapshot().logical_reads` always equals the pool's
//! `physical_reads` no matter which backend is plugged in.

use crate::page::{frame, zeroed_page, PageBuf, PageId, PAGE_SIZE};
use crate::stats::{IoStatsSnapshot, ShardedIoStats};
use ir_types::{IrError, IrResult};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::path::Path;

/// Abstraction over a flat, page-addressed storage device.
///
/// Concurrency contract: concurrent `read_page` calls are always safe and
/// return consistent pages. A `write_page` racing a `read_page` of the
/// *same page* is not serialized by the file and mmap stores (their read
/// paths are deliberately lock-free positioned reads / mapped copies), so
/// the reader may observe a torn page; the workspace only writes pages
/// during single-threaded index construction, and the shared conformance
/// suite pins the read-only concurrent behaviour every backend must honour.
pub trait PageStore: Send + Sync {
    /// Number of allocated pages.
    fn num_pages(&self) -> u32;

    /// Allocates `count` fresh zeroed pages and returns the id of the first.
    fn allocate(&self, count: u32) -> IrResult<PageId>;

    /// Reads a full page into a new buffer, verifying its checksum.
    fn read_page(&self, page: PageId) -> IrResult<PageBuf>;

    /// Overwrites a full page (and reseals its checksum).
    fn write_page(&self, page: PageId, data: &[u8]) -> IrResult<()>;

    /// Snapshot of the store's device-level counters (see the module docs
    /// for what each backend records).
    fn io_snapshot(&self) -> IoStatsSnapshot;

    /// Resets the store's device-level counters to zero.
    fn reset_io_stats(&self);

    /// XORs `mask` into the *stored* byte at `offset` inside `page` without
    /// resealing the checksum — simulating bit rot underneath the store.
    ///
    /// The next `read_page` of that page fails with
    /// [`IrError::Corruption`]; applying the same mask again restores the
    /// original byte. This is a fault-injection hook for the chaos suite,
    /// not part of normal operation, so the default implementation refuses.
    fn corrupt_stored_byte(&self, page: PageId, offset: usize, mask: u8) -> IrResult<()> {
        let _ = (page, offset, mask);
        Err(IrError::Storage(
            "corruption injection is not supported by this page store".to_string(),
        ))
    }
}

/// The typed error every backend returns for an out-of-range page access.
pub(crate) fn out_of_bounds(page: PageId, num_pages: u32) -> IrError {
    IrError::PageOutOfBounds {
        page: page.0,
        num_pages,
    }
}

/// The typed error every backend returns for a wrong-sized `write_page`.
pub(crate) fn check_write_len(data: &[u8]) -> IrResult<()> {
    if data.len() != PAGE_SIZE {
        return Err(IrError::Storage(format!(
            "write_page expects {PAGE_SIZE} bytes, got {}",
            data.len()
        )));
    }
    Ok(())
}

/// Bounds-check for the corruption-injection hook: the offset must land in
/// the page payload.
pub(crate) fn check_corrupt_offset(offset: usize) -> IrResult<()> {
    if offset >= PAGE_SIZE {
        return Err(IrError::Storage(format!(
            "corrupt_stored_byte offset {offset} is past the {PAGE_SIZE}-byte payload"
        )));
    }
    Ok(())
}

/// Reads `buf.len()` bytes at `offset` without moving any file cursor (one
/// positioned-read syscall; the file store's whole read path).
pub(crate) fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
    }
    #[cfg(windows)]
    {
        let mut done = 0usize;
        while done < buf.len() {
            let n = std::os::windows::fs::FileExt::seek_read(
                file,
                &mut buf[done..],
                offset + done as u64,
            )?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "failed to fill whole buffer",
                ));
            }
            done += n;
        }
        Ok(())
    }
}

/// Writes all of `data` at `offset` without moving any file cursor.
pub(crate) fn write_all_at(file: &File, data: &[u8], offset: u64) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::os::unix::fs::FileExt::write_all_at(file, data, offset)
    }
    #[cfg(windows)]
    {
        let mut done = 0usize;
        while done < data.len() {
            let n = std::os::windows::fs::FileExt::seek_write(
                file,
                &data[done..],
                offset + done as u64,
            )?;
            done += n;
        }
        Ok(())
    }
}

/// One in-memory frame: payload plus the checksum trailer it was sealed
/// with. The trailer is stored (not recomputed on read) so injected
/// corruption is detectable exactly as it would be on disk.
struct MemFrame {
    payload: PageBuf,
    seal: [u8; frame::CHECKSUM_LEN],
}

impl MemFrame {
    fn zeroed() -> Self {
        MemFrame {
            payload: zeroed_page(),
            seal: frame::zero_page_seal(),
        }
    }
}

/// In-memory page store.
#[derive(Default)]
pub struct MemPageStore {
    pages: Mutex<Vec<MemFrame>>,
    stats: ShardedIoStats,
}

impl MemPageStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads an existing page file (the [`crate::page::frame`] format both
    /// file-backed stores write) into memory, preserving every frame's
    /// stored seal verbatim.
    ///
    /// Only the file header and overall frame shape are validated up front —
    /// exactly what [`FilePageStore::open`] checks. Per-page checksums are
    /// *not* recomputed here: a damaged frame is carried into memory as-is
    /// and surfaces as a typed [`IrError::Corruption`] on its first read,
    /// the same lazy semantics the file and mmap stores have. This is how
    /// the mem backend serves a saved index snapshot.
    pub fn from_page_file<P: AsRef<Path>>(path: P) -> IrResult<Self> {
        let bytes = std::fs::read(path)?;
        let num_pages = frame::page_count(bytes.len() as u64)?;
        let mut header = [0u8; frame::HEADER_LEN];
        header.copy_from_slice(&bytes[..frame::HEADER_LEN]);
        frame::validate_header(&header)?;
        let mut pages = Vec::with_capacity(num_pages as usize);
        for i in 0..num_pages as usize {
            let start = frame::HEADER_LEN + i * frame::FRAME_LEN;
            let mut payload = zeroed_page();
            payload.copy_from_slice(&bytes[start..start + PAGE_SIZE]);
            let mut seal = [0u8; frame::CHECKSUM_LEN];
            seal.copy_from_slice(&bytes[start + PAGE_SIZE..start + frame::FRAME_LEN]);
            pages.push(MemFrame { payload, seal });
        }
        Ok(MemPageStore {
            pages: Mutex::new(pages),
            stats: ShardedIoStats::new(),
        })
    }
}

impl PageStore for MemPageStore {
    fn num_pages(&self) -> u32 {
        self.pages.lock().len() as u32
    }

    fn allocate(&self, count: u32) -> IrResult<PageId> {
        let mut pages = self.pages.lock();
        let first = pages.len() as u32;
        for _ in 0..count {
            pages.push(MemFrame::zeroed());
        }
        Ok(PageId(first))
    }

    fn read_page(&self, page: PageId) -> IrResult<PageBuf> {
        let pages = self.pages.lock();
        let stored = pages
            .get(page.index())
            .ok_or_else(|| out_of_bounds(page, pages.len() as u32))?;
        frame::verify(page, &stored.payload, &stored.seal)?;
        let buf = stored.payload.clone();
        self.stats.record_logical_read();
        Ok(buf)
    }

    fn write_page(&self, page: PageId, data: &[u8]) -> IrResult<()> {
        check_write_len(data)?;
        let mut pages = self.pages.lock();
        let num_pages = pages.len() as u32;
        let slot = pages
            .get_mut(page.index())
            .ok_or_else(|| out_of_bounds(page, num_pages))?;
        slot.payload.copy_from_slice(data);
        slot.seal = frame::seal(data);
        self.stats.record_write();
        Ok(())
    }

    fn io_snapshot(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    fn reset_io_stats(&self) {
        self.stats.reset();
    }

    fn corrupt_stored_byte(&self, page: PageId, offset: usize, mask: u8) -> IrResult<()> {
        check_corrupt_offset(offset)?;
        let mut pages = self.pages.lock();
        let num_pages = pages.len() as u32;
        let slot = pages
            .get_mut(page.index())
            .ok_or_else(|| out_of_bounds(page, num_pages))?;
        slot.payload[offset] ^= mask;
        Ok(())
    }
}

/// File-backed page store over the [`crate::page::frame`] format: a 64-byte
/// versioned header, then page `i`'s frame (payload + checksum trailer) at
/// `frame::offset(i)`.
///
/// Reads and writes are *positioned* (`read_at`/`write_at`): no shared file
/// cursor exists, so concurrent readers never serialize on a lock and every
/// page miss costs exactly one read syscall — frames are contiguous, so the
/// payload and its trailer arrive in a single `pread`. The saving shows up
/// in the store's [`IoStatsSnapshot::read_syscalls`], which stays equal to
/// its `logical_reads` instead of double.
pub struct FilePageStore {
    file: File,
    num_pages: Mutex<u32>,
    stats: ShardedIoStats,
}

impl FilePageStore {
    /// Creates (or truncates) a page file at `path`, writing the versioned
    /// header.
    pub fn create<P: AsRef<Path>>(path: P) -> IrResult<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        write_all_at(&file, &frame::encode_header(), 0)?;
        Ok(FilePageStore {
            file,
            num_pages: Mutex::new(0),
            stats: ShardedIoStats::new(),
        })
    }

    /// Opens an existing page file, validating its header and overall shape
    /// before serving a single page. A file that is not a page file (or was
    /// torn mid-write) is reported as a typed [`IrError::Corruption`], not
    /// a bare `UnexpectedEof` on some later read.
    pub fn open<P: AsRef<Path>>(path: P) -> IrResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let num_pages = frame::page_count(len)?;
        let mut header = [0u8; frame::HEADER_LEN];
        read_exact_at(&file, &mut header, 0)?;
        frame::validate_header(&header)?;
        Ok(FilePageStore {
            file,
            num_pages: Mutex::new(num_pages),
            stats: ShardedIoStats::new(),
        })
    }
}

impl PageStore for FilePageStore {
    fn num_pages(&self) -> u32 {
        *self.num_pages.lock()
    }

    fn allocate(&self, count: u32) -> IrResult<PageId> {
        let mut num = self.num_pages.lock();
        let first = *num;
        let mut zero_frame = vec![0u8; frame::FRAME_LEN];
        zero_frame[PAGE_SIZE..].copy_from_slice(&frame::zero_page_seal());
        for i in 0..count {
            write_all_at(&self.file, &zero_frame, frame::offset(PageId(first + i)))?;
        }
        *num += count;
        Ok(PageId(first))
    }

    fn read_page(&self, page: PageId) -> IrResult<PageBuf> {
        let num_pages = self.num_pages();
        if page.0 >= num_pages {
            return Err(out_of_bounds(page, num_pages));
        }
        let mut buf = vec![0u8; frame::FRAME_LEN];
        read_exact_at(&self.file, &mut buf, frame::offset(page))?;
        frame::verify(page, &buf[..PAGE_SIZE], &buf[PAGE_SIZE..])?;
        buf.truncate(PAGE_SIZE);
        self.stats.record_logical_read();
        self.stats.record_read_syscall();
        Ok(buf.into_boxed_slice())
    }

    fn write_page(&self, page: PageId, data: &[u8]) -> IrResult<()> {
        check_write_len(data)?;
        let num_pages = self.num_pages();
        if page.0 >= num_pages {
            return Err(out_of_bounds(page, num_pages));
        }
        let mut framed = vec![0u8; frame::FRAME_LEN];
        framed[..PAGE_SIZE].copy_from_slice(data);
        framed[PAGE_SIZE..].copy_from_slice(&frame::seal(data));
        write_all_at(&self.file, &framed, frame::offset(page))?;
        self.stats.record_write();
        Ok(())
    }

    fn io_snapshot(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    fn reset_io_stats(&self) {
        self.stats.reset();
    }

    fn corrupt_stored_byte(&self, page: PageId, offset: usize, mask: u8) -> IrResult<()> {
        check_corrupt_offset(offset)?;
        let num_pages = self.num_pages();
        if page.0 >= num_pages {
            return Err(out_of_bounds(page, num_pages));
        }
        let pos = frame::offset(page) + offset as u64;
        let mut byte = [0u8; 1];
        read_exact_at(&self.file, &mut byte, pos)?;
        byte[0] ^= mask;
        write_all_at(&self.file, &byte, pos)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_store(store: &dyn PageStore) {
        assert_eq!(store.num_pages(), 0);
        let first = store.allocate(3).unwrap();
        assert_eq!(first, PageId(0));
        assert_eq!(store.num_pages(), 3);

        let mut page = zeroed_page();
        page[0] = 42;
        page[PAGE_SIZE - 1] = 7;
        store.write_page(PageId(1), &page).unwrap();

        let read = store.read_page(PageId(1)).unwrap();
        assert_eq!(read[0], 42);
        assert_eq!(read[PAGE_SIZE - 1], 7);

        let untouched = store.read_page(PageId(2)).unwrap();
        assert!(untouched.iter().all(|&b| b == 0));

        assert!(matches!(
            store.read_page(PageId(9)),
            Err(IrError::PageOutOfBounds {
                page: 9,
                num_pages: 3
            })
        ));
        assert!(matches!(
            store.write_page(PageId(9), &page),
            Err(IrError::PageOutOfBounds {
                page: 9,
                num_pages: 3
            })
        ));
        assert!(store.write_page(PageId(0), &[1, 2, 3]).is_err());

        let next = store.allocate(1).unwrap();
        assert_eq!(next, PageId(3));
    }

    fn exercise_corruption(store: &dyn PageStore) {
        store.allocate(2).unwrap();
        let mut page = zeroed_page();
        page[17] = 0xAB;
        store.write_page(PageId(1), &page).unwrap();

        store.corrupt_stored_byte(PageId(1), 17, 0xFF).unwrap();
        let err = store.read_page(PageId(1)).unwrap_err();
        assert!(
            matches!(err, IrError::Corruption { page: Some(1), .. }),
            "expected a corruption error naming page 1, got: {err}"
        );
        // The untouched page is unaffected.
        store.read_page(PageId(0)).unwrap();
        // XOR is self-inverse: re-applying the mask restores the page.
        store.corrupt_stored_byte(PageId(1), 17, 0xFF).unwrap();
        assert_eq!(store.read_page(PageId(1)).unwrap()[17], 0xAB);
        // Out-of-range injection targets are rejected, not silently applied.
        assert!(store.corrupt_stored_byte(PageId(9), 0, 0xFF).is_err());
        assert!(store
            .corrupt_stored_byte(PageId(0), PAGE_SIZE, 0xFF)
            .is_err());
    }

    #[test]
    fn mem_store_roundtrip() {
        exercise_store(&MemPageStore::new());
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.bin");
        exercise_store(&FilePageStore::create(&path).unwrap());
    }

    #[test]
    fn mem_store_detects_injected_corruption() {
        exercise_corruption(&MemPageStore::new());
    }

    #[test]
    fn file_store_detects_injected_corruption() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.bin");
        exercise_corruption(&FilePageStore::create(&path).unwrap());
    }

    #[test]
    fn file_store_reopen_preserves_pages() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.bin");
        {
            let store = FilePageStore::create(&path).unwrap();
            store.allocate(2).unwrap();
            let mut page = zeroed_page();
            page[10] = 99;
            store.write_page(PageId(1), &page).unwrap();
        }
        let reopened = FilePageStore::open(&path).unwrap();
        assert_eq!(reopened.num_pages(), 2);
        assert_eq!(reopened.read_page(PageId(1)).unwrap()[10], 99);
    }

    #[test]
    fn create_writes_the_versioned_header() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("pages.bin");
        FilePageStore::create(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), frame::HEADER_LEN);
        assert_eq!(&bytes[..8], &frame::MAGIC);
    }

    #[test]
    fn open_rejects_truncated_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("broken.bin");
        std::fs::write(&path, [0u8; 100]).unwrap();
        let err = FilePageStore::open(&path).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, IrError::Corruption { page: None, .. }),
            "expected file-level corruption, got: {err}"
        );
    }

    #[test]
    fn open_rejects_a_foreign_file() {
        let dir = tempfile::tempdir().unwrap();
        let path = dir.path().join("not_pages.bin");
        // Right shape (header + one frame), wrong magic.
        std::fs::write(&path, vec![0xEEu8; frame::HEADER_LEN + frame::FRAME_LEN]).unwrap();
        let err = FilePageStore::open(&path).map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn file_store_reads_cost_one_syscall_each() {
        let dir = tempfile::tempdir().unwrap();
        let store = FilePageStore::create(dir.path().join("pages.bin")).unwrap();
        store.allocate(4).unwrap();
        for i in 0..4 {
            store.read_page(PageId(i)).unwrap();
        }
        let snap = store.io_snapshot();
        assert_eq!(snap.logical_reads, 4);
        assert_eq!(
            snap.read_syscalls, 4,
            "positioned frame reads: exactly one syscall per page, checksum included"
        );
        store.reset_io_stats();
        assert_eq!(store.io_snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn mem_store_reads_cost_no_syscalls() {
        let store = MemPageStore::new();
        store.allocate(2).unwrap();
        store.read_page(PageId(0)).unwrap();
        store.read_page(PageId(1)).unwrap();
        let snap = store.io_snapshot();
        assert_eq!(snap.logical_reads, 2);
        assert_eq!(snap.read_syscalls, 0);
    }

    #[test]
    fn failed_reads_are_not_counted() {
        let store = MemPageStore::new();
        assert!(store.read_page(PageId(5)).is_err());
        assert_eq!(store.io_snapshot().logical_reads, 0);
    }
}
