//! Format-conformance suite for persisted index snapshots.
//!
//! The mold of `pagestore_conformance`: one set of behavioural checks —
//! save→open roundtrip identity against a freshly built oracle, typed
//! rejection of every flavour of file damage, and typed surfacing of
//! injected device faults during open — instantiated for every backend the
//! snapshot can serve from, so a snapshot reader cannot ship without
//! honouring the exact same contract on mem, file and (with the `mmap`
//! feature) mmap.

use ir_storage::page::{frame, PageId, PAGE_SIZE};
use ir_storage::snapshot::{SNAPSHOT_FILE, SNAPSHOT_VERSION, SUPERHEADER_LEN};
use ir_storage::{checksum64, BackendKind, FaultPlan, IndexBuilder, StorageBackend, TopKIndex};
use ir_types::{Dataset, DatasetBuilder, DimId, IrError, TupleId};
use std::path::{Path, PathBuf};

/// A deterministic synthetic dataset big enough to span many posting and
/// tuple pages (no RNG dependency: a bare LCG drives the coordinates).
fn synthetic_dataset() -> Dataset {
    let mut builder = DatasetBuilder::new(16);
    let mut state = 0x5EEDu64;
    for _ in 0..600 {
        let mut pairs = Vec::new();
        for _ in 0..8 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let dim = ((state >> 33) % 16) as u32;
            let value = ((state >> 11) % 1000) as f64 / 1000.0 + 0.001;
            pairs.push((dim, value));
        }
        pairs.sort_by_key(|p| p.0);
        pairs.dedup_by_key(|p| p.0);
        builder.push_pairs(pairs).unwrap();
    }
    builder.build()
}

/// The backends a snapshot can be served from in this build.
fn backends() -> Vec<BackendKind> {
    let mut kinds = vec![BackendKind::Mem, BackendKind::File];
    if cfg!(feature = "mmap") {
        kinds.push(BackendKind::Mmap);
    }
    kinds
}

/// Opens the snapshot in `dir` on the given backend kind.
fn open_on(dir: &Path, kind: BackendKind) -> ir_types::IrResult<TopKIndex> {
    let backend = match kind {
        BackendKind::Mem => StorageBackend::Memory,
        BackendKind::File => StorageBackend::Disk(dir.to_path_buf()),
        BackendKind::Mmap => StorageBackend::Mmap(dir.to_path_buf()),
    };
    IndexBuilder::new().backend(backend).open_snapshot(dir)
}

/// Every observable of the opened index must equal the oracle's: shape,
/// full posting order and values per dimension, and every stored tuple.
fn check_identical(oracle: &TopKIndex, opened: &TopKIndex, label: &str) {
    assert_eq!(opened.cardinality(), oracle.cardinality(), "{label}");
    assert_eq!(opened.dimensionality(), oracle.dimensionality(), "{label}");
    for dim in 0..oracle.dimensionality() {
        let mut a = oracle.list_cursor(DimId(dim)).unwrap();
        let mut b = opened.list_cursor(DimId(dim)).unwrap();
        loop {
            let (x, y) = (a.next_entry().unwrap(), b.next_entry().unwrap());
            assert_eq!(x, y, "{label}: dim {dim} postings diverge");
            if x.is_none() {
                break;
            }
        }
    }
    for id in 0..oracle.cardinality() {
        let id = TupleId::from(id);
        assert_eq!(
            opened.fetch_tuple(id).unwrap(),
            oracle.fetch_tuple(id).unwrap(),
            "{label}: tuple {id:?} diverges"
        );
    }
}

/// Builds the oracle in memory and saves its snapshot under a temp dir.
fn saved_snapshot(dataset: &Dataset) -> (TopKIndex, tempfile::TempDir, PathBuf) {
    let oracle = TopKIndex::build_in_memory(dataset).unwrap();
    let root = tempfile::tempdir().unwrap();
    let dir = root.path().join("snap");
    oracle.save_snapshot(&dir).unwrap();
    let file = dir.join(SNAPSHOT_FILE);
    (oracle, root, file)
}

#[test]
fn roundtrip_is_identical_on_every_backend() {
    let dataset = synthetic_dataset();
    let (oracle, root, _file) = saved_snapshot(&dataset);
    for kind in backends() {
        let opened = open_on(&root.path().join("snap"), kind).unwrap();
        assert_eq!(opened.backend_kind(), kind);
        check_identical(&oracle, &opened, &format!("backend {kind}"));
    }
}

#[test]
fn resaving_an_opened_snapshot_roundtrips_again() {
    // Save → open → save → open must converge, not accrete trailers: the
    // second snapshot's data section excludes the first's trailer pages.
    let dataset = synthetic_dataset();
    let (oracle, root, file) = saved_snapshot(&dataset);
    let first_len = std::fs::metadata(&file).unwrap().len();

    let opened = open_on(&root.path().join("snap"), BackendKind::File).unwrap();
    let resaved_dir = root.path().join("resaved");
    opened.save_snapshot(&resaved_dir).unwrap();
    let second_len = std::fs::metadata(resaved_dir.join(SNAPSHOT_FILE))
        .unwrap()
        .len();
    assert_eq!(first_len, second_len, "re-saving must not grow the file");

    let reopened = open_on(&resaved_dir, BackendKind::File).unwrap();
    check_identical(&oracle, &reopened, "second-generation snapshot");
}

/// Rewrites the last frame's payload (where the superheader lives) with
/// `mutate`, resealing the outer frame checksum so only the *snapshot*
/// layer sees the damage.
fn rewrite_superheader(path: &Path, mutate: impl FnOnce(&mut [u8])) {
    let mut bytes = std::fs::read(path).unwrap();
    let num_pages = frame::page_count(bytes.len() as u64).unwrap();
    let start = frame::offset(PageId(num_pages - 1)) as usize;
    let (payload, trailer) = bytes[start..start + frame::FRAME_LEN].split_at_mut(PAGE_SIZE);
    mutate(payload);
    trailer.copy_from_slice(&frame::seal(payload));
    std::fs::write(path, &bytes).unwrap();
}

/// Recomputes the superheader's own checksum after a field edit, so the
/// edit is only caught by the targeted validation (magic/version), never
/// masked by the checksum line of defence.
fn reseal_superheader(payload: &mut [u8]) {
    let sum = checksum64(&payload[..SUPERHEADER_LEN - 8]);
    payload[SUPERHEADER_LEN - 8..SUPERHEADER_LEN].copy_from_slice(&sum.to_le_bytes());
}

/// Asserts that opening the snapshot dir fails with a typed corruption
/// whose detail mentions `phrase`, on every backend.
fn assert_rejected(dir: &Path, phrase: &str, what: &str) {
    for kind in backends() {
        let err = open_on(dir, kind).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, IrError::Corruption { .. }),
            "{what} on {kind}: expected typed corruption, got {err:?}"
        );
        assert!(
            err.to_string().contains(phrase),
            "{what} on {kind}: `{err}` does not mention `{phrase}`"
        );
    }
}

#[test]
fn truncated_and_torn_files_are_rejected() {
    let dataset = synthetic_dataset();

    // Torn trailing write: the file ends mid-frame.
    let (_oracle, root, file) = saved_snapshot(&dataset);
    let bytes = std::fs::read(&file).unwrap();
    std::fs::write(&file, &bytes[..bytes.len() - 3]).unwrap();
    assert_rejected(&root.path().join("snap"), "torn", "torn trailing frame");

    // Whole trailing frame missing: the last page is now a directory page,
    // not a superheader.
    let (_oracle, root, file) = saved_snapshot(&dataset);
    let bytes = std::fs::read(&file).unwrap();
    std::fs::write(&file, &bytes[..bytes.len() - frame::FRAME_LEN]).unwrap();
    assert_rejected(
        &root.path().join("snap"),
        "bad snapshot magic",
        "missing superheader page",
    );

    // Not even a page file.
    let (_oracle, root, file) = saved_snapshot(&dataset);
    std::fs::write(&file, b"not a snapshot at all").unwrap();
    assert_rejected(&root.path().join("snap"), "bytes", "foreign short file");
}

#[test]
fn foreign_and_version_bumped_superheaders_are_rejected() {
    let dataset = synthetic_dataset();

    // Foreign magic (inner checksum resealed, so magic itself is blamed).
    let (_oracle, root, file) = saved_snapshot(&dataset);
    rewrite_superheader(&file, |payload| {
        payload[..8].copy_from_slice(b"NOTSNAP\0");
        reseal_superheader(payload);
    });
    assert_rejected(
        &root.path().join("snap"),
        "bad snapshot magic",
        "foreign magic",
    );

    // A future format version, correctly checksummed: readers accept
    // exactly their own version (the rebuild-and-resave policy).
    let (_oracle, root, file) = saved_snapshot(&dataset);
    rewrite_superheader(&file, |payload| {
        payload[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        reseal_superheader(payload);
    });
    assert_rejected(
        &root.path().join("snap"),
        "unsupported snapshot version",
        "version bump",
    );

    // A flipped field without resealing: the superheader checksum catches it.
    let (_oracle, root, file) = saved_snapshot(&dataset);
    rewrite_superheader(&file, |payload| {
        payload[16] ^= 0x01; // data_pages
    });
    assert_rejected(
        &root.path().join("snap"),
        "checksum mismatch",
        "unsealed field flip",
    );
}

/// Files of the version-1 formats (FNV-1a-64 seals) are not read: the page
/// file header and the superheader each name their version, and both fail
/// typed, so the upgrade path is rebuild-and-resave.
#[test]
fn version_1_files_are_rejected() {
    let dataset = synthetic_dataset();

    // A version-1 page file header fails before any frame is read.
    let (_oracle, root, file) = saved_snapshot(&dataset);
    let mut bytes = std::fs::read(&file).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&file, &bytes).unwrap();
    assert_rejected(
        &root.path().join("snap"),
        "unsupported format version 1",
        "version-1 page file",
    );

    // A version-1 superheader (correctly sealed) inside a current page file.
    let (_oracle, root, file) = saved_snapshot(&dataset);
    rewrite_superheader(&file, |payload| {
        payload[8..12].copy_from_slice(&1u32.to_le_bytes());
        reseal_superheader(payload);
    });
    assert_rejected(
        &root.path().join("snap"),
        "unsupported snapshot version 1",
        "version-1 superheader",
    );
}

#[test]
fn a_plain_page_file_is_not_a_snapshot() {
    // A page file written by the ordinary index build lacks the snapshot
    // trailer; opening it as a snapshot must fail typed, not misread.
    let dataset = synthetic_dataset();
    let dir = tempfile::tempdir().unwrap();
    let built = IndexBuilder::new()
        .backend(StorageBackend::Disk(dir.path().to_path_buf()))
        .build(&dataset)
        .unwrap();
    drop(built);
    assert!(
        dir.path().join(SNAPSHOT_FILE).is_file(),
        "the build must have left its page file behind"
    );
    assert_rejected(
        dir.path(),
        "bad snapshot magic",
        "plain page file as snapshot",
    );
}

#[test]
fn armed_faults_during_open_surface_typed_errors() {
    let dataset = synthetic_dataset();
    let (_oracle, root, _file) = saved_snapshot(&dataset);
    for kind in backends() {
        let backend = match kind {
            BackendKind::Mem => StorageBackend::Memory,
            BackendKind::File => StorageBackend::Disk(root.path().join("snap")),
            BackendKind::Mmap => StorageBackend::Mmap(root.path().join("snap")),
        };
        let err = IndexBuilder::new()
            .backend(backend)
            .fault_plan(Some(FaultPlan::device_outage(0, None)))
            .open_snapshot(root.path().join("snap"))
            .map(|_| ())
            .unwrap_err();
        assert!(
            err.to_string().contains("injected"),
            "{kind}: expected the injected outage to surface, got {err}"
        );
    }
}
