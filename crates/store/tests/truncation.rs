//! The central recovery property: for ANY truncation point of a log —
//! every byte offset, any segment — reopening yields exactly the
//! committed record prefix that fits entirely before the cut. Nothing
//! committed before the cut is lost; nothing behind it surfaces.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use dtf_store::log::{
    segment_paths, FlushPolicy, LogConfig, SegmentedLog, FRAME_OVERHEAD, HEADER_LEN,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dtf-trunc-{name}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Write `payloads` fully committed into a fresh log at `dir`.
fn build_log(dir: &Path, payloads: &[Vec<u8>], segment_bytes: u64) {
    let cfg = LogConfig { segment_bytes, flush: FlushPolicy::Manual, sync_data: false };
    let (mut log, _, _) = SegmentedLog::open(dir, cfg).unwrap();
    for p in payloads {
        log.append(p).unwrap();
    }
    log.sync().unwrap();
}

/// Records expected to survive a truncation of segment `cut_seg` at byte
/// `cut_off`, derived from the actual on-disk frames (not from the roll
/// heuristic): all records in earlier segments, plus the fully-framed
/// records before the cut — or none from `cut_seg` when the cut damages
/// its header.
fn expected_prefix(paths: &[PathBuf], cut_seg: usize, cut_off: u64) -> usize {
    // a cut at exactly the file length removes nothing: the segment ends
    // cleanly and its successors survive
    let clean = cut_off == fs::metadata(&paths[cut_seg]).unwrap().len();
    let mut survivors = 0usize;
    for (i, p) in paths.iter().enumerate() {
        let data = fs::read(p).unwrap();
        let limit = if i < cut_seg || clean {
            data.len()
        } else if i == cut_seg {
            if (cut_off as usize) < HEADER_LEN {
                return survivors; // header torn: segment and successors drop
            }
            cut_off as usize
        } else {
            return survivors; // segments past a real cut drop
        };
        let mut off = HEADER_LEN;
        loop {
            if off + FRAME_OVERHEAD > limit {
                break;
            }
            let len = u32::from_le_bytes(data[off..off + 4].try_into().unwrap()) as usize;
            if off + FRAME_OVERHEAD + len > limit {
                break;
            }
            survivors += 1;
            off += FRAME_OVERHEAD + len;
        }
    }
    survivors
}

fn check_cut(golden: &Path, payloads: &[Vec<u8>], cut_seg: usize, cut_off: u64, cfg: LogConfig) {
    let paths = segment_paths(golden).unwrap();
    let expect = expected_prefix(&paths, cut_seg, cut_off);
    let dir = scratch("cut");
    copy_dir(golden, &dir);
    let victim = segment_paths(&dir).unwrap()[cut_seg].clone();
    OpenOptions::new().write(true).open(&victim).unwrap().set_len(cut_off).unwrap();
    let (_, recovered, _) = SegmentedLog::open(&dir, cfg).unwrap();
    assert_eq!(
        recovered.len(),
        expect,
        "cut segment {cut_seg} at byte {cut_off}: wrong prefix length"
    );
    for (r, p) in recovered.iter().zip(payloads) {
        assert_eq!(r.as_ref(), p.as_slice(), "recovered record diverges from what was written");
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Exhaustive: a single-segment log cut at EVERY byte offset.
#[test]
fn every_truncation_point_single_segment() {
    let payloads: Vec<Vec<u8>> =
        (0..12u8).map(|i| (0..(i as usize * 3 + 1)).map(|j| i ^ j as u8).collect()).collect();
    let golden = scratch("exhaustive-golden");
    let cfg = LogConfig { segment_bytes: 1 << 20, flush: FlushPolicy::Manual, sync_data: false };
    build_log(&golden, &payloads, cfg.segment_bytes);
    let paths = segment_paths(&golden).unwrap();
    assert_eq!(paths.len(), 1);
    let file_len = fs::metadata(&paths[0]).unwrap().len();
    for cut in 0..=file_len {
        check_cut(&golden, &payloads, 0, cut, cfg);
    }
    fs::remove_dir_all(&golden).unwrap();
}

/// Exhaustive over a multi-segment log: every byte of every segment.
#[test]
fn every_truncation_point_multi_segment() {
    let payloads: Vec<Vec<u8>> = (0..30u8).map(|i| vec![i; 24]).collect();
    let golden = scratch("multi-golden");
    let cfg = LogConfig { segment_bytes: 160, flush: FlushPolicy::Manual, sync_data: false };
    build_log(&golden, &payloads, cfg.segment_bytes);
    let paths = segment_paths(&golden).unwrap();
    assert!(paths.len() >= 3, "layout must span several segments");
    for (seg, p) in paths.iter().enumerate() {
        let file_len = fs::metadata(p).unwrap().len();
        for cut in 0..=file_len {
            check_cut(&golden, &payloads, seg, cut, cfg);
        }
    }
    fs::remove_dir_all(&golden).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary payload sets, segment sizes, and cut points: reopen is
    /// always exactly the committed prefix before the cut. Payloads are
    /// at least one byte: the log refuses an empty record.
    #[test]
    fn truncation_yields_committed_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..48), 1..40),
        segment_bytes in 64u64..1024,
        seg_sel in any::<u64>(),
        off_sel in any::<u64>(),
    ) {
        let golden = scratch("prop-golden");
        let cfg = LogConfig { segment_bytes, flush: FlushPolicy::Manual, sync_data: false };
        build_log(&golden, &payloads, segment_bytes);
        let paths = segment_paths(&golden).unwrap();
        let cut_seg = (seg_sel % paths.len() as u64) as usize;
        let file_len = fs::metadata(&paths[cut_seg]).unwrap().len();
        let cut_off = off_sel % (file_len + 1);
        check_cut(&golden, &payloads, cut_seg, cut_off, cfg);
        fs::remove_dir_all(&golden).unwrap();
    }
}
