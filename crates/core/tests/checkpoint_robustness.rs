//! Adversarial checkpoint tests: a damaged checkpoint file must never
//! panic the loader, never allocate absurdly, and never load silently —
//! every truncation and every byte flip yields `Err`. The crash-safety
//! half enumerates the filesystem states the atomic-write protocol can
//! be interrupted in and asserts each still yields a loadable file.

use ehna_core::{load_checkpoint_full, load_checkpoint_path, EhnaConfig, Trainer};
use ehna_tgraph::ioutil::backup_path;
use ehna_tgraph::{GraphBuilder, TemporalGraph};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn graph() -> TemporalGraph {
    let mut b = GraphBuilder::new();
    for i in 0..6u32 {
        b.add_edge(i, (i + 1) % 7, i as i64, 1.0).unwrap();
        b.add_edge(i, (i + 3) % 7, i as i64 + 1, 1.0).unwrap();
    }
    b.build().unwrap()
}

fn cfg() -> EhnaConfig {
    EhnaConfig {
        dim: 4,
        num_walks: 2,
        walk_length: 2,
        batch_size: 8,
        epochs: 1,
        negatives: 2,
        ..EhnaConfig::tiny()
    }
}

/// A trained v2 checkpoint with full trainer state. Cached: proptest
/// runs ~100 cases and retraining per case would dominate the suite.
fn trained_checkpoint(g: &TemporalGraph) -> Vec<u8> {
    static CACHE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| {
            let mut t = Trainer::new(g, cfg()).unwrap();
            t.train();
            let mut buf = Vec::new();
            t.save_checkpoint(&mut buf).unwrap();
            buf
        })
        .clone()
}

#[test]
fn truncation_at_every_byte_boundary_errors_cleanly() {
    let g = graph();
    let buf = trained_checkpoint(&g);
    // Every strict prefix must fail with Err — no panic, no silent
    // success on a file missing its tail.
    for cut in 0..buf.len() {
        let result = load_checkpoint_full(&buf[..cut], &g, cfg());
        assert!(result.is_err(), "truncation at byte {cut}/{} accepted", buf.len());
    }
    // The untruncated buffer is the control: it must load.
    assert!(load_checkpoint_full(&buf[..], &g, cfg()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Any single corrupted byte anywhere in a v2 checkpoint is detected:
    // structural fields fail parsing or plausibility caps, payload bytes
    // fail the trailing FNV-1a checksum.
    #[test]
    fn single_byte_corruption_always_detected(
        pos in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let g = graph();
        let buf = trained_checkpoint(&g);
        let mut corrupt = buf.clone();
        let idx = pos % corrupt.len();
        corrupt[idx] ^= flip;
        let result = load_checkpoint_full(&corrupt[..], &g, cfg());
        prop_assert!(
            result.is_err(),
            "flipping byte {idx} with 0x{flip:02x} loaded silently"
        );
    }

    // Random garbage never panics the loader.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let g = graph();
        let _ = load_checkpoint_full(&bytes[..], &g, cfg());
    }
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ehna_ckpt_robust_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// Enumerate the states a kill can leave the atomic-write protocol in
/// (tmp write → fsync → rotate dest to .bak → rename tmp to dest) and
/// assert `load_checkpoint_path` recovers a complete checkpoint from
/// every one of them.
#[test]
fn kill_during_checkpoint_write_always_leaves_loadable_file() {
    let g = graph();
    let old = trained_checkpoint(&g);
    let mut t2 = Trainer::new(&g, EhnaConfig { epochs: 2, ..cfg() }).unwrap();
    t2.train();
    let mut new = Vec::new();
    t2.save_checkpoint(&mut new).unwrap();
    assert_ne!(old, new);

    let dir = tempdir("kill");
    let dest = dir.join("model.ckpt");

    // State A: killed while writing the tmp file (any prefix of the new
    // bytes), previous checkpoint still at the destination.
    for cut in [0, 1, new.len() / 2, new.len() - 1] {
        fs::write(&dest, &old).unwrap();
        fs::write(with_suffix(&dest, ".tmp"), &new[..cut]).unwrap();
        let (ckpt, used_bak) = load_checkpoint_path(&dest, &g, cfg()).unwrap();
        assert!(!used_bak);
        assert_eq!(ckpt.model.epochs_trained, 1, "tmp-crash state lost the old checkpoint");
        fs::remove_file(with_suffix(&dest, ".tmp")).unwrap();
        fs::remove_file(&dest).unwrap();
        let _ = fs::remove_file(backup_path(&dest));
    }

    // State B: killed between the two renames — destination gone, old
    // bytes live under .bak, complete tmp not yet moved into place.
    fs::write(backup_path(&dest), &old).unwrap();
    fs::write(with_suffix(&dest, ".tmp"), &new).unwrap();
    let (ckpt, used_bak) = load_checkpoint_path(&dest, &g, cfg()).unwrap();
    assert!(used_bak, "backup fallback not taken");
    assert_eq!(ckpt.model.epochs_trained, 1);
    fs::remove_file(with_suffix(&dest, ".tmp")).unwrap();
    fs::remove_file(backup_path(&dest)).unwrap();

    // State C: completed protocol — new bytes at dest, old rotated.
    fs::write(&dest, &new).unwrap();
    fs::write(backup_path(&dest), &old).unwrap();
    let (ckpt, used_bak) = load_checkpoint_path(&dest, &g, cfg()).unwrap();
    assert!(!used_bak);
    assert_eq!(ckpt.model.epochs_trained, 2);

    // State D: destination corrupted (torn write on a non-atomic
    // filesystem) — the rotated backup still loads.
    fs::write(&dest, &new[..new.len() / 2]).unwrap();
    let (ckpt, used_bak) = load_checkpoint_path(&dest, &g, cfg()).unwrap();
    assert!(used_bak);
    assert_eq!(ckpt.model.epochs_trained, 1);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_to_path_rotates_and_both_generations_load() {
    let g = graph();
    let dir = tempdir("rotate");
    let dest = dir.join("model.ckpt");

    let mut t = Trainer::new(&g, cfg()).unwrap();
    t.train();
    t.checkpoint_to_path(&dest).unwrap();
    let gen1 = fs::read(&dest).unwrap();

    t.train();
    t.checkpoint_to_path(&dest).unwrap();
    assert_eq!(fs::read(backup_path(&dest)).unwrap(), gen1, ".bak is not the prior generation");

    let (newest, used_bak) = load_checkpoint_path(&dest, &g, cfg()).unwrap();
    assert!(!used_bak);
    assert_eq!(newest.model.epochs_trained, 2);
    let bak = load_checkpoint_full(&fs::read(backup_path(&dest)).unwrap()[..], &g, cfg()).unwrap();
    assert_eq!(bak.model.epochs_trained, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_and_unloadable_paths_report_the_primary_error() {
    let g = graph();
    let dir = tempdir("missing");
    let dest = dir.join("absent.ckpt");
    assert!(load_checkpoint_path(&dest, &g, cfg()).is_err());
    fs::write(&dest, b"garbage").unwrap();
    let err = load_checkpoint_path(&dest, &g, cfg()).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let _ = fs::remove_dir_all(&dir);
}
