//! End-to-end guarantees of the edit-stream replay: reports are
//! byte-identical to from-scratch batch analysis at every worker count,
//! and a warm persistent store serves every revision without
//! recomputation — never changing the answer.

use vhdl1_cli::driver::{
    run_batch, run_edit_stream, BatchOptions, Job, DEFAULT_PERSISTENT_CACHE_CAP,
};
use vhdl1_corpus::edit_stream;
use vhdl1_infoflow::CachePolicy;

/// Self-cleaning scratch directory.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vhdl1-cli-edit-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The replay job list `vhdl1c edit-stream` builds: base + every revision,
/// in order, named by revision index.
fn stream_jobs(seed: u64, processes: usize, edits: usize) -> Vec<Job> {
    let stream = edit_stream(seed, processes, edits);
    stream
        .sources()
        .into_iter()
        .enumerate()
        .map(|(revision, src)| Job::from_source(format!("{}@r{revision}", stream.name), src))
        .collect()
}

#[test]
fn replay_matches_fresh_batch_bytes_across_worker_counts() {
    let jobs = stream_jobs(7, 8, 4);
    let (replay, _) = run_edit_stream(&jobs, &BatchOptions::default());
    let replay = replay.to_json();
    for workers in [1, 2, 4] {
        let fresh = run_batch(
            &jobs,
            &BatchOptions {
                jobs: workers,
                ..BatchOptions::default()
            },
        )
        .to_json();
        assert_eq!(
            replay, fresh,
            "workspace replay must be byte-identical to a fresh \
             `--jobs {workers}` batch"
        );
    }
}

#[test]
fn warm_store_replay_only_lowers_recomputation_and_keeps_bytes() {
    let tmp = TempDir::new("warm");
    let jobs = stream_jobs(11, 6, 3);
    let opts = BatchOptions {
        cache: CachePolicy::Persistent {
            dir: tmp.0.clone(),
            cap: DEFAULT_PERSISTENT_CACHE_CAP,
        },
        ..BatchOptions::default()
    };

    // Every revision is new to a cold engine: all 4 × 6 processes count
    // as recomputed.
    let (cold, cold_t) = run_edit_stream(&jobs, &opts);
    assert_eq!(cold_t.stats.units_recomputed, (3 + 1) * 6);

    // A fresh engine over the warm directory serves every revision from
    // disk: nothing recomputes, every process of every revision is a
    // reuse, and the report bytes cannot tell the difference.
    let (warm, warm_t) = run_edit_stream(&jobs, &opts);
    assert_eq!(warm.to_json(), cold.to_json());
    assert_eq!(warm_t.stats.units_recomputed, 0, "warm replay recomputed");
    assert_eq!(warm_t.stats.units_reused, ((3 + 1) * 6) as u64);
    assert_eq!(warm_t.stats.frontend, 0, "warm replay must not re-parse");
}
