//! The pool's threads are started once and reused by every stage. This is
//! the only test of its binary on purpose: the count is of the whole
//! process, and a neighbouring test's threads would be in it.

use gradoop_dataflow::pool::map_partitions;

#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

#[cfg(target_os = "linux")]
#[test]
fn pool_thread_count_stays_flat_over_a_thousand_stages() {
    let parts: Vec<Vec<u64>> = (0..16).map(|p| (0..p).collect()).collect();
    let stage = || map_partitions(&parts, |_, part| part.iter().sum::<u64>());
    let first = stage(); // starts the pool
    let before = process_threads();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(
        before <= parallelism + 1,
        "main, this test and at most {parallelism} - 1 pool threads, found {before}"
    );
    for _ in 0..1000 {
        assert_eq!(stage(), first);
        assert_eq!(
            process_threads(),
            before,
            "a stage changed the thread count"
        );
    }
}
