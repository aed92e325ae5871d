//! The WAL I/O counters observe exactly the bytes and fsyncs that reach
//! the file.
//!
//! This lives in its own integration binary (own process) because the
//! counters are process-wide: WAL unit tests running in parallel threads
//! would perturb the samples.

use tm_durable::{wal_bytes_written, wal_fsyncs, Failpoints, Wal, WalRecord};

#[test]
fn writes_and_syncs_are_counted() {
    let mut path = std::env::temp_dir();
    path.push(format!("tm-durable-counters-{}.log", std::process::id()));
    let mut wal = Wal::create(&path, 1, Failpoints::none()).unwrap();
    let (bytes0, syncs0) = (wal_bytes_written(), wal_fsyncs());
    let record = |name: &str| WalRecord::RemoveRule { name: name.into() };
    wal.append(false, |out| record("r").encode(out)).unwrap();
    let written = wal.len();
    assert_eq!(wal_bytes_written(), bytes0 + written);
    assert_eq!(wal_fsyncs(), syncs0, "plain append must not fsync");
    wal.sync().unwrap();
    assert_eq!(wal_fsyncs(), syncs0 + 1);
    // Buffered appends count nothing until flushed: the counter measures
    // I/O, not intent.
    wal.append(true, |out| record("s").encode(out)).unwrap();
    assert_eq!(wal_bytes_written(), bytes0 + written);
    let total = wal.len();
    wal.flush().unwrap();
    assert_eq!(wal_bytes_written(), bytes0 + total);
    drop(wal);
    std::fs::remove_file(&path).unwrap();
}
