//! The outside-in trace: spans recorded by the benchmark around its calls
//! into the product crates (in-program spans are a later issue).
//!
//! A span is `(workload, tx, name, parent, start_ns, end_ns)`; the spans
//! of one sampled request share a `tx` identifier. They are held in a
//! pre-allocated buffer — recording never allocates — and written to
//! `benchmark/out/trace-<workload>.jsonl` when the workload ends. The root
//! span of a request also carries the deltas of the product's process-wide
//! counters over the request, so ratios are measured at the same
//! boundaries as times.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::sut::Counters;

/// Span names, fixed so a span is a few machine words.
pub const NAMES: [&str; 11] = [
    "tx",
    "core.bind",
    "core.execute_bound",
    "core.execute_with_retry",
    "algebra.parse",
    "core.execute",
    "core.define_constraint",
    "core.remove_rule",
    "request",
    "server.execute_many",
    "core.reprepare",
];

/// Index into [`NAMES`].
pub type Name = u8;
/// `tx` — the root span of one in-process transaction.
pub const TX: Name = 0;
/// `Prepared::bind`.
pub const BIND: Name = 1;
/// `Engine::execute_bound`.
pub const EXECUTE_BOUND: Name = 2;
/// `ConcurrentSession::execute_with_retry`.
pub const EXECUTE_WITH_RETRY: Name = 3;
/// `parse_program`.
pub const PARSE: Name = 4;
/// `Engine::execute`.
pub const EXECUTE: Name = 5;
/// `Engine::define_constraint`.
pub const DEFINE_CONSTRAINT: Name = 6;
/// `Engine::remove_rule`.
pub const REMOVE_RULE: Name = 7;
/// `request` — the root span of one wire request.
pub const REQUEST: Name = 8;
/// `Client::execute_many`.
pub const EXECUTE_MANY: Name = 9;
/// Re-preparing the three live statements after a catalog step.
pub const REPREPARE: Name = 10;

const NO_PARENT: Name = u8::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request identifier: client number in the top 16 bits, the client's
    /// sample sequence below.
    pub tx: u64,
    /// What was called.
    pub name: Name,
    parent: Name,
    /// Transactions the request carried (a batch carries many).
    pub txs: u32,
    /// Start, nanoseconds since the buffer's base instant.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Counter deltas over the span (root spans only).
    pub counters: Counters,
}

/// A client's span buffer.
#[derive(Debug)]
pub struct TraceBuf {
    base: Instant,
    client: u64,
    seq: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl TraceBuf {
    /// A buffer for `client` with room for `capacity` spans, timestamps
    /// relative to `base` (shared by all clients of a workload).
    pub fn new(base: Instant, client: usize, capacity: usize) -> TraceBuf {
        TraceBuf {
            base,
            client: client as u64,
            seq: 0,
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Start a new request; returns its identifier.
    pub fn begin(&mut self) -> u64 {
        self.seq += 1;
        (self.client << 48) | self.seq
    }

    fn push(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Record the root span of request `tx`.
    pub fn root(
        &mut self,
        tx: u64,
        name: Name,
        txs: u32,
        start: Instant,
        end: Instant,
        counters: Counters,
    ) {
        self.push(Span {
            tx,
            name,
            parent: NO_PARENT,
            txs,
            start_ns: (start - self.base).as_nanos() as u64,
            end_ns: (end - self.base).as_nanos() as u64,
            counters,
        });
    }

    /// Record a child span of request `tx`.
    pub fn child(&mut self, tx: u64, name: Name, parent: Name, start: Instant, end: Instant) {
        self.push(Span {
            tx,
            name,
            parent,
            txs: 0,
            start_ns: (start - self.base).as_nanos() as u64,
            end_ns: (end - self.base).as_nanos() as u64,
            counters: Counters::default(),
        });
    }
}

/// Self time and counters summed per span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Σ (duration − the part covered by child spans).
    pub self_ns: u64,
    /// Σ duration.
    pub total_ns: u64,
}

/// The merged trace of one workload pass.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    /// Spans that did not fit the pre-allocated buffers.
    pub dropped: u64,
}

impl Trace {
    /// Merge the clients' buffers.
    pub fn merge(bufs: Vec<TraceBuf>) -> Trace {
        let mut t = Trace::default();
        for b in bufs {
            t.dropped += b.dropped;
            t.spans.extend(b.spans);
        }
        t
    }

    /// Number of spans held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Per-name totals. A span's self time is its duration minus the
    /// durations of the spans of the same request that name it as parent.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        // A request's spans are pushed back to back by one client.
        for group in self.spans.chunk_by(|a, b| a.tx == b.tx) {
            for s in group {
                let dur = s.end_ns - s.start_ns;
                let children: u64 = group
                    .iter()
                    .filter(|c| c.parent == s.name)
                    .map(|c| c.end_ns - c.start_ns)
                    .sum();
                let e = out.entry(NAMES[s.name as usize]).or_default();
                e.count += 1;
                e.total_ns += dur;
                e.self_ns += dur.saturating_sub(children);
            }
        }
        out
    }

    /// `(requests, transactions, Σ self time over all spans)` of the
    /// sampled requests.
    pub fn sampled(&self) -> (u64, u64, u64) {
        let roots = self.spans.iter().filter(|s| s.parent == NO_PARENT);
        let (requests, txs) = roots.fold((0, 0), |(r, t), s| (r + 1, t + u64::from(s.txs)));
        let self_ns = self.totals().values().map(|t| t.self_ns).sum();
        (requests, txs, self_ns)
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                format!("\"{}\"", NAMES[s.parent as usize])
            };
            write!(
                w,
                "{{\"workload\": \"{workload}\", \"tx\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}",
                s.tx, NAMES[s.name as usize], s.start_ns, s.end_ns
            )?;
            if s.parent == NO_PARENT {
                write!(
                    w,
                    ", \"txs\": {}, \"unshares\": {}, \"wal_bytes\": {}, \"wal_fsyncs\": {}",
                    s.txs, s.counters.unshares, s.counters.wal_bytes, s.counters.wal_fsyncs
                )?;
            }
            writeln!(w, "}}")?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_buffer_never_grows() {
        let base = Instant::now();
        let at = |ns: u64| base + Duration::from_nanos(ns);
        let mut buf = TraceBuf::new(base, 1, 3);
        let tx = buf.begin();
        buf.child(tx, BIND, TX, at(0), at(30));
        buf.child(tx, EXECUTE_BOUND, TX, at(30), at(100));
        buf.root(
            tx,
            TX,
            1,
            at(0),
            at(110),
            Counters {
                unshares: 2,
                ..Counters::default()
            },
        );
        let tx2 = buf.begin();
        buf.root(tx2, TX, 1, at(200), at(300), Counters::default()); // dropped
        assert_ne!(tx, tx2);
        let trace = Trace::merge(vec![buf]);
        assert_eq!((trace.len(), trace.dropped), (3, 1));
        let totals = trace.totals();
        assert_eq!(
            totals["tx"],
            NameTotals {
                count: 1,
                self_ns: 10,
                total_ns: 110
            }
        );
        assert_eq!(totals["core.bind"].self_ns, 30);
        assert_eq!(totals["core.execute_bound"].self_ns, 70);
        assert_eq!(trace.sampled(), (1, 1, 110));
    }
}
