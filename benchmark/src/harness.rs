//! The closed-loop measurement harness shared by all workloads.
//!
//! A measured phase is a sequence of **rounds**. In each round every
//! client first generates a fixed number of bindings *outside the clock*,
//! then all clients start together on a barrier and run their round; the
//! round's wall time is taken from that barrier to the moment the last
//! client finishes. Rounds repeat until the measured wall time reaches
//! the requested seconds, after a discarded warm-up. Clients are closed
//! loops: each sends its next request only when the previous one has been
//! answered.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::stats::Round;
use crate::trace::{Trace, TraceBuf};

/// What one client has seen so far.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (warm-up included).
    pub ops: u64,
    /// Operations answered wrongly: unexpected verdict, protocol error,
    /// `Busy`, exhausted retry budget. An expected integrity abort is a
    /// correct answer.
    pub failed: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Conflict retries spent.
    pub retries: u64,
    /// Σ `checks.skipped` over answered transactions.
    pub skipped: u64,
    /// Σ `checks.probed`.
    pub probed: u64,
    /// Σ `checks.evaluated`.
    pub evaluated: u64,
    /// Transactions whose verdict carried check counts.
    pub counted: u64,
    /// Client-observed latencies of the sampled requests, measured rounds
    /// only: `(measured round number, nanoseconds)`.
    pub lat: Vec<(u32, u64)>,
    /// Number of the current measured round.
    pub round: u32,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Whether the current round is measured (latencies and spans are
    /// kept) or warm-up.
    pub measuring: bool,
}

impl Tally {
    /// Record the latency of one sampled request of the current round.
    pub fn sample(&mut self, ns: u64) {
        self.lat.push((self.round, ns));
    }

    /// Count one failed operation, keeping the first few messages.
    pub fn fail(&mut self, message: impl FnOnce() -> String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message());
        }
    }

    /// Fold `other` into `self`.
    pub fn absorb(&mut self, other: Tally) {
        self.ops += other.ops;
        self.failed += other.failed;
        self.committed += other.committed;
        self.retries += other.retries;
        self.skipped += other.skipped;
        self.probed += other.probed;
        self.evaluated += other.evaluated;
        self.counted += other.counted;
        self.lat.extend(other.lat);
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// One closed-loop client of a workload.
pub trait Client: Send {
    /// Generate the next round's inputs. Outside the clock.
    fn generate(&mut self);

    /// Run the generated round: answer every operation, check every
    /// verdict against the generator's expectation, sample latencies and
    /// (when `trace` is given and the round is measured) record spans.
    fn run(&mut self, tally: &mut Tally, trace: Option<&mut TraceBuf>);
}

/// The result of a measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// The measured rounds, in order.
    pub rounds: Vec<Round>,
    /// All clients' tallies folded together.
    pub tally: Tally,
    /// Time the clients spent generating inputs.
    pub gen_ns: u64,
    /// The merged trace (empty when tracing was off).
    pub trace: Trace,
}

/// Spans a client's pre-allocated buffer holds.
const TRACE_CAPACITY: usize = 400_000;

/// Run `clients` (one thread each) for a warm-up of `warmup` and then
/// `seconds` of measured wall time. `after_round` runs on the
/// coordinating thread between rounds, outside the clock — workloads use
/// it to sample gauges such as retained deltas.
pub fn measure<C: Client>(
    clients: &mut [C],
    seconds: f64,
    warmup: f64,
    tracing: bool,
    mut after_round: impl FnMut() + Send,
) -> Phase {
    let n = clients.len();
    let barrier = Barrier::new(n);
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(warmup <= 0.0);
    let round_ops = AtomicU64::new(0);
    let base = Instant::now();
    let target = Duration::from_secs_f64(seconds);
    let warm_target = Duration::from_secs_f64(warmup.max(0.0));

    let mut phase = Phase::default();
    let results: Vec<(Tally, u64, Option<TraceBuf>, Vec<Round>)> = std::thread::scope(|s| {
        let mut after_round = Some(&mut after_round);
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let (barrier, stop, measuring, round_ops) =
                    (&barrier, &stop, &measuring, &round_ops);
                let mut after_round = if i == 0 { after_round.take() } else { None };
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut buf = tracing.then(|| TraceBuf::new(base, i, TRACE_CAPACITY / n));
                    let mut rounds = Vec::new();
                    let (mut gen_ns, mut warm, mut measured) =
                        (0u64, Duration::ZERO, Duration::ZERO);
                    loop {
                        let g = Instant::now();
                        client.generate();
                        gen_ns += g.elapsed().as_nanos() as u64;
                        if tally.measuring {
                            tally.round += 1; // the previous round was a measured one
                        }
                        tally.measuring = measuring.load(Ordering::SeqCst);
                        let before = tally.ops;
                        barrier.wait();
                        let t0 = Instant::now();
                        client.run(&mut tally, buf.as_mut());
                        round_ops.fetch_add(tally.ops - before, Ordering::SeqCst);
                        barrier.wait();
                        let wall = t0.elapsed();
                        if i == 0 {
                            let ops = round_ops.swap(0, Ordering::SeqCst);
                            if tally.measuring {
                                rounds.push(Round {
                                    ops,
                                    ns: wall.as_nanos() as u64,
                                });
                                measured += wall;
                                if measured >= target {
                                    stop.store(true, Ordering::SeqCst);
                                }
                            } else {
                                warm += wall;
                                if warm >= warm_target {
                                    measuring.store(true, Ordering::SeqCst);
                                }
                            }
                            if let Some(f) = after_round.as_mut() {
                                f();
                            }
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            return (tally, gen_ns, buf, rounds);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut bufs = Vec::new();
    for (tally, gen_ns, buf, rounds) in results {
        phase.tally.absorb(tally);
        phase.gen_ns += gen_ns;
        bufs.extend(buf);
        if !rounds.is_empty() {
            phase.rounds = rounds;
        }
    }
    phase.trace = Trace::merge(bufs);
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sleeper(u64);
    impl Client for Sleeper {
        fn generate(&mut self) {}
        fn run(&mut self, tally: &mut Tally, _trace: Option<&mut TraceBuf>) {
            std::thread::sleep(Duration::from_millis(self.0));
            tally.ops += 10;
            if tally.measuring {
                tally.sample(self.0);
            }
        }
    }

    #[test]
    fn rounds_wait_for_the_slowest_client_and_warm_up_is_discarded() {
        let mut clients = vec![Sleeper(1), Sleeper(4)];
        let mut gauge = 0;
        let phase = measure(&mut clients, 0.02, 0.004, false, || gauge += 1);
        assert!(phase.rounds.len() >= 3, "{:?}", phase.rounds);
        for r in &phase.rounds {
            assert_eq!(r.ops, 20);
            assert!(
                r.ns >= 4_000_000,
                "round shorter than its slowest client: {r:?}"
            );
        }
        // One warm-up round (4 ms ≥ the 4 ms warm-up), then measured ones.
        assert_eq!(phase.tally.ops, 20 * (phase.rounds.len() as u64 + 1));
        assert_eq!(phase.tally.lat.len(), 2 * phase.rounds.len());
        let last = phase.rounds.len() as u32 - 1;
        assert_eq!(
            phase.tally.lat.iter().map(|s| s.0).max(),
            Some(last),
            "samples carry their round"
        );
        assert_eq!(phase.tally.lat.iter().map(|s| s.0).min(), Some(0));
        assert_eq!(gauge, phase.rounds.len() + 1);
    }
}
