//! The circular buffer.
//!
//! This is the communication mechanism the paper's abstract calls out: each
//! GPU streams the border columns of its slab to its right-hand neighbour
//! through a bounded ring. The producer pushes one border segment per
//! block-row as soon as the row's last tile finishes; the consumer pops one
//! segment before starting each of its own block-rows. The ring's capacity
//! is what decouples the two devices:
//!
//! * capacity 1 behaves like a synchronous hand-off (the producer blocks
//!   until the consumer has taken the previous segment);
//! * larger capacities let the producer run ahead, so transfer latency and
//!   consumer hiccups hide behind the producer's own computation.
//!
//! The implementation is a mutex + condvar bounded deque rather than a
//! lock-free ring: border segments are kilobytes, pushed thousands — not
//! millions — of times per second, so correctness, blocking semantics and
//! **occupancy statistics** (which the buffer-sensitivity figure needs)
//! matter more than nanosecond enqueue latency. Poisoning mirrors what a
//! failed device must do so neighbours blocked on the ring wake up with an
//! error instead of deadlocking.
//!
//! Besides counting blocking events, the ring accumulates how *long* each
//! side spent blocked ([`RingStats::producer_wait`] /
//! [`RingStats::consumer_wait`]) — the raw material for the stall accounting
//! in [`crate::stats::StallBreakdown`] and the `RingPush`/`RingPopWait`
//! spans of the observability layer.

use megasw_obs::RingGauge;
use megasw_sw::border::ColBorder;
use megasw_sw::cell::Score;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The message the pipeline streams between neighbouring devices: one
/// column border plus the sender's **pruning watermark** piggybacked on it
/// (0 when pruning is off — see DESIGN.md §10).
///
/// Piggybacking keeps watermark propagation on the channel that already
/// exists per block-row, so distributed pruning adds no synchronization to
/// the hot path beyond one `i32` per border segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BorderMsg {
    /// The slab's right border for one block-row.
    pub border: ColBorder,
    /// The sender's best-score watermark at send time.
    pub watermark: Score,
}

/// Why a ring operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The other side poisoned the ring (its device failed).
    Poisoned,
    /// Push after `close()`.
    Closed,
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::Poisoned => write!(f, "ring poisoned: the peer device failed"),
            RingError::Closed => write!(f, "push on a closed ring"),
        }
    }
}

impl std::error::Error for RingError {}

#[derive(Debug)]
struct Inner<T> {
    queue: VecDeque<T>,
    capacity: usize,
    closed: bool,
    poisoned: bool,
    // Statistics.
    pushed: u64,
    popped: u64,
    max_occupancy: usize,
    producer_blocks: u64,
    consumer_blocks: u64,
    producer_wait: Duration,
    consumer_wait: Duration,
    /// Optional live-telemetry gauge mirroring the current occupancy.
    /// Updated while the ring lock is already held, so attaching one costs
    /// a single relaxed atomic store per push/pop.
    gauge: Option<RingGauge>,
}

impl<T> Inner<T> {
    fn publish_occupancy(&self) {
        if let Some(g) = &self.gauge {
            g.set(self.queue.len());
        }
    }
}

/// A bounded blocking SPSC ring carrying border segments between
/// neighbouring devices. Cloning the handle shares the ring.
///
/// ```
/// use megasw_multigpu::circbuf::CircularBuffer;
///
/// let ring = CircularBuffer::with_capacity(2);
/// let producer = {
///     let ring = ring.clone();
///     std::thread::spawn(move || {
///         for i in 0..100u32 {
///             ring.push(i).unwrap();
///         }
///         ring.close();
///     })
/// };
/// let mut received = 0u32;
/// while let Some(v) = ring.pop().unwrap() {
///     assert_eq!(v, received);
///     received += 1;
/// }
/// producer.join().unwrap();
/// assert_eq!(received, 100);
/// assert!(ring.stats().max_occupancy <= 2);
/// ```
#[derive(Debug)]
pub struct CircularBuffer<T> {
    inner: Arc<(Mutex<Inner<T>>, Condvar, Condvar)>,
}

impl<T> Clone for CircularBuffer<T> {
    fn clone(&self) -> Self {
        CircularBuffer {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Snapshot of ring statistics, taken after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Segments pushed over the ring's lifetime.
    pub pushed: u64,
    /// Segments popped.
    pub popped: u64,
    /// Highest occupancy ever observed.
    pub max_occupancy: usize,
    /// Times the producer found the ring full and had to wait.
    pub producer_blocks: u64,
    /// Times the consumer found the ring empty and had to wait.
    pub consumer_blocks: u64,
    /// Total wall-clock time the producer spent blocked on a full ring.
    pub producer_wait: Duration,
    /// Total wall-clock time the consumer spent blocked on an empty ring.
    pub consumer_wait: Duration,
}

impl RingStats {
    /// The statistics of two rings one producer fed in turn, as if they
    /// were one ring.
    pub(crate) fn merged(self, later: RingStats) -> RingStats {
        RingStats {
            pushed: self.pushed + later.pushed,
            popped: self.popped + later.popped,
            max_occupancy: self.max_occupancy.max(later.max_occupancy),
            producer_blocks: self.producer_blocks + later.producer_blocks,
            consumer_blocks: self.consumer_blocks + later.consumer_blocks,
            producer_wait: self.producer_wait + later.producer_wait,
            consumer_wait: self.consumer_wait + later.consumer_wait,
        }
    }
}

impl<T> CircularBuffer<T> {
    /// Create a ring with the given capacity (≥ 1).
    pub fn with_capacity(capacity: usize) -> CircularBuffer<T> {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        CircularBuffer {
            inner: Arc::new((
                Mutex::new(Inner {
                    queue: VecDeque::with_capacity(capacity),
                    capacity,
                    closed: false,
                    poisoned: false,
                    pushed: 0,
                    popped: 0,
                    max_occupancy: 0,
                    producer_blocks: 0,
                    consumer_blocks: 0,
                    producer_wait: Duration::ZERO,
                    consumer_wait: Duration::ZERO,
                    gauge: None,
                }),
                Condvar::new(), // not_full  — producer waits here
                Condvar::new(), // not_empty — consumer waits here
            )),
        }
    }

    /// Lock the ring state. A panicked peer is reported through the ring's
    /// own `poisoned` flag, so std mutex poisoning is deliberately ignored.
    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocking push. Waits while the ring is full.
    pub fn push(&self, item: T) -> Result<(), RingError> {
        let (_, not_full, not_empty) = &*self.inner;
        let mut g = self.lock();
        if g.queue.len() >= g.capacity && !g.poisoned {
            g.producer_blocks += 1;
            let blocked_at = Instant::now();
            while g.queue.len() >= g.capacity && !g.poisoned {
                g = not_full.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            g.producer_wait += blocked_at.elapsed();
        }
        if g.poisoned {
            return Err(RingError::Poisoned);
        }
        if g.closed {
            return Err(RingError::Closed);
        }
        g.queue.push_back(item);
        g.pushed += 1;
        let occ = g.queue.len();
        g.max_occupancy = g.max_occupancy.max(occ);
        g.publish_occupancy();
        not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop. Waits while the ring is empty; returns `Ok(None)` once
    /// the ring is closed **and** drained.
    pub fn pop(&self) -> Result<Option<T>, RingError> {
        let (_, not_full, not_empty) = &*self.inner;
        let mut g = self.lock();
        let mut blocked_at: Option<Instant> = None;
        if g.queue.is_empty() && !g.closed && !g.poisoned {
            g.consumer_blocks += 1;
            blocked_at = Some(Instant::now());
        }
        loop {
            if g.poisoned {
                if let Some(t) = blocked_at {
                    g.consumer_wait += t.elapsed();
                }
                return Err(RingError::Poisoned);
            }
            if let Some(item) = g.queue.pop_front() {
                g.popped += 1;
                if let Some(t) = blocked_at {
                    g.consumer_wait += t.elapsed();
                }
                g.publish_occupancy();
                not_full.notify_one();
                return Ok(Some(item));
            }
            if g.closed {
                if let Some(t) = blocked_at {
                    g.consumer_wait += t.elapsed();
                }
                return Ok(None);
            }
            g = not_empty.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Producer side is done: consumers drain the remaining items and then
    /// see `Ok(None)`.
    pub fn close(&self) {
        let (_, _nf, not_empty) = &*self.inner;
        let mut g = self.lock();
        g.closed = true;
        drop(g);
        not_empty.notify_all();
    }

    /// Mark the ring failed; all blocked and future operations return
    /// [`RingError::Poisoned`].
    pub fn poison(&self) {
        let (_, not_full, not_empty) = &*self.inner;
        let mut g = self.lock();
        g.poisoned = true;
        drop(g);
        not_full.notify_all();
        not_empty.notify_all();
    }

    /// Current occupancy (racy; for tests/diagnostics).
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Is the ring currently empty? (racy; for tests/diagnostics).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Attach a live-telemetry occupancy gauge (see
    /// [`megasw_obs::LiveTelemetry::ring_gauge`]). The ring keeps the gauge
    /// at its current occupancy from inside its own lock, so the extra cost
    /// is one relaxed store per push/pop.
    pub fn attach_occupancy_gauge(&self, gauge: RingGauge) {
        let mut g = self.lock();
        g.gauge = Some(gauge);
        g.publish_occupancy();
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RingStats {
        let g = self.lock();
        RingStats {
            pushed: g.pushed,
            popped: g.popped,
            max_occupancy: g.max_occupancy,
            producer_blocks: g.producer_blocks,
            consumer_blocks: g.consumer_blocks,
            producer_wait: g.producer_wait,
            consumer_wait: g.consumer_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Poll a block counter until the spawned thread has blocked. `push`
    /// and `pop` bump their counter under the lock they then wait on, so a
    /// reading of 1 means the thread is parked on the condvar, however
    /// late the scheduler started it.
    fn wait_until_blocked(blocks: impl Fn() -> u64) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while blocks() == 0 {
            assert!(
                Instant::now() < deadline,
                "thread never blocked on the ring"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let ring = CircularBuffer::with_capacity(4);
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        ring.close();
        let mut got = Vec::new();
        while let Ok(Some(v)) = ring.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn close_then_pop_drains_then_none() {
        let ring = CircularBuffer::with_capacity(2);
        ring.push("a").unwrap();
        ring.close();
        assert_eq!(ring.pop().unwrap(), Some("a"));
        assert_eq!(ring.pop().unwrap(), None);
        assert_eq!(ring.pop().unwrap(), None);
    }

    #[test]
    fn push_after_close_rejected() {
        let ring = CircularBuffer::with_capacity(2);
        ring.close();
        assert_eq!(ring.push(1), Err(RingError::Closed));
    }

    #[test]
    fn errors_display_and_source() {
        let err: Box<dyn std::error::Error> = Box::new(RingError::Poisoned);
        assert!(err.to_string().contains("poisoned"));
        assert!(RingError::Closed.to_string().contains("closed"));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = CircularBuffer::<u32>::with_capacity(0);
    }

    #[test]
    fn producer_blocks_on_full_ring() {
        let ring = CircularBuffer::with_capacity(1);
        ring.push(0u32).unwrap();
        let producer = {
            let ring = ring.clone();
            std::thread::spawn(move || ring.push(1).unwrap())
        };
        wait_until_blocked(|| ring.stats().producer_blocks);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.pop().unwrap(), Some(0));
        producer.join().unwrap();
        assert_eq!(ring.pop().unwrap(), Some(1));
        let stats = ring.stats();
        assert_eq!(stats.pushed, 2);
        assert_eq!(stats.popped, 2);
        assert!(stats.producer_blocks >= 1);
        assert!(stats.producer_wait > Duration::ZERO);
    }

    #[test]
    fn consumer_blocks_until_producer_pushes() {
        let ring: CircularBuffer<u32> = CircularBuffer::with_capacity(2);
        let consumer = {
            let ring = ring.clone();
            std::thread::spawn(move || ring.pop().unwrap())
        };
        wait_until_blocked(|| ring.stats().consumer_blocks);
        ring.push(7).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(7));
        let stats = ring.stats();
        assert!(stats.consumer_blocks >= 1);
        assert!(stats.consumer_wait > Duration::ZERO);
    }

    #[test]
    fn unblocked_operations_accumulate_no_wait() {
        let ring = CircularBuffer::with_capacity(8);
        for i in 0..4u32 {
            ring.push(i).unwrap();
        }
        for _ in 0..4 {
            ring.pop().unwrap();
        }
        let stats = ring.stats();
        assert_eq!(stats.producer_blocks, 0);
        assert_eq!(stats.consumer_blocks, 0);
        assert_eq!(stats.producer_wait, Duration::ZERO);
        assert_eq!(stats.consumer_wait, Duration::ZERO);
    }

    #[test]
    fn poison_wakes_blocked_producer() {
        let ring = CircularBuffer::with_capacity(1);
        ring.push(0u32).unwrap();
        let producer = {
            let ring = ring.clone();
            std::thread::spawn(move || ring.push(1))
        };
        // Poison only once the producer is parked on the full ring, so the
        // test exercises the wake-up rather than poison-before-push.
        wait_until_blocked(|| ring.stats().producer_blocks);
        ring.poison();
        assert_eq!(producer.join().unwrap(), Err(RingError::Poisoned));
    }

    #[test]
    fn poison_wakes_blocked_consumer() {
        let ring: CircularBuffer<u32> = CircularBuffer::with_capacity(1);
        let consumer = {
            let ring = ring.clone();
            std::thread::spawn(move || ring.pop())
        };
        // Poison only once the consumer is parked on the empty ring.
        wait_until_blocked(|| ring.stats().consumer_blocks);
        ring.poison();
        assert_eq!(consumer.join().unwrap(), Err(RingError::Poisoned));
    }

    #[test]
    fn stream_many_items_through_small_ring() {
        const N: u64 = 50_000;
        let ring = CircularBuffer::with_capacity(8);
        let producer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 0..N {
                    ring.push(i).unwrap();
                }
                ring.close();
            })
        };
        let mut expected = 0u64;
        while let Some(v) = ring.pop().unwrap() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, N);
        producer.join().unwrap();
        let stats = ring.stats();
        assert_eq!(stats.pushed, N);
        assert_eq!(stats.popped, N);
        assert!(stats.max_occupancy <= 8);
    }

    #[test]
    fn occupancy_gauge_mirrors_ring_state() {
        use megasw_obs::LiveTelemetry;
        let live = LiveTelemetry::new(1, 100);
        let ring = CircularBuffer::with_capacity(4);
        ring.attach_occupancy_gauge(live.ring_gauge(0).unwrap());
        assert_eq!(live.snapshot().devices[0].ring_occupancy, 0);
        ring.push(1u32).unwrap();
        ring.push(2).unwrap();
        assert_eq!(live.snapshot().devices[0].ring_occupancy, 2);
        ring.pop().unwrap();
        assert_eq!(live.snapshot().devices[0].ring_occupancy, 1);
        ring.pop().unwrap();
        assert_eq!(live.snapshot().devices[0].ring_occupancy, 0);
    }

    #[test]
    fn max_occupancy_tracks_high_water_mark() {
        let ring = CircularBuffer::with_capacity(16);
        for i in 0..5 {
            ring.push(i).unwrap();
        }
        ring.pop().unwrap();
        ring.push(9).unwrap();
        assert_eq!(ring.stats().max_occupancy, 5);
    }
}
