//! Deterministic event queue.
//!
//! Orders events by `(time, sequence)`: earliest time first, and FIFO
//! among events scheduled for the same instant. The sequence number makes
//! the pop order a pure function of the push order, which is what makes
//! whole-simulation determinism possible.
//!
//! The store is tuned for the engine's dominant pop-handle-push cycle:
//!
//! * A manual `Vec`-backed binary min-heap keyed on `(at, seq)` — no
//!   inverted-`Ord` wrapper, and `pop` fuses the peek and the sift-down
//!   into one pass (the root is replaced by the last element and sifted,
//!   instead of a generic remove-then-rebalance).
//! * **Same-instant batching**: handlers frequently schedule follow-up
//!   events at exactly the current instant (zero-cost compute steps,
//!   cascading dispatch pumps). Those events can never be preceded by
//!   anything still in the heap at a *later* key, so they go to a plain
//!   FIFO `VecDeque` side lane and skip the heap entirely — O(1) push and
//!   pop, no sifting. The lane drains before the clock advances, so the
//!   global `(at, seq)` order is preserved exactly.

use crate::time::SimTime;
use std::collections::VecDeque;

/// A scheduled event: payload `E` due at `at`.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Priority queue of timestamped events with deterministic tie-breaking.
///
/// ```
/// use ibis_simcore::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Min-heap on `(at, seq)` for future events.
    heap: Vec<Scheduled<E>>,
    /// FIFO lane for events scheduled at exactly the current instant.
    /// Invariant: every entry has `at == last_popped`, and entries appear
    /// in increasing `seq` (they were pushed, in order, since the clock
    /// reached `last_popped`). The heap may still hold same-instant events
    /// with *smaller* seq (pushed before the clock arrived), so `pop`
    /// compares the two fronts.
    batch: VecDeque<Scheduled<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            batch: VecDeque::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `event` at instant `at`.
    ///
    /// Scheduling in the past (before the last popped event) is a logic
    /// error in the caller; it is caught by a debug assertion and clamped to
    /// the current time in release builds so a report run degrades instead
    /// of deadlocking.
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.last_popped,
            "event scheduled in the past: {at} < {}",
            self.last_popped
        );
        let at = at.max(self.last_popped);
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { at, seq, event };
        if at == self.last_popped {
            // Same-instant fast path: seq is globally increasing, so
            // push_back keeps the lane sorted. No heap traffic.
            self.batch.push_back(s);
        } else {
            self.heap.push(s);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Removes and returns the earliest event, advancing the queue clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = match (self.batch.front(), self.heap.first()) {
            (Some(b), Some(h)) if b.key() < h.key() => {
                self.batch.pop_front().expect("front exists")
            }
            (Some(_), None) => self.batch.pop_front().expect("front exists"),
            (None, None) => return None,
            _ => self.pop_heap().expect("heap non-empty"),
        };
        self.last_popped = s.at;
        Some((s.at, s.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.batch.front(), self.heap.first()) {
            (Some(b), Some(h)) => Some(if b.key() < h.key() { b.at } else { h.at }),
            (Some(b), None) => Some(b.at),
            (None, Some(h)) => Some(h.at),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.batch.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.batch.is_empty()
    }

    /// The time of the most recently popped event (the queue's notion of
    /// "now").
    pub fn now(&self) -> SimTime {
        self.last_popped
    }

    /// Fused peek-then-pop: replace the root with the last element and
    /// sift it down in a single pass.
    fn pop_heap(&mut self) -> Option<Scheduled<E>> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last);
        }
        let root = std::mem::replace(&mut self.heap[0], last);
        self.sift_down(0);
        Some(root)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() >= self.heap[parent].key() {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let mut smallest = if self.heap[l].key() < self.heap[i].key() {
                l
            } else {
                i
            };
            if r < n && self.heap[r].key() < self.heap[smallest].key() {
                smallest = r;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 30);
        q.push(SimTime::from_secs(1), 10);
        q.push(SimTime::from_secs(1), 11);
        q.push(SimTime::from_secs(2), 20);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![10, 11, 20, 30]);
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), "a");
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_secs(1), "a"));
        // Push relative to the popped time, as event handlers do.
        q.push(t + SimDuration::from_secs(1), "b");
        q.push(t + SimDuration::from_millis(500), "c");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn now_tracks_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.push(SimTime::from_secs(5), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn same_instant_batch_preserves_global_seq_order() {
        // Heap-resident same-instant events (scheduled *before* the clock
        // reached t=5) must still precede batch-lane events pushed *at*
        // t=5, because their sequence numbers are smaller.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "heap-1");
        q.push(SimTime::from_secs(5), "heap-2");
        q.push(SimTime::from_secs(5), "heap-3");
        assert_eq!(q.pop().unwrap().1, "heap-1");
        // now() == 5: these take the batch fast path.
        q.push(SimTime::from_secs(5), "batch-1");
        q.push(SimTime::from_secs(6), "later");
        q.push(SimTime::from_secs(5), "batch-2");
        assert_eq!(q.pop().unwrap().1, "heap-2");
        assert_eq!(q.pop().unwrap().1, "heap-3");
        assert_eq!(q.pop().unwrap().1, "batch-1");
        assert_eq!(q.pop().unwrap().1, "batch-2");
        assert_eq!(q.pop().unwrap().1, "later");
        assert!(q.is_empty());
    }

    #[test]
    fn peek_sees_batch_lane() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), "future");
        // At t=0 this is same-instant: batch lane.
        q.push(SimTime::ZERO, "immediate");
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, "immediate");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
    }

    #[test]
    fn batch_lane_drains_before_clock_advances() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 0);
        q.pop();
        for i in 1..=100 {
            q.push(SimTime::from_secs(1), i);
        }
        q.push(SimTime::from_secs(2), 999);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<i32> = (1..=100).chain([999]).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn heap_order_matches_reference_model() {
        // Deterministic pseudo-random push/pop sequence checked against a
        // sorted reference: the manual heap must agree with (at, seq) order.
        let mut q = EventQueue::new();
        let mut model: Vec<(u64, u64)> = Vec::new(); // (at_secs, seq)
        let mut seq = 0u64;
        let mut state = 0x1b15_u64;
        let mut rand = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        for _ in 0..500 {
            if rand() % 3 != 0 || model.is_empty() {
                let at = now + rand() % 50;
                q.push(SimTime::from_secs(at), seq);
                model.push((at, seq));
                seq += 1;
            } else {
                let (t, got) = q.pop().unwrap();
                model.sort();
                let (at, expect) = model.remove(0);
                assert_eq!(t, SimTime::from_secs(at));
                assert_eq!(got, expect);
                now = at;
            }
        }
        model.sort();
        for (at, expect) in model {
            let (t, got) = q.pop().unwrap();
            assert_eq!((t, got), (SimTime::from_secs(at), expect));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn heap_resident_event_precedes_later_batch_lane_push() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "heap-early");
        q.push(SimTime::from_secs(5), "x");
        q.pop(); // clock at 5; "x" (seq 1) still heap-resident
        q.push(SimTime::from_secs(5), "batch-late");
        // The heap-resident seq-1 event precedes the batch-lane seq-2 one.
        assert_eq!(q.pop().unwrap().1, "x");
        assert_eq!(q.pop().unwrap().1, "batch-late");
        assert!(q.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), ());
        q.pop();
        q.push(SimTime::from_secs(1), ());
    }
}
