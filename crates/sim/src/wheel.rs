//! Bucketed calendar queue ("timing wheel") for absolute-cycle events.
//!
//! The per-cycle hot paths of the simulator need three operations: schedule
//! an event at an absolute cycle, drain everything due at the current cycle,
//! and — for the fast-forward engine — report the earliest pending event. A
//! binary heap does all three but pays `O(log n)` per event and per-cycle
//! peek churn; a calendar queue makes the common case a constant-time bucket
//! append/drain and keeps the exact minimum on hand.
//!
//! The wheel is generic over its payload: [`crate::sm::Sm`] schedules
//! [`crate::sm::Writeback`] completions on it, and the event-driven memory
//! model ([`crate::mem::EventMem`]) schedules MSHR-entry and DRAM-queue-slot
//! releases. Events scheduled for the same cycle land in the same bucket and
//! drain together in insertion order — which is what lets a warp's N
//! per-transaction completions coalesce into one wake-up without any extra
//! merging structure. Insertion-order draining is also a determinism
//! contract: both engines (per-cycle and fast-forward) insert a
//! given SM's events in the same canonical order, so same-cycle ties
//! resolve identically everywhere. Within one SM cycle the ordering is
//! writeback drains first, then lazy memory-capacity releases
//! (`SharedMem::advance_to`), then the gate read — see the tie-break note
//! in [`crate::sm::Sm::step`].
//!
//! Layout: a ring of `SLOTS` buckets indexed by `cycle % SLOTS`. An event
//! scheduled more than `SLOTS` cycles ahead (possible only under extreme
//! bandwidth-queue backlog) goes to a small unsorted overflow list that is
//! consulted by its cached minimum. Invariant: every bucketed event's cycle
//! lies in `(drained_to, drained_to + SLOTS]`, so a bucket never mixes events
//! of different due cycles and drains whole.

/// Ring size in cycles. Covers the full L1+L2+DRAM latency path plus typical
/// queueing delay; deeper backlogs spill to the overflow list.
const SLOTS: usize = 1024;
const MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;

/// Calendar queue over `(due cycle, payload)` events.
#[derive(Debug, Clone)]
pub struct TimingWheel<T> {
    slots: Vec<Vec<(u64, T)>>,
    /// One bit per non-empty bucket, for fast earliest-event scans.
    occupancy: [u64; WORDS],
    overflow: Vec<(u64, T)>,
    overflow_min: u64,
    /// Exact earliest pending cycle (`u64::MAX` when empty).
    earliest: u64,
    /// Every event at a cycle `<= drained_to` has been handed out.
    drained_to: u64,
    len: usize,
    /// Latest due cycle ever scheduled (0 before the first push). Never
    /// reset by drains: it is a monotone progress watermark, not a queue
    /// property. The forward-progress watchdog reads it to prove "no event
    /// is scheduled past this cycle", and it is engine-invariant because
    /// every engine pushes the same events with the same clamped due cycles.
    latest: u64,
}

impl<T: Copy> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> TimingWheel<T> {
    /// Empty wheel starting at cycle 0.
    pub fn new() -> Self {
        TimingWheel {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; WORDS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            earliest: u64::MAX,
            drained_to: 0,
            len: 0,
            latest: 0,
        }
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// No pending events?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Earliest pending event cycle — the "when can anything next happen"
    /// answer the fast-forward engine consumes.
    #[inline]
    pub fn next_due(&self) -> Option<u64> {
        if self.len == 0 {
            None
        } else {
            Some(self.earliest)
        }
    }

    /// Latest due cycle ever scheduled on this wheel (0 if nothing was ever
    /// pushed). Monotone non-decreasing across the wheel's lifetime — see
    /// the field note on `latest`.
    #[inline]
    pub fn latest_scheduled(&self) -> u64 {
        self.latest
    }

    /// Schedule `payload` at cycle `at`. An event at an already-drained cycle
    /// is deferred to the next drain (matching a heap that would pop it on
    /// the following peek).
    pub fn push(&mut self, at: u64, payload: T) {
        let due = at.max(self.drained_to + 1);
        self.len += 1;
        self.latest = self.latest.max(due);
        self.earliest = self.earliest.min(due);
        if due > self.drained_to + SLOTS as u64 {
            self.overflow_min = self.overflow_min.min(due);
            self.overflow.push((due, payload));
        } else {
            let idx = (due & MASK) as usize;
            self.slots[idx].push((due, payload));
            self.occupancy[idx / 64] |= 1 << (idx % 64);
        }
    }

    /// Move every event due at or before `now` into `out` (cleared first)
    /// and advance the wheel to `now`. Within one call, events of the same
    /// cycle come out in insertion order; callers must not depend on any
    /// ordering beyond that (the simulator's event effects commute within a
    /// cycle).
    pub fn drain_due_into(&mut self, now: u64, out: &mut Vec<(u64, T)>) {
        out.clear();
        if now <= self.drained_to {
            return;
        }
        if self.earliest > now {
            // Nothing due: advance time without touching buckets (they only
            // hold events strictly later than `now`).
            self.drained_to = now;
            return;
        }
        let span = now - self.drained_to;
        if span < 64 {
            // Short advance (the per-cycle common case): probe the few
            // buckets in the span directly.
            for cycle in self.drained_to + 1..=now {
                let idx = (cycle & MASK) as usize;
                if !self.slots[idx].is_empty() {
                    debug_assert!(self.slots[idx].iter().all(|ev| ev.0 == cycle));
                    out.append(&mut self.slots[idx]);
                    self.occupancy[idx / 64] &= !(1 << (idx % 64));
                }
            }
        } else {
            // Long advance (a fast-forward wake-up): walk only the occupied
            // buckets via the bitmap. Every bucketed event lies within
            // `(drained_to, drained_to + SLOTS]`, so a bucket's (single) due
            // cycle is just read off its first entry.
            for word_idx in 0..WORDS {
                let mut word = self.occupancy[word_idx];
                while word != 0 {
                    let bit = word.trailing_zeros();
                    word &= word - 1;
                    let idx = word_idx * 64 + bit as usize;
                    let cycle = self.slots[idx][0].0;
                    debug_assert!(self.slots[idx].iter().all(|ev| ev.0 == cycle));
                    if cycle <= now {
                        out.append(&mut self.slots[idx]);
                        self.occupancy[word_idx] &= !(1u64 << bit);
                    }
                }
            }
        }
        if self.overflow_min <= now {
            let mut i = 0;
            while i < self.overflow.len() {
                if self.overflow[i].0 <= now {
                    out.push(self.overflow.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            self.overflow_min = self
                .overflow
                .iter()
                .map(|ev| ev.0)
                .min()
                .unwrap_or(u64::MAX);
        }
        self.len -= out.len();
        self.drained_to = now;
        self.recompute_earliest();
    }

    fn recompute_earliest(&mut self) {
        let mut best = self.overflow_min;
        if self.len > self.overflow.len() {
            let start = ((self.drained_to + 1) & MASK) as usize;
            let d = self
                .first_occupied_distance(start)
                .expect("occupancy bits track non-empty buckets");
            best = best.min(self.drained_to + 1 + d as u64);
        }
        self.earliest = best;
    }

    /// Distance (in buckets, wrapping) from `start` to the first non-empty
    /// bucket, scanning the occupancy bitmap.
    fn first_occupied_distance(&self, start: usize) -> Option<usize> {
        let word0 = start / 64;
        let bit0 = start % 64;
        for i in 0..=WORDS {
            let w = (word0 + i) % WORDS;
            let mut word = self.occupancy[w];
            if i == 0 {
                word &= u64::MAX << bit0;
            } else if i == WORDS {
                if bit0 == 0 {
                    break;
                }
                word &= (1u64 << bit0) - 1;
            }
            if word != 0 {
                let idx = w * 64 + word.trailing_zeros() as usize;
                return Some((idx + SLOTS - start) % SLOTS);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(w: &mut TimingWheel<u32>, now: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        w.drain_due_into(now, &mut out);
        out
    }

    #[test]
    fn events_come_out_at_their_cycle() {
        let mut w = TimingWheel::new();
        w.push(5, 1u32);
        w.push(3, 2);
        w.push(5, 3);
        assert_eq!(w.next_due(), Some(3));
        assert!(drain(&mut w, 2).is_empty());
        assert_eq!(drain(&mut w, 3), vec![(3, 2)]);
        assert_eq!(w.next_due(), Some(5));
        assert_eq!(drain(&mut w, 5), vec![(5, 1), (5, 3)]);
        assert!(w.is_empty());
        assert_eq!(w.next_due(), None);
    }

    #[test]
    fn jump_drains_collect_everything_due() {
        let mut w = TimingWheel::new();
        for c in [10u64, 700, 1500, 4000] {
            w.push(c, c as u32);
        }
        assert_eq!(w.len(), 4);
        let mut got = drain(&mut w, 2000);
        got.sort_unstable();
        assert_eq!(got, vec![(10, 10), (700, 700), (1500, 1500)]);
        assert_eq!(w.next_due(), Some(4000));
        assert_eq!(drain(&mut w, 1 << 40), vec![(4000, 4000)]);
    }

    #[test]
    fn overflow_events_surface_via_next_due() {
        let mut w = TimingWheel::new();
        w.push(100_000, 7u32); // far beyond the ring
        assert_eq!(w.next_due(), Some(100_000));
        assert!(drain(&mut w, 99_999).is_empty());
        assert_eq!(drain(&mut w, 100_000), vec![(100_000, 7)]);
    }

    #[test]
    fn overflow_and_ring_share_the_minimum() {
        let mut w = TimingWheel::new();
        w.push(5000, 1u32);
        assert!(drain(&mut w, 4000).is_empty()); // event now within ring reach
        w.push(4500, 2);
        assert_eq!(w.next_due(), Some(4500));
        assert_eq!(drain(&mut w, 4600), vec![(4500, 2)]);
        assert_eq!(w.next_due(), Some(5000));
    }

    #[test]
    fn stale_events_are_deferred_not_lost() {
        let mut w = TimingWheel::new();
        assert!(drain(&mut w, 50).is_empty());
        w.push(10, 1u32); // already past: becomes due at cycle 51
        assert_eq!(w.next_due(), Some(51));
        assert_eq!(drain(&mut w, 51), vec![(51, 1)]);
    }

    #[test]
    fn ring_aliasing_keeps_cycles_apart() {
        let mut w = TimingWheel::new();
        w.push(3, 1u32);
        assert_eq!(drain(&mut w, 3), vec![(3, 1)]);
        // Same bucket as cycle 3 (3 + 1024), pushed after time has advanced.
        w.push(3 + SLOTS as u64, 2);
        assert!(drain(&mut w, 100).is_empty());
        assert_eq!(w.next_due(), Some(3 + SLOTS as u64));
        assert_eq!(drain(&mut w, 3 + SLOTS as u64), vec![(3 + SLOTS as u64, 2)]);
    }

    #[test]
    fn same_cycle_events_share_a_bucket_and_drain_together() {
        // The wake-up-coalescing property the memory model relies on: N
        // events for one cycle come out of a single drain, in push order.
        let mut w = TimingWheel::new();
        for i in 0..8u32 {
            w.push(40, i);
        }
        let got = drain(&mut w, 40);
        assert_eq!(got.len(), 8);
        assert!(got.iter().enumerate().all(|(i, ev)| ev.1 == i as u32));
    }

    #[test]
    fn latest_scheduled_is_a_monotone_push_watermark() {
        let mut w = TimingWheel::new();
        assert_eq!(w.latest_scheduled(), 0);
        w.push(40, 1u32);
        w.push(10, 2);
        assert_eq!(w.latest_scheduled(), 40);
        // Draining never rewinds the watermark.
        assert_eq!(drain(&mut w, 50).len(), 2);
        assert_eq!(w.latest_scheduled(), 40);
        // A stale push records its clamped (deferred) due cycle.
        w.push(5, 3);
        assert_eq!(w.latest_scheduled(), 51);
    }

    #[test]
    fn matches_a_sorted_model_across_mixed_traffic() {
        // Deterministic pseudo-random workload compared against a Vec-based
        // reference model.
        let mut w = TimingWheel::new();
        let mut model: Vec<(u64, u32)> = Vec::new();
        let mut state = 0x1234_5678_u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut now = 0u64;
        for step in 0..2000u64 {
            let r = rng();
            // Mix short ALU-like, long DRAM-like, and pathological delays.
            let delay = match r % 5 {
                0 => 4,
                1 => 20,
                2 => 480,
                3 => 1 + r % 1500,
                _ => 1 + r % 40,
            };
            let ev = (now + delay, step as u32);
            w.push(ev.0, ev.1);
            model.push(ev);
            now += 1 + r % 7; // occasional multi-cycle hops
            let mut got = drain(&mut w, now);
            got.sort_unstable();
            let mut expect: Vec<(u64, u32)> =
                model.iter().copied().filter(|e| e.0 <= now).collect();
            expect.sort_unstable();
            model.retain(|e| e.0 > now);
            assert_eq!(got, expect, "step {step} now {now}");
            assert_eq!(
                w.next_due(),
                model.iter().map(|e| e.0).min(),
                "step {step} now {now}"
            );
        }
    }
}
