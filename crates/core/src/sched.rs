//! Warp-scheduling policies.
//!
//! Each SM has `SmConfig::schedulers` scheduler units; warps are statically
//! partitioned among them by slot index (GPGPU-Sim's arrangement: unit `u`
//! owns the slots `s` with `s % units == u`). Every cycle each unit picks at
//! most one *ready* warp. The policies:
//!
//! * **LRR** — loose round robin, the paper's baseline (Table I).
//! * **GTO** — greedy-then-oldest: keep issuing the same warp until it
//!   stalls, then fall back to the oldest ready warp (by dynamic id).
//! * **Two-Level** — Narasiman et al.'s fetch groups: round robin inside an
//!   active group, switch groups when the active group has no ready warp.
//! * **OWF** — the paper's Owner-Warp-First (Sec. IV-A): strict priority
//!   *owner > unshared > non-owner*, ties broken by dynamic warp id. With no
//!   sharing active every warp is unshared, so OWF degenerates to
//!   oldest-first — which is why the paper observes Shared-OWF ≈
//!   Unshared-GTO on Set-3 (Sec. VI-B2).
//!
//! ## The ready set
//!
//! Units pick from a [`ReadySet`]: the SM readiness scan's snapshot of its
//! warp slots as bitmasks, one `u64` word per 64 slots (a single word for
//! the paper's 48 warps). It holds a *live* mask (the slots the scan saw a
//! live warp in), a *ready* mask, one mask per [`WarpClass`], each slot's
//! dynamic warp id and the live slots as a list in slot order. The per-unit
//! partition masks are computed once in
//! [`SchedulerKind::build`], so a pick is a few word ANDs plus
//! `trailing_zeros`; only the oldest-first fallbacks walk bits, and then
//! only the candidate ones.
//!
//! LRR's pointer is **not** a slot number: `next[unit]` indexes the
//! compacted list of live slots in slot order. A pick starts at the
//! `next % n`-th live slot (`n` live slots; read off the list), takes the
//! unit's first ready slot at or after it, wrapping around, and sets `next`
//! to one past the picked slot's position in that list (a popcount of the
//! live mask below it), modulo `n`. A launch or retirement
//! that changes the live set therefore shifts which slot the pointer
//! designates, as it does in GPGPU-Sim's vector-based round robin.

use serde::{Deserialize, Serialize};

/// Scheduling class of a warp under resource sharing (paper Sec. IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum WarpClass {
    /// Warp of an owner block (holds shared resources): highest priority —
    /// finishing it unblocks its dependent non-owner warps.
    Owner,
    /// Warp of an unshared block.
    Unshared,
    /// Warp of a non-owner shared block: lowest priority, used to fill
    /// stall cycles only.
    NonOwner,
}

impl WarpClass {
    /// OWF priority rank; lower is scheduled first.
    #[inline]
    pub fn rank(self) -> u8 {
        match self {
            WarpClass::Owner => 0,
            WarpClass::Unshared => 1,
            WarpClass::NonOwner => 2,
        }
    }
}

/// The readiness scan's evaluation of one live warp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpView {
    /// Slot index within the SM (determines the scheduler partition).
    pub slot: usize,
    /// Monotonic launch-order id; smaller = older ("dynamic warp id").
    pub dynamic_id: u64,
    /// Sharing class for OWF.
    pub class: WarpClass,
    /// Can this warp issue an instruction this cycle?
    pub ready: bool,
}

const WORD: usize = u64::BITS as usize;

/// Bits of word `w` that fall in the slot range `[lo, hi)`.
#[inline]
fn range_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let base = w * WORD;
    let from = lo.saturating_sub(base).min(WORD);
    let to = hi.saturating_sub(base).min(WORD);
    if from >= to {
        return 0;
    }
    (!0u64 >> (WORD - (to - from))) << from
}

/// Lowest slot in `[lo, hi)` whose bit is set in `mask` (given per word).
#[inline]
fn first_in(lo: usize, hi: usize, mask: impl Fn(usize) -> u64) -> Option<usize> {
    if lo >= hi {
        return None;
    }
    (lo / WORD..hi.div_ceil(WORD)).find_map(|w| {
        let m = mask(w) & range_mask(w, lo, hi);
        (m != 0).then(|| w * WORD + m.trailing_zeros() as usize)
    })
}

/// Is `slot`'s bit set in `mask` (given per word)?
#[inline]
fn has(slot: usize, mask: impl Fn(usize) -> u64) -> bool {
    mask(slot / WORD) & (1 << (slot % WORD)) != 0
}

/// One 64-slot word of every mask of a [`ReadySet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Masks {
    live: u64,
    ready: u64,
    /// One mask per class, indexed by [`WarpClass::rank`].
    class: [u64; 3],
}

/// Slot-indexed bitmask snapshot of an SM's warps, as the schedulers see it
/// (see the module docs). A scheduler built for `num_slots` slots must be
/// given a set of the same size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadySet {
    masks: Vec<Masks>,
    dynamic_id: Vec<u64>,
    /// The live slots in slot order: the list LRR's pointer indexes. Kept
    /// beside the `live` mask because selecting the k-th set bit of a word
    /// takes several popcounts, which the baseline x86-64 target computes in
    /// software.
    order: Vec<usize>,
}

impl ReadySet {
    /// An empty set for an SM with `num_slots` warp slots.
    pub fn new(num_slots: usize) -> Self {
        ReadySet {
            masks: vec![Masks::default(); num_slots.div_ceil(WORD)],
            dynamic_id: vec![0; num_slots],
            order: Vec::with_capacity(num_slots),
        }
    }

    /// A set holding exactly `views` (sized to the highest slot), for tests
    /// and tools that describe warps as a view list.
    pub fn from_views(views: &[WarpView]) -> Self {
        let mut set = ReadySet::new(views.iter().map(|v| v.slot + 1).max().unwrap_or(0));
        for v in views {
            set.insert(v);
        }
        set
    }

    /// Empty every slot (a structural rescan refills the set).
    pub fn clear(&mut self) {
        self.masks.fill(Masks::default());
        self.order.clear();
    }

    /// Record `view` for its slot, marking the slot live and replacing
    /// whatever the slot held.
    #[inline]
    pub fn insert(&mut self, view: &WarpView) {
        let bit = 1u64 << (view.slot % WORD);
        let m = &mut self.masks[view.slot / WORD];
        if m.live & bit == 0 {
            m.live |= bit;
            // A refill inserts in slot order, so this appends.
            let pos = self.order.partition_point(|&s| s < view.slot);
            self.order.insert(pos, view.slot);
        }
        let set_if = |on: bool| if on { bit } else { 0 };
        m.ready = m.ready & !bit | set_if(view.ready);
        let rank = usize::from(view.class.rank());
        for (r, class) in m.class.iter_mut().enumerate() {
            *class = *class & !bit | set_if(r == rank);
        }
        self.dynamic_id[view.slot] = view.dynamic_id;
    }

    /// Does any slot hold a ready warp?
    #[inline]
    pub fn any_ready(&self) -> bool {
        self.masks.iter().any(|m| m.ready != 0)
    }

    fn words(&self) -> usize {
        self.masks.len()
    }

    /// Number of live slots below `slot`.
    fn live_below(&self, slot: usize) -> usize {
        let (w, b) = (slot / WORD, slot % WORD);
        let full: usize = self.masks[..w]
            .iter()
            .map(|m| m.live.count_ones() as usize)
            .sum();
        full + (self.masks[w].live & ((1u64 << b) - 1)).count_ones() as usize
    }

    /// The set slot of `mask` with the smallest dynamic id; ties (possible
    /// only in hand-built sets) go to the lowest slot.
    fn oldest(&self, mask: impl Fn(usize) -> u64) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for w in 0..self.words() {
            let mut m = mask(w);
            while m != 0 {
                let slot = w * WORD + m.trailing_zeros() as usize;
                m &= m - 1;
                let id = self.dynamic_id[slot];
                if best.is_none_or(|(b, _)| id < b) {
                    best = Some((id, slot));
                }
            }
        }
        best.map(|(_, slot)| slot)
    }
}

/// Which scheduling policy to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Loose round robin (baseline).
    Lrr,
    /// Greedy-then-oldest.
    Gto,
    /// Two-level with the given fetch-group size (paper uses 8).
    TwoLevel {
        /// Warps per fetch group.
        group_size: u32,
    },
    /// Owner-warp-first (the paper's optimization).
    Owf,
}

impl SchedulerKind {
    /// Canonical name used in figures and reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Lrr => "LRR",
            SchedulerKind::Gto => "GTO",
            SchedulerKind::TwoLevel { .. } => "2LV",
            SchedulerKind::Owf => "OWF",
        }
    }

    /// Instantiate per-unit state for an SM with `num_slots` warp slots and
    /// `units` scheduler units.
    pub fn build(self, num_slots: usize, units: usize) -> Scheduler {
        let words = num_slots.div_ceil(WORD);
        let mut part = vec![0u64; units * words];
        for slot in 0..num_slots {
            part[(slot % units) * words + slot / WORD] |= 1 << (slot % WORD);
        }
        let policy = match self {
            SchedulerKind::Lrr => Policy::Lrr {
                next: vec![0; units],
            },
            SchedulerKind::Gto => Policy::Gto {
                last: vec![None; units],
            },
            SchedulerKind::TwoLevel { group_size } => Policy::TwoLevel {
                group_size: group_size.max(1) as usize,
                active_group: vec![0; units],
                next_in_group: vec![0; units],
                num_slots,
            },
            SchedulerKind::Owf => Policy::Owf {
                last: vec![None; units],
            },
        };
        Scheduler {
            words,
            part,
            policy,
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduler state of one SM: the per-unit partition masks and the policy's
/// per-unit state.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// Mask words per partition (one per 64 slots).
    words: usize,
    /// `part[unit * words + w]`: word `w` of the slots `unit` owns.
    part: Vec<u64>,
    policy: Policy,
}

/// Per-unit policy state (internal vectors are per unit).
#[derive(Debug, Clone)]
enum Policy {
    /// Loose round robin: rotate a pointer over the live slots.
    Lrr {
        /// Next position in the compacted live-slot list, per unit.
        next: Vec<usize>,
    },
    /// Greedy-then-oldest.
    Gto {
        /// Last issued slot, per unit.
        last: Vec<Option<usize>>,
    },
    /// Two-level warp scheduling.
    TwoLevel {
        /// Fetch-group size in warps.
        group_size: usize,
        /// Active group per unit.
        active_group: Vec<usize>,
        /// RR pointer within the active group, per unit.
        next_in_group: Vec<usize>,
        /// Total SM warp slots.
        num_slots: usize,
    },
    /// Owner-warp-first: strict class priority, greedy within a class (so
    /// that with no sharing active it degenerates to GTO, as the paper
    /// observes on Set-3).
    Owf {
        /// Last issued slot, per unit.
        last: Vec<Option<usize>>,
    },
}

impl Scheduler {
    /// Per-cycle bookkeeping for a cycle in which the readiness scan found
    /// no issuable warp: exactly the state transitions [`Self::pick`] would
    /// make for every unit over a set with no ready slot, without the
    /// per-unit picks. Greedy policies (GTO, OWF) lose their streak — the
    /// greedy warp stalled — while the rotation pointers of LRR and
    /// Two-Level stay put, as `pick` only advances them on a successful
    /// pick. Because a second ready-less cycle is a no-op for every policy,
    /// the fast-forward engine can skip such cycles without touching
    /// scheduler state at all.
    pub fn note_idle_cycle(&mut self) {
        match &mut self.policy {
            Policy::Lrr { .. } | Policy::TwoLevel { .. } => {}
            Policy::Gto { last } | Policy::Owf { last } => last.fill(None),
        }
    }

    /// Pick a warp for scheduler `unit` among the ready slots of `set` that
    /// the unit owns. Returns the chosen slot.
    pub fn pick(&mut self, unit: usize, set: &ReadySet) -> Option<usize> {
        debug_assert_eq!(set.words(), self.words, "ready set sized for another SM");
        let part = &self.part[unit * self.words..(unit + 1) * self.words];
        let cand = |w: usize| set.masks[w].ready & part[w];
        match &mut self.policy {
            Policy::Lrr { next } => {
                let n = set.order.len();
                if n == 0 {
                    return None;
                }
                // `next < n` unless the live set shrank: skip the division.
                let k = next[unit];
                let start = set.order[if k < n { k } else { k % n }];
                let slot = first_in(start, self.words * WORD, cand)
                    .or_else(|| first_in(0, start, cand))?;
                let after = set.live_below(slot) + 1;
                next[unit] = if after < n { after } else { 0 };
                Some(slot)
            }
            Policy::Gto { last } => {
                if let Some(slot) = last[unit] {
                    if has(slot, cand) {
                        return Some(slot);
                    }
                }
                let pick = set.oldest(cand);
                last[unit] = pick;
                pick
            }
            Policy::TwoLevel {
                group_size,
                active_group,
                next_in_group,
                num_slots,
            } => {
                let groups = num_slots.div_ceil(*group_size);
                // Try the active group first, then rotate through the rest.
                for g_off in 0..groups {
                    let g = (active_group[unit] + g_off) % groups;
                    let lo = g * *group_size;
                    let hi = (lo + *group_size).min(*num_slots);
                    // A freshly-entered group starts its round robin at the
                    // beginning; the active group resumes from its pointer.
                    let start = if g == active_group[unit] {
                        lo + next_in_group[unit] % (hi - lo)
                    } else {
                        lo
                    };
                    let found = first_in(start, hi, cand).or_else(|| first_in(lo, start, cand));
                    if let Some(slot) = found {
                        active_group[unit] = g;
                        next_in_group[unit] = (slot - lo + 1) % (hi - lo);
                        return Some(slot);
                    }
                }
                None
            }
            Policy::Owf { last } => {
                let best_class =
                    (0..3).find(|&r| (0..self.words).any(|w| cand(w) & set.masks[w].class[r] != 0));
                let Some(r) = best_class else {
                    // The greedy warp lost its streak; forget it so the next
                    // pick falls to the oldest ready warp (matching GTO's
                    // behaviour when everything stalls).
                    last[unit] = None;
                    return None;
                };
                let best = |w: usize| cand(w) & set.masks[w].class[r];
                // Greedy within the best class: keep issuing the previously
                // chosen warp while it stays ready and no higher class shows
                // up.
                if let Some(slot) = last[unit] {
                    if has(slot, best) {
                        return Some(slot);
                    }
                }
                let slot = set.oldest(best);
                last[unit] = slot;
                slot
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(slot: usize, id: u64, class: WarpClass, ready: bool) -> WarpView {
        WarpView {
            slot,
            dynamic_id: id,
            class,
            ready,
        }
    }

    fn all_unshared(ready: &[bool]) -> ReadySet {
        ReadySet::from_views(&unshared_views(ready))
    }

    fn unshared_views(ready: &[bool]) -> Vec<WarpView> {
        ready
            .iter()
            .enumerate()
            .map(|(i, &r)| v(i, i as u64, WarpClass::Unshared, r))
            .collect()
    }

    #[test]
    fn lrr_rotates() {
        let mut s = SchedulerKind::Lrr.build(4, 1);
        let set = all_unshared(&[true, true, true, true]);
        assert_eq!(s.pick(0, &set), Some(0));
        assert_eq!(s.pick(0, &set), Some(1));
        assert_eq!(s.pick(0, &set), Some(2));
        assert_eq!(s.pick(0, &set), Some(3));
        assert_eq!(s.pick(0, &set), Some(0));
    }

    #[test]
    fn lrr_skips_unready() {
        let mut s = SchedulerKind::Lrr.build(4, 1);
        let set = all_unshared(&[false, true, false, true]);
        assert_eq!(s.pick(0, &set), Some(1));
        assert_eq!(s.pick(0, &set), Some(3));
        assert_eq!(s.pick(0, &set), Some(1));
    }

    #[test]
    fn any_ready_follows_the_latest_view_of_each_slot() {
        let mut set = ReadySet::new(70);
        set.insert(&v(3, 3, WarpClass::Unshared, false));
        assert!(!set.any_ready());
        // A slot in the second word counts, and re-inserting it unready
        // clears it again.
        set.insert(&v(66, 66, WarpClass::Unshared, true));
        assert!(set.any_ready());
        set.insert(&v(66, 66, WarpClass::Unshared, false));
        assert!(!set.any_ready());
    }

    #[test]
    fn lrr_partitions_by_unit() {
        let mut s = SchedulerKind::Lrr.build(4, 2);
        let set = all_unshared(&[true, true, true, true]);
        // Unit 0 owns even slots, unit 1 odd slots.
        assert_eq!(s.pick(0, &set), Some(0));
        assert_eq!(s.pick(1, &set), Some(1));
        assert_eq!(s.pick(0, &set), Some(2));
        assert_eq!(s.pick(1, &set), Some(3));
    }

    #[test]
    fn lrr_pointer_indexes_the_live_list_not_slots() {
        // Live slots {0, 4, 5}, slot 0 stalled: picking slot 4 (live
        // position 1) leaves the pointer at position 2. Once slots 1 and 2
        // launch, position 2 is slot 2, not the slot after 4.
        let mut s = SchedulerKind::Lrr.build(6, 1);
        let before = ReadySet::from_views(&[
            v(0, 0, WarpClass::Unshared, false),
            v(4, 4, WarpClass::Unshared, true),
            v(5, 5, WarpClass::Unshared, true),
        ]);
        assert_eq!(s.pick(0, &before), Some(4));
        let after = ReadySet::from_views(&[
            v(0, 0, WarpClass::Unshared, true),
            v(1, 6, WarpClass::Unshared, true),
            v(2, 7, WarpClass::Unshared, true),
            v(4, 4, WarpClass::Unshared, true),
            v(5, 5, WarpClass::Unshared, true),
        ]);
        assert_eq!(s.pick(0, &after), Some(2));
    }

    #[test]
    fn gto_is_greedy() {
        let mut s = SchedulerKind::Gto.build(3, 1);
        let mut views = unshared_views(&[true, true, true]);
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(0)); // oldest
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(0)); // greedy
        views[0].ready = false;
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(1)); // falls to next oldest
        views[0].ready = true;
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(1)); // stays greedy on 1
    }

    #[test]
    fn gto_picks_oldest_by_dynamic_id_not_slot() {
        let mut s = SchedulerKind::Gto.build(3, 1);
        let views = vec![
            v(0, 30, WarpClass::Unshared, true),
            v(1, 10, WarpClass::Unshared, true),
            v(2, 20, WarpClass::Unshared, true),
        ];
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(1));
    }

    #[test]
    fn owf_priority_order() {
        let mut s = SchedulerKind::Owf.build(3, 1);
        let views = vec![
            v(0, 0, WarpClass::NonOwner, true),
            v(1, 1, WarpClass::Unshared, true),
            v(2, 2, WarpClass::Owner, true),
        ];
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(2)); // owner first
        let views2 = vec![
            v(0, 0, WarpClass::NonOwner, true),
            v(1, 1, WarpClass::Unshared, true),
            v(2, 2, WarpClass::Owner, false),
        ];
        assert_eq!(s.pick(0, &ReadySet::from_views(&views2)), Some(1)); // then unshared
        let views3 = vec![
            v(0, 0, WarpClass::NonOwner, true),
            v(1, 1, WarpClass::Unshared, false),
            v(2, 2, WarpClass::Owner, false),
        ];
        assert_eq!(s.pick(0, &ReadySet::from_views(&views3)), Some(0)); // non-owner fills stalls
    }

    #[test]
    fn owf_ties_break_by_dynamic_id() {
        let mut s = SchedulerKind::Owf.build(2, 1);
        let views = vec![
            v(0, 9, WarpClass::Unshared, true),
            v(1, 3, WarpClass::Unshared, true),
        ];
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(1));
    }

    #[test]
    fn two_level_stays_in_group_then_switches() {
        let mut s = SchedulerKind::TwoLevel { group_size: 2 }.build(4, 1);
        let mut views = unshared_views(&[true, true, true, true]);
        // Group 0 = slots {0,1}: round robin inside.
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(0));
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(1));
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(0));
        // Group 0 all stalled → switch to group 1.
        views[0].ready = false;
        views[1].ready = false;
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(2));
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(3));
        // Group 0 wakes up but group 1 is active and still ready.
        views[0].ready = true;
        assert_eq!(s.pick(0, &ReadySet::from_views(&views)), Some(2));
    }

    #[test]
    fn note_idle_cycle_matches_pick_on_unready_views() {
        // The fast-forward engine relies on two properties per policy:
        // (1) one ready-less cycle leaves the same state as `pick` on an
        //     all-unready view for every unit, and
        // (2) further ready-less cycles are no-ops (so they can be skipped).
        for kind in [
            SchedulerKind::Lrr,
            SchedulerKind::Gto,
            SchedulerKind::TwoLevel { group_size: 2 },
            SchedulerKind::Owf,
        ] {
            let mut via_pick = kind.build(4, 2);
            let mut via_note = kind.build(4, 2);
            // Build up some state with a ready phase.
            let ready = all_unshared(&[true, true, true, true]);
            for unit in 0..2 {
                assert_eq!(via_pick.pick(unit, &ready), via_note.pick(unit, &ready));
            }
            // One all-unready cycle, both ways.
            let unready = all_unshared(&[false, false, false, false]);
            for unit in 0..2 {
                assert_eq!(via_pick.pick(unit, &unready), None);
            }
            via_note.note_idle_cycle();
            // A second unready cycle must be a no-op.
            for unit in 0..2 {
                assert_eq!(via_pick.pick(unit, &unready), None);
            }
            // Both must now behave identically on the next ready view.
            for unit in 0..2 {
                assert_eq!(
                    via_pick.pick(unit, &ready),
                    via_note.pick(unit, &ready),
                    "{kind:?} diverged after an idle cycle"
                );
            }
        }
    }

    #[test]
    fn empty_view_yields_none() {
        for kind in [
            SchedulerKind::Lrr,
            SchedulerKind::Gto,
            SchedulerKind::TwoLevel { group_size: 8 },
            SchedulerKind::Owf,
        ] {
            let mut s = kind.build(0, 2);
            let set = ReadySet::from_views(&[]);
            assert_eq!(s.pick(0, &set), None);
            assert_eq!(s.pick(1, &set), None);
        }
    }

    #[test]
    fn bit_helpers_cross_word_boundaries() {
        assert_eq!(range_mask(0, 3, 5), 0b11000);
        assert_eq!(range_mask(1, 60, 70), 0b11_1111);
        assert_eq!(range_mask(0, 0, 64), !0);
        assert_eq!(range_mask(1, 0, 64), 0);
        let words = [0u64, 1 << 7];
        assert_eq!(first_in(3, 128, |w| words[w]), Some(71));
        assert_eq!(first_in(72, 128, |w| words[w]), None);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SchedulerKind::Lrr.name(), "LRR");
        assert_eq!(SchedulerKind::Gto.name(), "GTO");
        assert_eq!(SchedulerKind::TwoLevel { group_size: 8 }.name(), "2LV");
        assert_eq!(SchedulerKind::Owf.name(), "OWF");
    }
}
