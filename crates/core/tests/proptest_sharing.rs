//! Property tests for the sharing runtime: lock mutual exclusion, the
//! deadlock-avoidance invariant, ownership transfer, and scheduler contracts,
//! including the bitmask schedulers diffed against a linear-scan oracle.

use grs_core::{
    PairMember, ReadySet, RegAccess, RegPairLocks, Scheduler, SchedulerKind, SmemPairLock,
    WarpClass, WarpView,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum LockOp {
    Access { member: bool, warp: usize },
    Finish { member: bool, warp: usize },
    CompleteBlock { member: bool },
}

fn lock_ops(warps: usize) -> impl Strategy<Value = Vec<LockOp>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<bool>(), 0..warps).prop_map(|(m, w)| LockOp::Access { member: m, warp: w }),
            (any::<bool>(), 0..warps).prop_map(|(m, w)| LockOp::Finish { member: m, warp: w }),
            any::<bool>().prop_map(|m| LockOp::CompleteBlock { member: m }),
        ],
        1..200,
    )
}

fn member(b: bool) -> PairMember {
    if b {
        PairMember::A
    } else {
        PairMember::B
    }
}

proptest! {
    /// At any point, live lock holders belong to a single block — the
    /// invariant that makes the Fig. 5 barrier deadlock unreachable.
    #[test]
    fn live_holders_always_single_block(ops in lock_ops(8)) {
        let mut locks = RegPairLocks::new(8);
        for op in ops {
            match op {
                LockOp::Access { member: m, warp } => { locks.access_shared(member(m), warp); }
                LockOp::Finish { member: m, warp } => locks.warp_finished(member(m), warp),
                LockOp::CompleteBlock { member: m } => locks.block_completed(member(m)),
            }
            let a = locks.live_holders(PairMember::A);
            let b = locks.live_holders(PairMember::B);
            prop_assert!(a == 0 || b == 0, "both blocks hold live locks: A={a} B={b}");
        }
    }

    /// A granted access means the partner is denied on the same warp pair.
    #[test]
    fn mutual_exclusion_per_warp_pair(ops in lock_ops(4), probe in 0usize..4) {
        let mut locks = RegPairLocks::new(4);
        for op in ops {
            if let LockOp::Access { member: m, warp } = op {
                locks.access_shared(member(m), warp);
            }
        }
        let a = locks.holds(PairMember::A, probe);
        let b = locks.holds(PairMember::B, probe);
        prop_assert!(!(a && b), "both members hold warp pair {probe}");
    }

    /// `can_access` exactly predicts `access_shared` (peek soundness).
    #[test]
    fn peek_matches_acquire(ops in lock_ops(4), m in any::<bool>(), w in 0usize..4) {
        let mut locks = RegPairLocks::new(4);
        for op in ops {
            if let LockOp::Access { member: mm, warp } = op {
                locks.access_shared(member(mm), warp);
            }
        }
        let predicted = locks.can_access(member(m), w);
        let got = locks.access_shared(member(m), w);
        prop_assert_eq!(predicted, got == RegAccess::Granted);
    }

    /// The scratchpad pair lock never reports two concurrent holders and its
    /// peek is sound.
    #[test]
    fn smem_lock_exclusive(accessors in proptest::collection::vec(any::<bool>(), 1..50)) {
        let mut lock = SmemPairLock::new();
        for m in accessors {
            let predicted = lock.can_access(member(m));
            let got = lock.access_shared(member(m));
            prop_assert_eq!(predicted, got == RegAccess::Granted);
            prop_assert!(!(lock.holds(PairMember::A) && lock.holds(PairMember::B)));
        }
    }
}

fn arb_views() -> impl Strategy<Value = Vec<WarpView>> {
    proptest::collection::vec(
        (0u64..100, 0u8..3, any::<bool>()).prop_map(|(id, class, ready)| (id, class, ready)),
        1..24,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .enumerate()
            .map(|(slot, (dynamic_id, class, ready))| WarpView {
                slot,
                dynamic_id,
                class: match class {
                    0 => WarpClass::Owner,
                    1 => WarpClass::Unshared,
                    _ => WarpClass::NonOwner,
                },
                ready,
            })
            .collect()
    })
}

proptest! {
    /// Every scheduler only ever picks a ready warp in its own partition,
    /// and picks None iff no such warp exists.
    #[test]
    fn schedulers_pick_ready_warps_in_partition(
        views in arb_views(),
        kind in prop_oneof![
            Just(SchedulerKind::Lrr),
            Just(SchedulerKind::Gto),
            Just(SchedulerKind::TwoLevel { group_size: 4 }),
            Just(SchedulerKind::Owf),
        ],
        rounds in 1usize..8,
    ) {
        let units = 2;
        let mut sched: Scheduler = kind.build(views.len(), units);
        let set = ReadySet::from_views(&views);
        for _ in 0..rounds {
            for unit in 0..units {
                let pick = sched.pick(unit, &set);
                let any_candidate = views.iter().any(|v| v.ready && v.slot % units == unit);
                match pick {
                    Some(slot) => {
                        let v = views.iter().find(|v| v.slot == slot).expect("picked view exists");
                        prop_assert!(v.ready, "{kind:?} picked non-ready warp");
                        prop_assert_eq!(slot % units, unit, "scheduler {:?} violated partition", kind);
                    }
                    None => prop_assert!(!any_candidate, "{kind:?} missed a ready warp"),
                }
            }
        }
    }

    /// OWF never picks a lower class while a strictly higher class is ready
    /// (owner > unshared > non-owner, paper Sec. IV-A).
    #[test]
    fn owf_respects_class_priority(views in arb_views()) {
        let units = 1;
        let mut sched = SchedulerKind::Owf.build(views.len(), units);
        if let Some(slot) = sched.pick(0, &ReadySet::from_views(&views)) {
            let picked = views.iter().find(|v| v.slot == slot).unwrap();
            let best_rank = views
                .iter()
                .filter(|v| v.ready)
                .map(|v| v.class.rank())
                .min()
                .unwrap();
            prop_assert_eq!(picked.class.rank(), best_rank);
        }
    }
}

/// The schedulers as a linear scan over a slot-sorted view list, one view per
/// live slot: the plain statement of each policy, the oracle the bitmask
/// [`Scheduler`]'s picks are diffed against.
#[derive(Debug, Clone)]
enum ReferenceScheduler {
    Lrr {
        next: Vec<usize>,
    },
    Gto {
        last: Vec<Option<usize>>,
    },
    TwoLevel {
        group_size: usize,
        active_group: Vec<usize>,
        next_in_group: Vec<usize>,
        num_slots: usize,
    },
    Owf {
        last: Vec<Option<usize>>,
    },
}

impl ReferenceScheduler {
    fn build(kind: SchedulerKind, num_slots: usize, units: usize) -> Self {
        match kind {
            SchedulerKind::Lrr => ReferenceScheduler::Lrr {
                next: vec![0; units],
            },
            SchedulerKind::Gto => ReferenceScheduler::Gto {
                last: vec![None; units],
            },
            SchedulerKind::TwoLevel { group_size } => ReferenceScheduler::TwoLevel {
                group_size: group_size.max(1) as usize,
                active_group: vec![0; units],
                next_in_group: vec![0; units],
                num_slots,
            },
            SchedulerKind::Owf => ReferenceScheduler::Owf {
                last: vec![None; units],
            },
        }
    }

    fn reference_pick(&mut self, unit: usize, units: usize, views: &[WarpView]) -> Option<usize> {
        debug_assert!(views.windows(2).all(|w| w[0].slot < w[1].slot));
        let mine = |v: &WarpView| v.slot % units == unit;
        match self {
            ReferenceScheduler::Lrr { next } => {
                let n = views.len();
                if n == 0 {
                    return None;
                }
                let start = next[unit] % n;
                for off in 0..n {
                    let v = &views[(start + off) % n];
                    if mine(v) && v.ready {
                        next[unit] = (start + off + 1) % n;
                        return Some(v.slot);
                    }
                }
                None
            }
            ReferenceScheduler::Gto { last } => {
                if let Some(slot) = last[unit] {
                    if let Some(v) = views.iter().find(|v| v.slot == slot) {
                        if v.ready && mine(v) {
                            return Some(slot);
                        }
                    }
                }
                let pick = views
                    .iter()
                    .filter(|v| mine(v) && v.ready)
                    .min_by_key(|v| v.dynamic_id)
                    .map(|v| v.slot);
                last[unit] = pick;
                pick
            }
            ReferenceScheduler::TwoLevel {
                group_size,
                active_group,
                next_in_group,
                num_slots,
            } => {
                if *num_slots == 0 {
                    return None;
                }
                let groups = num_slots.div_ceil(*group_size).max(1);
                for g_off in 0..groups {
                    let g = (active_group[unit] + g_off) % groups;
                    let lo = g * *group_size;
                    let hi = (lo + *group_size).min(*num_slots);
                    let width = hi.saturating_sub(lo);
                    if width == 0 {
                        continue;
                    }
                    let start = if g == active_group[unit] {
                        next_in_group[unit] % width
                    } else {
                        0
                    };
                    for off in 0..width {
                        let slot = lo + (start + off) % width;
                        if let Some(v) = views.iter().find(|v| v.slot == slot) {
                            if mine(v) && v.ready {
                                active_group[unit] = g;
                                next_in_group[unit] = ((slot - lo) + 1) % width;
                                return Some(slot);
                            }
                        }
                    }
                }
                None
            }
            ReferenceScheduler::Owf { last } => {
                let best = views
                    .iter()
                    .filter(|v| mine(v) && v.ready)
                    .min_by_key(|v| (v.class.rank(), v.dynamic_id));
                let Some(best) = best else {
                    last[unit] = None;
                    return None;
                };
                if let Some(slot) = last[unit] {
                    if let Some(v) = views.iter().find(|v| v.slot == slot) {
                        if v.ready && mine(v) && v.class.rank() <= best.class.rank() {
                            return Some(slot);
                        }
                    }
                }
                last[unit] = Some(best.slot);
                Some(best.slot)
            }
        }
    }
}

fn class_of(c: u8) -> WarpClass {
    match c {
        0 => WarpClass::Owner,
        1 => WarpClass::Unshared,
        _ => WarpClass::NonOwner,
    }
}

/// One round of changes: `(slot, class, ready)` overwrites of live slots,
/// then optionally a vacancy toggle of one slot (a structural change: the set
/// is cleared and refilled, as after a block launch or retirement).
type Round = (Vec<(usize, u8, bool)>, Option<usize>);

fn arb_round() -> impl Strategy<Value = Round> {
    (
        proptest::collection::vec((0usize..100, 0u8..3, any::<bool>()), 0..12),
        prop_oneof![Just(None), (0usize..100).prop_map(Some)],
    )
}

proptest! {
    /// The bitmask pick makes exactly the oracle's decisions for every
    /// policy, 1–4 units and up to 100 slots (two mask words), with vacant
    /// slots, duplicate dynamic ids, and ready/class flips between rounds
    /// applied the way the SM applies them: in place, or by a rebuild.
    #[test]
    fn ready_set_pick_matches_linear_scan_oracle(
        kind in prop_oneof![
            Just(SchedulerKind::Lrr),
            Just(SchedulerKind::Gto),
            (1u32..12).prop_map(|group_size| SchedulerKind::TwoLevel { group_size }),
            Just(SchedulerKind::Owf),
        ],
        units in 1usize..5,
        slots in proptest::collection::vec(
            (0u8..4, 0u64..200, 0u8..3, any::<bool>()),
            1..101,
        ),
        rounds in proptest::collection::vec(arb_round(), 8..16),
    ) {
        let num_slots = slots.len();
        // `None` = vacant (one slot in four); live slots carry
        // (dynamic id, class, ready).
        let mut state: Vec<Option<(u64, WarpClass, bool)>> = slots
            .iter()
            .map(|&(vacant, id, class, ready)| (vacant != 0).then(|| (id, class_of(class), ready)))
            .collect();
        let mut next_id = 200u64;
        let view = |slot: usize, (dynamic_id, class, ready): (u64, WarpClass, bool)| WarpView {
            slot,
            dynamic_id,
            class,
            ready,
        };
        let mut oracle = ReferenceScheduler::build(kind, num_slots, units);
        let mut sched = kind.build(num_slots, units);
        let mut set = ReadySet::new(num_slots);
        for (slot, entry) in state.iter().enumerate() {
            if let Some(e) = entry {
                set.insert(&view(slot, *e));
            }
        }
        for (i, (flips, toggle)) in std::iter::once((vec![], None)).chain(rounds).enumerate() {
            for (slot, class, ready) in flips {
                let slot = slot % num_slots;
                if let Some(e) = state[slot].as_mut() {
                    *e = (e.0, class_of(class), ready);
                    set.insert(&view(slot, *e));
                }
            }
            if let Some(slot) = toggle {
                let slot = slot % num_slots;
                state[slot] = match state[slot] {
                    Some(_) => None,
                    None => {
                        next_id += 1;
                        Some((next_id, WarpClass::Unshared, true))
                    }
                };
                set.clear();
                for (slot, entry) in state.iter().enumerate() {
                    if let Some(e) = entry {
                        set.insert(&view(slot, *e));
                    }
                }
            }
            let views: Vec<WarpView> = state
                .iter()
                .enumerate()
                .filter_map(|(slot, e)| e.map(|e| view(slot, e)))
                .collect();
            for unit in 0..units {
                prop_assert_eq!(
                    sched.pick(unit, &set),
                    oracle.reference_pick(unit, units, &views),
                    "{:?}, {} units, {} slots: round {}, unit {}",
                    kind,
                    units,
                    num_slots,
                    i,
                    unit
                );
            }
        }
    }
}
