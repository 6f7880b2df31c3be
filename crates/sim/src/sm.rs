//! The SM pipeline: per-cycle readiness scan, dual-issue scheduling,
//! execution, barriers, block completion and refill.
//!
//! Each cycle an SM:
//!
//! 1. drains due writebacks (scoreboard clears, MSHR slots free),
//! 2. scans every resident warp and classifies it *ready* or blocked
//!    (scoreboard hazard, MSHR full, barrier, pair-lock busy-wait per the
//!    Fig. 3/Fig. 4 automata, dynamic-throttle suppression),
//! 3. lets each scheduler unit pick one ready warp (policy from
//!    [`grs_core::sched`]) and issues its next instruction, subject to one
//!    global-memory and one scratchpad instruction per SM per cycle
//!    (structural ports),
//! 4. accounts the cycle as productive, *stall* (something was blocked by a
//!    lock/throttle/port) or *idle* (everything ready-less was waiting on
//!    latency or barriers) — the paper's Fig. 9(c,d) split.
//!
//! ## Incremental readiness
//!
//! The scan is incremental: each warp slot keeps its entry in the
//! scheduler's [`ReadySet`] from its last evaluation, and a slot is
//! re-evaluated only when something that decides its state may have
//! changed. After an evaluation a live slot is either *volatile* — left in
//! the `pending` slot mask and re-evaluated by every scan — or *parked* in
//! one of five masks and skipped until something dirties it back into
//! `pending`:
//!
//! * **stable** — ready, or blocked on a scoreboard hazard, an exit drain or
//!   a barrier, with no per-cycle side effects;
//! * **lock wait** — busy-waiting on its pair lock (Fig. 3/Fig. 4 step (e));
//! * **MSHR wait** — at its per-warp outstanding-memory limit;
//! * **gate load / gate store** — refused by the event memory model's
//!   [`MemGate`].
//!
//! What decides a parked slot only changes on a drain of its writebacks,
//! its own issue, a lock acquisition in its pair or a barrier release in
//! its block — each dirties the slot — or on a block launch or retirement,
//! which rescans every slot. Per-cycle side effects of parked slots are
//! credited by popcount: each scan adds the lock-wait count to
//! `lock_retries`, a non-empty MSHR-wait mask makes the cycle a stall, and
//! while the gate still refuses the smallest request parked behind it (the
//! gate is monotone in the request size) the gate masks add to
//! `mshr_full_stalls` / `dram_queue_full_stalls`; once it admits that
//! request, every slot parked on that kind of request is dirtied. Lock and
//! MSHR waiters keep the SM awake: every cycle they wait is stepped and
//! counted. Only warps whose evaluation can change without any of those events
//! stay volatile: a warp whose next global-memory instruction asks the
//! throttle (an RNG draw per evaluation) or, on the event model, reads the
//! gate. Volatile slots are re-evaluated in slot order, reproducing the
//! reference sequence of RNG draws. Block launch and retirement clear and
//! refill the whole set, which otherwise keeps the exact live-slot
//! composition the schedulers saw in the reference implementation.
//!
//! ## Fast-forward support
//!
//! [`Sm::step`] reports whether the cycle was *quiescent* — zero issues, no
//! stall reason, no ready, volatile or lock-waiting warp, i.e. a cycle whose
//! outcome is fully determined until the next writeback drains.
//! [`Sm::next_wake`] exposes that drain cycle (the timing wheel's minimum);
//! [`crate::gpu::Gpu::run`] jumps the clock when every SM is quiescent and
//! credits the skipped span through [`Sm::credit_skipped`], preserving the
//! idle/empty split bit for bit.

use grs_core::{
    DynThrottle, LatencyConfig, LaunchPlan, ReadySet, RegAccess, RegPairLocks, Scheduler,
    SchedulerKind, SmemPairLock, WarpClass, WarpView,
};
use grs_isa::Op;

use crate::block::{pairing_of_slot, Block, PairLocks, Pairing};
use crate::cache::Cache;
use crate::dispatch::Dispatcher;
use crate::kinfo::KernelInfo;
use crate::mem::{generate_addresses, GateBlock, MemGate, SharedMem};
use crate::stats::SmStats;
use crate::telemetry::{SmTelemetry, StallReason, TelemetryConfig, TelemetryEvent};
use crate::warp::{Warp, NO_REG};
use crate::wheel::TimingWheel;

/// Payload of one completion event on the SM's timing wheel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Target warp slot.
    pub slot: u32,
    /// Register to clear ([`NO_REG`] for none); unused by `MemTxn` events,
    /// whose register lives in the warp's pending-group table.
    pub reg: u16,
    /// What completed.
    pub kind: WbKind,
}

/// Kind of completion a [`Writeback`] delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbKind {
    /// An ALU/SFU/scratchpad result.
    Alu,
    /// A whole global-memory instruction (functional memory model: one
    /// event at the max transaction latency).
    MemInstr,
    /// One transaction of pending-group `.0` (event memory model: the group
    /// coalesces its transactions into a single warp wake-up on the last).
    MemTxn(u16),
}

/// How an evaluation leaves a warp slot, as the incremental scan tracks it
/// (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotScan {
    /// Re-evaluate every scan: the warp's next global-memory instruction
    /// asks the throttle (an RNG draw) or, on the event model, reads the
    /// memory gate, so its evaluation can change without this SM dirtying
    /// it.
    Volatile,
    /// Skipped until dirtied; the scan credits the kind's per-cycle side
    /// effects meanwhile.
    Parked(Park),
}

/// Why a slot is parked: the index of the park mask that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Park {
    /// Ready, or blocked on a hazard, an exit drain or a barrier: no
    /// per-cycle side effects.
    Stable,
    /// Pair-lock busy-wait: one `lock_retries` per stepped cycle; keeps the
    /// SM awake.
    LockWait,
    /// At the per-warp MSHR limit: a pipeline-stall cycle; keeps the SM
    /// awake.
    MshrWait,
    /// Load refused by the memory gate: one `mshr_full_stalls` per stepped
    /// cycle. Does not keep the SM awake: the gate can only open at a
    /// capacity release, whose cycle the memory system knows, and a slept
    /// span is credited in closed form ([`Sm::credit_gated`]).
    GateLoad,
    /// Store refused by the memory gate: one `dram_queue_full_stalls` per
    /// stepped cycle; sleepable like [`Park::GateLoad`].
    GateStore,
}

const PARK_KINDS: usize = 5;

/// Aggregate outcome of one readiness scan.
#[derive(Debug, Clone, Copy)]
struct ScanSummary {
    any_live: bool,
    any_stall: bool,
    /// A volatile, lock-waiting or MSHR-waiting warp: the SM must step the
    /// next cycle.
    any_volatile: bool,
    any_ready: bool,
    /// Warps blocked by the memory gate this cycle (MSHR, DRAM queue).
    gate_mshr: u32,
    gate_dram: u32,
}

impl ScanSummary {
    /// Account `n` slots left in `state` by this scan.
    #[inline]
    fn note(&mut self, state: SlotScan, n: u32) {
        match state {
            SlotScan::Parked(Park::Stable) => {}
            SlotScan::Volatile | SlotScan::Parked(Park::LockWait) => self.any_volatile |= n > 0,
            SlotScan::Parked(Park::MshrWait) => {
                self.any_stall |= n > 0;
                self.any_volatile |= n > 0;
            }
            SlotScan::Parked(Park::GateLoad) => self.gate_mshr += n,
            SlotScan::Parked(Park::GateStore) => self.gate_dram += n,
        }
    }

    /// Any warp blocked by the memory gate?
    #[inline]
    fn any_gated(&self) -> bool {
        self.gate_mshr + self.gate_dram > 0
    }
}

/// Static per-run SM mode flags.
#[derive(Debug, Clone, Copy)]
pub struct SmMode {
    /// Register (true) or scratchpad (false) pair locks for shared slots.
    pub register_sharing: bool,
    /// Event-engine incremental scan (true) or the per-cycle reference scan
    /// (false; see [`Sm`] field docs).
    pub incremental: bool,
    /// Telemetry recording for this SM (`None` = fully disabled; see
    /// [`crate::telemetry`]).
    pub telemetry: Option<TelemetryConfig>,
}

/// What one [`Sm::step`] call did, as the fast-forward engine needs it.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Did the SM hold any live (unfinished) warp this cycle?
    pub live: bool,
    /// Zero issues, no stall reason, no ready, volatile or lock-waiting
    /// warp: nothing on this SM can change before its next writeback drains.
    pub quiescent: bool,
    /// Like `quiescent`, except ≥1 warp is blocked by event-memory-model
    /// back-pressure: the SM may sleep, but it must also wake on the next
    /// MSHR/DRAM-queue release and the skipped span counts as *stall*
    /// cycles, credited by [`Sm::credit_gated`]. Mutually exclusive with
    /// `quiescent`.
    pub gated: bool,
    /// Did the SM issue at least one instruction this cycle? The
    /// forward-progress watchdog treats issues as progress even when they
    /// schedule no wheel event (barriers, branches, scratchpad stores,
    /// exits), so this feeds its watermark directly.
    pub issued: bool,
}

/// One streaming multiprocessor.
#[derive(Debug, Clone)]
pub struct Sm {
    /// SM index (SM0 is the throttle reference).
    pub id: usize,
    /// L1 data cache.
    pub l1: Cache,
    /// Resident blocks by slot.
    pub blocks: Vec<Option<Block>>,
    /// Warp contexts: block slot `b` owns warp slots
    /// `b*warps_per_block ..= (b+1)*warps_per_block - 1`.
    pub warps: Vec<Option<Warp>>,
    /// Pair-lock state, one entry per shared pair of the launch plan.
    pub pairs: Vec<PairLocks>,
    /// The launch plan this SM was configured with.
    pub plan: LaunchPlan,
    /// Statistics.
    pub stats: SmStats,
    sched: Scheduler,
    units: usize,
    next_dyn_id: u64,
    writebacks: TimingWheel<Writeback>,
    // Incremental-scan state (see the module docs). `pending` holds the slots
    // the next scan re-evaluates (dirty or volatile), one bit per slot;
    // `parked` holds, per 64-slot word, one mask per `Park` kind, and
    // `slot_park` names the mask each parked slot is in. A vacant or
    // finished slot is in none of them.
    pending: Vec<u64>,
    parked: Vec<[u64; PARK_KINDS]>,
    slot_park: Vec<Option<Park>>,
    /// Smallest transaction count parked behind the gate, for loads and
    /// stores (`u32::MAX`: none). Dirtying a parked slot leaves it as is,
    /// so it may be too small, which only costs a spurious unpark.
    gate_min: [u32; 2],
    /// The scheduler's snapshot of the latest scan (see the module docs).
    ready_set: ReadySet,
    live_warp_count: u32,
    structural: bool,
    /// Gate-blocked warp counts `(mshr, dram)` from the latest scan, kept
    /// for closed-form crediting of a gated sleep span.
    last_gate_blocks: (u32, u32),
    /// With `incremental` off (the `fast_forward: false` reference mode)
    /// every scan rebuilds the ready set from scratch and ready-less cycles
    /// still walk the scheduler units — the seed's exact per-cycle
    /// behaviour, so the equivalence suite genuinely diffs the incremental
    /// engine (dirty tracking, idle shortcut) against it.
    incremental: bool,
    /// Telemetry recording state (`None` unless tracing is on). Boxed so the
    /// disabled case costs one pointer.
    telemetry: Option<Box<SmTelemetry>>,
    /// Current stall reason per warp slot (0 = none, 1 = scoreboard,
    /// 2 = barrier, 3 = memory gate), maintained by [`Sm::set_reason`] so
    /// reason changes are edge-triggered events and the counts below stay
    /// incremental (never recomputed — that is what keeps them identical
    /// between the per-cycle and the incremental scan).
    slot_reason: Vec<u8>,
    /// Live slots currently scoreboard-blocked (reason 1).
    n_hazard: u32,
    /// Live slots currently barrier-parked (reason 2).
    n_barrier: u32,
    // per-cycle scratch, reused to avoid allocation
    addr_buf: Vec<u64>,
    wb_scratch: Vec<(u64, Writeback)>,
}

impl Sm {
    /// Build an SM for one run. `mode.incremental` selects the event-engine
    /// scan (see the module docs); off reproduces the per-cycle reference.
    pub fn new(
        id: usize,
        plan: LaunchPlan,
        kinfo: &KernelInfo,
        sched_kind: SchedulerKind,
        units: usize,
        l1: Cache,
        mode: SmMode,
    ) -> Self {
        let slots = plan.max_blocks as usize;
        let wpb = kinfo.warps_per_block as usize;
        let pairs = (0..plan.shared_pairs)
            .map(|_| {
                if mode.register_sharing {
                    PairLocks::Reg(RegPairLocks::new(wpb))
                } else {
                    PairLocks::Smem(SmemPairLock::new())
                }
            })
            .collect();
        Sm {
            id,
            l1,
            blocks: vec![None; slots],
            warps: vec![None; slots * wpb],
            pairs,
            plan,
            stats: SmStats::default(),
            sched: sched_kind.build(slots * wpb, units),
            units,
            next_dyn_id: 0,
            writebacks: TimingWheel::new(),
            pending: vec![0; (slots * wpb).div_ceil(64)],
            parked: vec![[0; PARK_KINDS]; (slots * wpb).div_ceil(64)],
            slot_park: vec![None; slots * wpb],
            gate_min: [u32::MAX; 2],
            ready_set: ReadySet::new(slots * wpb),
            live_warp_count: 0,
            structural: true,
            last_gate_blocks: (0, 0),
            incremental: mode.incremental,
            telemetry: mode.telemetry.map(|c| Box::new(SmTelemetry::new(&c))),
            slot_reason: vec![0; slots * wpb],
            n_hazard: 0,
            n_barrier: 0,
            addr_buf: Vec::with_capacity(32),
            wb_scratch: Vec::with_capacity(32),
        }
    }

    /// Number of blocks currently resident.
    pub fn live_blocks(&self) -> u32 {
        self.blocks.iter().filter(|b| b.is_some()).count() as u32
    }

    /// Does any slot lack a block?
    pub fn has_free_slot(&self) -> bool {
        self.blocks.iter().any(|b| b.is_none())
    }

    /// Does the SM hold any live (unfinished) warp?
    pub fn has_live_warps(&self) -> bool {
        self.live_warp_count > 0
    }

    /// Earliest cycle at which a pending writeback will drain, if any — the
    /// only future event that can change a quiescent SM's state.
    pub fn next_wake(&self) -> Option<u64> {
        self.writebacks.next_due()
    }

    /// Latest completion cycle ever scheduled on this SM's writeback wheel
    /// (0 if none yet) — one input to the forward-progress watchdog's
    /// watermark. Engine-invariant: every engine pushes the same writebacks
    /// at the same due cycles.
    pub fn latest_writeback(&self) -> u64 {
        self.writebacks.latest_scheduled()
    }

    /// Gate-blocked warp counts `(mshr, dram)` from the latest readiness
    /// scan — surfaced in the watchdog's [`crate::supervise::StallDiagnosis`].
    pub fn gate_block_counts(&self) -> (u32, u32) {
        self.last_gate_blocks
    }

    /// Credit the skipped sleep span `[since, now)` with exactly the
    /// accounting the per-cycle loop would have produced for a quiescent SM:
    /// idle when live warps wait on latency, empty when no work is resident.
    /// The per-reason breakdown is frozen for the whole span (no drain can
    /// occur inside it, so no warp's stall reason can change), and sample
    /// rows falling inside the span are emitted piecewise at their exact
    /// boundaries — a row at cycle `b` sees precisely the counters the
    /// per-cycle loop would have accumulated through cycle `b - 1`.
    pub fn credit_skipped(&mut self, since: u64, now: u64) {
        if now <= since {
            return;
        }
        if let Some(mut t) = self.telemetry.take() {
            t.record(
                since,
                TelemetryEvent::SleepSpan {
                    until: now,
                    gated: false,
                },
            );
            let lb = self.live_blocks();
            let lw = self.live_warp_count;
            let mut cur = since;
            // Strictly-inside boundaries only: a boundary at `now` is
            // emitted by the step that follows the wake (mirroring the
            // per-cycle loop), and a run ending at `now` never emits it.
            while t.next_sample < now {
                let b = t.next_sample;
                self.credit_idle_span(b - cur);
                t.emit_row(self.id as u32, &self.stats, lb, lw);
                cur = b;
            }
            self.credit_idle_span(now - cur);
            self.telemetry = Some(t);
        } else {
            self.credit_idle_span(now - since);
        }
    }

    fn credit_idle_span(&mut self, span: u64) {
        if span == 0 {
            return;
        }
        if self.live_warp_count > 0 {
            self.stats.idle_cycles += span;
            if self.n_hazard > 0 {
                self.stats.stall_scoreboard_cycles += span;
            } else if self.n_barrier > 0 {
                self.stats.stall_barrier_cycles += span;
            } else {
                self.stats.stall_no_ready_cycles += span;
            }
        } else {
            self.stats.empty_cycles += span;
        }
    }

    /// Credit the sleep span `[since, now)` slept under memory back-pressure
    /// ([`StepOutcome::gated`]) in closed form: each skipped cycle would have
    /// counted one pipeline-stall cycle and re-blocked the same warps (the
    /// gate can only open at a capacity release, which bounds the span), so
    /// the per-cycle counters scale linearly with the span. Sample rows
    /// inside the span are emitted piecewise like [`Sm::credit_skipped`].
    pub fn credit_gated(&mut self, since: u64, now: u64) {
        if now <= since {
            return;
        }
        if let Some(mut t) = self.telemetry.take() {
            t.record(
                since,
                TelemetryEvent::SleepSpan {
                    until: now,
                    gated: true,
                },
            );
            let lb = self.live_blocks();
            let lw = self.live_warp_count;
            let mut cur = since;
            // Strictly-inside boundaries only, as in `credit_skipped`.
            while t.next_sample < now {
                let b = t.next_sample;
                self.credit_gated_span(b - cur);
                t.emit_row(self.id as u32, &self.stats, lb, lw);
                cur = b;
            }
            self.credit_gated_span(now - cur);
            self.telemetry = Some(t);
        } else {
            self.credit_gated_span(now - since);
        }
    }

    fn credit_gated_span(&mut self, span: u64) {
        self.stats.stall_cycles += span;
        self.stats.stall_mem_gate_cycles += span;
        self.stats.mshr_full_stalls += span * u64::from(self.last_gate_blocks.0);
        self.stats.dram_queue_full_stalls += span * u64::from(self.last_gate_blocks.1);
    }

    /// Update `slot`'s stall reason (0 none, 1 scoreboard, 2 barrier,
    /// 3 memory gate), keeping the incremental reason counts and recording
    /// an edge-triggered [`TelemetryEvent::WarpStall`] on a change into a
    /// non-ready reason. Reasons only change when the slot is re-evaluated,
    /// and every engine re-evaluates a slot at the same cycles, so both the
    /// counts and the event stream are engine-invariant.
    #[inline]
    fn set_reason(&mut self, slot: usize, reason: u8, now: u64) {
        let old = self.slot_reason[slot];
        if old == reason {
            return;
        }
        match old {
            1 => self.n_hazard -= 1,
            2 => self.n_barrier -= 1,
            _ => {}
        }
        match reason {
            1 => self.n_hazard += 1,
            2 => self.n_barrier += 1,
            _ => {}
        }
        self.slot_reason[slot] = reason;
        if reason != 0 {
            if let Some(t) = self.telemetry.as_deref_mut() {
                let r = match reason {
                    1 => StallReason::Scoreboard,
                    2 => StallReason::Barrier,
                    _ => StallReason::MemGate,
                };
                t.record(
                    now,
                    TelemetryEvent::WarpStall {
                        slot: slot as u32,
                        reason: r,
                    },
                );
            }
        }
    }

    /// Take this SM's telemetry state for end-of-run assembly.
    pub(crate) fn take_telemetry(&mut self) -> Option<SmTelemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// Launch grid block `grid_id` into the first free slot at cycle `now`.
    /// Panics if no slot is free (callers check [`Self::has_free_slot`]).
    pub fn launch_block(&mut self, grid_id: u32, kinfo: &KernelInfo, now: u64) {
        let slot = self
            .blocks
            .iter()
            .position(|b| b.is_none())
            .expect("launch_block requires a free slot");
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.record(
                now,
                TelemetryEvent::BlockLaunch {
                    grid_id,
                    slot: slot as u32,
                },
            );
        }
        let wpb = kinfo.warps_per_block;
        self.blocks[slot] = Some(Block {
            grid_id,
            live_warps: wpb,
            at_barrier: 0,
            pairing: pairing_of_slot(slot as u32, self.plan.unshared),
        });
        for w in 0..wpb {
            let dyn_id = self.next_dyn_id;
            self.next_dyn_id += 1;
            self.warps[slot * wpb as usize + w as usize] = Some(Warp::new(
                dyn_id,
                slot as u32,
                w,
                kinfo.threads_in_warp[w as usize],
                kinfo.num_loops,
                grid_id,
            ));
        }
        self.live_warp_count += wpb;
        self.structural = true;
        self.stats.max_resident_blocks = self.stats.max_resident_blocks.max(self.live_blocks());
    }

    /// Advance one cycle.
    pub fn step(
        &mut self,
        now: u64,
        kinfo: &KernelInfo,
        lat: &LatencyConfig,
        shared: &mut SharedMem,
        throttle: &mut DynThrottle,
        dispatcher: &mut Dispatcher,
    ) -> StepOutcome {
        // Same-cycle tie-break (load-bearing for gated-sleep wake-ups, pinned
        // by `capacity_release_is_visible_exactly_at_its_cycle`): the SM's own
        // writebacks drain FIRST, then capacity releases due at `now` settle,
        // and only then is the gate read — so an SM woken at `now` by a
        // release observes both its drained scoreboard and the freed
        // capacity in the same scan.
        if let Some(mut t) = self.telemetry.take() {
            // Sample boundaries due at or before this cycle: a row at `b`
            // reflects the state at the start of cycle `b`, before the
            // cycle's drains, scans and issues (the crediting paths emit
            // in-span boundaries themselves, so at most one is due here in
            // the per-cycle engine and none after a credited wake).
            if t.next_sample <= now {
                let lb = self.live_blocks();
                let lw = self.live_warp_count;
                while t.next_sample <= now {
                    t.emit_row(self.id as u32, &self.stats, lb, lw);
                }
            }
            self.telemetry = Some(t);
        }
        self.drain_writebacks(now);
        shared.advance_to(now); // event model: settle capacity releases
        let max_pending = shared.cfg.max_pending_per_warp;
        let gate = shared.is_event().then(|| shared.issue_gate());
        let scan = self.scan_readiness(now, kinfo, throttle, max_pending, gate);

        let mut issued = 0u32;
        let mut port_conflict = false;
        let mut global_port_used = false;
        let mut smem_port_used = false;
        if scan.any_ready || !self.incremental {
            for unit in 0..self.units {
                let Some(slot) = self.sched.pick(unit, &self.ready_set) else {
                    continue;
                };
                let pc = self.warps[slot].as_ref().expect("picked warp exists").pc as usize;
                let meta = &kinfo.meta[pc];
                // Structural ports: one global-memory and one scratchpad
                // instruction per SM per cycle.
                if meta.is_global_mem() {
                    if global_port_used {
                        port_conflict = true;
                        continue;
                    }
                    global_port_used = true;
                } else if meta.is_shared_mem() {
                    if smem_port_used {
                        port_conflict = true;
                        continue;
                    }
                    smem_port_used = true;
                }
                if self.issue(slot, now, kinfo, lat, shared, dispatcher) {
                    issued += 1;
                } else {
                    port_conflict = true; // same-cycle lock race: counts as stall
                }
            }
        } else {
            // No unit can pick anything; apply the scheduler-state
            // transition an all-unready pick round would have made and skip
            // the per-unit picks.
            self.sched.note_idle_cycle();
        }

        if issued == 0 {
            if scan.any_stall || port_conflict || scan.any_gated() {
                // Every pipeline-stall cycle is caused by the memory system
                // or a structural conflict, so the breakdown attributes it
                // to the mem-gate bucket wholesale.
                self.stats.stall_cycles += 1;
                self.stats.stall_mem_gate_cycles += 1;
            } else if scan.any_live {
                self.stats.idle_cycles += 1;
                if self.n_hazard > 0 {
                    self.stats.stall_scoreboard_cycles += 1;
                } else if self.n_barrier > 0 {
                    self.stats.stall_barrier_cycles += 1;
                } else {
                    self.stats.stall_no_ready_cycles += 1;
                }
            } else {
                self.stats.empty_cycles += 1;
            }
            if scan.any_live {
                // The Sec. IV-C monitor compares per-SM lost cycles; both
                // pipeline stalls and ready-less (memory-wait) cycles are
                // symptoms of the interference it throttles.
                throttle.note_stall(self.id);
            }
        }

        self.last_gate_blocks = (scan.gate_mshr, scan.gate_dram);
        let sleepable = issued == 0
            && !scan.any_stall
            && !port_conflict
            && !scan.any_volatile
            && !scan.any_ready;
        StepOutcome {
            live: scan.any_live,
            quiescent: sleepable && !scan.any_gated(),
            gated: sleepable && scan.any_gated(),
            issued: issued > 0,
        }
    }

    fn drain_writebacks(&mut self, now: u64) {
        let mut due = std::mem::take(&mut self.wb_scratch);
        self.writebacks.drain_due_into(now, &mut due);
        for &(_, wb) in &due {
            let slot = wb.slot as usize;
            if let Some(w) = self.warps[slot].as_mut() {
                match wb.kind {
                    WbKind::Alu => w.clear_pending(wb.reg),
                    WbKind::MemInstr => {
                        w.clear_pending(wb.reg);
                        w.outstanding_mem = w.outstanding_mem.saturating_sub(1);
                    }
                    // Intermediate transactions of a group dirty the slot
                    // harmlessly (a still-blocked warp re-evaluates to the
                    // same entry with no side effects); the group's last
                    // transaction is the real wake-up.
                    WbKind::MemTxn(group) => {
                        w.mem_txn_done(group);
                    }
                }
                self.mark_slot_dirty(slot);
            }
        }
        self.wb_scratch = due;
    }

    /// Move a parked slot back to `pending`; a volatile, vacant or finished
    /// slot is left as it is.
    #[inline]
    fn mark_slot_dirty(&mut self, slot: usize) {
        if let Some(park) = self.slot_park[slot].take() {
            let (w, bit) = (slot / 64, 1u64 << (slot % 64));
            self.parked[w][park as usize] &= !bit;
            self.pending[w] |= bit;
        }
    }

    /// Dirty every slot parked as `park`.
    fn unpark_all(&mut self, park: Park) {
        for w in 0..self.pending.len() {
            let mut bits = std::mem::take(&mut self.parked[w][park as usize]);
            self.pending[w] |= bits;
            while bits != 0 {
                self.slot_park[w * 64 + bits.trailing_zeros() as usize] = None;
                bits &= bits - 1;
            }
        }
    }

    /// Record how `slot`'s evaluation left it (the slot is not parked).
    #[inline]
    fn set_scan(&mut self, slot: usize, state: SlotScan) {
        let (w, bit) = (slot / 64, 1u64 << (slot % 64));
        match state {
            SlotScan::Volatile => self.pending[w] |= bit,
            SlotScan::Parked(park) => {
                self.pending[w] &= !bit;
                self.parked[w][park as usize] |= bit;
                self.slot_park[slot] = Some(park);
            }
        }
    }

    /// Invalidate every warp of `block_slot` (barrier release, lock/owner
    /// transitions of the block's pair).
    fn mark_block_dirty(&mut self, block_slot: u32, warps_per_block: u32) {
        let base = block_slot as usize * warps_per_block as usize;
        for slot in base..base + warps_per_block as usize {
            self.mark_slot_dirty(slot);
        }
    }

    /// Invalidate both blocks of `pair` — a lock grant may have changed the
    /// pair's owner, which feeds every ready-set entry's [`WarpClass`].
    fn mark_pair_dirty(&mut self, pair: u32, warps_per_block: u32) {
        let a = self.plan.unshared + 2 * pair;
        self.mark_block_dirty(a, warps_per_block);
        self.mark_block_dirty(a + 1, warps_per_block);
    }

    /// Scan resident warps, refreshing the ready set. Parked slots are
    /// skipped: their entries are still exactly what a full scan would
    /// produce, and [`Self::credit_parked`] applies the side effects a full
    /// scan would have had for them. Ready warps may be parked, so
    /// `any_ready` is read off the whole set. `gate` is the event model's
    /// issue gate (`None` on the functional model, which has none).
    fn scan_readiness(
        &mut self,
        now: u64,
        kinfo: &KernelInfo,
        throttle: &mut DynThrottle,
        max_pending: u32,
        gate: Option<MemGate>,
    ) -> ScanSummary {
        let mut summary = ScanSummary {
            any_live: self.live_warp_count > 0,
            any_stall: false,
            any_volatile: false,
            any_ready: false,
            gate_mshr: 0,
            gate_dram: 0,
        };
        if self.structural || !self.incremental {
            self.structural = false;
            self.ready_set.clear();
            self.pending.fill(0);
            self.parked.fill([0; PARK_KINDS]);
            self.slot_park.fill(None);
            self.gate_min = [u32::MAX; 2];
            for slot in 0..self.warps.len() {
                let live = self.warps[slot].as_ref().is_some_and(|w| !w.finished);
                if !live {
                    self.set_reason(slot, 0, now);
                    continue;
                }
                let (view, state) = self.eval_warp(slot, now, kinfo, throttle, max_pending, gate);
                summary.note(state, 1);
                self.set_scan(slot, state);
                self.ready_set.insert(&view);
            }
        } else {
            self.credit_parked(&mut summary, gate);
            // Pending slots in slot order: the reference scan's side-effect
            // order.
            for w in 0..self.pending.len() {
                let mut bits = self.pending[w];
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (view, state) =
                        self.eval_warp(slot, now, kinfo, throttle, max_pending, gate);
                    summary.note(state, 1);
                    self.set_scan(slot, state);
                    self.ready_set.insert(&view);
                }
            }
        }
        summary.any_ready = self.ready_set.any_ready();
        summary
    }

    /// Apply to the parked slots what re-evaluating each of them this cycle
    /// would do, by popcount, after dirtying the gate-parked slots of each
    /// request kind the gate now admits (they are re-evaluated by this
    /// scan). The gate is monotone in the request size, so testing the
    /// smallest parked request decides for every slot of its kind.
    fn credit_parked(&mut self, summary: &mut ScanSummary, gate: Option<MemGate>) {
        let mut n = [0u32; PARK_KINDS];
        for masks in &self.parked {
            for (count, mask) in n.iter_mut().zip(masks) {
                *count += mask.count_ones();
            }
        }
        for (i, park) in [Park::GateLoad, Park::GateStore].into_iter().enumerate() {
            if n[park as usize] == 0 {
                continue;
            }
            let gate = gate.expect("only the event model parks warps behind the gate");
            if gate.blocks_request(i == 0, self.gate_min[i]).is_none() {
                self.unpark_all(park);
                self.gate_min[i] = u32::MAX;
                n[park as usize] = 0;
            }
        }
        self.stats.lock_retries += u64::from(n[Park::LockWait as usize]);
        self.stats.mshr_full_stalls += u64::from(n[Park::GateLoad as usize]);
        self.stats.dram_queue_full_stalls += u64::from(n[Park::GateStore as usize]);
        for park in [
            Park::LockWait,
            Park::MshrWait,
            Park::GateLoad,
            Park::GateStore,
        ] {
            summary.note(SlotScan::Parked(park), n[park as usize]);
        }
    }

    /// Evaluate one live warp exactly as the reference per-cycle scan would:
    /// same checks, same order, same side effects (lock-retry, gate-stall
    /// and throttle counters, throttle RNG draws), and say how the scan
    /// keeps the slot until its next evaluation.
    fn eval_warp(
        &mut self,
        slot: usize,
        now: u64,
        kinfo: &KernelInfo,
        throttle: &mut DynThrottle,
        max_pending: u32,
        gate: Option<MemGate>,
    ) -> (WarpView, SlotScan) {
        let w = self.warps[slot].as_ref().expect("evaluating a live warp");
        let block = self.blocks[w.block_slot as usize]
            .as_ref()
            .expect("live warp belongs to a live block");
        // OWF class (paper Sec. IV-A). Ownership only exists once a
        // block waits on shared resources held by its partner: a shared
        // block whose partner slot is empty, or whose pair has no
        // determined owner yet, behaves like an unshared block.
        let class = match block.pairing {
            Pairing::Unshared => WarpClass::Unshared,
            Pairing::Paired { pair, member } => {
                let base = self.plan.unshared + 2 * pair;
                let partner_slot = base
                    + if member == grs_core::PairMember::A {
                        1
                    } else {
                        0
                    };
                let partner_present = self.blocks[partner_slot as usize].is_some();
                match self.pairs[pair as usize].owner() {
                    _ if !partner_present => WarpClass::Unshared,
                    Some(m) if m == member => WarpClass::Owner,
                    Some(_) => WarpClass::NonOwner,
                    None => WarpClass::Unshared,
                }
            }
        };

        let mut ready = false;
        let mut state = SlotScan::Parked(Park::Stable);
        // Stall reason for the breakdown counters: barrier unless the
        // !at_barrier branch refines it below.
        let mut reason = 2u8;
        if !w.at_barrier {
            let meta = &kinfo.meta[w.pc as usize];
            let hazard = w.has_hazard(meta.op_mask);
            let drain_for_exit = meta.is_exit() && (w.outstanding_mem > 0 || w.pending_regs != 0);
            let mshr_full = meta.is_global_mem() && w.outstanding_mem >= max_pending;
            let mut gated = false;
            if mshr_full {
                // Structural congestion: the warp has work but the
                // memory pipeline cannot accept it — a *pipeline stall*
                // in the paper's Sec. VI-B accounting (and the signal
                // the Sec. IV-C throttle monitors).
                state = SlotScan::Parked(Park::MshrWait);
            } else if !hazard && !drain_for_exit {
                // Event-model issue gate: the shared memory system cannot
                // take this instruction's transactions. Same stall class as
                // `mshr_full`, but sleepable (see `Park::GateLoad`).
                let need = u32::from(meta.mem_txns);
                match gate.and_then(|g| g.blocks(meta)) {
                    Some(GateBlock::Mshr) => {
                        self.stats.mshr_full_stalls += 1;
                        self.gate_min[0] = self.gate_min[0].min(need);
                        state = SlotScan::Parked(Park::GateLoad);
                        gated = true;
                    }
                    Some(GateBlock::DramQueue) => {
                        self.stats.dram_queue_full_stalls += 1;
                        self.gate_min[1] = self.gate_min[1].min(need);
                        state = SlotScan::Parked(Park::GateStore);
                        gated = true;
                    }
                    None => {}
                }
            }
            if !hazard && !drain_for_exit && !mshr_full && !gated {
                ready = true;
                // Pair-lock busy-wait (Fig. 3 / Fig. 4 step (e)): the
                // warp is simply not ready; it retries next cycle.
                if let Pairing::Paired { pair, member } = block.pairing {
                    if meta.uses_shared_reg() {
                        if let PairLocks::Reg(l) = &self.pairs[pair as usize] {
                            if !l.can_access(member, w.warp_in_block as usize) {
                                ready = false;
                                self.stats.lock_retries += 1;
                            }
                        }
                    }
                    if ready && meta.uses_shared_smem() {
                        if let PairLocks::Smem(l) = &self.pairs[pair as usize] {
                            if !l.can_access(member) {
                                ready = false;
                                self.stats.lock_retries += 1;
                            }
                        }
                    }
                    if !ready {
                        state = SlotScan::Parked(Park::LockWait);
                    }
                }
                // Dynamic warp-execution throttle (paper Sec. IV-C):
                // intentional suppression, not a pipeline stall. Asking
                // it draws from the SM's RNG stream, and its answer
                // changes with the window, so such a warp is volatile.
                let asks_throttle = ready
                    && meta.is_global_mem()
                    && class == WarpClass::NonOwner
                    && throttle.enabled();
                if asks_throttle && !throttle.allow(self.id) {
                    ready = false;
                    self.stats.throttled_issues += 1;
                }
                // The event-model gate may close on a global-memory warp
                // that it admits now, without this SM dirtying the slot.
                if asks_throttle || (meta.is_global_mem() && gate.is_some()) {
                    state = SlotScan::Volatile;
                }
            }
            // Scoreboard beats the memory gate when both hold; everything
            // else (exit drain, lock busy-wait, throttle, ready) is "none".
            reason = if hazard {
                1
            } else if mshr_full || gated {
                3
            } else {
                0
            };
        }
        let view = WarpView {
            slot,
            dynamic_id: w.dynamic_id,
            class,
            ready,
        };
        self.set_reason(slot, reason, now);
        (view, state)
    }

    /// Issue the next instruction of the warp in `slot`. Returns false only
    /// when a same-cycle lock race invalidated the readiness decision.
    fn issue(
        &mut self,
        slot: usize,
        now: u64,
        kinfo: &KernelInfo,
        lat: &LatencyConfig,
        shared: &mut SharedMem,
        dispatcher: &mut Dispatcher,
    ) -> bool {
        let (pc, block_slot, warp_in_block, pairing) = {
            let w = self.warps[slot].as_ref().expect("issuing a live warp");
            let b = self.blocks[w.block_slot as usize]
                .as_ref()
                .expect("live block");
            (w.pc as usize, w.block_slot, w.warp_in_block, b.pairing)
        };
        let meta = kinfo.meta[pc];

        // Re-check the event-model issue gate: a peer scheduler unit's issue
        // this cycle may have consumed the capacity the readiness scan saw.
        // Nothing has been mutated yet, so bailing out is side-effect-free
        // (like a lost same-cycle lock race below).
        match shared.issue_gate().blocks(&meta) {
            Some(GateBlock::Mshr) => {
                self.stats.mshr_full_stalls += 1;
                return false;
            }
            Some(GateBlock::DramQueue) => {
                self.stats.dram_queue_full_stalls += 1;
                return false;
            }
            None => {}
        }

        // Acquire pair locks for real (a peer scheduler unit may have taken
        // them since the readiness scan). A grant that takes a lock the warp
        // did not hold may flip the pair's lock and owner state, so the
        // ready-set entries of both blocks are invalidated; a repeat access
        // by the holder and a denial mutate nothing.
        if let Pairing::Paired { pair, member } = pairing {
            let acquired = match &mut self.pairs[pair as usize] {
                PairLocks::Reg(l) if meta.uses_shared_reg() => {
                    let held = l.holds(member, warp_in_block as usize);
                    if l.access_shared(member, warp_in_block as usize) == RegAccess::Blocked {
                        self.stats.lock_retries += 1;
                        return false;
                    }
                    l.holds(member, warp_in_block as usize) != held
                }
                PairLocks::Smem(l) if meta.uses_shared_smem() => {
                    let held = l.holds(member);
                    if l.access_shared(member) == RegAccess::Blocked {
                        self.stats.lock_retries += 1;
                        return false;
                    }
                    l.holds(member) != held
                }
                _ => false,
            };
            if acquired {
                self.mark_pair_dirty(pair, kinfo.warps_per_block);
            }
        }

        let threads;
        {
            let w = self.warps[slot].as_mut().expect("issuing a live warp");
            threads = w.threads;
            match meta.op {
                Op::IAlu => advance_alu(
                    w,
                    meta.dst,
                    now,
                    u64::from(lat.ialu),
                    slot,
                    &mut self.writebacks,
                ),
                Op::IMul => advance_alu(
                    w,
                    meta.dst,
                    now,
                    u64::from(lat.imul),
                    slot,
                    &mut self.writebacks,
                ),
                Op::FAdd | Op::FMul | Op::FFma => advance_alu(
                    w,
                    meta.dst,
                    now,
                    u64::from(lat.fp),
                    slot,
                    &mut self.writebacks,
                ),
                Op::Sfu => advance_alu(
                    w,
                    meta.dst,
                    now,
                    u64::from(lat.sfu),
                    slot,
                    &mut self.writebacks,
                ),
                Op::LdShared(_) => advance_alu(
                    w,
                    meta.dst,
                    now,
                    u64::from(lat.scratchpad),
                    slot,
                    &mut self.writebacks,
                ),
                Op::StShared(_) => {
                    w.pc += 1; // fire-and-forget scratchpad write
                }
                Op::LdGlobal(p) | Op::StGlobal(p) => {
                    self.addr_buf.clear();
                    let grid_id = self.blocks[block_slot as usize].as_ref().unwrap().grid_id;
                    generate_addresses(p, w, grid_id, &mut self.addr_buf);
                    let is_load = matches!(meta.op, Op::LdGlobal(_));
                    let reg = if is_load {
                        if meta.dst != NO_REG {
                            w.mark_pending(meta.dst);
                        }
                        meta.dst
                    } else {
                        NO_REG
                    };
                    w.outstanding_mem += 1;
                    if shared.is_event() {
                        // Event model: each transaction runs the partition
                        // pipeline and schedules its own completion; the
                        // group coalesces them into one warp wake-up.
                        let group = w.alloc_mem_group(reg, self.addr_buf.len() as u32);
                        for &addr in &self.addr_buf {
                            let done = shared.event_access(&mut self.l1, addr, now, is_load);
                            self.writebacks.push(
                                done,
                                Writeback {
                                    slot: slot as u32,
                                    reg: NO_REG,
                                    kind: WbKind::MemTxn(group),
                                },
                            );
                        }
                    } else {
                        // Functional model: one completion at the slowest
                        // transaction's issue-time latency.
                        let mut max_lat = 0u64;
                        for &addr in &self.addr_buf {
                            let l = if is_load {
                                shared.load(&mut self.l1, addr, now)
                            } else {
                                shared.store(&mut self.l1, addr, now)
                            };
                            max_lat = max_lat.max(l);
                        }
                        self.writebacks.push(
                            now + max_lat,
                            Writeback {
                                slot: slot as u32,
                                reg,
                                kind: WbKind::MemInstr,
                            },
                        );
                    }
                    w.pc += 1;
                }
                Op::Barrier => {
                    w.at_barrier = true;
                    w.pc += 1;
                    let block = self.blocks[block_slot as usize].as_mut().unwrap();
                    block.at_barrier += 1;
                    if block.at_barrier == block.live_warps {
                        release_barrier(&mut self.warps, block_slot, kinfo.warps_per_block);
                        self.blocks[block_slot as usize]
                            .as_mut()
                            .unwrap()
                            .at_barrier = 0;
                        self.mark_block_dirty(block_slot, kinfo.warps_per_block);
                    }
                }
                Op::BranchBack {
                    target,
                    trips,
                    loop_id,
                } => {
                    let id = loop_id as usize;
                    if w.loop_init & (1 << id) == 0 {
                        w.loop_counters[id] = trips;
                        w.loop_init |= 1 << id;
                    }
                    if w.loop_counters[id] > 0 {
                        w.loop_counters[id] -= 1;
                        w.pc = u32::from(target);
                    } else {
                        w.loop_init &= !(1 << id);
                        w.pc += 1;
                    }
                }
                Op::Exit => {
                    w.finished = true;
                    self.live_warp_count -= 1;
                    self.retire_warp(block_slot, warp_in_block, pairing, kinfo, dispatcher, now);
                }
            }
        }

        // The warp's next instruction, scoreboard and MSHR count all moved:
        // a parked ready warp is re-evaluated by the next scan.
        self.mark_slot_dirty(slot);
        self.stats.warp_instrs += 1;
        self.stats.thread_instrs += u64::from(threads);
        true
    }

    /// Handle a warp retirement: release its register pair lock, resolve
    /// barriers it is no longer part of, and complete the block when it was
    /// the last warp. Retirement changes the live-slot set (and possibly
    /// lock/owner state), so the next scan rebuilds from scratch.
    fn retire_warp(
        &mut self,
        block_slot: u32,
        warp_in_block: u32,
        pairing: Pairing,
        kinfo: &KernelInfo,
        dispatcher: &mut Dispatcher,
        now: u64,
    ) {
        self.structural = true;
        if let Pairing::Paired { pair, member } = pairing {
            if let PairLocks::Reg(l) = &mut self.pairs[pair as usize] {
                l.warp_finished(member, warp_in_block as usize);
            }
        }
        let block = self.blocks[block_slot as usize]
            .as_mut()
            .expect("retiring into live block");
        block.live_warps -= 1;
        if block.live_warps == 0 {
            self.complete_block(block_slot, pairing, kinfo, dispatcher, now);
        } else if block.at_barrier > 0 && block.at_barrier == block.live_warps {
            // Remaining warps were all at the barrier; the exit releases it.
            release_barrier(&mut self.warps, block_slot, kinfo.warps_per_block);
            self.blocks[block_slot as usize]
                .as_mut()
                .unwrap()
                .at_barrier = 0;
        }
    }

    fn complete_block(
        &mut self,
        block_slot: u32,
        pairing: Pairing,
        kinfo: &KernelInfo,
        dispatcher: &mut Dispatcher,
        now: u64,
    ) {
        if let Pairing::Paired { pair, member } = pairing {
            self.pairs[pair as usize].block_completed(member);
        }
        if let Some(t) = self.telemetry.as_deref_mut() {
            let grid_id = self.blocks[block_slot as usize]
                .as_ref()
                .expect("completing a live block")
                .grid_id;
            t.record(
                now,
                TelemetryEvent::BlockRetire {
                    grid_id,
                    slot: block_slot,
                },
            );
        }
        self.stats.blocks_completed += 1;
        let wpb = kinfo.warps_per_block as usize;
        let base = block_slot as usize * wpb;
        for w in &mut self.warps[base..base + wpb] {
            debug_assert!(w.as_ref().map(|w| w.finished).unwrap_or(true));
            *w = None;
        }
        self.blocks[block_slot as usize] = None;
        // Refill immediately (paper Sec. IV: the replacement enters the pair
        // as the new non-owner).
        if let Some(gid) = dispatcher.next_block() {
            self.launch_block(gid, kinfo, now);
        }
    }
}

fn advance_alu(
    w: &mut Warp,
    dst: u16,
    now: u64,
    latency: u64,
    slot: usize,
    writebacks: &mut TimingWheel<Writeback>,
) {
    if dst != NO_REG {
        w.mark_pending(dst);
        writebacks.push(
            now + latency,
            Writeback {
                slot: slot as u32,
                reg: dst,
                kind: WbKind::Alu,
            },
        );
    }
    w.pc += 1;
}

fn release_barrier(warps: &mut [Option<Warp>], block_slot: u32, warps_per_block: u32) {
    let base = block_slot as usize * warps_per_block as usize;
    for w in warps[base..base + warps_per_block as usize]
        .iter_mut()
        .flatten()
    {
        w.at_barrier = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_core::{GpuConfig, ResourceKind, Threshold};
    use grs_isa::{GlobalPattern, KernelBuilder};

    fn kinfo(regs: u32, threads: u32) -> KernelInfo {
        let k = KernelBuilder::new("t")
            .threads_per_block(threads)
            .regs_per_thread(regs)
            .grid_blocks(16)
            .ialu(4)
            .build();
        KernelInfo::new(k, None, Threshold::paper_default())
    }

    fn plan(unshared: u32, pairs: u32) -> LaunchPlan {
        LaunchPlan {
            unshared,
            shared_pairs: pairs,
            max_blocks: unshared + 2 * pairs,
            baseline_blocks: unshared + pairs,
            resource: ResourceKind::Registers,
        }
    }

    /// Park every live slot as stable, so dirtying shows in `pending`.
    fn park_all_stable(s: &mut Sm) {
        s.pending.fill(0);
        s.parked.fill([0; PARK_KINDS]);
        s.slot_park.fill(None);
        for slot in 0..s.warps.len() {
            if s.warps[slot].is_some() {
                s.set_scan(slot, SlotScan::Parked(Park::Stable));
            }
        }
    }

    fn sm(ki: &KernelInfo, p: LaunchPlan) -> Sm {
        let cfg = GpuConfig::tiny();
        let l1 = Cache::new(
            u64::from(cfg.mem.l1_bytes),
            cfg.mem.l1_ways,
            u64::from(cfg.mem.line_bytes),
        );
        Sm::new(
            0,
            p,
            ki,
            SchedulerKind::Lrr,
            2,
            l1,
            SmMode {
                register_sharing: true,
                incremental: true,
                telemetry: None,
            },
        )
    }

    #[test]
    fn launch_fills_slots_and_counts_residency() {
        let ki = kinfo(8, 64);
        let mut s = sm(&ki, plan(3, 0));
        assert!(s.has_free_slot());
        s.launch_block(0, &ki, 0);
        s.launch_block(1, &ki, 0);
        assert_eq!(s.live_blocks(), 2);
        assert_eq!(s.stats.max_resident_blocks, 2);
        s.launch_block(2, &ki, 0);
        assert!(!s.has_free_slot());
    }

    #[test]
    fn whole_block_retires_and_slot_refills() {
        let ki = kinfo(8, 32);
        let cfg = GpuConfig::tiny();
        let mut s = sm(&ki, plan(1, 0));
        let mut shared = SharedMem::new(cfg.mem);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(3);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);
        let lat = cfg.lat;
        for cycle in 0..2000 {
            s.step(cycle, &ki, &lat, &mut shared, &mut throttle, &mut disp);
            if s.stats.blocks_completed == 3 && s.live_blocks() == 0 {
                break;
            }
        }
        assert_eq!(s.stats.blocks_completed, 3);
        assert_eq!(disp.remaining(), 0);
        // 5 dynamic warp instructions per block (4 ialu + exit) × 3 blocks.
        assert_eq!(s.stats.warp_instrs, 15);
        assert_eq!(s.stats.thread_instrs, 15 * 32);
    }

    #[test]
    fn barrier_joins_all_warps_of_a_block() {
        let k = KernelBuilder::new("barrier")
            .threads_per_block(64) // 2 warps
            .regs_per_thread(8)
            .grid_blocks(1)
            .ialu(1)
            .barrier()
            .ialu(1)
            .build();
        let ki = KernelInfo::new(k, None, Threshold::paper_default());
        let cfg = GpuConfig::tiny();
        let mut s = sm(&ki, plan(1, 0));
        let mut shared = SharedMem::new(cfg.mem);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(1);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);
        for cycle in 0..1000 {
            s.step(cycle, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
            if s.live_blocks() == 0 {
                break;
            }
        }
        assert_eq!(s.stats.blocks_completed, 1);
        // 2 warps × 4 instructions (ialu, barrier, ialu, exit).
        assert_eq!(s.stats.warp_instrs, 8);
    }

    #[test]
    fn only_a_lock_acquisition_dirties_the_pair() {
        // t = 0.1 of 8 registers leaves none private: every ialu touches a
        // shared register. One pair of 2-warp blocks: slots 0-1 and 2-3.
        let k = KernelBuilder::new("shared")
            .threads_per_block(64)
            .regs_per_thread(8)
            .grid_blocks(2)
            .ialu(4)
            .build();
        let ki = KernelInfo::new(
            k,
            Some(ResourceKind::Registers),
            Threshold::new(0.1).unwrap(),
        );
        assert!(ki.meta[0].uses_shared_reg());
        let cfg = GpuConfig::tiny();
        let mut s = sm(&ki, plan(0, 1));
        let mut shared = SharedMem::new(cfg.mem);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(2);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);
        s.scan_readiness(0, &ki, &mut throttle, 8, None);
        let issue = |s: &mut Sm, slot: usize, shared: &mut SharedMem, disp: &mut Dispatcher| {
            s.issue(slot, 0, &ki, &cfg.lat, shared, disp)
        };

        // Warp 0 of block A takes its pair lock: both blocks are dirtied.
        park_all_stable(&mut s);
        assert!(issue(&mut s, 0, &mut shared, &mut disp));
        assert_eq!(s.pending, vec![0b1111]);
        // The holder's repeat access changes neither lock nor owner: only
        // the issuing slot itself is dirtied.
        park_all_stable(&mut s);
        assert!(issue(&mut s, 0, &mut shared, &mut disp));
        assert_eq!(s.pending, vec![0b0001]);
        assert_eq!(s.slot_park[1..], [Some(Park::Stable); 3]);
        // A denied access by the partner's warp 0 dirties nothing.
        assert!(!issue(&mut s, 2, &mut shared, &mut disp));
        assert_eq!(s.pending, vec![0b0001]);
        // Warp 1 of block A acquires its own lock: dirty again.
        assert!(issue(&mut s, 1, &mut shared, &mut disp));
        assert_eq!(s.pending, vec![0b1111]);
    }

    #[test]
    fn a_ready_warp_is_parked_until_its_own_issue_or_a_drain() {
        // Two warps of one block, each a dependent ialu chain.
        let ki = kinfo(8, 64);
        let cfg = GpuConfig::tiny();
        let mut s = sm(&ki, plan(1, 0));
        let mut shared = SharedMem::new(cfg.mem);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(1);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);

        // One evaluation parks both ready warps; a second scan re-evaluates
        // nothing and still sees them ready, with no reason to stay awake.
        s.scan_readiness(0, &ki, &mut throttle, 8, None);
        assert_eq!(s.slot_park[..2], [Some(Park::Stable); 2]);
        assert_eq!(s.pending, vec![0]);
        let scan = s.scan_readiness(1, &ki, &mut throttle, 8, None);
        assert!(scan.any_ready && !scan.any_volatile && !scan.any_stall);
        assert_eq!(s.pending, vec![0]);

        // Warp 1's issue dirties warp 1 alone; its re-evaluation finds the
        // ialu result pending and parks it again, scoreboard-blocked.
        assert!(s.issue(1, 1, &ki, &cfg.lat, &mut shared, &mut disp));
        assert_eq!(s.pending, vec![0b10]);
        assert_eq!(s.slot_park[..2], [Some(Park::Stable), None]);
        s.scan_readiness(2, &ki, &mut throttle, 8, None);
        assert_eq!(s.pending, vec![0]);
        assert_eq!(s.slot_reason[1], 1, "re-evaluated into a hazard");

        // Draining the result dirties warp 1 again, and only warp 1.
        let due = 1 + u64::from(cfg.lat.ialu);
        s.drain_writebacks(due - 1);
        assert_eq!(s.pending, vec![0]);
        s.drain_writebacks(due);
        assert_eq!(s.pending, vec![0b10]);
        s.scan_readiness(due, &ki, &mut throttle, 8, None);
        assert_eq!(s.slot_reason[1], 0, "ready again");
        assert_eq!(s.slot_park[..2], [Some(Park::Stable); 2]);
    }

    #[test]
    fn a_lock_waiter_stays_parked_and_retries_once_per_stepped_cycle() {
        // One pair of 1-warp blocks whose every ialu touches a shared
        // register: slot 0 (block A) takes the lock at cycle 0, so slot 1
        // (block B) busy-waits until block A completes.
        let k = KernelBuilder::new("shared")
            .threads_per_block(32)
            .regs_per_thread(8)
            .grid_blocks(2)
            .ialu(4)
            .build();
        let ki = KernelInfo::new(
            k,
            Some(ResourceKind::Registers),
            Threshold::new(0.1).unwrap(),
        );
        let cfg = GpuConfig::tiny();
        let mut s = sm(&ki, plan(0, 1));
        let mut shared = SharedMem::new(cfg.mem);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(2);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);

        // Cycle 0: both warps look ready; slot 0 wins the lock and slot 1
        // loses the same-cycle race (one retry, counted at issue).
        s.step(0, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
        assert_eq!(s.stats.lock_retries, 1);
        let mut waited = 0;
        for cycle in 1..1000 {
            let before = s.stats.lock_retries;
            let out = s.step(cycle, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
            assert_eq!(s.stats.lock_retries, before + 1, "cycle {cycle}");
            assert!(
                !out.quiescent && !out.gated,
                "a lock waiter keeps the SM awake"
            );
            waited += 1;
            if s.blocks[0].is_none() {
                break; // block A completed this cycle: the lock is free
            }
            assert_eq!(s.slot_park[1], Some(Park::LockWait), "cycle {cycle}");
            assert_eq!(s.pending[0] & 0b10, 0, "cycle {cycle}");
        }
        assert!(waited > 4, "slot 1 waited on four ialus of slot 0");
        // The retirement rescans every slot: slot 1 finds the lock free
        // and issues without another retry.
        let before = (s.stats.lock_retries, s.stats.warp_instrs);
        s.step(
            waited + 1,
            &ki,
            &cfg.lat,
            &mut shared,
            &mut throttle,
            &mut disp,
        );
        assert_eq!(s.stats.lock_retries, before.0);
        assert_eq!(s.stats.warp_instrs, before.1 + 1);
    }

    #[test]
    fn a_gate_parked_load_is_re_evaluated_once_the_gate_admits_it() {
        let k = KernelBuilder::new("gather")
            .threads_per_block(32)
            .regs_per_thread(8)
            .grid_blocks(1)
            .ld_global(GlobalPattern::Scatter {
                span_lines: 64,
                txns: 4,
            })
            .build();
        let ki = KernelInfo::new(k, None, Threshold::paper_default());
        let need = u32::from(ki.meta[0].mem_txns);
        assert_eq!(need, 4);
        let mut s = sm(&ki, plan(1, 0));
        let mut throttle = DynThrottle::disabled(1);
        s.launch_block(0, &ki, 0);
        let gate = |mshr_free| {
            Some(MemGate {
                mshr_free,
                dram_free: u32::MAX,
            })
        };

        let scan = s.scan_readiness(0, &ki, &mut throttle, 8, gate(0));
        assert_eq!(s.slot_park[0], Some(Park::GateLoad));
        assert_eq!((scan.gate_mshr, s.stats.mshr_full_stalls), (1, 1));
        // Change the warp behind the scan's back: were it re-evaluated, it
        // would now park at its per-warp MSHR limit instead.
        s.warps[0].as_mut().unwrap().outstanding_mem = 8;
        for (cycle, free) in [(1, 0), (2, need - 1)] {
            let scan = s.scan_readiness(cycle, &ki, &mut throttle, 8, gate(free));
            assert_eq!(s.slot_park[0], Some(Park::GateLoad), "not before");
            assert_eq!(scan.gate_mshr, 1);
            assert!(!scan.any_stall && !scan.any_volatile, "sleepable");
            assert_eq!(s.stats.mshr_full_stalls, cycle + 1);
        }
        // The first gate that admits `need` transactions re-evaluates it.
        let scan = s.scan_readiness(3, &ki, &mut throttle, 8, gate(need));
        assert_eq!(s.slot_park[0], Some(Park::MshrWait));
        assert_eq!(scan.gate_mshr, 0);
        assert!(scan.any_stall);
        assert_eq!(s.stats.mshr_full_stalls, 3);
    }

    #[test]
    fn quiescent_cycles_report_the_next_writeback() {
        // A single warp issues one ialu (latency 4) then hazards on its
        // result: the following cycles are quiescent with a wake at the
        // writeback, exactly what the fast-forward engine consumes.
        let k = KernelBuilder::new("dep")
            .threads_per_block(32)
            .regs_per_thread(8)
            .grid_blocks(1)
            .ialu(2) // dependent chain
            .build();
        let ki = KernelInfo::new(k, None, Threshold::paper_default());
        let cfg = GpuConfig::tiny();
        let mut s = sm(&ki, plan(1, 0));
        let mut shared = SharedMem::new(cfg.mem);
        let mut throttle = DynThrottle::disabled(1);
        let mut disp = Dispatcher::new(1);
        s.launch_block(disp.next_block().unwrap(), &ki, 0);
        let out0 = s.step(0, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
        assert!(!out0.quiescent, "cycle 0 issues");
        let out1 = s.step(1, &ki, &cfg.lat, &mut shared, &mut throttle, &mut disp);
        assert!(out1.quiescent, "cycle 1 hazards on the ialu result");
        assert!(out1.live);
        assert_eq!(s.next_wake(), Some(u64::from(cfg.lat.ialu)));
        assert_eq!(s.stats.idle_cycles, 1);
    }
}
