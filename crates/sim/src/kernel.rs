//! The discrete-event kernel: event queue, CPU model, and dispatch loop.
//!
//! # Execution model
//!
//! Each actor is a queueing station with a configurable number of cores.
//! An event (message or timer) *arrives* at some instant, waits in the
//! actor's FIFO pending queue until a core is free, and is then *serviced*:
//! the handler runs at the service-start instant and charges CPU time via
//! [`Context::consume`]. All outputs — message sends and timer set-ups —
//! take effect at service *end*. Message arrival at the destination is
//! service end plus the network delay returned by the [`LatencyModel`].
//!
//! This single model yields the phenomena the G-DUR paper measures:
//! saturation knees (latency rises when offered load exceeds core capacity),
//! convoy effects (certification of one transaction delaying another), and
//! the cost of metadata (bigger stamps → more bytes → more transmission and
//! marshaling time).
//!
//! # Determinism
//!
//! The event queue orders by `(time, sequence-number)` where sequence numbers
//! are assigned at scheduling time, and all randomness flows through one
//! seeded [`SmallRng`]. Two runs with the same seed produce identical
//! histories.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::actor::{Actor, ProcessId, WireSize};
use crate::obs::{trigger, ObsEvent, ObsSink};
use crate::sched::{Candidate, CandidateKind, Scheduler};
use crate::time::{SimDuration, SimTime};

/// Computes point-to-point message delay.
///
/// Implementations live in `gdur-net` (geo-replicated latency matrices); the
/// trait is defined here so the kernel does not depend on any network policy.
pub trait LatencyModel {
    /// Delay for a `bytes`-sized message from `from` to `to`.
    fn delay(
        &self,
        from: ProcessId,
        to: ProcessId,
        bytes: usize,
        rng: &mut SmallRng,
    ) -> SimDuration;
}

/// A zero-delay network, useful for unit tests of protocol logic.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroLatency;

impl LatencyModel for ZeroLatency {
    fn delay(&self, _: ProcessId, _: ProcessId, _: usize, _: &mut SmallRng) -> SimDuration {
        SimDuration::ZERO
    }
}

/// A fixed uniform delay between every pair of distinct processes.
#[derive(Debug, Clone, Copy)]
pub struct UniformLatency(pub SimDuration);

impl LatencyModel for UniformLatency {
    fn delay(&self, from: ProcessId, to: ProcessId, _: usize, _: &mut SmallRng) -> SimDuration {
        if from == to {
            SimDuration::ZERO
        } else {
            self.0
        }
    }
}

/// Number of CPU cores modeled for an actor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cores {
    /// A fixed number of cores; jobs queue when all are busy.
    Fixed(u16),
    /// No CPU contention: every job starts at its arrival instant.
    ///
    /// Used for load generators so that only the system under test saturates.
    Unlimited,
}

/// Handler-side view of the kernel, passed to every [`Actor`] callback.
pub struct Context<'a, M> {
    now: SimTime,
    self_id: ProcessId,
    consumed: SimDuration,
    rng: &'a mut SmallRng,
    outputs: &'a mut Vec<Output<M>>,
    next_timer: &'a mut u64,
    halted: &'a mut bool,
    obs: Option<&'a mut (dyn ObsSink + 'static)>,
}

enum Output<M> {
    Send {
        /// Boxed at the send site; the allocation rides unmoved into the
        /// arrival job the kernel schedules for it.
        to: ProcessId,
        msg: Box<M>,
        extra: SimDuration,
    },
    Timer {
        id: u64,
        tag: u64,
        after: SimDuration,
    },
    CancelTimer(u64),
}

impl<'a, M> Context<'a, M> {
    /// The virtual instant at which this handler started executing.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the actor running this handler.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// Charges `d` of CPU service time to this handler.
    ///
    /// The actor's core stays busy until the accumulated service time
    /// elapses; outputs depart at that instant.
    pub fn consume(&mut self, d: SimDuration) {
        self.consumed += d;
    }

    /// Total CPU time charged so far in this handler.
    pub fn consumed(&self) -> SimDuration {
        self.consumed
    }

    /// Sends `msg` to `to`; it arrives after this handler's service time plus
    /// the network delay.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.outputs.push(Output::Send {
            to,
            msg: Box::new(msg),
            extra: SimDuration::ZERO,
        });
    }

    /// Like [`Context::send`] but adds `extra` artificial delay, e.g. to
    /// model batching or deliberate backoff.
    pub fn send_delayed(&mut self, to: ProcessId, msg: M, extra: SimDuration) {
        self.outputs.push(Output::Send {
            to,
            msg: Box::new(msg),
            extra,
        });
    }

    /// Schedules [`Actor::on_timer`] with `tag` to fire `after` the end of
    /// this handler's service time. Returns an id usable with
    /// [`Context::cancel_timer`].
    pub fn set_timer(&mut self, after: SimDuration, tag: u64) -> u64 {
        let id = *self.next_timer;
        *self.next_timer += 1;
        self.outputs.push(Output::Timer { id, tag, after });
        id
    }

    /// Cancels a timer set earlier. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, id: u64) {
        self.outputs.push(Output::CancelTimer(id));
    }

    /// Deterministic random-number generator shared by the whole simulation.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Stops the simulation after the current handler completes.
    pub fn halt(&mut self) {
        *self.halted = true;
    }

    /// True if an observability sink is attached; lets callers skip building
    /// expensive trace payloads when nobody is listening.
    pub fn obs_on(&self) -> bool {
        self.obs.is_some()
    }

    /// Records a [`ObsEvent::Point`] trace event stamped at this handler's
    /// service-start instant. A no-op without an attached sink; never
    /// consumes CPU time or randomness, so tracing cannot perturb a run.
    pub fn trace(&mut self, label: &'static str, tx: u64, value: u64) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.record(ObsEvent::Point {
                at: self.now,
                actor: self.self_id,
                label,
                tx,
                value,
            });
        }
    }
}

/// A message payload is boxed at the send site and the same allocation
/// rides through the event heap and the actor's pending queue until the
/// actor consumes it: queue shuffles move a few words instead of the
/// payload (~200 bytes for a realistic `Msg` enum), and timer/start jobs
/// allocate nothing at all.
enum Job<M> {
    Start,
    Message { from: ProcessId, msg: Box<M> },
    Timer { id: u64, tag: u64 },
    Restart,
}

enum EventKind<M> {
    Arrival(ProcessId, Job<M>),
    Dispatch(ProcessId),
    /// A scheduled fail-stop crash ([`Simulation::schedule_crash`]).
    Crash(ProcessId),
    /// A scheduled recovery ([`Simulation::schedule_restart`]).
    Restart(ProcessId),
}

/// Trace label of the kernel [`ObsEvent::Point`] emitted when a scheduled
/// crash takes effect (`value` = number of pending jobs discarded).
pub const KERNEL_CRASH: &str = "kernel.crash";
/// Trace label of the kernel [`ObsEvent::Point`] emitted when a scheduled
/// restart brings an actor back (`value` = 0).
pub const KERNEL_RESTART: &str = "kernel.restart";

/// Priority-queue entry. The ordering key `(time, seq)` lives inline so
/// heap comparisons never chase a pointer; the event body is small (the
/// arrival message is boxed), so sifts move a few words. The ordering
/// itself is untouched, so schedules are bit-identical.
struct QueuedEvent<M> {
    time: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

struct ActorSlot<A: Actor> {
    actor: A,
    /// Free instants of each core (empty when `Cores::Unlimited`).
    core_free: Vec<SimTime>,
    unlimited: bool,
    pending: VecDeque<(u64, Job<A::Msg>)>,
    /// Earliest Dispatch event already scheduled, to avoid duplicates.
    dispatch_at: Option<SimTime>,
    crashed: bool,
    next_timer: u64,
    canceled_timers: BTreeSet<u64>,
    /// Timer ids set but not yet arrived. Gates cancel-marker insertion:
    /// canceling a timer that already fired (or was dropped by a crash)
    /// must not strand a marker in `canceled_timers` forever.
    outstanding_timers: BTreeSet<u64>,
}

/// Aggregate statistics about a finished (or in-flight) simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Handler invocations executed.
    pub events_processed: u64,
    /// Messages delivered into pending queues.
    pub messages_delivered: u64,
    /// Messages dropped because the destination had crashed.
    pub messages_dropped: u64,
}

/// The discrete-event simulation: a set of actors, an event queue, a clock.
pub struct Simulation<A: Actor, L: LatencyModel> {
    time: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<QueuedEvent<A::Msg>>>,
    actors: Vec<ActorSlot<A>>,
    latency: L,
    rng: SmallRng,
    halted: bool,
    started: bool,
    stats: SimStats,
    scratch: Vec<Output<A::Msg>>,
    obs: Option<Box<dyn ObsSink>>,
    /// Sampled from [`ObsSink::wants_causal`] at attach time: when set, the
    /// kernel additionally emits `Deliver`/`HandleStart`/`HandleEnd` events.
    obs_causal: bool,
    sched: Option<Box<dyn Scheduler>>,
    /// Scratch for the scheduler hook's co-enabled window (events + their
    /// payload-free summaries), reused across choice points.
    cand_events: Vec<QueuedEvent<A::Msg>>,
    cand_meta: Vec<Candidate>,
}

impl<A: Actor, L: LatencyModel> Simulation<A, L> {
    /// Creates an empty simulation with the given network model and RNG seed.
    pub fn new(latency: L, seed: u64) -> Self {
        Simulation {
            time: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            actors: Vec::new(),
            latency,
            rng: SmallRng::seed_from_u64(seed),
            halted: false,
            started: false,
            stats: SimStats::default(),
            scratch: Vec::new(),
            obs: None,
            obs_causal: false,
            sched: None,
            cand_events: Vec::new(),
            cand_meta: Vec::new(),
        }
    }

    /// Attaches an observability sink receiving [`ObsEvent`]s: every
    /// [`Context::trace`] point plus one [`ObsEvent::Send`] per message
    /// departure — and, if the sink opts in via [`ObsSink::wants_causal`],
    /// the per-message `Deliver` and per-handler `HandleStart`/`HandleEnd`
    /// causal events. Recording draws no time and no randomness, so a
    /// traced run is bit-identical to an untraced one either way.
    pub fn attach_obs(&mut self, sink: Box<dyn ObsSink>) {
        self.obs_causal = sink.wants_causal();
        self.obs = Some(sink);
    }

    /// Detaches and returns the observability sink, if any.
    pub fn detach_obs(&mut self) -> Option<Box<dyn ObsSink>> {
        self.obs_causal = false;
        self.obs.take()
    }

    /// Attaches a [`Scheduler`] that reorders co-enabled arrivals. Without
    /// one, the dispatch loop runs the historical strict `(time, seq)` path
    /// untouched.
    pub fn attach_scheduler(&mut self, sched: Box<dyn Scheduler>) {
        self.sched = Some(sched);
    }

    /// Detaches and returns the scheduler, if any.
    pub fn detach_scheduler(&mut self) -> Option<Box<dyn Scheduler>> {
        self.sched.take()
    }

    /// Adds an actor with the given CPU model; returns its process id.
    ///
    /// # Panics
    ///
    /// Panics if called after the simulation has started, with
    /// `Cores::Fixed(0)`, or if the actor table would overflow the `u32`
    /// [`ProcessId`] space. The last case is a checked registration, not a
    /// silent wrap: past `u32::MAX` actors the old `len() as u32` cast
    /// would have aliased process ids and misrouted every message. Scale
    /// beyond that belongs to aggregated actors (e.g. client pools), not
    /// to more process ids.
    pub fn spawn(&mut self, actor: A, cores: Cores) -> ProcessId {
        assert!(!self.started, "cannot spawn after the simulation started");
        let (core_free, unlimited) = match cores {
            Cores::Fixed(n) => {
                assert!(n > 0, "an actor needs at least one core");
                (vec![SimTime::ZERO; n as usize], false)
            }
            Cores::Unlimited => (Vec::new(), true),
        };
        let id = ProcessId(u32::try_from(self.actors.len()).unwrap_or_else(|_| {
            panic!(
                "actor table overflows the u32 ProcessId space ({} actors); \
                 aggregate entities into pooled actors instead of spawning more",
                self.actors.len()
            )
        }));
        self.actors.push(ActorSlot {
            actor,
            core_free,
            unlimited,
            pending: VecDeque::new(),
            dispatch_at: None,
            crashed: false,
            next_timer: 0,
            canceled_timers: BTreeSet::new(),
            outstanding_timers: BTreeSet::new(),
        });
        id
    }

    /// Number of actors in the world.
    pub fn len(&self) -> usize {
        self.actors.len()
    }

    /// True if no actors have been spawned.
    pub fn is_empty(&self) -> bool {
        self.actors.is_empty()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Run statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The network model in use (e.g. for partition injection handles).
    pub fn latency_model(&self) -> &L {
        &self.latency
    }

    /// Immutable access to an actor, e.g. to read results after a run.
    pub fn actor(&self, id: ProcessId) -> &A {
        &self.actors[id.index()].actor
    }

    /// Mutable access to an actor between runs.
    pub fn actor_mut(&mut self, id: ProcessId) -> &mut A {
        &mut self.actors[id.index()].actor
    }

    /// Iterates over all actors with their ids.
    pub fn actors(&self) -> impl Iterator<Item = (ProcessId, &A)> {
        self.actors
            .iter()
            .enumerate()
            // In-range by construction: spawn() checked the table size
            // against the u32 ProcessId space at registration.
            .map(|(i, s)| (ProcessId(i as u32), &s.actor))
    }

    /// Marks `id` crashed: its pending jobs are discarded and subsequent
    /// message and timer arrivals are dropped until [`Simulation::restart`].
    ///
    /// Timer bookkeeping survives the crash intact: cancel markers for
    /// in-flight timers stay armed (a canceled timer must not fire after a
    /// restart), and every marker is retired when its timer arrives even
    /// while crashed, so no stale state accumulates across crash/restart
    /// cycles.
    pub fn crash(&mut self, id: ProcessId) {
        let slot = &mut self.actors[id.index()];
        slot.crashed = true;
        slot.pending.clear();
    }

    /// Brings a crashed actor back online; its in-memory actor state is
    /// retained, modeling recovery from a durable log.
    pub fn restart(&mut self, id: ProcessId) {
        self.actors[id.index()].crashed = false;
    }

    /// True if `id` is currently crashed.
    pub fn is_crashed(&self, id: ProcessId) -> bool {
        self.actors[id.index()].crashed
    }

    /// Schedules a fail-stop crash of `id` at virtual instant `at`.
    ///
    /// Unlike the immediate [`Simulation::crash`], the crash takes effect
    /// *inside* the run, ordered against message deliveries by the usual
    /// `(time, seq)` rule: everything scheduled before the crash event is
    /// still delivered (or dropped if it arrives after), everything after
    /// is dropped until a restart. The crash models a full process loss —
    /// the pending mailbox is discarded and every armed timer is retired,
    /// so a restarted actor starts from a clean kernel slate.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_crash(&mut self, id: ProcessId, at: SimTime) {
        assert!(at >= self.time, "cannot schedule a crash in the past");
        self.push(at, EventKind::Crash(id));
    }

    /// Schedules a restart of `id` at virtual instant `at`: the actor comes
    /// back with a fresh mailbox and no armed timers, and its
    /// [`Actor::on_restart`] hook runs through the normal dispatch path
    /// (charging CPU time, sending messages, arming timers). The kernel
    /// emits a [`KERNEL_RESTART`] trace point; durable state is whatever
    /// the actor itself preserved.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_restart(&mut self, id: ProcessId, at: SimTime) {
        assert!(at >= self.time, "cannot schedule a restart in the past");
        self.push(at, EventKind::Restart(id));
    }

    /// A scheduled crash taking effect: fail-stop with total loss of the
    /// kernel-side volatile state (mailbox and timers).
    fn fault_crash(&mut self, id: ProcessId) {
        let slot = &mut self.actors[id.index()];
        let discarded = slot.pending.len() as u64;
        slot.crashed = true;
        slot.pending.clear();
        // Retire every in-flight timer: a process that lost its memory must
        // not observe timers armed by its previous incarnation. The arrival
        // events still drain through `canceled_timers` without firing.
        let armed: Vec<u64> = slot.outstanding_timers.iter().copied().collect();
        slot.canceled_timers.extend(armed);
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.record(ObsEvent::Point {
                at: self.time,
                actor: id,
                label: KERNEL_CRASH,
                tx: 0,
                value: discarded,
            });
        }
    }

    /// A scheduled restart taking effect: clear the crashed flag and queue
    /// the [`Actor::on_restart`] job through the normal dispatch path.
    fn fault_restart(&mut self, id: ProcessId) {
        let slot = &mut self.actors[id.index()];
        if !slot.crashed {
            return; // restarting a live actor is a no-op
        }
        slot.crashed = false;
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.record(ObsEvent::Point {
                at: self.time,
                actor: id,
                label: KERNEL_RESTART,
                tx: 0,
                value: 0,
            });
        }
        self.push(self.time, EventKind::Arrival(id, Job::Restart));
    }

    /// Injects a message from the environment, arriving at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject(&mut self, from: ProcessId, to: ProcessId, msg: A::Msg, at: SimTime) {
        assert!(at >= self.time, "cannot inject into the past");
        self.push(
            at,
            EventKind::Arrival(
                to,
                Job::Message {
                    from,
                    msg: Box::new(msg),
                },
            ),
        );
    }

    fn push(&mut self, time: SimTime, kind: EventKind<A::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent { time, seq, kind }));
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.actors.len() {
            // In-range by construction: spawn() checked the table size.
            self.push(
                SimTime::ZERO,
                EventKind::Arrival(ProcessId(i as u32), Job::Start),
            );
        }
    }

    /// Runs until the event queue drains, the horizon `until` is reached, or
    /// an actor halts the simulation. Returns the final virtual time.
    ///
    /// The clock always ends at `until` whether the horizon was hit or the
    /// queue drained early, so final virtual times compare consistently
    /// across runs. The exceptions keep the clock at the last event time:
    /// [`Simulation::run_until_idle`] (there is no meaningful horizon) and
    /// a [`Context::halt`] (the stop is deliberate and mid-run).
    pub fn run_until(&mut self, until: SimTime) -> SimTime {
        self.ensure_started();
        while !self.halted {
            let Some(Reverse(ev)) = self.queue.peek() else {
                // Queue drained before the horizon: advance to it anyway,
                // mirroring the horizon-hit path below.
                if until != SimTime::MAX && until > self.time {
                    self.time = until;
                }
                break;
            };
            if ev.time > until {
                self.time = until;
                return self.time;
            }
            if self.sched.is_some() && matches!(ev.kind, EventKind::Arrival(..)) {
                self.step_scheduled(until);
                continue;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            debug_assert!(ev.time >= self.time, "time went backwards");
            self.time = ev.time;
            match ev.kind {
                EventKind::Arrival(to, job) => self.arrive(to, ev.seq, job),
                EventKind::Dispatch(to) => {
                    self.actors[to.index()].dispatch_at = None;
                    self.try_dispatch(to);
                }
                EventKind::Crash(who) => self.fault_crash(who),
                EventKind::Restart(who) => self.fault_restart(who),
            }
        }
        self.time
    }

    /// One step of the dispatch loop with a [`Scheduler`] attached and an
    /// arrival at the head of the queue: collect the co-enabled window, let
    /// the scheduler pick, run the pick at its own instant, and re-queue
    /// the passed-over candidates bumped up to that instant (bounded-jitter
    /// semantics — virtual time stays monotone).
    ///
    /// The window contains only [`EventKind::Arrival`] events: it closes at
    /// the first dispatch or fault event in `(time, seq)` order, so core
    /// bookkeeping and injected faults are never reordered, and at the
    /// window bound `min(head + window, until)`, so the horizon contract of
    /// [`Simulation::run_until`] is preserved.
    fn step_scheduled(&mut self, until: SimTime) {
        let window = self.sched.as_ref().expect("scheduler attached").window();
        let head = self.queue.peek().expect("caller peeked").0.time;
        let hi = std::cmp::min(head + window, until);
        let mut events = std::mem::take(&mut self.cand_events);
        let mut meta = std::mem::take(&mut self.cand_meta);
        while let Some(Reverse(ev)) = self.queue.peek() {
            if ev.time > hi || !matches!(ev.kind, EventKind::Arrival(..)) {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            let EventKind::Arrival(to, job) = &ev.kind else {
                unreachable!("peek checked Arrival");
            };
            // An arrival that will only retire kernel bookkeeping (a
            // canceled timer draining, or anything addressed to a crashed
            // actor) commutes with every other event; flag it so explorers
            // don't branch on its order.
            let slot = &self.actors[to.index()];
            let inert = slot.crashed
                || matches!(job, Job::Timer { id, .. } if slot.canceled_timers.contains(id));
            meta.push(Candidate {
                time: ev.time,
                seq: ev.seq,
                to: *to,
                kind: match job {
                    Job::Start => CandidateKind::Start,
                    Job::Message { from, .. } => CandidateKind::Message { from: *from },
                    Job::Timer { tag, .. } => CandidateKind::Timer { tag: *tag },
                    Job::Restart => CandidateKind::Restart,
                },
                inert,
            });
            events.push(ev);
        }
        let idx = if events.len() == 1 {
            0
        } else {
            let i = self
                .sched
                .as_mut()
                .expect("scheduler attached")
                .choose(self.time, &meta);
            assert!(i < events.len(), "scheduler chose out of range");
            i
        };
        let chosen = events.swap_remove(idx);
        debug_assert!(chosen.time >= self.time, "time went backwards");
        self.time = chosen.time;
        for mut ev in events.drain(..) {
            // Passed-over arrivals keep their seq (so a re-collected window
            // is offered in a stable order) but may not stay in the past.
            if ev.time < self.time {
                ev.time = self.time;
            }
            self.queue.push(Reverse(ev));
        }
        meta.clear();
        self.cand_events = events;
        self.cand_meta = meta;
        match chosen.kind {
            EventKind::Arrival(to, job) => self.arrive(to, chosen.seq, job),
            _ => unreachable!("window admits only arrivals"),
        }
    }

    /// Runs until the event queue is empty or an actor halts the simulation.
    pub fn run_until_idle(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    fn arrive(&mut self, to: ProcessId, seq: u64, job: Job<A::Msg>) {
        let slot = &mut self.actors[to.index()];
        // Timer bookkeeping runs whether or not the actor is crashed: the
        // arrival is the only event that retires a timer id, so skipping
        // it while crashed would strand cancel markers forever.
        if let Job::Timer { id, .. } = &job {
            slot.outstanding_timers.remove(id);
            if slot.canceled_timers.remove(id) {
                return;
            }
        }
        if slot.crashed {
            if matches!(job, Job::Message { .. }) {
                self.stats.messages_dropped += 1;
            }
            return;
        }
        if matches!(job, Job::Message { .. }) {
            self.stats.messages_delivered += 1;
            // Causal delivery edge: `seq` is the id stamped on the message's
            // Send event, so consumers can pair departure with arrival.
            if self.obs_causal {
                if let Some(obs) = self.obs.as_deref_mut() {
                    obs.record(ObsEvent::Deliver {
                        at: self.time,
                        mid: seq,
                        to,
                    });
                }
            }
        }
        self.actors[to.index()].pending.push_back((seq, job));
        self.try_dispatch(to);
    }

    /// Services as many pending jobs of `to` as have a free core *now*; if
    /// jobs remain, schedules a Dispatch event at the earliest core-free
    /// instant.
    fn try_dispatch(&mut self, to: ProcessId) {
        let now = self.time;
        loop {
            let slot = &mut self.actors[to.index()];
            if slot.pending.is_empty() || slot.crashed {
                return;
            }
            if slot.unlimited {
                let (seq, job) = slot.pending.pop_front().expect("nonempty");
                self.run_job(to, now, seq, job, None);
                continue;
            }
            let (core_idx, free) = slot
                .core_free
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| **t)
                .map(|(i, t)| (i, *t))
                .expect("Fixed cores is nonempty");
            if free > now {
                match slot.dispatch_at {
                    Some(at) if at <= free => {}
                    _ => {
                        slot.dispatch_at = Some(free);
                        self.push(free, EventKind::Dispatch(to));
                    }
                }
                return;
            }
            let (seq, job) = slot.pending.pop_front().expect("nonempty");
            self.run_job(to, now, seq, job, Some(core_idx));
        }
    }

    fn run_job(
        &mut self,
        id: ProcessId,
        start: SimTime,
        seq: u64,
        job: Job<A::Msg>,
        core: Option<usize>,
    ) {
        self.stats.events_processed += 1;
        if self.obs_causal {
            let trig = match &job {
                Job::Start => trigger::START,
                Job::Message { .. } => trigger::MSG,
                Job::Timer { .. } => trigger::TIMER,
                Job::Restart => trigger::RESTART,
            };
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.record(ObsEvent::HandleStart {
                    at: start,
                    actor: id,
                    mid: seq,
                    trigger: trig,
                });
            }
        }
        let mut outputs = std::mem::take(&mut self.scratch);
        let consumed;
        {
            let slot = &mut self.actors[id.index()];
            let mut ctx = Context {
                now: start,
                self_id: id,
                consumed: SimDuration::ZERO,
                rng: &mut self.rng,
                outputs: &mut outputs,
                next_timer: &mut slot.next_timer,
                halted: &mut self.halted,
                obs: self.obs.as_deref_mut(),
            };
            match job {
                Job::Start => slot.actor.on_start(&mut ctx),
                Job::Message { from, msg } => slot.actor.on_message(&mut ctx, from, *msg),
                Job::Timer { tag, .. } => slot.actor.on_timer(&mut ctx, tag),
                Job::Restart => slot.actor.on_restart(&mut ctx),
            }
            consumed = ctx.consumed;
        }
        let end = start + consumed;
        if let Some(core_idx) = core {
            self.actors[id.index()].core_free[core_idx] = end;
        }
        for out in outputs.drain(..) {
            match out {
                Output::Send { to, msg, extra } => {
                    let bytes = msg.wire_size();
                    let delay = self.latency.delay(id, to, bytes, &mut self.rng);
                    // The arrival pushed below is assigned the current
                    // sequence number: stamping it on the Send gives every
                    // message a monotone id that its Deliver and servicing
                    // HandleStart share.
                    let mid = self.seq;
                    if let Some(obs) = self.obs.as_deref_mut() {
                        obs.record(ObsEvent::Send {
                            at: end + extra,
                            mid,
                            from: id,
                            to,
                            label: msg.wire_label(),
                            bytes: bytes as u64,
                        });
                    }
                    self.push(
                        end + extra + delay,
                        EventKind::Arrival(to, Job::Message { from: id, msg }),
                    );
                }
                Output::Timer {
                    id: tid,
                    tag,
                    after,
                } => {
                    self.actors[id.index()].outstanding_timers.insert(tid);
                    self.push(
                        end + after,
                        EventKind::Arrival(id, Job::Timer { id: tid, tag }),
                    );
                }
                Output::CancelTimer(tid) => {
                    // Mark only timers still in flight; a cancel that
                    // races the firing (or a crash-time drop) is a no-op
                    // rather than a leaked marker.
                    let slot = &mut self.actors[id.index()];
                    if slot.outstanding_timers.contains(&tid) {
                        slot.canceled_timers.insert(tid);
                    }
                }
            }
        }
        // The bracket closes after the output flush so that every Point and
        // Send of this handler sits between its HandleStart and HandleEnd.
        if self.obs_causal {
            if let Some(obs) = self.obs.as_deref_mut() {
                obs.record(ObsEvent::HandleEnd {
                    at: end,
                    actor: id,
                    mid: seq,
                });
            }
        }
        self.scratch = outputs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::FifoScheduler;

    /// A test actor that records deliveries and echoes pings.
    struct Echo {
        log: Vec<(SimTime, ProcessId, u32)>,
        peer: Option<ProcessId>,
        send_on_start: bool,
        cost: SimDuration,
    }

    impl Echo {
        fn new() -> Self {
            Echo {
                log: Vec::new(),
                peer: None,
                send_on_start: false,
                cost: SimDuration::ZERO,
            }
        }
    }

    #[derive(Debug)]
    struct Ping(u32);
    impl WireSize for Ping {
        fn wire_size(&self) -> usize {
            64
        }
    }

    impl Actor for Echo {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            if self.send_on_start {
                ctx.send(self.peer.expect("peer set"), Ping(0));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, from: ProcessId, msg: Ping) {
            ctx.consume(self.cost);
            self.log.push((ctx.now(), from, msg.0));
            if msg.0 < 3 {
                ctx.send(from, Ping(msg.0 + 1));
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, tag: u64) {
            self.log.push((ctx.now(), ctx.self_id(), tag as u32 + 1000));
        }
    }

    #[test]
    fn ping_pong_with_uniform_latency() {
        let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(10)), 1);
        let a = sim.spawn(Echo::new(), Cores::Fixed(1));
        let b = sim.spawn(Echo::new(), Cores::Fixed(1));
        sim.actor_mut(a).peer = Some(b);
        sim.actor_mut(a).send_on_start = true;
        sim.run_until_idle();
        // b gets 0 at 10ms, a gets 1 at 20ms, b gets 2 at 30ms, a gets 3 at 40ms.
        assert_eq!(
            sim.actor(b).log,
            vec![
                (SimTime::from_nanos(10_000_000), a, 0),
                (SimTime::from_nanos(30_000_000), a, 2)
            ]
        );
        assert_eq!(
            sim.actor(a).log,
            vec![
                (SimTime::from_nanos(20_000_000), b, 1),
                (SimTime::from_nanos(40_000_000), b, 3)
            ]
        );
    }

    #[test]
    fn cpu_queueing_serializes_jobs() {
        // Two messages arrive at t=0; with 1 core and 5ms service each, the
        // second is serviced at t=5ms.
        struct Sink {
            starts: Vec<SimTime>,
        }
        impl Actor for Sink {
            type Msg = Ping;
            fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _: ProcessId, _: Ping) {
                self.starts.push(ctx.now());
                ctx.consume(SimDuration::from_millis(5));
            }
        }
        let mut sim = Simulation::new(ZeroLatency, 1);
        let s = sim.spawn(Sink { starts: vec![] }, Cores::Fixed(1));
        sim.inject(ProcessId(99), s, Ping(1), SimTime::ZERO);
        sim.inject(ProcessId(99), s, Ping(2), SimTime::ZERO);
        sim.run_until_idle();
        assert_eq!(
            sim.actor(s).starts,
            vec![SimTime::ZERO, SimTime::from_nanos(5_000_000)]
        );
    }

    #[test]
    fn multicore_runs_in_parallel() {
        struct Sink {
            starts: Vec<SimTime>,
        }
        impl Actor for Sink {
            type Msg = Ping;
            fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _: ProcessId, _: Ping) {
                self.starts.push(ctx.now());
                ctx.consume(SimDuration::from_millis(5));
            }
        }
        let mut sim = Simulation::new(ZeroLatency, 1);
        let s = sim.spawn(Sink { starts: vec![] }, Cores::Fixed(2));
        for _ in 0..3 {
            sim.inject(ProcessId(99), s, Ping(9), SimTime::ZERO);
        }
        sim.run_until_idle();
        assert_eq!(
            sim.actor(s).starts,
            vec![SimTime::ZERO, SimTime::ZERO, SimTime::from_nanos(5_000_000)]
        );
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct T {
            fired: Vec<u64>,
            cancel_second: bool,
        }
        impl Actor for T {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                ctx.set_timer(SimDuration::from_millis(1), 7);
                let id = ctx.set_timer(SimDuration::from_millis(2), 8);
                if self.cancel_second {
                    ctx.cancel_timer(id);
                }
            }
            fn on_message(&mut self, _: &mut Context<'_, Ping>, _: ProcessId, _: Ping) {}
            fn on_timer(&mut self, _: &mut Context<'_, Ping>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulation::new(ZeroLatency, 1);
        let t = sim.spawn(
            T {
                fired: vec![],
                cancel_second: true,
            },
            Cores::Fixed(1),
        );
        sim.run_until_idle();
        assert_eq!(sim.actor(t).fired, vec![7]);

        let mut sim = Simulation::new(ZeroLatency, 1);
        let t = sim.spawn(
            T {
                fired: vec![],
                cancel_second: false,
            },
            Cores::Fixed(1),
        );
        sim.run_until_idle();
        assert_eq!(sim.actor(t).fired, vec![7, 8]);
    }

    #[test]
    fn crash_drops_messages_and_restart_resumes() {
        let mut sim = Simulation::new(ZeroLatency, 1);
        let a = sim.spawn(Echo::new(), Cores::Fixed(1));
        sim.crash(a);
        sim.inject(ProcessId(99), a, Ping(9), SimTime::ZERO);
        sim.run_until(SimTime::from_nanos(1));
        assert!(sim.actor(a).log.is_empty());
        assert_eq!(sim.stats().messages_dropped, 1);
        sim.restart(a);
        sim.inject(ProcessId(99), a, Ping(9), SimTime::from_nanos(2));
        sim.run_until_idle();
        assert_eq!(sim.actor(a).log.len(), 1);
    }

    #[test]
    fn deterministic_under_same_seed() {
        fn run(seed: u64) -> Vec<(SimTime, ProcessId, u32)> {
            let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(3)), seed);
            let a = sim.spawn(Echo::new(), Cores::Fixed(1));
            let b = sim.spawn(Echo::new(), Cores::Fixed(1));
            sim.actor_mut(a).peer = Some(b);
            sim.actor_mut(a).send_on_start = true;
            sim.run_until_idle();
            sim.actor(a).log.clone()
        }
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn obs_records_points_and_departures() {
        use std::sync::{Arc, Mutex};

        struct Traced {
            peer: Option<ProcessId>,
        }
        impl Actor for Traced {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                if let Some(p) = self.peer {
                    ctx.trace("start", 7, 1);
                    ctx.consume(SimDuration::from_millis(5));
                    ctx.send(p, Ping(0));
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _: ProcessId, _: Ping) {
                ctx.trace("got", 7, 2);
            }
        }

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<ObsEvent>>>);
        impl ObsSink for Shared {
            fn record(&mut self, ev: ObsEvent) {
                self.0.lock().expect("sink lock").push(ev);
            }
        }

        let events = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(10)), 1);
        let a = sim.spawn(Traced { peer: None }, Cores::Fixed(1));
        let b = sim.spawn(Traced { peer: Some(a) }, Cores::Fixed(1));
        sim.attach_obs(Box::new(events.clone()));
        sim.run_until_idle();
        let log = events.0.lock().expect("sink lock").clone();
        assert_eq!(
            log,
            vec![
                // Point stamped at the handler's service start...
                ObsEvent::Point {
                    at: SimTime::ZERO,
                    actor: b,
                    label: "start",
                    tx: 7,
                    value: 1,
                },
                // ...departure at service end (start + 5ms consumed); the
                // mid is the seq of the arrival it schedules (start
                // arrivals took 0 and 1)...
                ObsEvent::Send {
                    at: SimTime::from_nanos(5_000_000),
                    mid: 2,
                    from: b,
                    to: a,
                    label: "msg",
                    bytes: 64,
                },
                // ...and delivery-side point at departure + network delay.
                ObsEvent::Point {
                    at: SimTime::from_nanos(15_000_000),
                    actor: a,
                    label: "got",
                    tx: 7,
                    value: 2,
                },
            ]
        );
    }

    /// A test sink that opts into the kernel causal events.
    #[derive(Clone)]
    struct CausalShared(std::sync::Arc<std::sync::Mutex<Vec<ObsEvent>>>);
    impl ObsSink for CausalShared {
        fn record(&mut self, ev: ObsEvent) {
            self.0.lock().expect("sink lock").push(ev);
        }
        fn wants_causal(&self) -> bool {
            true
        }
    }

    #[test]
    fn causal_sink_records_delivery_and_service_brackets() {
        struct Traced {
            peer: Option<ProcessId>,
        }
        impl Actor for Traced {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                if let Some(p) = self.peer {
                    ctx.trace("start", 7, 1);
                    ctx.consume(SimDuration::from_millis(5));
                    ctx.send(p, Ping(0));
                }
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _: ProcessId, _: Ping) {
                ctx.trace("got", 7, 2);
            }
        }

        let events = CausalShared(Default::default());
        let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(10)), 1);
        let a = sim.spawn(Traced { peer: None }, Cores::Fixed(1));
        let b = sim.spawn(Traced { peer: Some(a) }, Cores::Fixed(1));
        sim.attach_obs(Box::new(events.clone()));
        sim.run_until_idle();
        let log = events.0.lock().expect("sink lock").clone();
        let t0 = SimTime::ZERO;
        let t5 = SimTime::from_nanos(5_000_000);
        let t15 = SimTime::from_nanos(15_000_000);
        assert_eq!(
            log,
            vec![
                // a's start handler (arrival seq 0): an empty bracket.
                ObsEvent::HandleStart {
                    at: t0,
                    actor: a,
                    mid: 0,
                    trigger: trigger::START,
                },
                ObsEvent::HandleEnd {
                    at: t0,
                    actor: a,
                    mid: 0,
                },
                // b's start handler (arrival seq 1): point at service
                // start, send at service end, all inside the bracket.
                ObsEvent::HandleStart {
                    at: t0,
                    actor: b,
                    mid: 1,
                    trigger: trigger::START,
                },
                ObsEvent::Point {
                    at: t0,
                    actor: b,
                    label: "start",
                    tx: 7,
                    value: 1,
                },
                ObsEvent::Send {
                    at: t5,
                    mid: 2,
                    from: b,
                    to: a,
                    label: "msg",
                    bytes: 64,
                },
                ObsEvent::HandleEnd {
                    at: t5,
                    actor: b,
                    mid: 1,
                },
                // Delivery and the servicing handler share the send's mid.
                ObsEvent::Deliver {
                    at: t15,
                    mid: 2,
                    to: a,
                },
                ObsEvent::HandleStart {
                    at: t15,
                    actor: a,
                    mid: 2,
                    trigger: trigger::MSG,
                },
                ObsEvent::Point {
                    at: t15,
                    actor: a,
                    label: "got",
                    tx: 7,
                    value: 2,
                },
                ObsEvent::HandleEnd {
                    at: t15,
                    actor: a,
                    mid: 2,
                },
            ]
        );
    }

    #[test]
    fn attaching_obs_does_not_perturb_the_run() {
        // 0 = untraced, 1 = plain sink, 2 = causal sink: all identical.
        fn run(mode: u8) -> Vec<(SimTime, ProcessId, u32)> {
            let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(3)), 7);
            let a = sim.spawn(Echo::new(), Cores::Fixed(1));
            let b = sim.spawn(Echo::new(), Cores::Fixed(1));
            sim.actor_mut(a).peer = Some(b);
            sim.actor_mut(a).send_on_start = true;
            match mode {
                0 => {}
                1 => sim.attach_obs(Box::new(Vec::new())),
                _ => sim.attach_obs(Box::new(CausalShared(Default::default()))),
            }
            sim.run_until_idle();
            sim.actor(a).log.clone()
        }
        assert_eq!(run(0), run(1));
        assert_eq!(run(0), run(2));
    }

    #[test]
    fn dropped_messages_get_no_deliver_event() {
        let events = CausalShared(Default::default());
        let mut sim = Simulation::new(ZeroLatency, 1);
        let a = sim.spawn(Echo::new(), Cores::Fixed(1));
        sim.attach_obs(Box::new(events.clone()));
        sim.crash(a);
        sim.inject(ProcessId(99), a, Ping(9), SimTime::ZERO);
        sim.run_until_idle();
        assert_eq!(sim.stats().messages_dropped, 1);
        let log = events.0.lock().expect("sink lock").clone();
        assert!(
            !log.iter()
                .any(|ev| matches!(ev, ObsEvent::Deliver { .. } | ObsEvent::HandleStart { .. })),
            "a message dropped at a crashed actor must not be delivered or serviced"
        );
    }

    #[test]
    fn crash_cancel_restart_retires_markers() {
        // An actor arms two timers and cancels the first; it then crashes
        // before either arrives. Both arrivals happen while crashed: the
        // canceled one must still retire its marker (the old code returned
        // on `crashed` before the cancel check, stranding the marker
        // forever), and after a restart the actor works normally.
        struct T {
            fired: Vec<u64>,
        }
        impl Actor for T {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                let first = ctx.set_timer(SimDuration::from_millis(1), 7);
                ctx.cancel_timer(first);
                ctx.set_timer(SimDuration::from_millis(2), 8);
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _: ProcessId, _: Ping) {
                ctx.set_timer(SimDuration::from_millis(1), 9);
            }
            fn on_timer(&mut self, _: &mut Context<'_, Ping>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulation::new(ZeroLatency, 1);
        let t = sim.spawn(T { fired: vec![] }, Cores::Fixed(1));
        sim.run_until(SimTime::from_nanos(500_000));
        sim.crash(t);
        sim.run_until(SimTime::from_nanos(2_500_000));
        // Both timers arrived while crashed: neither fired, and no cancel
        // marker (or outstanding-timer entry) is left behind.
        assert!(sim.actor(t).fired.is_empty());
        assert!(
            sim.actors[t.index()].canceled_timers.is_empty(),
            "cancel marker stranded across the crash"
        );
        assert!(sim.actors[t.index()].outstanding_timers.is_empty());
        // Restart and drive one more timer through: normal service resumes.
        sim.restart(t);
        sim.inject(ProcessId(99), t, Ping(0), SimTime::from_nanos(3_000_000));
        sim.run_until_idle();
        assert_eq!(sim.actor(t).fired, vec![9]);
        assert!(sim.actors[t.index()].canceled_timers.is_empty());
        assert!(sim.actors[t.index()].outstanding_timers.is_empty());
    }

    #[test]
    fn cancel_after_fire_leaves_no_marker() {
        // Canceling a timer that already fired must be a no-op, not a
        // forever-stranded marker in `canceled_timers`.
        struct T {
            timer: Option<u64>,
            fired: Vec<u64>,
        }
        impl Actor for T {
            type Msg = Ping;
            fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
                self.timer = Some(ctx.set_timer(SimDuration::from_millis(1), 7));
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _: ProcessId, _: Ping) {
                ctx.cancel_timer(self.timer.take().expect("timer armed"));
            }
            fn on_timer(&mut self, _: &mut Context<'_, Ping>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulation::new(ZeroLatency, 1);
        let t = sim.spawn(
            T {
                timer: None,
                fired: vec![],
            },
            Cores::Fixed(1),
        );
        // The timer fires at 1ms; the cancel arrives at 2ms — too late.
        sim.inject(ProcessId(99), t, Ping(0), SimTime::from_nanos(2_000_000));
        sim.run_until_idle();
        assert_eq!(sim.actor(t).fired, vec![7]);
        assert!(
            sim.actors[t.index()].canceled_timers.is_empty(),
            "cancel-after-fire stranded a marker"
        );
    }

    #[test]
    fn run_until_advances_clock_when_queue_drains() {
        // The ping-pong finishes at 40ms; a 100ms horizon must still leave
        // the clock at 100ms, matching the horizon-hit path.
        let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(10)), 1);
        let a = sim.spawn(Echo::new(), Cores::Fixed(1));
        let b = sim.spawn(Echo::new(), Cores::Fixed(1));
        sim.actor_mut(a).peer = Some(b);
        sim.actor_mut(a).send_on_start = true;
        let t = sim.run_until(SimTime::from_nanos(100_000_000));
        assert_eq!(t, SimTime::from_nanos(100_000_000));
        assert_eq!(sim.now(), SimTime::from_nanos(100_000_000));
        // A later, earlier-than-now horizon never moves the clock backwards.
        assert_eq!(
            sim.run_until(SimTime::from_nanos(50_000_000)),
            SimTime::from_nanos(100_000_000)
        );
        // run_until_idle keeps the last-event clock (no horizon to advance
        // to): a fresh drained run ends at the final event time.
        let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(10)), 1);
        let a = sim.spawn(Echo::new(), Cores::Fixed(1));
        let b = sim.spawn(Echo::new(), Cores::Fixed(1));
        sim.actor_mut(a).peer = Some(b);
        sim.actor_mut(a).send_on_start = true;
        assert_eq!(sim.run_until_idle(), SimTime::from_nanos(40_000_000));
    }

    /// Actor for the scheduled-fault tests: arms a periodic timer, records
    /// deliveries, and notes every restart it lives through.
    struct Phoenix {
        delivered: Vec<u32>,
        restarts: Vec<SimTime>,
        timers: Vec<SimTime>,
    }
    impl Phoenix {
        fn new() -> Self {
            Phoenix {
                delivered: vec![],
                restarts: vec![],
                timers: vec![],
            }
        }
    }
    impl Actor for Phoenix {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
        }
        fn on_message(&mut self, _: &mut Context<'_, Ping>, _: ProcessId, msg: Ping) {
            self.delivered.push(msg.0);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, _: u64) {
            self.timers.push(ctx.now());
        }
        fn on_restart(&mut self, ctx: &mut Context<'_, Ping>) {
            self.restarts.push(ctx.now());
            ctx.set_timer(SimDuration::from_millis(10), 2);
        }
    }

    #[test]
    fn scheduled_crash_and_restart_run_the_recovery_hook() {
        let mut sim = Simulation::new(ZeroLatency, 1);
        let p = sim.spawn(Phoenix::new(), Cores::Fixed(1));
        // Alive at 1ms, crashed during [5ms, 20ms), restarted at 20ms.
        sim.inject(ProcessId(99), p, Ping(1), SimTime::from_nanos(1_000_000));
        sim.schedule_crash(p, SimTime::from_nanos(5_000_000));
        sim.inject(ProcessId(99), p, Ping(2), SimTime::from_nanos(6_000_000));
        sim.schedule_restart(p, SimTime::from_nanos(20_000_000));
        sim.inject(ProcessId(99), p, Ping(3), SimTime::from_nanos(25_000_000));
        sim.run_until_idle();
        let a = sim.actor(p);
        assert_eq!(a.delivered, vec![1, 3], "mid-crash delivery dropped");
        assert_eq!(a.restarts, vec![SimTime::from_nanos(20_000_000)]);
        // The start-time timer (due at 10ms) was retired by the crash; only
        // the timer re-armed by on_restart fires, at 30ms.
        assert_eq!(a.timers, vec![SimTime::from_nanos(30_000_000)]);
        assert_eq!(sim.stats().messages_dropped, 1);
        assert!(sim.actors[p.index()].canceled_timers.is_empty());
        assert!(sim.actors[p.index()].outstanding_timers.is_empty());
    }

    #[test]
    fn scheduled_faults_emit_trace_points_without_perturbing() {
        fn run(traced: bool) -> (Vec<u32>, Vec<ObsEvent>) {
            use std::sync::{Arc, Mutex};
            #[derive(Clone)]
            struct Shared(Arc<Mutex<Vec<ObsEvent>>>);
            impl ObsSink for Shared {
                fn record(&mut self, ev: ObsEvent) {
                    self.0.lock().expect("sink lock").push(ev);
                }
            }
            let events = Shared(Arc::new(Mutex::new(Vec::new())));
            let mut sim = Simulation::new(ZeroLatency, 7);
            let p = sim.spawn(Phoenix::new(), Cores::Fixed(1));
            if traced {
                sim.attach_obs(Box::new(events.clone()));
            }
            sim.inject(ProcessId(99), p, Ping(8), SimTime::from_nanos(2_000_000));
            sim.schedule_crash(p, SimTime::from_nanos(1_000_000));
            sim.schedule_restart(p, SimTime::from_nanos(3_000_000));
            sim.run_until_idle();
            let log = events.0.lock().expect("sink lock").clone();
            (sim.actor(p).delivered.clone(), log)
        }
        let (plain, _) = run(false);
        let (traced, log) = run(true);
        assert_eq!(plain, traced, "tracing perturbed the schedule");
        let labels: Vec<&str> = log
            .iter()
            .filter_map(|ev| match ev {
                ObsEvent::Point { label, .. } => Some(*label),
                _ => None,
            })
            .collect();
        assert!(labels.contains(&KERNEL_CRASH));
        assert!(labels.contains(&KERNEL_RESTART));
    }

    #[test]
    fn scheduled_restart_of_a_live_actor_is_a_no_op() {
        let mut sim = Simulation::new(ZeroLatency, 1);
        let p = sim.spawn(Phoenix::new(), Cores::Fixed(1));
        sim.schedule_restart(p, SimTime::from_nanos(1_000_000));
        sim.run_until_idle();
        assert!(sim.actor(p).restarts.is_empty());
        // The regular start-time timer still fires: nothing was disturbed.
        assert_eq!(sim.actor(p).timers, vec![SimTime::from_nanos(10_000_000)]);
    }

    #[test]
    fn double_scheduled_crash_is_idempotent() {
        let mut sim = Simulation::new(ZeroLatency, 1);
        let p = sim.spawn(Phoenix::new(), Cores::Fixed(1));
        sim.schedule_crash(p, SimTime::from_nanos(1_000_000));
        sim.schedule_crash(p, SimTime::from_nanos(2_000_000));
        sim.schedule_restart(p, SimTime::from_nanos(3_000_000));
        sim.run_until_idle();
        assert_eq!(sim.actor(p).restarts.len(), 1);
        assert!(!sim.is_crashed(p));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(10)), 1);
        let a = sim.spawn(Echo::new(), Cores::Fixed(1));
        let b = sim.spawn(Echo::new(), Cores::Fixed(1));
        sim.actor_mut(a).peer = Some(b);
        sim.actor_mut(a).send_on_start = true;
        let t = sim.run_until(SimTime::from_nanos(15_000_000));
        assert_eq!(t, SimTime::from_nanos(15_000_000));
        // Only the first delivery (at 10ms) has happened.
        assert_eq!(sim.actor(b).log.len(), 1);
        assert_eq!(sim.actor(a).log.len(), 0);
        sim.run_until_idle();
        assert_eq!(sim.actor(a).log.len(), 2);
    }

    /// Pins the tie-break the model checker's co-enabled sets depend on:
    /// events at the same virtual instant run in the order of the sequence
    /// numbers assigned at *scheduling* time, globally across actors. Two
    /// injections to one actor are serviced in injection order; an
    /// interleaved injection to another actor neither reorders them nor is
    /// reordered by them.
    #[test]
    fn equal_instant_arrivals_run_in_scheduling_order() {
        let mut sim = Simulation::new(ZeroLatency, 1);
        let a = sim.spawn(Echo::new(), Cores::Fixed(1));
        let b = sim.spawn(Echo::new(), Cores::Fixed(1));
        let env = ProcessId(99);
        let at = SimTime::from_nanos(1_000);
        sim.inject(env, a, Ping(7), at);
        sim.inject(env, b, Ping(8), at);
        sim.inject(env, a, Ping(9), at);
        sim.run_until_idle();
        assert_eq!(sim.actor(a).log, vec![(at, env, 7), (at, env, 9)]);
        assert_eq!(sim.actor(b).log, vec![(at, env, 8)]);
    }

    /// Attaching the identity scheduler must be perturbation-free: same
    /// logs, same clock, same stats as the default no-scheduler path.
    #[test]
    fn fifo_scheduler_is_identity() {
        fn run(attach: bool) -> (Vec<(SimTime, ProcessId, u32)>, SimTime, SimStats) {
            let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(10)), 42);
            let a = sim.spawn(Echo::new(), Cores::Fixed(1));
            let b = sim.spawn(Echo::new(), Cores::Fixed(1));
            sim.actor_mut(a).peer = Some(b);
            sim.actor_mut(a).send_on_start = true;
            sim.actor_mut(b).cost = SimDuration::from_millis(3);
            if attach {
                sim.attach_scheduler(Box::new(FifoScheduler));
            }
            let end = sim.run_until_idle();
            let mut log = sim.actor(a).log.clone();
            log.extend(sim.actor(b).log.iter().copied());
            (log, end, sim.stats())
        }
        assert_eq!(run(false), run(true));
    }

    /// A scheduler picking the *last* candidate of every co-enabled window.
    struct LastScheduler(SimDuration);
    impl Scheduler for LastScheduler {
        fn window(&self) -> SimDuration {
            self.0
        }
        fn choose(&mut self, _: SimTime, candidates: &[Candidate]) -> usize {
            candidates.len() - 1
        }
    }

    #[test]
    fn scheduler_reorders_same_instant_arrivals() {
        let mut sim = Simulation::new(ZeroLatency, 1);
        let a = sim.spawn(Echo::new(), Cores::Fixed(1));
        let env = ProcessId(99);
        sim.inject(env, a, Ping(7), SimTime::ZERO);
        sim.inject(env, a, Ping(8), SimTime::ZERO);
        sim.attach_scheduler(Box::new(LastScheduler(SimDuration::ZERO)));
        sim.run_until_idle();
        // Delivery order inverted relative to injection order.
        assert_eq!(
            sim.actor(a).log,
            vec![(SimTime::ZERO, env, 8), (SimTime::ZERO, env, 7)]
        );
    }

    /// Delay-bounded choice: running a later arrival first bumps the
    /// passed-over earlier arrivals up to the chosen instant, so virtual
    /// time stays monotone and the reorder reads as bounded network jitter.
    #[test]
    fn scheduler_window_bumps_passed_over_arrivals() {
        let mut sim = Simulation::new(ZeroLatency, 1);
        let a = sim.spawn(Echo::new(), Cores::Fixed(1));
        let env = ProcessId(99);
        let later = SimTime::from_nanos(2_000);
        sim.inject(env, a, Ping(7), SimTime::ZERO);
        sim.inject(env, a, Ping(8), later);
        sim.attach_scheduler(Box::new(LastScheduler(SimDuration::from_micros(10))));
        sim.run_until_idle();
        // Ping(8) runs first at its own instant; Ping(7) was bumped to it.
        assert_eq!(sim.actor(a).log, vec![(later, env, 8), (later, env, 7)]);
    }

    /// Stress actor for [`resumed_runs_match`]: pings peers, self-sends at
    /// zero latency, sets and cancels timers, and charges pseudo-random
    /// service time drawn from its own counter.
    struct Worker {
        peers: Vec<ProcessId>,
        salt: u64,
        log: Vec<(SimTime, &'static str, u64)>,
        pending_timer: Option<u64>,
    }

    impl Worker {
        fn next(&mut self) -> u64 {
            self.salt = self
                .salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.salt >> 33
        }
    }

    impl Actor for Worker {
        type Msg = Ping;
        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.send(self.peers[0], Ping(6));
            ctx.trace("test.start", 0, self.salt);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _: ProcessId, msg: Ping) {
            let r = self.next();
            ctx.consume(SimDuration::from_micros(r % 900));
            self.log.push((ctx.now(), "msg", msg.0 as u64));
            ctx.trace("test.msg", msg.0 as u64, r % 7);
            if msg.0 == 0 {
                return;
            }
            if r.is_multiple_of(3) {
                ctx.send(ctx.self_id(), Ping(0));
            }
            if r % 4 == 1 {
                if let Some(id) = self.pending_timer.take() {
                    ctx.cancel_timer(id);
                }
            }
            if r.is_multiple_of(2) {
                let after = SimDuration::from_micros(r % 2500);
                self.pending_timer = Some(ctx.set_timer(after, msg.0 as u64));
            }
            let peer = self.peers[(r as usize) % self.peers.len()];
            ctx.send(peer, Ping(msg.0 - 1));
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Ping>, tag: u64) {
            self.pending_timer = None;
            self.log.push((ctx.now(), "timer", tag));
            ctx.trace("test.timer", tag, 0);
            if tag > 2 {
                let peer = self.peers[(tag as usize) % self.peers.len()];
                ctx.send(peer, Ping(1));
            }
        }
    }

    /// Splitting a run into `run_until` chunks is invisible: the harness
    /// runs warm-up and measurement as separate calls, so logs, stats, the
    /// clock and the full causal event stream must match one call.
    #[test]
    fn resumed_runs_match() {
        fn run(stops_ms: &[u64]) -> String {
            let n = 6u32;
            let mut sim = Simulation::new(UniformLatency(SimDuration::from_millis(10)), 42);
            for i in 0..n {
                let worker = Worker {
                    peers: (0..n).filter(|p| *p != i).map(ProcessId).collect(),
                    salt: 0x9e3779b97f4a7c15 ^ u64::from(i),
                    log: Vec::new(),
                    pending_timer: None,
                };
                let cores = if i % 3 == 0 {
                    Cores::Unlimited
                } else {
                    Cores::Fixed(1 + (i as u16 % 2))
                };
                sim.spawn(worker, cores);
            }
            let tap = CausalShared(Default::default());
            sim.attach_obs(Box::new(tap.clone()));
            for ms in stops_ms {
                sim.run_until(SimTime::from_nanos(ms * 1_000_000));
            }
            let events = tap.0.lock().expect("sink lock");
            assert!(events.len() > 400, "stress run too small to pin anything");
            let mut s = String::new();
            for (pid, a) in sim.actors() {
                s.push_str(&format!("{pid:?}: {:?}\n", a.log));
            }
            s.push_str(&format!("{:?} {:?}\n", sim.stats(), sim.now()));
            for ev in events.iter() {
                s.push_str(&format!("{ev:?}\n"));
            }
            s
        }
        assert_eq!(run(&[7, 10, 11, 20, 40, 90, 400, 500]), run(&[500]));
    }
}
