//! The traced run's causal sink: host-time stamps at the kernel's handler
//! brackets, attributed to layers after the run.
//!
//! The kernel brackets every handler with `HandleStart`/`HandleEnd` and
//! records each departing message as a `Send` while it flushes the
//! handler's outputs (latency model, event-queue push). Stamping
//! `Instant::now()` at those three events splits the run's host time into
//!
//! * handler bodies (`HandleStart` → first `Send`, or `HandleEnd` when the
//!   handler sent nothing), attributed to the actor kind and the trigger;
//! * the output flush (first `Send` → `HandleEnd`);
//! * kernel dispatch (`HandleEnd` → next `HandleStart`): queue pop, CPU-slot
//!   scheduling and delivery.
//!
//! The sink's own work lands in these numbers too; the benchmark reports
//! it separately as the traced ÷ untraced run time.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gdur_core::Cluster;
use gdur_sim::{trigger, ObsEvent, ObsSink};

/// One handler invocation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Process index of the actor that ran the handler.
    pub actor: u32,
    /// The triggering message's wire label, or the trigger kind for
    /// timers, start and restart hooks.
    pub key: &'static str,
    /// Host ns since the sink was attached, at `HandleStart`.
    pub start_ns: u64,
    /// Host ns of the handler body.
    pub body_ns: u64,
    /// Host ns of the output flush.
    pub flush_ns: u64,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.body_ns + self.flush_ns
    }
}

/// Everything a traced run recorded.
#[derive(Debug, Default)]
pub struct TraceData {
    /// Handler spans in execution order.
    pub spans: Vec<Span>,
    /// Point and send events, for `PhaseBreakdown`.
    pub events: Vec<ObsEvent>,
}

/// Host seconds and calls of one (actor kind, trigger) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HandlerTime {
    /// Host seconds in handler bodies.
    pub host_s: f64,
    /// Invocations.
    pub calls: u64,
}

/// Host time of a traced run, split by layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTimes {
    /// Between a `HandleEnd` and the next `HandleStart`.
    pub dispatch_s: f64,
    /// From a handler's first `Send` to its `HandleEnd`.
    pub flush_s: f64,
    /// Replica handler bodies by trigger.
    pub replica: BTreeMap<&'static str, HandlerTime>,
    /// Client (per-client actor or pool) handler bodies by trigger.
    pub client: BTreeMap<&'static str, HandlerTime>,
}

impl LayerTimes {
    /// Host seconds in all handler bodies.
    pub fn bodies_s(&self) -> f64 {
        self.replica
            .values()
            .chain(self.client.values())
            .map(|h| h.host_s)
            .sum()
    }

    /// Adds another run's times (the library workload).
    pub fn add(&mut self, other: &LayerTimes) {
        self.dispatch_s += other.dispatch_s;
        self.flush_s += other.flush_s;
        for (mine, theirs) in [
            (&mut self.replica, &other.replica),
            (&mut self.client, &other.client),
        ] {
            for (k, h) in theirs {
                let e = mine.entry(k).or_default();
                e.host_s += h.host_s;
                e.calls += h.calls;
            }
        }
    }
}

impl TraceData {
    /// Aggregates the spans by layer; `is_replica` is indexed by process.
    pub fn layer_times(&self, is_replica: &[bool]) -> LayerTimes {
        let mut out = LayerTimes::default();
        let mut prev_end: Option<u64> = None;
        for s in &self.spans {
            if let Some(end) = prev_end {
                out.dispatch_s += s.start_ns.saturating_sub(end) as f64 / 1e9;
            }
            prev_end = Some(s.end_ns());
            out.flush_s += s.flush_ns as f64 / 1e9;
            let map = if is_replica[s.actor as usize] {
                &mut out.replica
            } else {
                &mut out.client
            };
            let e = map.entry(s.key).or_default();
            e.host_s += s.body_ns as f64 / 1e9;
            e.calls += 1;
        }
        out
    }

    /// Host seconds from the first `HandleStart` to the last `HandleEnd`.
    #[cfg(test)]
    pub fn covered_s(&self) -> f64 {
        match (self.spans.first(), self.spans.last()) {
            (Some(a), Some(b)) => (b.end_ns() - a.start_ns) as f64 / 1e9,
            _ => 0.0,
        }
    }

    /// Writes the spans as tab-separated lines under a header.
    pub fn write_spans(
        &self,
        point: &str,
        is_replica: &[bool],
        w: &mut impl Write,
    ) -> io::Result<()> {
        for s in &self.spans {
            let kind = if is_replica[s.actor as usize] {
                "replica"
            } else {
                "client"
            };
            writeln!(
                w,
                "{point}\t{}\t{kind}\t{}\t{}\t{}\t{}",
                s.actor, s.key, s.start_ns, s.body_ns, s.flush_ns
            )?;
        }
        Ok(())
    }
}

/// The handler currently running.
struct Open {
    actor: u32,
    key: &'static str,
    start: Instant,
    first_send: Option<Instant>,
}

/// The sink proper. It owns its buffers during the run and hands them over
/// when dropped, so recording takes no lock.
struct HostSink {
    epoch: Instant,
    data: TraceData,
    labels: HashMap<u64, &'static str>,
    open: Option<Open>,
    out: Arc<Mutex<Option<TraceData>>>,
}

impl HostSink {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }
}

impl ObsSink for HostSink {
    fn record(&mut self, ev: ObsEvent) {
        match ev {
            ObsEvent::HandleStart {
                actor,
                mid,
                trigger,
                ..
            } => {
                let key = if trigger == trigger::MSG {
                    self.labels.remove(&mid).unwrap_or("unlabelled")
                } else {
                    trigger
                };
                self.open = Some(Open {
                    actor: actor.0,
                    key,
                    start: Instant::now(),
                    first_send: None,
                });
            }
            ObsEvent::Send { mid, label, .. } => {
                let now = Instant::now();
                if let Some(o) = self.open.as_mut() {
                    o.first_send.get_or_insert(now);
                }
                self.labels.insert(mid, label);
                self.data.events.push(ev);
            }
            ObsEvent::HandleEnd { .. } => {
                let end = Instant::now();
                if let Some(o) = self.open.take() {
                    let flush = o.first_send.unwrap_or(end);
                    self.data.spans.push(Span {
                        actor: o.actor,
                        key: o.key,
                        start_ns: self.ns(o.start),
                        body_ns: self.ns(flush) - self.ns(o.start),
                        flush_ns: self.ns(end) - self.ns(flush),
                    });
                }
            }
            ObsEvent::Point { .. } => self.data.events.push(ev),
            ObsEvent::Deliver { .. } => {}
        }
    }

    fn wants_causal(&self) -> bool {
        true
    }
}

impl Drop for HostSink {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.out.lock() {
            *slot = Some(std::mem::take(&mut self.data));
        }
    }
}

/// A sink attached to a cluster; [`HostTrace::finish`] detaches it and
/// returns what it recorded.
pub struct HostTrace {
    out: Arc<Mutex<Option<TraceData>>>,
}

impl HostTrace {
    /// Attaches a fresh sink to `cluster`.
    pub fn attach(cluster: &mut Cluster) -> HostTrace {
        let out = Arc::new(Mutex::new(None));
        cluster.attach_obs(Box::new(HostSink {
            epoch: Instant::now(),
            data: TraceData::default(),
            labels: HashMap::new(),
            open: None,
            out: Arc::clone(&out),
        }));
        HostTrace { out }
    }

    /// Detaches the sink and returns its recording.
    pub fn finish(self, cluster: &mut Cluster) -> TraceData {
        drop(cluster.sim_mut().detach_obs());
        self.out
            .lock()
            .expect("sink lock poisoned")
            .take()
            .expect("sink handed over its data on drop")
    }
}
