//! The event queue that drives application state machines.
//!
//! AmuletOS is event-driven: sensors, timers and user input produce events,
//! and the scheduler delivers each event by invoking the owning
//! application's handler function.

use std::collections::VecDeque;

/// How the scheduler hands queued events to applications.
///
/// The paper's baseline pays a full OS→app→OS context-switch round trip for
/// every delivered event.  When events arrive in bursts for the same
/// application (accelerometer batches, queued timer ticks), the OS can
/// instead deliver a **batch** through one switch pair: the first event of
/// the batch installs the app's MPU configuration and switches stacks, the
/// intra-batch boundaries run through the trusted dispatch trampoline with
/// no state save/restore or MPU traffic, and the last event restores the OS
/// configuration.  App-visible behaviour (which handlers run, in which
/// order, with which payloads, and how faults are handled) is identical to
/// [`DeliveryPolicy::PerEvent`]; only the switch cost changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DeliveryPolicy {
    /// Every event pays the full switch round trip (the paper's model).
    #[default]
    PerEvent,
    /// Consecutive same-app events share one switch round trip.
    Batched {
        /// Largest number of events delivered through one switch pair.
        max_batch: usize,
        /// Latency bound for [`crate::os::AmuletOs::pump`]: once the
        /// **head event** has watched this many later arrivals go by while
        /// waiting at the front of the queue
        /// ([`EventQueue::head_wait_events`]), its batch is delivered even
        /// if no full batch has formed.  The bound is per waiting head
        /// event — a backlog elsewhere in the queue neither forces a
        /// premature partial flush nor lets an event wait unboundedly —
        /// and [`crate::os::AmuletOs::flush`] still drains everything.
        max_latency_events: usize,
    },
}

impl DeliveryPolicy {
    /// A conservative default batching configuration: batches of up to 8
    /// events, flushed once 16 events are pending.
    pub fn batched_default() -> Self {
        DeliveryPolicy::Batched {
            max_batch: 8,
            max_latency_events: 16,
        }
    }

    /// Whether this policy amortises switches over batches.
    pub fn is_batched(&self) -> bool {
        matches!(self, DeliveryPolicy::Batched { .. })
    }

    /// The largest batch this policy delivers through one switch pair
    /// (1 under [`DeliveryPolicy::PerEvent`]).
    pub fn max_batch(&self) -> usize {
        match self {
            DeliveryPolicy::PerEvent => 1,
            DeliveryPolicy::Batched { max_batch, .. } => (*max_batch).max(1),
        }
    }
}

/// The source of an event.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum EventKind {
    /// An application timer armed with `amulet_set_timer` fired.
    Timer,
    /// New sensor data is available on a subscribed stream.
    Sensor,
    /// The user pressed a button / tapped the display.
    User,
    /// System housekeeping (battery warnings, etc.).
    System,
}

/// One event waiting for delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Index of the destination application.
    pub app_index: usize,
    /// Name of the handler function to invoke.
    pub handler: String,
    /// A single 16-bit payload passed as the handler's argument.
    pub payload: u16,
    /// What produced the event.
    pub kind: EventKind,
    /// Optional arrival timestamp in trace milliseconds.  The OS never
    /// reads it for scheduling; stamped events get a
    /// [`crate::os::DeliveryRecord`] when dispatched, which is how the
    /// time-stepped fleet runner measures delivery latency.  `None` (the
    /// [`Event::new`] default) records nothing.
    pub stamp_ms: Option<u64>,
}

impl Event {
    /// Convenience constructor (unstamped).
    pub fn new(
        app_index: usize,
        handler: impl Into<String>,
        payload: u16,
        kind: EventKind,
    ) -> Self {
        Event {
            app_index,
            handler: handler.into(),
            payload,
            kind,
            stamp_ms: None,
        }
    }

    /// Tags the event with its arrival time (trace milliseconds), enabling
    /// delivery-latency recording.
    pub fn stamped(mut self, at_ms: u64) -> Self {
        self.stamp_ms = Some(at_ms);
        self
    }
}

/// A FIFO event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    queue: VecDeque<Event>,
    /// Events enqueued since the current head event became the head — the
    /// head's **wait**, in events watched going by.  Reset whenever the
    /// head changes (a pop installs a fresh head; a push into an empty
    /// queue makes the new event an instantly-fresh head).
    head_seen: usize,
    /// Total events ever enqueued (for statistics).
    pub enqueued: u64,
    /// Total events ever delivered.
    pub delivered: u64,
}

impl Clone for EventQueue {
    fn clone(&self) -> Self {
        EventQueue {
            queue: self.queue.clone(),
            head_seen: self.head_seen,
            enqueued: self.enqueued,
            delivered: self.delivered,
        }
    }

    /// Reuses `self`'s buffer.
    fn clone_from(&mut self, source: &Self) {
        self.queue.clone_from(&source.queue);
        self.head_seen = source.head_seen;
        self.enqueued = source.enqueued;
        self.delivered = source.delivered;
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the queue to the state [`EventQueue::new`] builds — empty,
    /// counters cleared — keeping its buffer.
    pub fn clear(&mut self) {
        self.queue.clear();
        self.head_seen = 0;
        self.enqueued = 0;
        self.delivered = 0;
    }

    /// Adds an event to the back of the queue.
    pub fn push(&mut self, event: Event) {
        self.enqueued += 1;
        if self.queue.is_empty() {
            // The pushed event *is* the head; it has watched nothing go by.
            self.head_seen = 0;
        } else {
            self.head_seen += 1;
        }
        self.queue.push_back(event);
    }

    /// Removes the next event to deliver.
    pub fn pop(&mut self) -> Option<Event> {
        let e = self.queue.pop_front();
        if e.is_some() {
            self.delivered += 1;
            // Whatever is in front now just became the head.
            self.head_seen = 0;
        }
        e
    }

    /// Removes any pending [`EventKind::Timer`] events for `app_index`,
    /// returning how many were removed.
    ///
    /// An application owns a **single** timer: `amulet_set_timer` re-arms
    /// it, it does not stack a second one.  The scheduler calls this before
    /// queueing a freshly-armed timer event so at most one timer event per
    /// app is ever pending — exactly the hardware's behaviour.
    pub fn cancel_timers_for(&mut self, app_index: usize) -> usize {
        let before = self.queue.len();
        let head_removed = self
            .queue
            .front()
            .is_some_and(|e| e.app_index == app_index && e.kind == EventKind::Timer);
        self.queue
            .retain(|e| !(e.app_index == app_index && e.kind == EventKind::Timer));
        if head_removed {
            // A successor inherits the head slot with a fresh wait (the
            // conservative choice: its own wait starts now).
            self.head_seen = 0;
        }
        before - self.queue.len()
    }

    /// How many events have been enqueued since the current head event
    /// became the head of the queue (0 when the queue is empty) — the
    /// head's wait, as the batched scheduler's latency bound measures it.
    pub fn head_wait_events(&self) -> usize {
        if self.queue.is_empty() {
            0
        } else {
            self.head_seen
        }
    }

    /// Moves the head event plus up to `max_batch - 1` immediately
    /// following events addressed to the *same* application into `batch`,
    /// replacing its contents (the scheduler reuses one buffer for every
    /// batch; `batch` is left empty when the queue is).
    ///
    /// Only the consecutive head run is taken, so global FIFO order — and
    /// therefore each application's event order — is exactly what
    /// event-at-a-time delivery would produce.
    pub fn pop_batch_into(&mut self, max_batch: usize, batch: &mut Vec<Event>) {
        batch.clear();
        let Some(first) = self.pop() else {
            return;
        };
        let app = first.app_index;
        batch.push(first);
        while batch.len() < max_batch.max(1) {
            match self.queue.front() {
                Some(next) if next.app_index == app => {
                    batch.push(self.pop().expect("front was Some"));
                }
                _ => break,
            }
        }
    }

    /// Length of the run of consecutive head events addressed to the same
    /// application (0 when the queue is empty).  The batching scheduler
    /// uses this to decide whether a full batch is ready.
    pub fn head_run_len(&self) -> usize {
        let Some(first) = self.queue.front() else {
            return 0;
        };
        self.queue
            .iter()
            .take_while(|e| e.app_index == first.app_index)
            .count()
    }

    /// Number of events currently waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_counters() {
        let mut q = EventQueue::new();
        q.push(Event::new(0, "a", 1, EventKind::Timer));
        q.push(Event::new(1, "b", 2, EventKind::Sensor));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().handler, "a");
        assert_eq!(q.pop().unwrap().handler, "b");
        assert!(q.pop().is_none());
        assert_eq!(q.enqueued, 2);
        assert_eq!(q.delivered, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_takes_only_the_consecutive_same_app_run() {
        let mut q = EventQueue::new();
        q.push(Event::new(0, "a", 1, EventKind::Sensor));
        q.push(Event::new(0, "a", 2, EventKind::Sensor));
        q.push(Event::new(1, "b", 3, EventKind::Timer));
        q.push(Event::new(0, "a", 4, EventKind::Sensor));
        assert_eq!(q.head_run_len(), 2);
        let mut batch = Vec::new();
        q.pop_batch_into(8, &mut batch);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|e| e.app_index == 0));
        // The run after app 1's event was not pulled forward.
        q.pop_batch_into(8, &mut batch);
        assert_eq!(batch.len(), 1);
        q.pop_batch_into(8, &mut batch);
        assert_eq!(batch[0].payload, 4);
        assert_eq!(q.delivered, 4);
        q.pop_batch_into(8, &mut batch);
        assert!(batch.is_empty(), "an empty queue leaves the buffer empty");
    }

    #[test]
    fn cancel_timers_removes_only_that_apps_timer_events() {
        let mut q = EventQueue::new();
        q.push(Event::new(0, "on_timer", 1, EventKind::Timer));
        q.push(Event::new(1, "on_timer", 2, EventKind::Timer));
        q.push(Event::new(0, "on_tick", 3, EventKind::Sensor));
        assert_eq!(q.cancel_timers_for(0), 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().app_index, 1);
        assert_eq!(q.pop().unwrap().kind, EventKind::Sensor);
    }

    #[test]
    fn pop_batch_respects_max_batch() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(Event::new(0, "a", i, EventKind::Sensor));
        }
        let mut batch = Vec::new();
        q.pop_batch_into(3, &mut batch);
        assert_eq!(batch.len(), 3);
        q.pop_batch_into(3, &mut batch);
        assert_eq!(batch.len(), 2);
        assert_eq!(q.head_run_len(), 0);
    }

    #[test]
    fn head_wait_counts_arrivals_since_head_hood() {
        let mut q = EventQueue::new();
        assert_eq!(q.head_wait_events(), 0);
        q.push(Event::new(0, "a", 1, EventKind::Sensor));
        assert_eq!(q.head_wait_events(), 0, "a fresh head has waited 0");
        q.push(Event::new(1, "b", 2, EventKind::Sensor));
        q.push(Event::new(1, "b", 3, EventKind::Sensor));
        assert_eq!(q.head_wait_events(), 2, "two arrivals went by");
        q.pop();
        assert_eq!(
            q.head_wait_events(),
            0,
            "the successor's wait starts when it becomes head"
        );
        q.push(Event::new(0, "a", 4, EventKind::Sensor));
        assert_eq!(q.head_wait_events(), 1);
        q.pop();
        q.pop();
        q.pop();
        assert_eq!(q.head_wait_events(), 0, "empty queue has no waiting head");
    }

    #[test]
    fn cancelling_the_head_timer_resets_the_wait() {
        let mut q = EventQueue::new();
        q.push(Event::new(0, "on_timer", 1, EventKind::Timer));
        q.push(Event::new(1, "b", 2, EventKind::Sensor));
        q.push(Event::new(1, "b", 3, EventKind::Sensor));
        assert_eq!(q.head_wait_events(), 2);
        assert_eq!(q.cancel_timers_for(0), 1);
        assert_eq!(q.head_wait_events(), 0, "new head starts fresh");
        // Cancelling a non-head timer leaves the head's wait alone.
        q.push(Event::new(0, "on_timer", 4, EventKind::Timer));
        assert_eq!(q.head_wait_events(), 1);
        assert_eq!(q.cancel_timers_for(0), 1);
        assert_eq!(q.head_wait_events(), 1);
    }

    #[test]
    fn stamping_is_optional_and_preserved() {
        let e = Event::new(0, "a", 1, EventKind::Sensor);
        assert_eq!(e.stamp_ms, None);
        assert_eq!(e.stamped(250).stamp_ms, Some(250));
    }

    #[test]
    fn delivery_policy_accessors() {
        assert!(!DeliveryPolicy::PerEvent.is_batched());
        assert_eq!(DeliveryPolicy::PerEvent.max_batch(), 1);
        let b = DeliveryPolicy::batched_default();
        assert!(b.is_batched());
        assert!(b.max_batch() > 1);
        assert_eq!(DeliveryPolicy::default(), DeliveryPolicy::PerEvent);
    }
}
