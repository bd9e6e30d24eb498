//! A bounded, two-lane priority mailbox — the admission-controlled queue
//! in front of every [`ServiceRuntime`](crate::runtime::ServiceRuntime)
//! worker.
//!
//! The shape follows the bounded-buffer idiom (a capacity-limited
//! `VecDeque` behind a mutex, `try_push` handing the value back on
//! overflow) with two serving-specific changes:
//!
//! * **Two priority lanes.** Analytical requests (microseconds when
//!   plan-hot) ride the high lane; functional requests (tensor-resident,
//!   milliseconds to seconds) ride the low lane. `pop` always serves the
//!   high lane first, so a burst of heavy functional work cannot starve
//!   the cheap interactive traffic behind it. Capacity bounds the *sum*
//!   of both lanes — total queued memory is what backpressure protects.
//! * **Rejection, never silent drop.** A full mailbox returns
//!   [`PushError::Full`] with the value handed back (the caller turns it
//!   into a typed `Overloaded` reply and may retry with backoff); there
//!   is no `force_push` — overwriting queued requests would violate the
//!   runtime's accounting invariant (completed + rejected + timed-out =
//!   submitted).
//!
//! Locks recover from poisoning (see [`crate::sync`]): a worker that
//! panics mid-request must not wedge the queue for every later request.

use std::collections::VecDeque;

use crate::sync::{PoisonFreeCondvar, PoisonFreeMutex};

/// Which lane a message rides; [`Mailbox::pop`] drains [`Priority::High`]
/// first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Served before any queued low-priority message (analytical
    /// requests).
    High,
    /// Served when the high lane is empty (functional requests).
    Low,
}

/// Why a push was refused; the rejected value is handed back so nothing
/// is ever silently dropped.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The mailbox is at capacity — backpressure; retry later or reject
    /// upward as `Overloaded`.
    Full(T),
    /// The mailbox was closed for shutdown; no further work is admitted.
    Closed(T),
}

impl<T> PushError<T> {
    /// The value that was not enqueued.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(v) | PushError::Closed(v) => v,
        }
    }
}

#[derive(Debug)]
struct State<T> {
    high: VecDeque<T>,
    low: VecDeque<T>,
    closed: bool,
}

impl<T> State<T> {
    fn len(&self) -> usize {
        self.high.len() + self.low.len()
    }

    fn pop_front(&mut self) -> Option<T> {
        self.high.pop_front().or_else(|| self.low.pop_front())
    }
}

/// A bounded two-lane priority queue; see the [module docs](self).
#[derive(Debug)]
pub struct Mailbox<T> {
    capacity: usize,
    state: PoisonFreeMutex<State<T>>,
    /// Signalled on push and close; consumers block on it in `pop`.
    available: PoisonFreeCondvar,
}

impl<T> Mailbox<T> {
    /// An open mailbox admitting at most `capacity` queued messages
    /// across both lanes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` — a zero-capacity mailbox would reject
    /// every message, which is a configuration error, not load.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "mailbox capacity must be positive");
        Mailbox {
            capacity,
            state: PoisonFreeMutex::new(State {
                high: VecDeque::new(),
                low: VecDeque::new(),
                closed: false,
            }),
            available: PoisonFreeCondvar::new(),
        }
    }

    /// The capacity bound across both lanes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Messages currently queued (both lanes).
    pub fn len(&self) -> usize {
        self.state.lock().len()
    }

    /// Whether the mailbox is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`Mailbox::close`] (or [`Mailbox::close_and_drain`]) has
    /// run: no further push will be admitted.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Attempts to enqueue `value` on `priority`'s lane. Refuses — handing
    /// the value back — when the mailbox is at capacity
    /// ([`PushError::Full`], the backpressure signal) or closed
    /// ([`PushError::Closed`]).
    ///
    /// # Errors
    ///
    /// [`PushError`] with the rejected value; nothing is ever dropped.
    pub fn try_push(&self, priority: Priority, value: T) -> Result<(), PushError<T>> {
        let mut s = self.state.lock();
        if s.closed {
            return Err(PushError::Closed(value));
        }
        if s.len() >= self.capacity {
            return Err(PushError::Full(value));
        }
        match priority {
            Priority::High => s.high.push_back(value),
            Priority::Low => s.low.push_back(value),
        }
        drop(s);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues the next message, preferring the high lane; blocks while
    /// the mailbox is empty and open. Returns `None` only when the
    /// mailbox is closed **and** drained — the worker-loop termination
    /// condition, guaranteeing a graceful shutdown serves everything that
    /// was admitted.
    pub fn pop(&self) -> Option<T> {
        let mut s = self.state.lock();
        loop {
            if let Some(v) = s.pop_front() {
                return Some(v);
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s);
        }
    }

    /// Closes the mailbox: further pushes are refused, queued messages
    /// remain poppable, and blocked consumers wake (draining the queue,
    /// then observing `None`).
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.available.notify_all();
    }

    /// Closes the mailbox and takes every queued message in one step —
    /// the *aborting* shutdown path, where the caller must reply
    /// `Shutdown` to each unserved request rather than lose it.
    pub fn close_and_drain(&self) -> Vec<T> {
        let mut s = self.state.lock();
        s.closed = true;
        let mut out = Vec::with_capacity(s.len());
        while let Some(v) = s.pop_front() {
            out.push(v);
        }
        drop(s);
        self.available.notify_all();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn high_lane_drains_first_within_capacity() {
        let mb = Mailbox::bounded(4);
        mb.try_push(Priority::Low, 1).unwrap();
        mb.try_push(Priority::Low, 2).unwrap();
        mb.try_push(Priority::High, 10).unwrap();
        mb.try_push(Priority::High, 11).unwrap();
        assert_eq!(mb.len(), 4);
        assert_eq!(mb.pop(), Some(10));
        assert_eq!(mb.pop(), Some(11));
        assert_eq!(mb.pop(), Some(1));
        assert_eq!(mb.pop(), Some(2));
        assert!(mb.is_empty());
    }

    #[test]
    fn full_mailbox_hands_the_value_back() {
        let mb = Mailbox::bounded(2);
        mb.try_push(Priority::Low, 1).unwrap();
        mb.try_push(Priority::High, 2).unwrap();
        // Capacity bounds the sum of both lanes.
        assert_eq!(mb.try_push(Priority::High, 3), Err(PushError::Full(3)));
        assert_eq!(mb.len(), 2);
        // Draining one slot readmits.
        assert_eq!(mb.pop(), Some(2));
        mb.try_push(Priority::High, 3).unwrap();
    }

    #[test]
    fn close_refuses_pushes_but_serves_queued() {
        let mb = Mailbox::bounded(4);
        mb.try_push(Priority::Low, 1).unwrap();
        assert!(!mb.is_closed());
        mb.close();
        assert!(mb.is_closed());
        assert_eq!(mb.try_push(Priority::Low, 2), Err(PushError::Closed(2)));
        assert_eq!(mb.pop(), Some(1));
        assert_eq!(mb.pop(), None);
    }

    #[test]
    fn close_and_drain_returns_unserved() {
        let mb = Mailbox::bounded(4);
        mb.try_push(Priority::Low, 1).unwrap();
        mb.try_push(Priority::High, 2).unwrap();
        assert_eq!(mb.close_and_drain(), vec![2, 1]);
        assert_eq!(mb.pop(), None);
    }

    #[test]
    fn blocking_pop_wakes_on_push_and_on_close() {
        let mb = Arc::new(Mailbox::bounded(2));
        let consumer = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = mb.pop() {
                    got.push(v);
                }
                got
            })
        };
        mb.try_push(Priority::Low, 7).unwrap();
        mb.try_push(Priority::Low, 8).unwrap();
        // Give the consumer a moment, then close to terminate its loop.
        while !mb.is_empty() {
            std::thread::yield_now();
        }
        mb.close();
        assert_eq!(consumer.join().expect("consumer"), vec![7, 8]);
    }
}
