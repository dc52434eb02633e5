//! FIFO deadline queues: one armed timer for many guards that share a
//! constant timeout.
//!
//! A guard armed at `now` with a fixed timeout `T` expires at `now + T`, so
//! guards pushed in handler order also expire in that order. One simulator
//! timer at the head's deadline is then enough for the whole queue: when it
//! fires, the owner expires every entry due by then and re-arms at the new
//! head. A guard whose operation settles (acknowledged, finalized) is removed
//! from the queue, so a fire whose head has already gone only re-arms, and a
//! queue that has drained arms nothing. Every expiry happens at exactly the
//! instant a per-guard timer would have fired.

use std::collections::VecDeque;
use std::time::Duration;

use pepper_net::{Emit, SimTime};

/// Outstanding guards with one shared timeout, in deadline order, behind at
/// most one armed timer.
#[derive(Debug, Clone)]
pub(crate) struct DeadlineQueue<T> {
    entries: VecDeque<(SimTime, T)>,
    /// Whether the queue's timer is armed (or firing right now).
    armed: bool,
}

impl<T> Default for DeadlineQueue<T> {
    fn default() -> Self {
        DeadlineQueue {
            entries: VecDeque::new(),
            armed: false,
        }
    }
}

impl<T: Copy> DeadlineQueue<T> {
    /// Queues `entry` to expire `timeout` after `now`, arming `tick` when no
    /// timer is armed. Every push to one queue must use the same timeout, so
    /// that queue order is deadline order.
    pub(crate) fn push<M>(
        &mut self,
        now: SimTime,
        timeout: Duration,
        entry: T,
        fx: &mut dyn Emit<M>,
        tick: M,
    ) {
        let deadline = now + timeout;
        debug_assert!(self.entries.back().map_or(true, |(d, _)| *d <= deadline));
        self.entries.push_back((deadline, entry));
        if !self.armed {
            self.armed = true;
            fx.timer(timeout, tick);
        }
    }

    /// Removes and returns the oldest entry matching `settled`.
    pub(crate) fn remove_first(&mut self, mut settled: impl FnMut(&T) -> bool) -> Option<T> {
        let idx = self.entries.iter().position(|(_, e)| settled(e))?;
        self.entries.remove(idx).map(|(_, e)| e)
    }

    /// While the timer fires: the head, if it is due.
    pub(crate) fn due(&self, now: SimTime) -> Option<T> {
        self.entries
            .front()
            .filter(|(d, _)| *d <= now)
            .map(|(_, e)| *e)
    }

    /// Ends a fire: re-arms `tick` at the head's deadline, if an entry is
    /// left. A drained queue frees its buffer: on a large ring most peers
    /// guard something only now and then.
    pub(crate) fn rearm<M>(&mut self, now: SimTime, fx: &mut dyn Emit<M>, tick: M) {
        self.armed = match self.entries.front() {
            Some((deadline, _)) => {
                fx.timer(deadline.duration_since(now), tick);
                true
            }
            None => {
                self.entries = VecDeque::new();
                false
            }
        };
    }

    /// Number of outstanding guards.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}
