//! [`DueQueue`]: pending items in the order they fall due.

use crate::time::SimTime;

/// Pending items ordered by the instant they fall due; items due at the
/// same instant come out in the order they were pushed.
///
/// One `Vec`, kept latest-first, so the next item due is its last entry.
/// A push lands behind (pops after) every entry due no later than it, so
/// same-instant FIFO follows from where an entry is placed and needs no
/// sequence number.
///
/// Cost: [`pop`](Self::pop) and [`peek`](Self::peek) are O(1). A
/// [`push`](Self::push) scans from the back past the k entries due no
/// later than the new one, then moves them up one slot: O(k). That is
/// cheap when a new item is due soon after most of what is queued, as in
/// a simulation whose handlers schedule their next step a short delay on.
/// A burst of n pushes for one instant costs O(n²) moves.
pub struct DueQueue<T> {
    entries: Vec<(SimTime, T)>,
}

impl<T> Default for DueQueue<T> {
    fn default() -> Self {
        DueQueue::new()
    }
}

impl<T> DueQueue<T> {
    /// An empty queue.
    pub const fn new() -> Self {
        DueQueue { entries: Vec::new() }
    }

    /// An empty queue with room for `capacity` items before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        DueQueue { entries: Vec::with_capacity(capacity) }
    }

    /// Queue `item` to fall due at `at`, after everything already queued
    /// for `at` or earlier.
    #[inline]
    pub fn push(&mut self, at: SimTime, item: T) {
        let slot = self.entries.iter().rposition(|&(due, _)| due > at).map_or(0, |i| i + 1);
        self.entries.insert(slot, (at, item));
    }

    /// Take the item due first.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.entries.pop()
    }

    /// The item due first, and when.
    #[inline]
    pub fn peek(&self) -> Option<(SimTime, &T)> {
        self.entries.last().map(|(at, item)| (*at, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_by_time_then_push_order() {
        let mut q = DueQueue::new();
        for (at, id) in [(5, 'a'), (1, 'b'), (5, 'c'), (3, 'd'), (1, 'e'), (9, 'f'), (5, 'g')] {
            q.push(SimTime(at), id);
        }
        assert_eq!(q.peek(), Some((SimTime(1), &'b')));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, id)| id)).collect();
        assert_eq!(order, ['b', 'e', 'd', 'a', 'c', 'g', 'f']);
        assert!(q.peek().is_none());
    }
}
