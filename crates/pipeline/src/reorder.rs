//! Gap-free in-order release by sequence number: one stream's reorder
//! buffer in the egress.

use std::collections::BTreeMap;

/// Holds items that arrive out of order and releases them strictly in
/// sequence, starting at 0. An item whose predecessors have not all arrived
/// stays held.
#[derive(Debug)]
pub struct ReleaseBuffer<T> {
    next: u64,
    pending: BTreeMap<u64, T>,
}

impl<T> Default for ReleaseBuffer<T> {
    fn default() -> Self {
        ReleaseBuffer { next: 0, pending: BTreeMap::new() }
    }
}

impl<T> ReleaseBuffer<T> {
    /// Holds `item` at sequence number `seq`.
    pub fn insert(&mut self, seq: u64, item: T) {
        self.pending.insert(seq, item);
    }

    /// The next item in sequence, if it has arrived.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.pending.remove(&self.next)?;
        self.next += 1;
        Some(item)
    }

    /// Items popped so far: the sequence number released next.
    pub fn released(&self) -> u64 {
        self.next
    }

    /// Items held and not yet popped: the depth the reorder watermark
    /// records.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Removes and returns every held item in sequence order: the residue
    /// that can never be released once no predecessor can arrive.
    pub fn take_stuck(&mut self) -> Vec<T> {
        std::mem::take(&mut self.pending).into_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(buffer: &mut ReleaseBuffer<char>) -> String {
        std::iter::from_fn(|| buffer.pop()).collect()
    }

    #[test]
    fn out_of_order_inserts_release_in_sequence() {
        let mut buffer = ReleaseBuffer::default();
        for (seq, item) in [(2, 'c'), (0, 'a'), (3, 'd'), (1, 'b')] {
            buffer.insert(seq, item);
        }
        assert_eq!(drain(&mut buffer), "abcd");
        buffer.insert(4, 'e');
        assert_eq!(drain(&mut buffer), "e", "release continues from the last sequence");
    }

    #[test]
    fn a_gap_holds_back_later_items() {
        let mut buffer = ReleaseBuffer::default();
        buffer.insert(0, 'a');
        buffer.insert(2, 'c');
        buffer.insert(3, 'd');
        assert_eq!(drain(&mut buffer), "a", "seq 1 is missing");
        buffer.insert(1, 'b');
        assert_eq!(drain(&mut buffer), "bcd", "filling the gap releases the run");
    }

    #[test]
    fn pending_depth_counts_held_items() {
        let mut buffer = ReleaseBuffer::default();
        assert_eq!(buffer.pending(), 0);
        buffer.insert(1, 'b');
        buffer.insert(2, 'c');
        assert_eq!(buffer.pending(), 2);
        buffer.insert(0, 'a');
        assert_eq!(buffer.pending(), 3, "depth is taken before release");
        assert_eq!(drain(&mut buffer), "abc");
        assert_eq!(buffer.pending(), 0);
    }

    #[test]
    fn take_stuck_returns_exactly_the_held_items() {
        let mut buffer = ReleaseBuffer::default();
        buffer.insert(0, 'a');
        buffer.insert(3, 'd');
        buffer.insert(2, 'c');
        assert_eq!(drain(&mut buffer), "a");
        assert_eq!(buffer.take_stuck(), vec!['c', 'd']);
        assert_eq!(buffer.pending(), 0);
        assert_eq!(buffer.pop(), None);
    }
}
