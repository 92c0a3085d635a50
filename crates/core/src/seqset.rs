//! An exact set of 16-bit sequence numbers.
//!
//! Dedup keys on `(device, seq)`, and a device's sequence numbers are
//! dense and mostly increasing: a device that has sent `n` messages
//! since the last epoch clear has used roughly the run `0..n`. A
//! [`SeqSet`] stores that run as sorted `(seq >> 6, 64-bit mask)`
//! blocks, so 64 consecutive numbers cost one 16-byte block instead of
//! 64 hash-set entries, and the common insert (the next number, in the
//! newest block) touches only the last block. It is exact for all
//! 65,536 values — not a sliding window — so it answers exactly what a
//! `HashSet<u16>` would.

/// One 64-number block: bit `i` of `bits` is `key * 64 + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    key: u16,
    bits: u64,
}

/// An exact set of `u16` sequence numbers, stored as sorted bitmap
/// blocks.
///
/// ```
/// use wile::seqset::SeqSet;
/// let mut s = SeqSet::new();
/// assert!(s.insert(7));
/// assert!(!s.insert(7), "already present");
/// assert!(s.insert(65_535));
/// assert!(s.contains(7) && !s.contains(8));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![7, 65_535]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqSet {
    /// Non-empty blocks, strictly ascending by `key`.
    blocks: Vec<Block>,
}

impl SeqSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `seq`; returns `true` when it was not already present.
    pub fn insert(&mut self, seq: u16) -> bool {
        let (key, bit) = split(seq);
        let at = match self.blocks.last() {
            // The common case: the newest block, or a new one after it.
            Some(b) if b.key == key => self.blocks.len() - 1,
            Some(b) if b.key > key => match self.find(key) {
                Ok(i) => i,
                Err(i) => {
                    self.blocks.insert(i, Block { key, bits: 0 });
                    i
                }
            },
            _ => {
                // Most devices never leave their first block: size it
                // exactly rather than to `Vec`'s minimum of four.
                if self.blocks.capacity() == 0 {
                    self.blocks.reserve_exact(1);
                }
                self.blocks.push(Block { key, bits: 0 });
                self.blocks.len() - 1
            }
        };
        let b = &mut self.blocks[at];
        let fresh = b.bits & bit == 0;
        b.bits |= bit;
        fresh
    }

    /// Whether `seq` is in the set.
    pub fn contains(&self, seq: u16) -> bool {
        let (key, bit) = split(seq);
        match self.blocks.last() {
            Some(b) if b.key == key => b.bits & bit != 0,
            _ => self.find(key).is_ok_and(|i| self.blocks[i].bits & bit != 0),
        }
    }

    /// Remove every number.
    pub fn clear(&mut self) {
        self.blocks.clear();
    }

    /// The numbers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.blocks.iter().flat_map(|b| {
            let base = b.key << 6;
            let mut bits = b.bits;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = bits.trailing_zeros() as u16;
                    bits &= bits - 1;
                    base | i
                })
            })
        })
    }

    fn find(&self, key: u16) -> Result<usize, usize> {
        self.blocks.binary_search_by_key(&key, |b| b.key)
    }
}

impl FromIterator<u16> for SeqSet {
    fn from_iter<I: IntoIterator<Item = u16>>(iter: I) -> Self {
        let mut s = SeqSet::new();
        for seq in iter {
            s.insert(seq);
        }
        s
    }
}

/// A number's block key and its bit within the block.
fn split(seq: u16) -> (u16, u64) {
    (seq >> 6, 1u64 << (seq & 63))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16),
        Contains(u16),
        Clear,
    }

    /// Sequence numbers biased to the edges that matter: block
    /// boundaries, both ends of the range, and a dense low run.
    fn seq() -> impl Strategy<Value = u16> {
        prop_oneof![
            0u16..200,
            0u16..200,
            prop::sample::select(vec![0u16, 63, 64, 127, 128, 65_535]),
            any::<u16>(),
        ]
    }

    /// Inserts and lookups in equal measure, with a rare clear.
    fn op() -> impl Strategy<Value = Op> {
        (0u8..21, seq()).prop_map(|(k, s)| match k {
            0 => Op::Clear,
            1..=10 => Op::Insert(s),
            _ => Op::Contains(s),
        })
    }

    /// Apply `ops` to a `SeqSet` and to a `HashSet<u16>` model and
    /// check every answer and the final contents agree.
    fn check_against_model(ops: &[Op]) {
        let mut set = SeqSet::new();
        let mut model = HashSet::new();
        for op in ops {
            match *op {
                Op::Insert(s) => assert_eq!(set.insert(s), model.insert(s), "insert {s}"),
                Op::Contains(s) => assert_eq!(set.contains(s), model.contains(&s), "contains {s}"),
                Op::Clear => {
                    set.clear();
                    model.clear();
                    assert_eq!(set.iter().next(), None);
                }
            }
        }
        let mut want: Vec<u16> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(set.iter().collect::<Vec<_>>(), want);
        assert!(set.blocks.windows(2).all(|w| w[0].key < w[1].key));
        assert!(set.blocks.iter().all(|b| b.bits != 0));
    }

    proptest! {
        #[test]
        fn matches_hash_set_model(ops in proptest::collection::vec(op(), 0..400)) {
            check_against_model(&ops);
        }
    }

    #[test]
    fn edges_and_a_full_wrap() {
        let edges = [0u16, 63, 64, 65_535];
        let mut ops: Vec<Op> = edges.iter().map(|&s| Op::Insert(s)).collect();
        ops.extend(edges.iter().map(|&s| Op::Contains(s)));
        ops.extend([1u16, 62, 65, 65_534].map(Op::Contains));
        // A device that counts through all 65,536 numbers and wraps:
        // every number is fresh once, then every one is a duplicate.
        ops.extend((0..=u16::MAX).map(Op::Insert));
        ops.extend((0..=u16::MAX).map(Op::Insert));
        ops.extend((0..=u16::MAX).step_by(97).map(Op::Contains));
        ops.push(Op::Clear);
        ops.extend(edges.iter().map(|&s| Op::Contains(s)));
        ops.extend(edges.iter().rev().map(|&s| Op::Insert(s)));
        check_against_model(&ops);

        let full: SeqSet = (0..=u16::MAX).collect();
        assert_eq!(full.blocks.len(), 1024);
        assert!(full.iter().eq(0..=u16::MAX));
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let s: SeqSet = [500u16, 3, 64, 65_535, 200, 63, 0].into_iter().collect();
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![0, 3, 63, 64, 200, 500, 65_535]
        );
    }
}
