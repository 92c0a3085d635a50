//! An exact set of 16-bit sequence numbers.
//!
//! Dedup keys on `(device, seq)`, and a device's sequence numbers are
//! dense and mostly increasing: a device that has sent `n` messages
//! since the last epoch clear has used roughly the run `0..n`. A
//! [`SeqSet`] stores that run as sorted `(seq >> 6, 64-bit mask)`
//! blocks, so 64 consecutive numbers cost one 16-byte block instead of
//! 64 hash-set entries. The lowest block lives inline in the set, and
//! only blocks above it go to the heap: a device whose numbers fit one
//! 64-number block (an hour of minute beacons) costs no allocation, and
//! a set is 24 bytes, the size of a bare `Vec` header. The common
//! insert (the next number, in the newest block) touches only that
//! block. It is exact for all 65,536 values — not a sliding window — so
//! it answers exactly what a `HashSet<u16>` would.

/// One 64-number block: bit `i` of `bits` is `key * 64 + i`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Block {
    key: u16,
    bits: u64,
}

/// An exact set of `u16` sequence numbers, stored as sorted bitmap
/// blocks, the lowest one inline.
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
    /// The lowest block. `bits == 0` only when the set is empty, and an
    /// empty set's head is `Block::default()`, so the derived equality
    /// sees one representation per set.
    first: Block,
    /// Non-empty blocks above `first`, strictly ascending by `key`;
    /// `None` rather than an empty list. Boxed so the handle is one
    /// word and the set stays 24 bytes: a bare `Vec` beside the inline
    /// block would make every set 40, most of them for an empty list.
    #[allow(clippy::box_collection)]
    rest: Option<Box<Vec<Block>>>,
}

const _: () = assert!(std::mem::size_of::<SeqSet>() <= 24);

impl SeqSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `seq`; returns `true` when it was not already present.
    pub fn insert(&mut self, seq: u16) -> bool {
        let (key, bit) = split(seq);
        let b = self.block_mut(key);
        let fresh = b.bits & bit == 0;
        b.bits |= bit;
        fresh
    }

    /// Whether `seq` is in the set.
    pub fn contains(&self, seq: u16) -> bool {
        let (key, bit) = split(seq);
        if key == self.first.key {
            return self.first.bits & bit != 0;
        }
        let rest = self.rest();
        match rest.last() {
            Some(b) if b.key == key => b.bits & bit != 0,
            _ => find(rest, key).is_ok_and(|i| rest[i].bits & bit != 0),
        }
    }

    /// Remove every number (and free the blocks above the inline one).
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// The numbers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        std::iter::once(&self.first)
            .chain(self.rest())
            .flat_map(|b| {
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

    /// The blocks above the inline one.
    fn rest(&self) -> &[Block] {
        self.rest.as_deref().map_or(&[], Vec::as_slice)
    }

    /// The block for `key`, created empty if absent.
    fn block_mut(&mut self, key: u16) -> &mut Block {
        // The common case: the inline block, or an empty set claiming
        // it (an empty set has no blocks on the heap).
        if key == self.first.key || self.first.bits == 0 {
            self.first.key = key;
            return &mut self.first;
        }
        if key < self.first.key {
            // A new lowest block: the old head moves to the heap.
            let old = std::mem::replace(&mut self.first, Block { key, bits: 0 });
            self.rest.get_or_insert_default().insert(0, old);
            return &mut self.first;
        }
        let rest = self.rest.get_or_insert_default();
        let at = match rest.last() {
            // The newest block, or a new one after it.
            Some(b) if b.key == key => rest.len() - 1,
            Some(b) if b.key > key => match find(rest, key) {
                Ok(i) => i,
                Err(i) => {
                    rest.insert(i, Block { key, bits: 0 });
                    i
                }
            },
            _ => {
                rest.push(Block { key, bits: 0 });
                rest.len() - 1
            }
        };
        &mut rest[at]
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

fn find(blocks: &[Block], key: u16) -> Result<usize, usize> {
    blocks.binary_search_by_key(&key, |b| b.key)
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
        check_layout(&set);
        // The derived equality sees one representation per set.
        assert_eq!(set, want.iter().copied().collect::<SeqSet>());
    }

    /// The representation invariants: an empty set is the default
    /// value; otherwise every block is non-empty, the inline one is the
    /// lowest, and the heap list is ascending and never empty.
    fn check_layout(set: &SeqSet) {
        if set.first.bits == 0 {
            assert_eq!(*set, SeqSet::default());
            return;
        }
        assert!(set.rest.is_none() || !set.rest().is_empty());
        let blocks: Vec<Block> = std::iter::once(set.first)
            .chain(set.rest().iter().copied())
            .collect();
        assert!(blocks.windows(2).all(|w| w[0].key < w[1].key));
        assert!(blocks.iter().all(|b| b.bits != 0));
    }

    proptest! {
        #[test]
        fn matches_hash_set_model(ops in proptest::collection::vec(op(), 0..400)) {
            check_against_model(&ops);
        }

        #[test]
        fn insertion_order_does_not_matter(
            tagged in proptest::collection::vec((seq(), any::<u64>()), 0..200)
        ) {
            // The same numbers twice: as drawn, and reordered by a
            // random tag (a shuffle).
            let a: SeqSet = tagged.iter().map(|&(s, _)| s).collect();
            let mut shuffled = tagged.clone();
            shuffled.sort_unstable_by_key(|&(_, tag)| tag);
            let b: SeqSet = shuffled.iter().map(|&(s, _)| s).collect();
            prop_assert_eq!(&a, &b);
            prop_assert!(a.iter().eq(b.iter()));
        }
    }

    #[test]
    fn inline_block_moves_up_and_clear_reuses_it() {
        let mut ops = vec![
            // The first number claims the inline block...
            Op::Insert(700),
            Op::Insert(705),
            // ...a lower one takes it over and moves it to the heap...
            Op::Insert(130),
            Op::Insert(3),
            Op::Contains(700),
            Op::Contains(130),
            // ...a second block above the inline one, then between.
            Op::Insert(64),
            Op::Insert(65_535),
            Op::Insert(200),
            Op::Contains(64),
            Op::Contains(199),
            Op::Clear,
        ];
        // A cleared set starts over from any number, high or low.
        ops.extend([Op::Insert(9_000), Op::Insert(1), Op::Insert(9_001)]);
        ops.extend([9_000u16, 1, 9_001, 700, 3].map(Op::Contains));
        ops.push(Op::Clear);
        ops.extend([Op::Insert(5), Op::Contains(5), Op::Contains(700)]);
        check_against_model(&ops);

        let mut s: SeqSet = (0u16..64).collect();
        assert!(s.rest.is_none(), "one block stays inline");
        s.insert(64);
        assert_eq!(s.rest.as_deref().map(Vec::len), Some(1));
        s.clear();
        assert_eq!(s, SeqSet::new());
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
        assert_eq!(full.rest.as_deref().map(Vec::len), Some(1023));
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
