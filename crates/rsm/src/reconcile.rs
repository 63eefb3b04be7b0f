//! Reconciliation operators.
//!
//! RSM generalizes a coherence protocol's *merge* step: when multiple
//! outstanding copies of a block return home, an application-chosen
//! function reconciles them into one value. The paper uses two families:
//!
//! * **keep-one** — C\*\*'s default: of the values written into a location
//!   by different invocations, exactly one survives (we implement both
//!   first- and last-arrival orders, at word granularity);
//! * **reductions** — C\*\*'s reduction assignments (`%+=` etc.): values
//!   written into a location combine under a binary associative operator
//!   with the location's initial value.

use lcm_sim::mem::{BlockBuf, WordMask, WORDS_PER_BLOCK};
use std::fmt;

/// Whether an operand is one 4-byte word or an aligned 8-byte pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ValueWidth {
    /// One 32-bit word.
    W4,
    /// Two consecutive 32-bit words (an `f64`).
    W8,
}

/// A binary, associative reduction operator over one memory location.
///
/// Operands and results are raw bit patterns (`u64`; only the low 32 bits
/// are meaningful for `W4` operators) so the reconciler can stay untyped.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// `f32` addition.
    SumF32,
    /// `f64` addition.
    SumF64,
    /// Wrapping `i32` addition.
    SumI32,
    /// `f32` multiplication.
    ProdF32,
    /// `f64` multiplication.
    ProdF64,
    /// `f32` minimum.
    MinF32,
    /// `f32` maximum.
    MaxF32,
    /// `i32` minimum.
    MinI32,
    /// `i32` maximum.
    MaxI32,
    /// Bitwise and.
    AndU32,
    /// Bitwise or.
    OrU32,
    /// Bitwise exclusive-or.
    XorU32,
}

impl ReduceOp {
    /// The operand width.
    pub fn width(self) -> ValueWidth {
        match self {
            ReduceOp::SumF64 | ReduceOp::ProdF64 => ValueWidth::W8,
            _ => ValueWidth::W4,
        }
    }

    /// The operator's identity element, as raw bits.
    ///
    /// A private accumulator copy starts at the identity so that
    /// reconciliation can combine each node's *contribution* with the
    /// location's initial value, per the paper's reduction semantics.
    pub fn identity_bits(self) -> u64 {
        match self {
            ReduceOp::SumF32 => f32::to_bits(0.0) as u64,
            ReduceOp::SumF64 => f64::to_bits(0.0),
            ReduceOp::SumI32 => 0,
            ReduceOp::ProdF32 => f32::to_bits(1.0) as u64,
            ReduceOp::ProdF64 => f64::to_bits(1.0),
            ReduceOp::MinF32 => f32::to_bits(f32::INFINITY) as u64,
            ReduceOp::MaxF32 => f32::to_bits(f32::NEG_INFINITY) as u64,
            ReduceOp::MinI32 => i32::MAX as u32 as u64,
            ReduceOp::MaxI32 => i32::MIN as u32 as u64,
            ReduceOp::AndU32 => u32::MAX as u64,
            ReduceOp::OrU32 => 0,
            ReduceOp::XorU32 => 0,
        }
    }

    /// Combines two operands (raw bits) under the operator.
    pub fn combine_bits(self, a: u64, b: u64) -> u64 {
        match self {
            ReduceOp::SumF32 => {
                f32::to_bits(f32::from_bits(a as u32) + f32::from_bits(b as u32)) as u64
            }
            ReduceOp::SumF64 => f64::to_bits(f64::from_bits(a) + f64::from_bits(b)),
            ReduceOp::SumI32 => (a as u32).wrapping_add(b as u32) as u64,
            ReduceOp::ProdF32 => {
                f32::to_bits(f32::from_bits(a as u32) * f32::from_bits(b as u32)) as u64
            }
            ReduceOp::ProdF64 => f64::to_bits(f64::from_bits(a) * f64::from_bits(b)),
            ReduceOp::MinF32 => {
                f32::to_bits(f32::from_bits(a as u32).min(f32::from_bits(b as u32))) as u64
            }
            ReduceOp::MaxF32 => {
                f32::to_bits(f32::from_bits(a as u32).max(f32::from_bits(b as u32))) as u64
            }
            ReduceOp::MinI32 => (a as u32 as i32).min(b as u32 as i32) as u32 as u64,
            ReduceOp::MaxI32 => (a as u32 as i32).max(b as u32 as i32) as u32 as u64,
            ReduceOp::AndU32 => ((a as u32) & (b as u32)) as u64,
            ReduceOp::OrU32 => ((a as u32) | (b as u32)) as u64,
            ReduceOp::XorU32 => ((a as u32) ^ (b as u32)) as u64,
        }
    }

    /// Words per operand slot: 1 for `W4`, 2 for `W8`.
    fn slot_words(self) -> usize {
        match self.width() {
            ValueWidth::W4 => 1,
            ValueWidth::W8 => 2,
        }
    }

    /// The operand in the slot starting at word `w` of `buf`.
    fn slot(self, buf: &BlockBuf, w: usize) -> u64 {
        match self.width() {
            ValueWidth::W4 => buf.word(w) as u64,
            ValueWidth::W8 => buf.word(w) as u64 | ((buf.word(w + 1) as u64) << 32),
        }
    }

    /// Stores `bits` into the slot starting at word `w` of `buf`.
    fn set_slot(self, buf: &mut BlockBuf, w: usize, bits: u64) {
        buf.set_word(w, bits as u32);
        if self.width() == ValueWidth::W8 {
            buf.set_word(w + 1, (bits >> 32) as u32);
        }
    }

    /// A block whose every slot holds the identity: the starting value
    /// of a private reduction accumulator.
    pub fn identity_block(self) -> BlockBuf {
        let mut buf = BlockBuf::zeroed();
        for w in (0..WORDS_PER_BLOCK).step_by(self.slot_words()) {
            self.set_slot(&mut buf, w, self.identity_bits());
        }
        buf
    }

    /// Combines one operand `bits` into the slot at word `w` of an
    /// accumulator and marks the slot's words in `dirty`.
    ///
    /// # Panics
    /// Panics if `w` is not the first word of an 8-byte slot.
    pub fn accumulate(self, data: &mut BlockBuf, dirty: &mut WordMask, w: usize, bits: u64) {
        let n = self.slot_words();
        assert!(w.is_multiple_of(n), "unaligned f64 reduction at word {w}");
        self.set_slot(data, w, self.combine_bits(self.slot(data, w), bits));
        for i in w..w + n {
            dirty.set(i);
        }
    }

    /// Merges the slots of `src` selected by `src_mask` into `dst`: a
    /// slot also in `dst_mask` combines (`dst ∘ src`), a slot only in
    /// `src_mask` takes the source bits, and every other slot of `dst`
    /// is left alone. Pass [`WordMask::full`] as `dst_mask` to combine
    /// every selected slot with what `dst` holds.
    ///
    /// # Panics
    /// Panics on a torn 8-byte slot: a mask naming one word of a pair.
    pub fn combine_masked(
        self,
        dst: &mut BlockBuf,
        dst_mask: WordMask,
        src: &BlockBuf,
        src_mask: WordMask,
    ) {
        let n = self.slot_words();
        for w in (0..WORDS_PER_BLOCK).step_by(n) {
            let (in_dst, in_src) = (dst_mask.get(w), src_mask.get(w));
            assert!(
                dst_mask.get(w + n - 1) == in_dst && src_mask.get(w + n - 1) == in_src,
                "torn 8-byte reduction slot at word {w}"
            );
            if in_src {
                let incoming = self.slot(src, w);
                let merged = if in_dst {
                    self.combine_bits(self.slot(dst, w), incoming)
                } else {
                    incoming
                };
                self.set_slot(dst, w, merged);
            }
        }
    }
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ReduceOp::SumF32 => "sum:f32",
            ReduceOp::SumF64 => "sum:f64",
            ReduceOp::SumI32 => "sum:i32",
            ReduceOp::ProdF32 => "prod:f32",
            ReduceOp::ProdF64 => "prod:f64",
            ReduceOp::MinF32 => "min:f32",
            ReduceOp::MaxF32 => "max:f32",
            ReduceOp::MinI32 => "min:i32",
            ReduceOp::MaxI32 => "max:i32",
            ReduceOp::AndU32 => "and:u32",
            ReduceOp::OrU32 => "or:u32",
            ReduceOp::XorU32 => "xor:u32",
        };
        f.write_str(name)
    }
}

/// Which arriving version's words win under keep-one reconciliation.
///
/// C\*\* only promises that *exactly one* modified value survives; the
/// order is an implementation artifact. Both orders are provided so tests
/// can demonstrate the semantics is insensitive to it for race-free
/// programs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum KeepOrder {
    /// The last version to arrive home supplies the word.
    #[default]
    LastWins,
    /// The first version to arrive home supplies the word.
    FirstWins,
}

/// How multiple modified copies of a block's word reconcile.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum MergePolicy {
    /// Keep-one: a single written value survives (C\*\* default).
    #[default]
    KeepOne,
    /// Keep-one with explicit arrival order.
    KeepOneOrdered(KeepOrder),
    /// Combine contributions under a reduction operator.
    Reduce(ReduceOp),
}

impl MergePolicy {
    /// The keep order in force (reductions have none).
    pub fn keep_order(self) -> KeepOrder {
        match self {
            MergePolicy::KeepOne => KeepOrder::LastWins,
            MergePolicy::KeepOneOrdered(o) => o,
            MergePolicy::Reduce(_) => KeepOrder::LastWins,
        }
    }

    /// The reduction operator, if this policy is a reduction.
    pub fn reduce_op(self) -> Option<ReduceOp> {
        match self {
            MergePolicy::Reduce(op) => Some(op),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_OPS: [ReduceOp; 12] = [
        ReduceOp::SumF32,
        ReduceOp::SumF64,
        ReduceOp::SumI32,
        ReduceOp::ProdF32,
        ReduceOp::ProdF64,
        ReduceOp::MinF32,
        ReduceOp::MaxF32,
        ReduceOp::MinI32,
        ReduceOp::MaxI32,
        ReduceOp::AndU32,
        ReduceOp::OrU32,
        ReduceOp::XorU32,
    ];

    #[test]
    fn identities_are_neutral() {
        // For a representative operand, id ∘ x == x.
        for op in ALL_OPS {
            let x: u64 = match op.width() {
                ValueWidth::W4 => match op {
                    ReduceOp::SumF32 | ReduceOp::ProdF32 | ReduceOp::MinF32 | ReduceOp::MaxF32 => {
                        f32::to_bits(3.5) as u64
                    }
                    ReduceOp::SumI32 | ReduceOp::MinI32 | ReduceOp::MaxI32 => {
                        (-17i32) as u32 as u64
                    }
                    _ => 0x5a5a5a5a,
                },
                ValueWidth::W8 => f64::to_bits(3.5),
            };
            assert_eq!(op.combine_bits(op.identity_bits(), x), x, "{op} identity");
            assert_eq!(
                op.combine_bits(x, op.identity_bits()),
                x,
                "{op} identity (rhs)"
            );
        }
    }

    #[test]
    fn sums_add() {
        let a = f32::to_bits(1.5) as u64;
        let b = f32::to_bits(2.0) as u64;
        assert_eq!(
            ReduceOp::SumF32.combine_bits(a, b),
            f32::to_bits(3.5) as u64
        );
        let a = f64::to_bits(1e10);
        let b = f64::to_bits(2e10);
        assert_eq!(ReduceOp::SumF64.combine_bits(a, b), f64::to_bits(3e10));
        assert_eq!(
            ReduceOp::SumI32.combine_bits(5, (-3i32) as u32 as u64) as u32 as i32,
            2
        );
    }

    #[test]
    fn sum_i32_wraps() {
        let a = i32::MAX as u32 as u64;
        let r = ReduceOp::SumI32.combine_bits(a, 1) as u32 as i32;
        assert_eq!(r, i32::MIN);
    }

    #[test]
    fn min_max_pick_extremes() {
        let a = f32::to_bits(-1.0) as u64;
        let b = f32::to_bits(2.0) as u64;
        assert_eq!(ReduceOp::MinF32.combine_bits(a, b), a);
        assert_eq!(ReduceOp::MaxF32.combine_bits(a, b), b);
        assert_eq!(
            ReduceOp::MinI32.combine_bits((-5i32) as u32 as u64, 3) as u32 as i32,
            -5
        );
        assert_eq!(
            ReduceOp::MaxI32.combine_bits((-5i32) as u32 as u64, 3) as u32 as i32,
            3
        );
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(ReduceOp::AndU32.combine_bits(0b1100, 0b1010), 0b1000);
        assert_eq!(ReduceOp::OrU32.combine_bits(0b1100, 0b1010), 0b1110);
        assert_eq!(ReduceOp::XorU32.combine_bits(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn widths_are_correct() {
        for op in ALL_OPS {
            match op {
                ReduceOp::SumF64 | ReduceOp::ProdF64 => assert_eq!(op.width(), ValueWidth::W8),
                _ => assert_eq!(op.width(), ValueWidth::W4),
            }
        }
    }

    #[test]
    fn associativity_spot_check() {
        // (a ∘ b) ∘ c == a ∘ (b ∘ c) for integer/bitwise ops (exact).
        for op in [
            ReduceOp::SumI32,
            ReduceOp::MinI32,
            ReduceOp::MaxI32,
            ReduceOp::AndU32,
            ReduceOp::OrU32,
            ReduceOp::XorU32,
        ] {
            let (a, b, c) = (17u64, 0xfffe_0001u64, 5u64);
            assert_eq!(
                op.combine_bits(op.combine_bits(a, b), c),
                op.combine_bits(a, op.combine_bits(b, c)),
                "{op} associativity"
            );
        }
    }

    #[test]
    fn merge_policy_accessors() {
        assert_eq!(MergePolicy::KeepOne.keep_order(), KeepOrder::LastWins);
        assert_eq!(
            MergePolicy::KeepOneOrdered(KeepOrder::FirstWins).keep_order(),
            KeepOrder::FirstWins
        );
        assert_eq!(
            MergePolicy::Reduce(ReduceOp::SumF32).reduce_op(),
            Some(ReduceOp::SumF32)
        );
        assert_eq!(MergePolicy::KeepOne.reduce_op(), None);
        assert_eq!(MergePolicy::default(), MergePolicy::KeepOne);
    }

    fn mask_of(words: &[usize]) -> WordMask {
        let mut m = WordMask::empty();
        for &w in words {
            m.set(w);
        }
        m
    }

    #[test]
    fn identity_block_fills_every_slot() {
        let b = ReduceOp::MinF32.identity_block();
        for w in 0..WORDS_PER_BLOCK {
            assert_eq!(b.f32(w), f32::INFINITY, "word {w}");
        }
        let b = ReduceOp::ProdF64.identity_block();
        for w in (0..WORDS_PER_BLOCK).step_by(2) {
            assert_eq!(b.f64(w), 1.0, "pair at word {w}");
        }
        assert_eq!(ReduceOp::AndU32.identity_block().word(7), u32::MAX);
    }

    #[test]
    fn accumulate_combines_one_slot_and_marks_it() {
        let op = ReduceOp::SumF32;
        let (mut data, mut dirty) = (op.identity_block(), WordMask::empty());
        op.accumulate(&mut data, &mut dirty, 3, f32::to_bits(1.5) as u64);
        op.accumulate(&mut data, &mut dirty, 3, f32::to_bits(2.0) as u64);
        assert_eq!(data.f32(3), 3.5);
        assert_eq!(dirty, mask_of(&[3]));

        let op = ReduceOp::SumF64;
        let (mut data, mut dirty) = (op.identity_block(), WordMask::empty());
        op.accumulate(&mut data, &mut dirty, 4, f64::to_bits(1e10));
        op.accumulate(&mut data, &mut dirty, 4, f64::to_bits(2e10));
        assert_eq!(data.f64(4), 3e10);
        assert_eq!(data.f64(0), 0.0, "other slots keep the identity");
        assert_eq!(dirty, mask_of(&[4, 5]), "both words of the pair");
    }

    #[test]
    #[should_panic(expected = "unaligned f64 reduction")]
    fn accumulate_rejects_an_unaligned_pair() {
        let op = ReduceOp::SumF64;
        let (mut data, mut dirty) = (op.identity_block(), WordMask::empty());
        op.accumulate(&mut data, &mut dirty, 3, f64::to_bits(1.0));
    }

    #[test]
    fn combine_masked_combines_claimed_slots_and_carries_the_rest() {
        let op = ReduceOp::SumI32;
        let mut dst = BlockBuf::zeroed();
        let mut src = BlockBuf::zeroed();
        for w in 0..WORDS_PER_BLOCK {
            dst.set_word(w, 100 + w as u32);
            src.set_word(w, 10 * w as u32);
        }
        op.combine_masked(&mut dst, mask_of(&[1, 2]), &src, mask_of(&[2, 3]));
        assert_eq!(dst.word(1), 101, "only in dst: untouched");
        assert_eq!(dst.word(2), 102 + 20, "in both: combined");
        assert_eq!(dst.word(3), 30, "only in src: carried over");
        assert_eq!(dst.word(4), 104, "in neither: untouched");
        // A full destination mask combines every selected slot.
        op.combine_masked(&mut dst, WordMask::full(), &src, mask_of(&[4]));
        assert_eq!(dst.word(4), 104 + 40);

        let op = ReduceOp::ProdF64;
        let mut dst = op.identity_block();
        dst.set_f64(0, 3.0);
        dst.set_f64(2, 5.0);
        let mut src = BlockBuf::zeroed();
        src.set_f64(0, 2.0);
        src.set_f64(2, 7.0);
        op.combine_masked(&mut dst, mask_of(&[0, 1]), &src, mask_of(&[0, 1, 2, 3]));
        assert_eq!(dst.f64(0), 6.0, "claimed pair combines");
        assert_eq!(dst.f64(2), 7.0, "unclaimed pair carries over");
        assert_eq!(dst.f64(4), 1.0);
    }

    #[test]
    fn combining_into_the_identity_differs_from_carrying_over() {
        // The two semantics disagree where `id ∘ x != x` bitwise.
        let op = ReduceOp::SumF32;
        let mut src = BlockBuf::zeroed();
        src.set_f32(0, -0.0);
        let mut combined = op.identity_block();
        op.combine_masked(&mut combined, WordMask::full(), &src, mask_of(&[0]));
        let mut carried = op.identity_block();
        op.combine_masked(&mut carried, WordMask::empty(), &src, mask_of(&[0]));
        assert_eq!(combined.word(0), 0x0000_0000, "0.0 + -0.0 is +0.0");
        assert_eq!(carried.word(0), 0x8000_0000, "the bits of -0.0 as sent");
    }

    #[test]
    #[should_panic(expected = "torn 8-byte reduction")]
    fn combine_masked_rejects_a_torn_pair() {
        let op = ReduceOp::SumF64;
        let mut dst = op.identity_block();
        op.combine_masked(
            &mut dst,
            WordMask::full(),
            &BlockBuf::zeroed(),
            mask_of(&[2]),
        );
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(ReduceOp::SumF64.to_string(), "sum:f64");
        assert_eq!(ReduceOp::XorU32.to_string(), "xor:u32");
    }
}
