//! The runtime progress key: the dynamic counterpart of the static counter.
//!
//! The paper's alignment scheme compares *counter values* across the two
//! executions: equal values (plus equal PC and arguments) mean aligned
//! syscalls; a larger value means an execution is ahead (§3). This module
//! generalizes the scalar into a [`ProgressKey`] with three components,
//! matching the three runtime mechanisms of the scheme:
//!
//! * a **scalar counter** per *fresh frame* — indirect and recursive calls
//!   save the counter and restart from zero (paper §5–6), so progress is a
//!   stack of scalars;
//! * **loop iteration epochs** — the backedge barrier aligns iteration `i`
//!   of the master with iteration `i` of the slave (paper §5), so within an
//!   instrumented loop the iteration number is part of "where we are"; the
//!   counter at loop entry tells two instances of one loop apart (a helper
//!   whose loop runs twice within one counter frame);
//! * the position `(function, site)` — the "PC" — which is *not* part of
//!   the key but is compared separately when matching syscalls.
//!
//! [`ProgressKey::cmp_progress`] orders two keys: `Behind`/`Ahead` drive
//! blocking ("slave waits until the master catches up"), `Equal` triggers
//! exact matching, and `Divergent` means the executions took different
//! paths and no alignment at this key is possible anymore — the syscall
//! executes decoupled (paper §4.2, cases 1–3).

use std::fmt;

/// Identifies an instrumented loop program-wide: `(function, loop)` packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopUid(pub u64);

impl LoopUid {
    /// Packs a function id and per-function loop id.
    pub fn new(func: u32, loop_id: u32) -> Self {
        LoopUid((u64::from(func) << 32) | u64::from(loop_id))
    }
}

/// Progress within one fresh counter frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FrameKey {
    /// Active instrumented loops (outermost first): the loop, its
    /// iteration epoch, and the frame counter when this instance of the
    /// loop was entered.
    pub loops: Vec<(LoopUid, u64, u64)>,
    /// The frame's scalar counter.
    pub cnt: u64,
}

/// Words a [`ProgressKey`] stores inline before it spills to the heap: a
/// frame with one active loop (`[1, uid, epoch, entry, cnt]`) fits, and so
/// does a loop-free call in a loop-free frame (`[0, cnt, 0, cnt]`). Syscall
/// keys are the ones queued for the slave, and on the four ldxperf
/// workloads at least 98.9% of them are 5 words or fewer; the next sizes
/// seen (7 and 10 words) would cost every queued entry 16 or 40 bytes.
/// Longer backedge keys are built into a buffer the interpreter reuses.
const INLINE_WORDS: usize = 5;

/// A full progress key: one frame per fresh counter frame, outermost
/// first, stored as a flat run of words. Each frame is `[n_loops, (loop
/// uid, epoch, entry counter) × n_loops, cnt]`. Keys of up to
/// `INLINE_WORDS` words live inline, so building, cloning and comparing
/// them never allocates. [`ProgressKey::from_frames`] and
/// [`ProgressKey::frames`] convert from and to [`FrameKey`]s.
pub struct ProgressKey {
    words: Words,
}

/// The key's word storage. Invariant: a finished key encodes at least one
/// complete frame (only this crate's builders see an empty one).
enum Words {
    Inline { len: u8, buf: [u64; INLINE_WORDS] },
    Heap(Vec<u64>),
}

/// One frame of a [`ProgressKey`], borrowed from its words.
#[derive(Debug, Clone, Copy)]
pub struct FrameRef<'a> {
    /// `(uid, epoch, entry counter)` triples, outermost loop first.
    loops: &'a [u64],
    /// The frame's scalar counter.
    pub cnt: u64,
}

impl<'a> FrameRef<'a> {
    /// The frame's active loops, outermost first: the loop, its iteration
    /// epoch and the frame counter at loop entry.
    pub fn loops(&self) -> impl Iterator<Item = (LoopUid, u64, u64)> + 'a {
        self.loops
            .chunks_exact(3)
            .map(|l| (LoopUid(l[0]), l[1], l[2]))
    }
}

/// The result of comparing two progress keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressOrder {
    /// `self` has strictly less progress than `other`.
    Behind,
    /// Identical progress: exact matching applies.
    Equal,
    /// `self` has strictly more progress than `other`.
    Ahead,
    /// The executions took different paths: neither can reach the other's
    /// key anymore.
    Divergent,
}

impl ProgressKey {
    /// A key with no words yet; complete it with [`Self::open_frame`],
    /// [`Self::push_loop`] and [`Self::close_frame`].
    pub(crate) fn empty() -> Self {
        ProgressKey {
            words: Words::Inline {
                len: 0,
                buf: [0; INLINE_WORDS],
            },
        }
    }

    /// Drops the words but keeps any heap block, so a key rebuilt in
    /// place allocates at most once however long it gets.
    pub(crate) fn clear(&mut self) {
        match &mut self.words {
            Words::Inline { len, .. } => *len = 0,
            Words::Heap(v) => v.clear(),
        }
    }

    fn single(cnt: u64) -> Self {
        let mut key = Self::empty();
        let frame = key.open_frame();
        key.close_frame(frame, cnt);
        key
    }

    /// The initial key of a fresh execution.
    pub fn start() -> Self {
        Self::single(0)
    }

    /// The terminal key, strictly ahead of every reachable key; published
    /// when an execution (or thread) finishes so its peer never blocks on
    /// it again.
    pub fn top() -> Self {
        Self::single(u64::MAX)
    }

    /// Whether this is the terminal key.
    pub fn is_top(&self) -> bool {
        self.words() == [0, u64::MAX]
    }

    /// Builds a key from its frames, outermost first.
    ///
    /// # Panics
    ///
    /// If `frames` is empty: every key has a root frame.
    pub fn from_frames(frames: &[FrameKey]) -> Self {
        assert!(!frames.is_empty(), "a progress key has a root frame");
        let mut key = Self::empty();
        for f in frames {
            let frame = key.open_frame();
            for &l in &f.loops {
                key.push_loop(l);
            }
            key.close_frame(frame, f.cnt);
        }
        key
    }

    /// The key's frames, outermost first (allocates; for tests and
    /// diagnostics).
    pub fn frames(&self) -> Vec<FrameKey> {
        self.frame_refs()
            .map(|f| FrameKey {
                loops: f.loops().collect(),
                cnt: f.cnt,
            })
            .collect()
    }

    /// The key's frames, outermost first, borrowed from its words.
    pub fn frame_refs(&self) -> impl Iterator<Item = FrameRef<'_>> {
        let mut rest = self.words();
        std::iter::from_fn(move || {
            let (&n, tail) = rest.split_first()?;
            let (loops, tail) = tail.split_at(3 * n as usize);
            let (&cnt, tail) = tail.split_first().expect("a frame ends with its counter");
            rest = tail;
            Some(FrameRef { loops, cnt })
        })
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline { len, buf } => &buf[..usize::from(*len)],
            Words::Heap(v) => v,
        }
    }

    fn push(&mut self, word: u64) {
        match &mut self.words {
            Words::Inline { len, buf } if usize::from(*len) < INLINE_WORDS => {
                buf[usize::from(*len)] = word;
                *len += 1;
            }
            Words::Inline { buf, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_WORDS);
                spilled.extend_from_slice(buf);
                spilled.push(word);
                self.words = Words::Heap(spilled);
            }
            Words::Heap(v) => v.push(word),
        }
    }

    /// Starts a frame; returns the position [`Self::close_frame`] needs.
    pub(crate) fn open_frame(&mut self) -> usize {
        let at = self.words().len();
        self.push(0);
        at
    }

    /// Appends an active loop to the open frame.
    pub(crate) fn push_loop(&mut self, (uid, epoch, entry): (LoopUid, u64, u64)) {
        self.push(uid.0);
        self.push(epoch);
        self.push(entry);
    }

    /// Ends the frame opened at `at` with its counter.
    pub(crate) fn close_frame(&mut self, at: usize, cnt: u64) {
        let loops = (self.words().len() - at - 1) / 3;
        match &mut self.words {
            Words::Inline { buf, .. } => buf[at] = loops as u64,
            Words::Heap(v) => v[at] = loops as u64,
        }
        self.push(cnt);
    }

    /// Compares the progress of `self` against `other`.
    pub fn cmp_progress(&self, other: &ProgressKey) -> ProgressOrder {
        let (mut a, mut b) = (self.frame_refs(), other.frame_refs());
        loop {
            match (a.next(), b.next()) {
                (Some(fa), Some(fb)) => match cmp_frames(fa, fb) {
                    ProgressOrder::Equal => {}
                    decided => return decided,
                },
                // The deeper execution entered a fresh call the other has
                // not entered (yet): it is ahead.
                (Some(_), None) => return ProgressOrder::Ahead,
                (None, Some(_)) => return ProgressOrder::Behind,
                (None, None) => return ProgressOrder::Equal,
            }
        }
    }
}

fn cmp_frames(a: FrameRef<'_>, b: FrameRef<'_>) -> ProgressOrder {
    // Unequal scalars decide whenever the loops do not; equal scalars
    // leave the verdict `tie`.
    let by_cnt = |tie| match a.cnt.cmp(&b.cnt) {
        std::cmp::Ordering::Less => ProgressOrder::Behind,
        std::cmp::Ordering::Greater => ProgressOrder::Ahead,
        std::cmp::Ordering::Equal => tie,
    };
    let (la, lb) = (a.loops.chunks_exact(3), b.loops.chunks_exact(3));
    let common = la.len().min(lb.len());
    for (x, y) in la.zip(lb) {
        if x[0] != y[0] {
            // Different loops at the same nesting position: the executions
            // took different paths. Scalars still order them when unequal
            // (join compensation guarantees soundness); equal scalars mean
            // true divergence.
            return by_cnt(ProgressOrder::Divergent);
        }
        // A later instance of the loop was entered at a strictly larger
        // counter (the +1 exit strengthening), whatever its epoch; within
        // one instance, epochs decide.
        match x[2].cmp(&y[2]).then(x[1].cmp(&y[1])) {
            std::cmp::Ordering::Less => return ProgressOrder::Behind,
            std::cmp::Ordering::Greater => return ProgressOrder::Ahead,
            std::cmp::Ordering::Equal => {}
        }
    }
    // One execution may be inside an instrumented loop the other is not
    // in. The +1 exit strengthening makes post-loop scalars strictly larger
    // than in-loop scalars, so unequal scalars decide; equal scalars mean
    // the deeper one is at iteration epoch > 0 (ahead) or exactly at loop
    // entry (equal).
    let (deeper, deeper_order) = if a.loops.len() > b.loops.len() {
        (a, ProgressOrder::Ahead)
    } else {
        (b, ProgressOrder::Behind)
    };
    let entered = deeper.loops().skip(common).any(|(_, epoch, _)| epoch > 0);
    by_cnt(if entered {
        deeper_order
    } else {
        ProgressOrder::Equal
    })
}

impl Clone for ProgressKey {
    /// A key short enough to live inline is cloned inline, even from a
    /// heap block that `ProgressKey::clear` kept.
    fn clone(&self) -> Self {
        let words = self.words();
        let words = if words.len() <= INLINE_WORDS {
            let mut buf = [0; INLINE_WORDS];
            buf[..words.len()].copy_from_slice(words);
            Words::Inline {
                len: words.len() as u8,
                buf,
            }
        } else {
            Words::Heap(words.to_vec())
        };
        ProgressKey { words }
    }
}

impl PartialEq for ProgressKey {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for ProgressKey {}

impl fmt::Debug for ProgressKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressKey")
            .field("frames", &self.frames())
            .finish()
    }
}

impl fmt::Display for ProgressKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, frame) in self.frame_refs().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            for (lid, epoch, _) in frame.loops() {
                write!(f, "L{:x}#{}:", lid.0, epoch)?;
            }
            if frame.cnt == u64::MAX {
                write!(f, "END")?;
            } else {
                write!(f, "{}", frame.cnt)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(frames: Vec<FrameKey>) -> ProgressKey {
        ProgressKey::from_frames(&frames)
    }
    fn flat(cnt: u64) -> ProgressKey {
        key(vec![FrameKey { loops: vec![], cnt }])
    }
    fn lp(n: u64) -> LoopUid {
        LoopUid(n)
    }

    #[test]
    fn scalar_ordering() {
        assert_eq!(flat(3).cmp_progress(&flat(5)), ProgressOrder::Behind);
        assert_eq!(flat(5).cmp_progress(&flat(3)), ProgressOrder::Ahead);
        assert_eq!(flat(4).cmp_progress(&flat(4)), ProgressOrder::Equal);
    }

    #[test]
    fn top_is_ahead_of_everything() {
        let top = ProgressKey::top();
        assert!(top.is_top());
        assert_eq!(top.cmp_progress(&flat(1_000_000)), ProgressOrder::Ahead);
        assert_eq!(flat(0).cmp_progress(&top), ProgressOrder::Behind);
        assert_eq!(top.cmp_progress(&ProgressKey::top()), ProgressOrder::Equal);
        let deep = key(vec![
            FrameKey {
                loops: vec![(lp(1), 9, 0)],
                cnt: 3,
            },
            FrameKey {
                loops: vec![],
                cnt: 7,
            },
        ]);
        assert_eq!(top.cmp_progress(&deep), ProgressOrder::Ahead);
    }

    #[test]
    fn loop_epochs_dominate_scalars() {
        // Same loop, later iteration but smaller scalar: still ahead.
        let early = key(vec![FrameKey {
            loops: vec![(lp(1), 1, 0)],
            cnt: 9,
        }]);
        let later = key(vec![FrameKey {
            loops: vec![(lp(1), 4, 0)],
            cnt: 2,
        }]);
        assert_eq!(later.cmp_progress(&early), ProgressOrder::Ahead);
        assert_eq!(early.cmp_progress(&later), ProgressOrder::Behind);
    }

    #[test]
    fn a_later_instance_of_a_loop_is_ahead_of_an_earlier_one() {
        // A helper's loop run twice in one frame: the first instance's last
        // iteration is behind the second instance's first one.
        let first = key(vec![FrameKey {
            loops: vec![(lp(1), 4, 10)],
            cnt: 14,
        }]);
        let second = key(vec![FrameKey {
            loops: vec![(lp(1), 0, 15)],
            cnt: 16,
        }]);
        assert_eq!(first.cmp_progress(&second), ProgressOrder::Behind);
        assert_eq!(second.cmp_progress(&first), ProgressOrder::Ahead);
    }

    #[test]
    fn same_loop_same_epoch_compares_scalars() {
        let a = key(vec![FrameKey {
            loops: vec![(lp(1), 2, 0)],
            cnt: 3,
        }]);
        let b = key(vec![FrameKey {
            loops: vec![(lp(1), 2, 0)],
            cnt: 5,
        }]);
        assert_eq!(a.cmp_progress(&b), ProgressOrder::Behind);
    }

    #[test]
    fn different_loops_with_equal_scalars_diverge() {
        let a = key(vec![FrameKey {
            loops: vec![(lp(1), 0, 0)],
            cnt: 3,
        }]);
        let b = key(vec![FrameKey {
            loops: vec![(lp(2), 0, 0)],
            cnt: 3,
        }]);
        assert_eq!(a.cmp_progress(&b), ProgressOrder::Divergent);
        // Unequal scalars still order them.
        let c = key(vec![FrameKey {
            loops: vec![(lp(2), 0, 0)],
            cnt: 9,
        }]);
        assert_eq!(a.cmp_progress(&c), ProgressOrder::Behind);
    }

    #[test]
    fn in_loop_vs_outside_loop() {
        // Outside at a larger scalar (post-exit, +1 strictness): ahead.
        let inside = key(vec![FrameKey {
            loops: vec![(lp(1), 7, 0)],
            cnt: 3,
        }]);
        let past = flat(4);
        assert_eq!(past.cmp_progress(&inside), ProgressOrder::Ahead);
        assert_eq!(inside.cmp_progress(&past), ProgressOrder::Behind);

        // Equal scalars, epoch 0: both effectively at the loop entry.
        let at_entry = flat(3);
        let just_entered = key(vec![FrameKey {
            loops: vec![(lp(1), 0, 0)],
            cnt: 3,
        }]);
        assert_eq!(just_entered.cmp_progress(&at_entry), ProgressOrder::Equal);
        // Equal scalars, epoch > 0: the in-loop run is ahead of a run
        // still at the entry point.
        assert_eq!(inside.cmp_progress(&flat(3)), ProgressOrder::Ahead);
        assert_eq!(flat(3).cmp_progress(&inside), ProgressOrder::Behind);
    }

    #[test]
    fn fresh_frames_deeper_is_ahead() {
        let caller = flat(5);
        let inside_call = key(vec![
            FrameKey {
                loops: vec![],
                cnt: 5,
            },
            FrameKey {
                loops: vec![],
                cnt: 2,
            },
        ]);
        assert_eq!(inside_call.cmp_progress(&caller), ProgressOrder::Ahead);
        assert_eq!(caller.cmp_progress(&inside_call), ProgressOrder::Behind);
    }

    #[test]
    fn outer_frame_difference_decides_before_depth() {
        let a = key(vec![
            FrameKey {
                loops: vec![],
                cnt: 9,
            },
            FrameKey {
                loops: vec![],
                cnt: 0,
            },
        ]);
        let b = flat(10);
        assert_eq!(a.cmp_progress(&b), ProgressOrder::Behind);
    }

    #[test]
    fn nested_loop_epochs_compare_outer_first() {
        let a = key(vec![FrameKey {
            loops: vec![(lp(1), 3, 0), (lp(2), 9, 0)],
            cnt: 2,
        }]);
        let b = key(vec![FrameKey {
            loops: vec![(lp(1), 4, 0), (lp(2), 0, 0)],
            cnt: 2,
        }]);
        assert_eq!(a.cmp_progress(&b), ProgressOrder::Behind);
    }

    #[test]
    fn display_is_readable() {
        let k = key(vec![
            FrameKey {
                loops: vec![(lp(0x100000001), 2, 0)],
                cnt: 4,
            },
            FrameKey {
                loops: vec![],
                cnt: 0,
            },
        ]);
        let text = k.to_string();
        assert!(text.contains('#'), "{text}");
        assert!(text.contains('/'), "{text}");
        assert!(ProgressKey::top().to_string().contains("END"));
    }

    #[test]
    fn start_key_is_zero() {
        assert_eq!(
            ProgressKey::start().cmp_progress(&flat(0)),
            ProgressOrder::Equal
        );
    }

    /// The frame-based comparison the flat key replaced, kept as the
    /// oracle the word encoding is checked against.
    mod reference {
        use super::*;

        pub fn cmp_progress(a: &[FrameKey], b: &[FrameKey]) -> ProgressOrder {
            let mut i = 0;
            loop {
                match (a.get(i), b.get(i)) {
                    (Some(x), Some(y)) => match cmp_frames(x, y) {
                        ProgressOrder::Equal => i += 1,
                        decided => return decided,
                    },
                    (Some(_), None) => return ProgressOrder::Ahead,
                    (None, Some(_)) => return ProgressOrder::Behind,
                    (None, None) => return ProgressOrder::Equal,
                }
            }
        }

        pub fn cmp_frames(a: &FrameKey, b: &FrameKey) -> ProgressOrder {
            let by_cnt = |tie| match a.cnt.cmp(&b.cnt) {
                std::cmp::Ordering::Less => ProgressOrder::Behind,
                std::cmp::Ordering::Greater => ProgressOrder::Ahead,
                std::cmp::Ordering::Equal => tie,
            };
            let mut i = 0;
            loop {
                match (a.loops.get(i), b.loops.get(i)) {
                    (Some((la, ea, ba)), Some((lb, eb, bb))) => {
                        if la != lb {
                            return by_cnt(ProgressOrder::Divergent);
                        }
                        match ba.cmp(bb).then(ea.cmp(eb)) {
                            std::cmp::Ordering::Less => return ProgressOrder::Behind,
                            std::cmp::Ordering::Greater => return ProgressOrder::Ahead,
                            std::cmp::Ordering::Equal => i += 1,
                        }
                    }
                    (None, None) => return by_cnt(ProgressOrder::Equal),
                    (None, Some(_)) | (Some(_), None) => {
                        let (longer, longer_is_a) = if a.loops.len() > b.loops.len() {
                            (a, true)
                        } else {
                            (b, false)
                        };
                        let entered = longer.loops[i..].iter().any(|&(_, e, _)| e > 0);
                        return by_cnt(if !entered {
                            ProgressOrder::Equal
                        } else if longer_is_a {
                            ProgressOrder::Ahead
                        } else {
                            ProgressOrder::Behind
                        });
                    }
                }
            }
        }

        pub fn render(frames: &[FrameKey]) -> String {
            let mut out = String::new();
            for (i, frame) in frames.iter().enumerate() {
                if i > 0 {
                    out.push('/');
                }
                for (lid, epoch, _) in &frame.loops {
                    out.push_str(&format!("L{:x}#{}:", lid.0, epoch));
                }
                if frame.cnt == u64::MAX {
                    out.push_str("END");
                } else {
                    out.push_str(&frame.cnt.to_string());
                }
            }
            out
        }
    }

    #[test]
    fn keys_deeper_than_the_inline_capacity_spill_and_compare_like_frames() {
        let frame = |cnt, loops: &[u64]| FrameKey {
            loops: loops.iter().map(|&l| (lp(l), l + 1, 2 * l)).collect(),
            cnt,
        };
        let a = vec![frame(4, &[1, 2]), frame(0, &[]), frame(7, &[3])];
        let mut b = a.clone();
        b[2].loops[0].1 += 1;
        let (ka, kb) = (key(a.clone()), key(b.clone()));
        assert!(ka.words().len() > INLINE_WORDS, "{ka}");
        assert!(matches!(ka.words, Words::Heap(_)));
        assert_eq!(ka.frames(), a);
        assert_eq!(ka.cmp_progress(&kb), ProgressOrder::Behind);
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            assert_eq!(
                key(x.clone()).cmp_progress(&key(y.clone())),
                reference::cmp_progress(x, y)
            );
        }
        assert_eq!(ka.to_string(), reference::render(&a));
        // Building word by word spills at the same point.
        let mut built = ProgressKey::empty();
        for f in &a {
            let at = built.open_frame();
            f.loops.iter().for_each(|&l| built.push_loop(l));
            built.close_frame(at, f.cnt);
        }
        assert_eq!(built, ka);
    }

    #[test]
    fn one_loop_and_two_flat_frame_keys_stay_inline() {
        let one_loop = key(vec![FrameKey {
            loops: vec![(lp(1), 3, 0)],
            cnt: 2,
        }]);
        let two_flat = key(vec![
            FrameKey {
                loops: vec![],
                cnt: 4,
            },
            FrameKey {
                loops: vec![],
                cnt: 1,
            },
        ]);
        for k in [one_loop, two_flat, ProgressKey::top()] {
            assert!(matches!(k.words, Words::Inline { .. }), "{k}");
        }
    }

    #[test]
    fn a_cleared_key_keeps_its_block_and_clones_short_keys_inline() {
        let long = vec![
            FrameKey {
                loops: vec![(lp(1), 1, 0)],
                cnt: 3,
            };
            3
        ];
        let mut k = key(long.clone());
        let block = k.words().as_ptr();
        k.clear();
        let at = k.open_frame();
        k.push_loop((lp(2), 5, 1));
        k.close_frame(at, 6);
        assert_eq!(k.words().as_ptr(), block, "rebuilt in the same block");
        let short = k.clone();
        assert!(matches!(short.words, Words::Inline { .. }));
        assert_eq!(short, k);
        assert_eq!(short.to_string(), k.to_string());
        k.clear();
        for f in &long {
            let at = k.open_frame();
            f.loops.iter().for_each(|&l| k.push_loop(l));
            k.close_frame(at, f.cnt);
        }
        assert_eq!(k.words().as_ptr(), block);
        assert_eq!(k.clone(), key(long));
    }

    mod order_properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_frame() -> impl Strategy<Value = FrameKey> {
            let arb_loop = (0u64..4, 0u64..4, 0u64..3).prop_map(|(l, e, b)| (LoopUid(l), e, b));
            (proptest::collection::vec(arb_loop, 0..3), 0u64..8)
                .prop_map(|(loops, cnt)| FrameKey { loops, cnt })
        }

        fn arb_frames() -> impl Strategy<Value = Vec<FrameKey>> {
            proptest::collection::vec(arb_frame(), 1..4)
        }

        fn arb_key() -> impl Strategy<Value = ProgressKey> {
            arb_frames().prop_map(|frames| ProgressKey::from_frames(&frames))
        }

        proptest! {
            /// Antisymmetry: swapping the operands flips Behind/Ahead and
            /// preserves Equal/Divergent.
            #[test]
            fn cmp_is_antisymmetric(a in arb_key(), b in arb_key()) {
                let ab = a.cmp_progress(&b);
                let ba = b.cmp_progress(&a);
                let expected = match ab {
                    ProgressOrder::Behind => ProgressOrder::Ahead,
                    ProgressOrder::Ahead => ProgressOrder::Behind,
                    ProgressOrder::Equal => ProgressOrder::Equal,
                    ProgressOrder::Divergent => ProgressOrder::Divergent,
                };
                prop_assert_eq!(ba, expected);
            }

            /// Reflexivity: every key equals itself.
            #[test]
            fn cmp_is_reflexive(a in arb_key()) {
                prop_assert_eq!(a.cmp_progress(&a), ProgressOrder::Equal);
            }

            /// The flat comparison agrees with the frame-based reference.
            #[test]
            fn cmp_matches_the_frame_reference(a in arb_frames(), b in arb_frames()) {
                prop_assert_eq!(
                    key(a.clone()).cmp_progress(&key(b.clone())),
                    reference::cmp_progress(&a, &b)
                );
            }

            /// Frames survive a round trip through the word encoding.
            #[test]
            fn frames_round_trip(frames in arb_frames()) {
                let k = key(frames.clone());
                prop_assert_eq!(k.frames(), frames);
                prop_assert_eq!(ProgressKey::from_frames(&k.frames()), k);
            }

            /// `Display` renders the frames exactly as the frame-based key did.
            #[test]
            fn display_matches_the_frame_reference(frames in arb_frames()) {
                prop_assert_eq!(key(frames.clone()).to_string(), reference::render(&frames));
            }

            /// The terminal key dominates every generated key.
            #[test]
            fn top_dominates(a in arb_key()) {
                prop_assert_eq!(
                    ProgressKey::top().cmp_progress(&a),
                    ProgressOrder::Ahead
                );
            }
        }
    }
}
