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

/// A full progress key: one [`FrameKey`] per fresh frame, outermost first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgressKey {
    /// The frame keys, outermost first. Never empty.
    pub frames: Vec<FrameKey>,
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
    /// The initial key of a fresh execution.
    pub fn start() -> Self {
        ProgressKey {
            frames: vec![FrameKey::default()],
        }
    }

    /// The terminal key, strictly ahead of every reachable key; published
    /// when an execution (or thread) finishes so its peer never blocks on
    /// it again.
    pub fn top() -> Self {
        ProgressKey {
            frames: vec![FrameKey {
                loops: Vec::new(),
                cnt: u64::MAX,
            }],
        }
    }

    /// Whether this is the terminal key.
    pub fn is_top(&self) -> bool {
        self.frames.len() == 1 && self.frames[0].cnt == u64::MAX
    }

    /// Compares the progress of `self` against `other`.
    pub fn cmp_progress(&self, other: &ProgressKey) -> ProgressOrder {
        let mut i = 0;
        loop {
            match (self.frames.get(i), other.frames.get(i)) {
                (Some(a), Some(b)) => match cmp_frames(a, b) {
                    ProgressOrder::Equal => i += 1,
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

fn cmp_frames(a: &FrameKey, b: &FrameKey) -> ProgressOrder {
    let mut i = 0;
    loop {
        match (a.loops.get(i), b.loops.get(i)) {
            (Some((la, ea, ba)), Some((lb, eb, bb))) => {
                if la == lb {
                    // A later instance of the loop was entered at a
                    // strictly larger counter (the +1 exit strengthening),
                    // whatever its epoch; within one instance, epochs
                    // decide.
                    match ba.cmp(bb).then(ea.cmp(eb)) {
                        std::cmp::Ordering::Less => return ProgressOrder::Behind,
                        std::cmp::Ordering::Greater => return ProgressOrder::Ahead,
                        std::cmp::Ordering::Equal => i += 1,
                    }
                } else {
                    // Different loops at the same nesting position: the
                    // executions took different paths. Scalars still order
                    // them when unequal (join compensation guarantees
                    // soundness); equal scalars mean true divergence.
                    return match a.cnt.cmp(&b.cnt) {
                        std::cmp::Ordering::Less => ProgressOrder::Behind,
                        std::cmp::Ordering::Greater => ProgressOrder::Ahead,
                        std::cmp::Ordering::Equal => ProgressOrder::Divergent,
                    };
                }
            }
            (None, None) => {
                return match a.cnt.cmp(&b.cnt) {
                    std::cmp::Ordering::Less => ProgressOrder::Behind,
                    std::cmp::Ordering::Greater => ProgressOrder::Ahead,
                    std::cmp::Ordering::Equal => ProgressOrder::Equal,
                }
            }
            (None, Some(_)) | (Some(_), None) => {
                // One execution is inside an instrumented loop the other is
                // not in. The +1 exit strengthening makes post-loop scalars
                // strictly larger than in-loop scalars, so unequal scalars
                // decide; equal scalars mean the deeper one is at iteration
                // epoch > 0 (ahead) or exactly at loop entry (equal).
                return match a.cnt.cmp(&b.cnt) {
                    std::cmp::Ordering::Less => ProgressOrder::Behind,
                    std::cmp::Ordering::Greater => ProgressOrder::Ahead,
                    std::cmp::Ordering::Equal => {
                        let (longer, longer_is_a) = if a.loops.len() > b.loops.len() {
                            (a, true)
                        } else {
                            (b, false)
                        };
                        let entered = longer.loops[i..].iter().any(|&(_, e, _)| e > 0);
                        if !entered {
                            ProgressOrder::Equal
                        } else if longer_is_a {
                            ProgressOrder::Ahead
                        } else {
                            ProgressOrder::Behind
                        }
                    }
                };
            }
        }
    }
}

impl fmt::Display for ProgressKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, frame) in self.frames.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            for (lid, epoch, _) in &frame.loops {
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
        ProgressKey { frames }
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

    mod order_properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_frame() -> impl Strategy<Value = FrameKey> {
            let arb_loop = (0u64..4, 0u64..4, 0u64..3).prop_map(|(l, e, b)| (LoopUid(l), e, b));
            (proptest::collection::vec(arb_loop, 0..3), 0u64..8)
                .prop_map(|(loops, cnt)| FrameKey { loops, cnt })
        }

        fn arb_key() -> impl Strategy<Value = ProgressKey> {
            proptest::collection::vec(arb_frame(), 1..4).prop_map(|frames| ProgressKey { frames })
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
