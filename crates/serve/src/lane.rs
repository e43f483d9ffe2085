//! The per-session bounded lane between the socket thread and the
//! analysis worker.
//!
//! This is the serve-plane incarnation of the online monitor's bounded
//! per-thread lanes (`ft_runtime::online`), and it reuses the same
//! [`OverflowPolicy`] vocabulary with the same soundness contract:
//!
//! - [`OverflowPolicy::Block`] parks the socket thread until the worker
//!   drains — the daemon stops reading the connection, the kernel's TCP
//!   window fills, and the *client* stalls. Backpressure reaches the tenant
//!   that caused it and nobody loses events.
//! - [`OverflowPolicy::DropOldest`] sheds **data accesses only** from the
//!   oldest queued batches. Synchronization events are never dropped —
//!   losing a happens-before edge would corrupt every verdict after it,
//!   while losing an access can only miss the warnings that access would
//!   have produced. Shed counts surface in the session report as
//!   `dropped_events`, so degraded sessions are loud, exactly like the
//!   monitor's `online.dropped_events`.
//!
//! Batches are [`EventBlock`]s, decoded once on the socket thread and
//! analyzed in place by the worker. The lane is bounded in *events*, not
//! batches, so a tenant streaming huge `DATA` frames and one streaming tiny
//! frames hit the same ceiling.

use ft_runtime::online::OverflowPolicy;
use ft_trace::EventBlock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A bounded multi-producer (in practice single-producer) batch queue.
#[derive(Debug)]
pub struct Lane {
    state: Mutex<LaneState>,
    not_full: Condvar,
    not_empty: Condvar,
    cap_events: usize,
    policy: OverflowPolicy,
}

#[derive(Debug, Default)]
struct LaneState {
    queue: VecDeque<EventBlock>,
    pending: usize,
    dropped: u64,
    closed: bool,
}

impl Lane {
    /// A lane admitting up to `cap_events` queued events before the
    /// overflow policy engages.
    pub fn new(cap_events: usize, policy: OverflowPolicy) -> Self {
        Lane {
            state: Mutex::new(LaneState::default()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap_events: cap_events.max(1),
            policy,
        }
    }

    /// Enqueues one decoded batch, applying the overflow policy if the lane
    /// is full. A batch larger than the whole lane is admitted over-cap
    /// once the lane is otherwise empty (the monitor's over-cap escape:
    /// progress beats a livelock on a single oversized burst).
    pub fn push(&self, batch: EventBlock) {
        if batch.is_empty() {
            return;
        }
        let mut state = self.state.lock().expect("lane poisoned");
        loop {
            if state.closed {
                return; // session torn down; the worker will never pop
            }
            if state.pending + batch.len() <= self.cap_events || state.queue.is_empty() {
                state.pending += batch.len();
                state.queue.push_back(batch);
                drop(state);
                self.not_empty.notify_one();
                return;
            }
            match self.policy {
                OverflowPolicy::Block => {
                    state = self.not_full.wait(state).expect("lane poisoned");
                }
                OverflowPolicy::DropOldest => {
                    // Shed accesses from the oldest batches until the new
                    // batch fits; keep every sync op. If nothing sheddable
                    // remains the lane is all happens-before structure, and
                    // the batch goes in over-cap rather than being lost.
                    let need = state.pending + batch.len() - self.cap_events;
                    let mut shed = 0usize;
                    for queued in state.queue.iter_mut() {
                        if shed >= need {
                            break;
                        }
                        shed += queued.shed_accesses();
                    }
                    state.pending -= shed;
                    state.dropped += shed as u64;
                    state.pending += batch.len();
                    state.queue.push_back(batch);
                    drop(state);
                    self.not_empty.notify_one();
                    return;
                }
            }
        }
    }

    /// Dequeues the oldest batch; `None` once the lane is closed and
    /// drained.
    pub fn pop(&self) -> Option<EventBlock> {
        let mut state = self.state.lock().expect("lane poisoned");
        loop {
            if let Some(batch) = state.queue.pop_front() {
                state.pending -= batch.len();
                drop(state);
                self.not_full.notify_one();
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("lane poisoned");
        }
    }

    /// Marks the upload finished: queued batches still drain, then
    /// [`Lane::pop`] returns `None`.
    pub fn close(&self) {
        self.state.lock().expect("lane poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Accesses shed by [`OverflowPolicy::DropOldest`] so far.
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("lane poisoned").dropped
    }

    /// Events currently queued (for the `serve.lane_depth` gauge).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("lane poisoned").pending
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ft_clock::Tid;
    use ft_trace::{LockId, Op, VarId};
    use std::sync::Arc;

    /// A block holding `ops`, for tests that queue hand-written events.
    pub(crate) fn block_of(ops: &[Op]) -> EventBlock {
        let mut block = EventBlock::default();
        for op in ops {
            block.push_op(op);
        }
        block
    }

    fn reads(n: usize) -> EventBlock {
        block_of(&vec![Op::Read(Tid::new(0), VarId::new(0)); n])
    }

    #[test]
    fn fifo_and_close_drain() {
        let lane = Lane::new(100, OverflowPolicy::Block);
        lane.push(reads(3));
        lane.push(block_of(&[Op::Acquire(Tid::new(0), LockId::new(0))]));
        lane.close();
        assert_eq!(lane.pop().unwrap().len(), 3);
        assert_eq!(lane.pop().unwrap().len(), 1);
        assert!(lane.pop().is_none());
    }

    #[test]
    fn block_policy_applies_backpressure() {
        let lane = Arc::new(Lane::new(4, OverflowPolicy::Block));
        lane.push(reads(4));
        let producer = {
            let lane = Arc::clone(&lane);
            std::thread::spawn(move || {
                lane.push(reads(4)); // must wait for the consumer
                lane.close();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(lane.depth(), 4, "producer must be parked, not enqueued");
        assert_eq!(lane.pop().unwrap().len(), 4);
        assert_eq!(lane.pop().unwrap().len(), 4);
        assert!(lane.pop().is_none());
        producer.join().unwrap();
        assert_eq!(lane.dropped(), 0);
    }

    #[test]
    fn drop_oldest_sheds_accesses_never_sync_or_barriers() {
        let lane = Lane::new(8, OverflowPolicy::DropOldest);
        let (t0, t1, t2) = (Tid::new(0), Tid::new(1), Tid::new(2));
        let m = LockId::new(0);
        let first = [t0, t1];
        let second = [t0, t1, t2];
        let kept = vec![
            Op::Acquire(t0, m),
            Op::BarrierRelease(first.to_vec()),
            Op::Release(t0, m),
            Op::Notify(t1, m),
            Op::BarrierRelease(second.to_vec()),
            Op::Fork(t0, t2),
        ];
        let mut mixed = kept.clone();
        for (at, x) in [(0, 0), (2, 1), (3, 2), (5, 3), (6, 4), (9, 5)] {
            mixed.insert(at, Op::Write(t1, VarId::new(x)));
        }
        lane.push(block_of(&mixed));
        lane.push(reads(2)); // over cap: sheds the six old accesses
        lane.close();
        assert_eq!(lane.dropped(), 6);
        let shed = lane.pop().unwrap();
        assert_eq!(shed.ops().collect::<Vec<_>>(), kept);
        assert_eq!(shed.barrier(shed.arg(1)), first);
        assert_eq!(shed.barrier(shed.arg(4)), second);
        assert_eq!(lane.pop().unwrap().len(), 2);
        assert!(lane.pop().is_none());
    }

    #[test]
    fn oversized_batch_uses_the_over_cap_escape() {
        for policy in [OverflowPolicy::Block, OverflowPolicy::DropOldest] {
            let lane = Lane::new(2, policy);
            lane.push(reads(10)); // empty lane: admitted whole
            lane.close();
            assert_eq!(lane.pop().unwrap().len(), 10);
        }
    }
}
