//! Deterministic single-threaded async executor with virtual time.
//!
//! The executor is the heart of the simulation: it polls tasks until every
//! one of them is blocked, then jumps the virtual clock to the next timer
//! deadline. Because there is exactly one thread and the ready queue is
//! FIFO, a given seed always produces the same interleaving — the property
//! the whole benchmark harness relies on.
//!
//! The DepFast paper (§3.3) describes a runtime with "coroutines, events, a
//! scheduler, and I/O helper threads". This executor plays the scheduler
//! role; the DepFast crate layers coroutine identity and event tracing on
//! top, and the resource models in this crate stand in for the I/O helper
//! threads by completing simulated I/O after a modelled delay.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimTime;
use crate::LocalBoxFuture;

/// Identifier of a spawned task, unique within one [`Sim`]: a slot in the
/// task table plus the generation of that slot, so a wake that outlives
/// its task can never reach the task that later reuses the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskId {
    slot: u32,
    gen: u32,
}

/// Handle to a scheduled timer, for [`Sim::cancel_timer`].
///
/// Cancelling a timer that already fired or was already cancelled is a
/// no-op, so a future may cancel its timer unconditionally on drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    seq: u64,
    slot: u32,
}

/// What a timer fires: either waking a task or running a callback.
///
/// Callbacks let the network model deliver messages without a dedicated
/// pump task; they run on the executor thread between task polls.
enum TimerAction {
    Wake(Waker),
    Call(Box<dyn FnOnce()>),
}

/// Heap key of a timer: fire instant, then schedule order (`seq` is unique,
/// so timers due at one instant fire in the order they were scheduled),
/// then the action's slot. A key whose slot no longer holds `seq` belongs
/// to a cancelled timer and is skipped when popped.
type TimerKey = Reverse<(SimTime, u64, u32)>;

/// Pending timers: a min-heap of small keys over a slab of actions.
#[derive(Default)]
struct Timers {
    heap: BinaryHeap<TimerKey>,
    /// Actions by slot, tagged with the `seq` of the timer that owns the
    /// slot; `None` once fired or cancelled.
    slots: Vec<Option<(u64, TimerAction)>>,
    free: Vec<u32>,
    /// Timers scheduled so far (cancelled ones included); the next `seq`.
    scheduled: u64,
}

impl Timers {
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn schedule(&mut self, at: SimTime, action: TimerAction) -> TimerId {
        let seq = self.scheduled;
        self.scheduled += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some((seq, action));
                slot
            }
            None => {
                self.slots.push(Some((seq, action)));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
        TimerId { seq, slot }
    }

    /// Takes the action out of `slot` if timer `seq` still owns it.
    fn take(&mut self, seq: u64, slot: u32) -> Option<TimerAction> {
        let entry = self.slots.get_mut(slot as usize)?;
        if !matches!(entry, Some((s, _)) if *s == seq) {
            return None;
        }
        let (_, action) = entry.take()?;
        self.free.push(slot);
        Some(action)
    }

    /// Removes the action of `id` if it is still pending.
    fn cancel(&mut self, id: TimerId) -> Option<TimerAction> {
        let action = self.take(id.seq, id.slot)?;
        // Dead keys are skipped lazily; once they outnumber the live ones,
        // one O(n) rebuild drops them all (amortised O(1) per cancel).
        if self.heap.len() > 2 * self.live() {
            let slots = &self.slots;
            self.heap.retain(|key| is_live(slots, key));
        }
        Some(action)
    }

    /// The fire instant of the earliest pending timer, discarding dead
    /// keys on the way.
    fn next_at(&mut self) -> Option<SimTime> {
        while let Some(key) = self.heap.peek() {
            if is_live(&self.slots, key) {
                return Some(key.0 .0);
            }
            self.heap.pop();
        }
        None
    }

    /// Pops every pending timer due at or before `at`, in schedule order.
    fn pop_due(&mut self, at: SimTime, out: &mut Vec<TimerAction>) {
        while let Some(&Reverse((t, seq, slot))) = self.heap.peek() {
            if t > at {
                break;
            }
            self.heap.pop();
            out.extend(self.take(seq, slot));
        }
    }
}

fn is_live(slots: &[Option<(u64, TimerAction)>], &Reverse((_, seq, slot)): &TimerKey) -> bool {
    matches!(slots[slot as usize], Some((s, _)) if s == seq)
}

/// The shared FIFO of tasks whose wakers have fired.
///
/// Wakers must be `Send + Sync` per the std contract, so the queue sits
/// behind a lightweight mutex even though in practice only the simulation
/// thread touches it.
#[derive(Default)]
struct WokenQueue {
    queue: Mutex<VecDeque<TaskId>>,
}

struct TaskWaker {
    id: TaskId,
    woken: Arc<WokenQueue>,
}

impl std::task::Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.woken.queue.lock().push_back(self.id);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.woken.queue.lock().push_back(self.id);
    }
}

/// One slot of the task table. `task` is `None` while the slot is free
/// and while its task is being polled.
struct TaskSlot {
    gen: u32,
    task: Option<(LocalBoxFuture<()>, Waker)>,
}

struct Core {
    now: SimTime,
    tasks: Vec<TaskSlot>,
    free_tasks: Vec<u32>,
    timers: Timers,
    /// Spare buffer `drain_ready` swaps with the woken queue, so a batch
    /// is taken in one lock and no allocation.
    batch: VecDeque<TaskId>,
    /// Spare buffer for the actions of one timer instant, reused by
    /// `advance_to_next_timer` for the same reason.
    fired: Vec<TimerAction>,
    rng: SmallRng,
    /// Total tasks ever spawned, for diagnostics.
    spawned: u64,
    /// Total task polls, for diagnostics.
    polls: u64,
}

/// A deterministic, single-threaded discrete-event simulator and executor.
///
/// `Sim` is cheap to clone (it is a reference-counted handle) and is the
/// entry point for everything time-related: spawning tasks, sleeping,
/// scheduling callbacks and drawing seeded random numbers.
///
/// # Examples
///
/// ```
/// use simkit::Sim;
/// use std::time::Duration;
///
/// let sim = Sim::new(42);
/// let s = sim.clone();
/// let out = sim.block_on(async move {
///     s.sleep(Duration::from_millis(5)).await;
///     s.now().as_nanos()
/// });
/// assert_eq!(out, 5_000_000);
/// ```
#[derive(Clone)]
pub struct Sim {
    core: Rc<RefCell<Core>>,
    woken: Arc<WokenQueue>,
}

impl Sim {
    /// Creates a new simulator whose random stream is derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            core: Rc::new(RefCell::new(Core {
                now: SimTime::ZERO,
                tasks: Vec::new(),
                free_tasks: Vec::new(),
                timers: Timers::default(),
                batch: VecDeque::new(),
                fired: Vec::new(),
                rng: SmallRng::seed_from_u64(seed),
                spawned: 0,
                polls: 0,
            })),
            woken: Arc::new(WokenQueue::default()),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.core.borrow().now
    }

    /// Number of tasks spawned so far (diagnostics).
    pub fn tasks_spawned(&self) -> u64 {
        self.core.borrow().spawned
    }

    /// Number of timers scheduled so far, cancelled ones included
    /// (diagnostics).
    pub fn timers_scheduled(&self) -> u64 {
        self.core.borrow().timers.scheduled
    }

    /// Number of timers scheduled and neither fired nor cancelled yet
    /// (diagnostics).
    pub fn live_timers(&self) -> usize {
        self.core.borrow().timers.live()
    }

    /// Number of task polls performed so far (diagnostics).
    pub fn polls(&self) -> u64 {
        self.core.borrow().polls
    }

    /// Draws a uniformly random `u64` from the seeded stream.
    pub fn rand_u64(&self) -> u64 {
        self.core.borrow_mut().rng.random()
    }

    /// Draws a random value in `[lo, hi)` from the seeded stream.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn rand_range(&self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "rand_range requires lo < hi");
        self.core.borrow_mut().rng.random_range(lo..hi)
    }

    /// Runs `f` with mutable access to the seeded RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SmallRng) -> T) -> T {
        f(&mut self.core.borrow_mut().rng)
    }

    /// Spawns a task and returns a handle that resolves to its output.
    ///
    /// The task starts on the ready queue and is polled during the next
    /// executor iteration; spawning never polls inline, which keeps
    /// re-entrancy away from callers holding borrows.
    pub fn spawn<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> JoinHandle<T> {
        let slot: Rc<RefCell<JoinSlot<T>>> = Rc::new(RefCell::new(JoinSlot {
            value: None,
            waker: None,
        }));
        let slot2 = slot.clone();
        let wrapped = Box::pin(async move {
            let value = fut.await;
            let mut s = slot2.borrow_mut();
            s.value = Some(value);
            if let Some(w) = s.waker.take() {
                w.wake();
            }
        });
        let id = {
            let mut core = self.core.borrow_mut();
            core.spawned += 1;
            let id = match core.free_tasks.pop() {
                Some(slot) => TaskId {
                    slot,
                    gen: core.tasks[slot as usize].gen,
                },
                None => {
                    core.tasks.push(TaskSlot { gen: 0, task: None });
                    TaskId {
                        slot: (core.tasks.len() - 1) as u32,
                        gen: 0,
                    }
                }
            };
            // One waker per task for its whole life: lets futures
            // deduplicate registrations via `Waker::will_wake`.
            let waker = Waker::from(Arc::new(TaskWaker {
                id,
                woken: self.woken.clone(),
            }));
            core.tasks[id.slot as usize].task = Some((wrapped, waker));
            id
        };
        self.woken.queue.lock().push_back(id);
        JoinHandle { slot }
    }

    /// Schedules `waker` to be woken at virtual instant `at`.
    pub fn schedule_wake(&self, at: SimTime, waker: Waker) -> TimerId {
        self.core
            .borrow_mut()
            .timers
            .schedule(at, TimerAction::Wake(waker))
    }

    /// Schedules `f` to run on the executor thread at virtual instant `at`.
    ///
    /// This is how the network model delivers messages: the callback runs
    /// between task polls, so it may freely borrow shared state.
    pub fn schedule_call(&self, at: SimTime, f: impl FnOnce() + 'static) -> TimerId {
        self.core
            .borrow_mut()
            .timers
            .schedule(at, TimerAction::Call(Box::new(f)))
    }

    /// Cancels a pending timer: its waker is never woken, its callback
    /// never runs. A no-op if the timer already fired or was cancelled.
    pub fn cancel_timer(&self, id: TimerId) {
        let action = self.core.borrow_mut().timers.cancel(id);
        // Dropped after the borrow ends: a callback's captures may touch
        // the simulator from their destructors.
        drop(action);
    }

    /// Returns a future that completes after virtual duration `d`.
    pub fn sleep(&self, d: Duration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Returns a future that completes at virtual instant `deadline`.
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            timer: None,
        }
    }

    /// Polls every runnable task, advancing time as needed, until the
    /// simulation is quiescent (no runnable tasks and no pending timers).
    pub fn run(&self) {
        loop {
            self.drain_ready();
            let fired = self.advance_to_next_timer();
            if !fired && self.woken.queue.lock().is_empty() {
                break;
            }
        }
    }

    /// Runs the simulation until `handle`'s task has completed and returns
    /// its output.
    ///
    /// # Panics
    ///
    /// Panics if the simulation goes quiescent (deadlocks) before the task
    /// finishes — in a deterministic simulation that always indicates a
    /// bug, so failing loudly beats hanging.
    pub fn run_until<T>(&self, handle: JoinHandle<T>) -> T {
        loop {
            if let Some(v) = handle.try_take() {
                return v;
            }
            self.drain_ready();
            if let Some(v) = handle.try_take() {
                return v;
            }
            let fired = self.advance_to_next_timer();
            if !fired && self.woken.queue.lock().is_empty() {
                panic!(
                    "simulation deadlocked at {} waiting for run_until task",
                    self.now()
                );
            }
        }
    }

    /// Spawns `fut` and runs the simulation until it completes.
    pub fn block_on<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> T {
        let handle = self.spawn(fut);
        self.run_until(handle)
    }

    /// Runs the simulation until virtual time reaches `deadline`, then
    /// returns (remaining tasks stay parked).
    pub fn run_until_time(&self, deadline: SimTime) {
        loop {
            self.drain_ready();
            let next = self.core.borrow_mut().timers.next_at();
            match next {
                Some(at) if at <= deadline => {
                    self.advance_to_next_timer();
                }
                _ => {
                    if self.woken.queue.lock().is_empty() {
                        // Nothing left to do before the deadline.
                        self.core.borrow_mut().now = deadline.max(self.now());
                        return;
                    }
                }
            }
        }
    }

    /// Polls tasks from the woken queue until it is empty. Each batch is
    /// taken in one lock; tasks woken while it runs form the next batch,
    /// which keeps the order exactly FIFO.
    fn drain_ready(&self) {
        let mut batch = std::mem::take(&mut self.core.borrow_mut().batch);
        loop {
            std::mem::swap(&mut *self.woken.queue.lock(), &mut batch);
            if batch.is_empty() {
                break;
            }
            while let Some(id) = batch.pop_front() {
                self.poll_task(id);
            }
        }
        self.core.borrow_mut().batch = batch;
    }

    fn poll_task(&self, id: TaskId) {
        // Take the task out of its slot so the poll can spawn/schedule
        // without re-borrowing the core.
        let (mut fut, waker) = {
            let mut core = self.core.borrow_mut();
            let slot = &mut core.tasks[id.slot as usize];
            if slot.gen != id.gen {
                return; // Already finished; stale wake.
            }
            let Some(task) = slot.task.take() else {
                return;
            };
            core.polls += 1;
            task
        };
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                {
                    let mut core = self.core.borrow_mut();
                    let slot = &mut core.tasks[id.slot as usize];
                    slot.gen = slot.gen.wrapping_add(1);
                    core.free_tasks.push(id.slot);
                }
                // The finished future's destructors may cancel timers.
                drop(fut);
            }
            Poll::Pending => {
                self.core.borrow_mut().tasks[id.slot as usize].task = Some((fut, waker));
            }
        }
    }

    /// Advances the clock to the earliest timer and fires every timer due
    /// at that instant. Returns `false` if there were no timers.
    fn advance_to_next_timer(&self) -> bool {
        let mut actions = {
            let mut core = self.core.borrow_mut();
            let Some(at) = core.timers.next_at() else {
                return false;
            };
            debug_assert!(at >= core.now, "timer scheduled in the past");
            core.now = core.now.max(at);
            let mut actions = std::mem::take(&mut core.fired);
            core.timers.pop_due(at, &mut actions);
            actions
        };
        for action in actions.drain(..) {
            match action {
                TimerAction::Wake(w) => w.wake(),
                TimerAction::Call(f) => f(),
            }
        }
        self.core.borrow_mut().fired = actions;
        true
    }
}

struct JoinSlot<T> {
    value: Option<T>,
    waker: Option<Waker>,
}

/// Handle to a spawned task's eventual output.
///
/// Await it inside the simulation, or use [`Sim::run_until`] from outside.
pub struct JoinHandle<T> {
    slot: Rc<RefCell<JoinSlot<T>>>,
}

impl<T> JoinHandle<T> {
    /// Takes the output if the task has finished.
    pub fn try_take(&self) -> Option<T> {
        self.slot.borrow_mut().value.take()
    }

    /// Returns `true` if the task has finished (output still available).
    pub fn is_finished(&self) -> bool {
        self.slot.borrow().value.is_some()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut slot = self.slot.borrow_mut();
        if let Some(v) = slot.value.take() {
            Poll::Ready(v)
        } else {
            slot.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
///
/// Dropping it before the deadline cancels its timer.
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    timer: Option<TimerId>,
}

impl Sleep {
    /// The virtual instant this sleep completes at.
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            Poll::Ready(())
        } else {
            // Arm the wake-up once; re-polls (spurious wakes) must not
            // multiply timers.
            if self.timer.is_none() {
                self.timer = Some(self.sim.schedule_wake(self.deadline, cx.waker().clone()));
            }
            Poll::Pending
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(id) = self.timer {
            self.sim.cancel_timer(id);
        }
    }
}

/// Cooperatively yields once, letting other ready tasks run first.
pub fn yield_now() -> YieldNow {
    YieldNow { polled: false }
}

/// Future returned by [`yield_now`].
pub struct YieldNow {
    polled: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.polled {
            Poll::Ready(())
        } else {
            self.polled = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn block_on_returns_value() {
        let sim = Sim::new(1);
        assert_eq!(sim.block_on(async { 7 }), 7);
    }

    #[test]
    fn sleep_advances_virtual_time_only() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let wall = std::time::Instant::now();
        sim.block_on(async move {
            s.sleep(Duration::from_secs(3600)).await;
        });
        assert_eq!(sim.now(), SimTime::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn tasks_interleave_deterministically() {
        let run = |seed| {
            let sim = Sim::new(seed);
            let order = Rc::new(RefCell::new(Vec::new()));
            for i in 0..5u32 {
                let s = sim.clone();
                let o = order.clone();
                sim.spawn(async move {
                    s.sleep(Duration::from_millis((5 - i) as u64)).await;
                    o.borrow_mut().push(i);
                });
            }
            sim.run();
            let out = order.borrow().clone();
            out
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b);
        assert_eq!(a, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn timers_at_same_instant_fire_in_schedule_order() {
        let sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let h = hits.clone();
            sim.schedule_call(SimTime::from_millis(1), move || h.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*hits.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn cancelled_timer_never_fires_or_wakes() {
        let sim = Sim::new(1);
        let called = Rc::new(Cell::new(false));
        let c = called.clone();
        let call = sim.schedule_call(SimTime::from_millis(1), move || c.set(true));
        // A task that arms a wake on its first poll and then stays parked.
        let polls = Rc::new(Cell::new(0));
        let armed = Rc::new(Cell::new(None));
        let (p, a, s) = (polls.clone(), armed.clone(), sim.clone());
        sim.spawn(std::future::poll_fn(move |cx| {
            p.set(p.get() + 1);
            if a.get().is_none() {
                a.set(Some(
                    s.schedule_wake(SimTime::from_millis(2), cx.waker().clone()),
                ));
            }
            Poll::<()>::Pending
        }));
        sim.run_until_time(SimTime::ZERO);
        assert_eq!((polls.get(), sim.live_timers()), (1, 2));
        sim.cancel_timer(call);
        sim.cancel_timer(armed.get().unwrap());
        assert_eq!(sim.live_timers(), 0);
        sim.run();
        assert!(!called.get());
        assert_eq!(polls.get(), 1, "a cancelled wake must not re-poll");
        assert_eq!(sim.now(), SimTime::ZERO, "nothing left to advance to");
        assert_eq!(sim.timers_scheduled(), 2, "cancelled timers still count");
    }

    #[test]
    fn cancel_after_fire_or_twice_is_a_no_op() {
        let sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        let fired = sim.schedule_call(SimTime::from_millis(1), move || h.borrow_mut().push(1));
        sim.run();
        // The next timer reuses the fired one's slot; the stale id must
        // not reach it.
        let h = hits.clone();
        sim.schedule_call(SimTime::from_millis(2), move || h.borrow_mut().push(2));
        sim.cancel_timer(fired);
        let h = hits.clone();
        let twice = sim.schedule_call(SimTime::from_millis(3), move || h.borrow_mut().push(3));
        sim.cancel_timer(twice);
        sim.cancel_timer(twice);
        assert_eq!(sim.live_timers(), 1);
        sim.run();
        assert_eq!(*hits.borrow(), vec![1, 2]);
    }

    #[test]
    fn same_instant_order_survives_heavy_cancellation() {
        let sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(Vec::new()));
        let mut ids = Vec::new();
        for i in 0..2000u64 {
            let h = hits.clone();
            // Four instants, interleaved, so every instant has many peers.
            let at = SimTime::from_millis(1 + i % 4);
            ids.push((i, sim.schedule_call(at, move || h.borrow_mut().push(i))));
        }
        // Cancel nine in ten: dead keys outnumber live ones many times
        // over, forcing rebuilds.
        let mut kept = Vec::new();
        for (i, id) in ids {
            if i % 10 == 3 {
                kept.push(i);
            } else {
                sim.cancel_timer(id);
            }
        }
        assert_eq!(sim.live_timers(), kept.len());
        sim.run();
        kept.sort_by_key(|i| (i % 4, *i));
        assert_eq!(*hits.borrow(), kept);
    }

    #[test]
    fn stale_wake_does_not_poll_the_task_reusing_the_slot() {
        let sim = Sim::new(1);
        let stale: Rc<RefCell<Option<Waker>>> = Rc::default();
        let st = stale.clone();
        sim.spawn(std::future::poll_fn(move |cx| {
            *st.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }));
        sim.run();
        let polls = Rc::new(Cell::new(0));
        let p = polls.clone();
        sim.spawn(std::future::poll_fn(move |_| {
            p.set(p.get() + 1);
            Poll::<()>::Pending
        }));
        sim.run();
        assert_eq!(sim.core.borrow().tasks.len(), 1, "the slot was reused");
        stale.borrow().as_ref().unwrap().wake_by_ref();
        sim.run();
        assert_eq!(polls.get(), 1);
    }

    #[test]
    fn join_handle_awaitable_from_task() {
        let sim = Sim::new(1);
        let s = sim.clone();
        let out = sim.block_on(async move {
            let inner = s.spawn(async { 41 });
            inner.await + 1
        });
        assert_eq!(out, 42);
    }

    #[test]
    #[should_panic(expected = "deadlocked")]
    fn run_until_detects_deadlock() {
        let sim = Sim::new(1);
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn run_until_time_parks_remaining_work() {
        let sim = Sim::new(1);
        let fired = Rc::new(Cell::new(false));
        let f = fired.clone();
        let s = sim.clone();
        sim.spawn(async move {
            s.sleep(Duration::from_secs(10)).await;
            f.set(true);
        });
        sim.run_until_time(SimTime::from_secs(5));
        assert!(!fired.get());
        assert_eq!(sim.now(), SimTime::from_secs(5));
        sim.run_until_time(SimTime::from_secs(20));
        assert!(fired.get());
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let sim = Sim::new(123);
            (0..8).map(|_| sim.rand_u64()).collect()
        };
        let b: Vec<u64> = {
            let sim = Sim::new(123);
            (0..8).map(|_| sim.rand_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let sim = Sim::new(124);
            (0..8).map(|_| sim.rand_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn yield_now_lets_other_tasks_run() {
        let sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        sim.spawn(async move {
            l1.borrow_mut().push("a1");
            yield_now().await;
            l1.borrow_mut().push("a2");
        });
        let l2 = log.clone();
        sim.spawn(async move {
            l2.borrow_mut().push("b1");
        });
        sim.run();
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2"]);
    }
}
