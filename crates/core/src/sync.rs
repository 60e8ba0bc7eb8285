//! Synchronization shim: every concurrency primitive the planner stack
//! touches goes through this module instead of `std` directly.
//!
//! In normal builds the shim is zero-cost: the atomics and [`Mutex`] are
//! plain re-exports of `std::sync`, and [`scope`]/[`Scope::spawn`] are
//! `#[inline]` wrappers around `std::thread::scope` that add nothing but
//! a struct field. Under `cfg(feature = "model-check")` the same names
//! resolve to *virtualized* primitives whose every operation is a yield
//! point of a controlled scheduler ([`model`]): a model checker (the
//! `h2p-check` crate) can then enumerate thread interleavings
//! deterministically — DFS-exhaustive for small configurations,
//! randomized PCT-style for larger ones — and assert the planner's
//! determinism invariants under every explored schedule.
//!
//! Two properties make it safe to enable the feature workspace-wide
//! (Cargo feature unification turns it on for every dependent once any
//! crate asks for it):
//!
//! * **Participant gating.** The virtualized operations consult a
//!   thread-local participant id and fall straight through to the real
//!   `std` primitive when the current thread is not registered with an
//!   active exploration. Ordinary tests and benches running in the same
//!   process are therefore untouched — semantics stay bit-identical,
//!   overhead is one thread-local read per operation.
//! * **Real primitives underneath.** The virtual layer only *schedules*;
//!   the data operations still go through genuine `std` atomics and
//!   mutexes. If the controller ever abandons a run (step budget,
//!   deadlock, participant panic) it releases all threads to run freely
//!   and the underlying primitives keep the program memory-safe.
//!
//! `worksteal.rs` takes only `Arc` from here (the shared tail-collapse
//! candidates): its tail-optimization passes are pure sequential
//! functions over plan snapshots and own no synchronization state (the
//! model checker reaches them only *through* `par`/planner fan-out).

pub use std::sync::atomic::Ordering;
pub use std::sync::Arc;

#[cfg(not(feature = "model-check"))]
pub use std::sync::atomic::AtomicUsize;
#[cfg(not(feature = "model-check"))]
pub use std::sync::{Mutex, MutexGuard};

#[cfg(feature = "model-check")]
pub use virt::{AtomicUsize, Mutex, MutexGuard};

/// The machine's available parallelism (or 1 when unknown). Inside an
/// active model-check exploration this reports the *virtual* parallelism
/// of the scenario instead, so `par::worker_count` fans out the modeled
/// worker count even on a single-core host.
///
/// The machine's value is probed once per process: on Linux the probe
/// reads cgroup files, which costs more than planning a small request,
/// and the planner asks on every plan.
pub fn available_parallelism() -> usize {
    #[cfg(feature = "model-check")]
    if let Some(vpar) = model::virtual_parallelism() {
        return vpar;
    }
    static PROBED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *PROBED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// A scoped-thread spawner mirroring [`std::thread::Scope`]. Under
/// model check, threads spawned *by a participant* register with the
/// controller before the spawner resumes (a rendezvous that keeps the
/// runnable set deterministic for schedule replay); everything else is a
/// plain pass-through.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

// `Scope` is just a reference; copying it lets `move` closures capture
// it per spawn exactly like `&std::thread::Scope` does.
impl<'scope, 'env> Clone for Scope<'scope, 'env> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'scope, 'env> Copy for Scope<'scope, 'env> {}

/// Handle for a thread spawned through [`Scope::spawn`]. `join` blocks
/// virtually (controller-scheduled) before the real join so a controlled
/// run never wedges an OS thread inside `std`'s join.
pub struct JoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
    #[cfg(feature = "model-check")]
    participant: Option<usize>,
}

impl<'scope, T> JoinHandle<'scope, T> {
    pub fn join(self) -> std::thread::Result<T> {
        #[cfg(feature = "model-check")]
        if let Some(target) = self.participant {
            model::join_wait(target);
        }
        self.inner.join()
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    pub fn spawn<F, T>(&self, f: F) -> JoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        #[cfg(feature = "model-check")]
        {
            if model::participating() {
                let (tx, rx) = std::sync::mpsc::channel();
                let inner = self.inner.spawn(move || {
                    let id = model::register_child();
                    // The spawner blocks on this rendezvous, so the
                    // channel cannot be closed yet; if it somehow is,
                    // fall through and run unscheduled (real primitives
                    // keep the run safe, the explorer records divergence).
                    let _ = tx.send(id);
                    model::run_participant(id, f)
                });
                // Rendezvous: the child is registered (runnable but not
                // scheduled) before spawn returns, making thread ids and
                // runnable sets a deterministic function of the schedule.
                let participant = rx.recv().ok();
                return JoinHandle { inner, participant };
            }
            let inner = self.inner.spawn(f);
            JoinHandle {
                inner,
                participant: None,
            }
        }
        #[cfg(not(feature = "model-check"))]
        JoinHandle {
            inner: self.inner.spawn(f),
        }
    }
}

/// Mirror of [`std::thread::scope`] handing out the shim's [`Scope`].
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(Scope<'scope, 'env>) -> T,
{
    std::thread::scope(|inner| f(Scope { inner }))
}

#[cfg(feature = "model-check")]
mod virt {
    //! Virtualized primitives: real `std` data operations preceded by
    //! controller yield points when the current thread participates in
    //! an exploration.

    use super::model;
    use std::sync::atomic::Ordering;

    /// Virtualized [`std::sync::atomic::AtomicUsize`].
    #[derive(Debug, Default)]
    pub struct AtomicUsize {
        inner: std::sync::atomic::AtomicUsize,
    }

    impl AtomicUsize {
        pub fn new(v: usize) -> Self {
            Self {
                inner: std::sync::atomic::AtomicUsize::new(v),
            }
        }

        pub fn load(&self, order: Ordering) -> usize {
            model::yield_point();
            self.inner.load(order)
        }

        pub fn store(&self, v: usize, order: Ordering) {
            model::yield_point();
            self.inner.store(v, order);
        }

        /// Read-modify-write with the model checker's fault hook: an
        /// armed injected bug replaces the atomic RMW with a broken
        /// variant (see [`model::InjectedFault`]) so the explorer can
        /// prove the invariant instrumentation catches it.
        pub fn fetch_add(&self, v: usize, order: Ordering) -> usize {
            model::yield_point();
            match model::take_fault() {
                Some(model::InjectedFault::SkipClaim) => {
                    // Dropped claim: the cursor advances one index past
                    // the claimed chunk, so one item is never handed out.
                    let cur = self.inner.load(Ordering::SeqCst);
                    self.inner.store(cur + v + 1, Ordering::SeqCst);
                    cur
                }
                Some(model::InjectedFault::SplitClaim) => {
                    // Torn claim: load and store are separate steps with
                    // a schedule point between them — the classic lost
                    // update. Only adversarial interleavings expose it.
                    let cur = self.inner.load(Ordering::SeqCst);
                    model::yield_point();
                    self.inner.store(cur + v, Ordering::SeqCst);
                    cur
                }
                None => self.inner.fetch_add(v, order),
            }
        }
    }

    /// Virtualized [`std::sync::Mutex`]: acquisition is a scheduling
    /// decision; ownership is tracked by the controller so a scheduled
    /// thread never blocks the OS thread inside the real lock.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
        id: usize,
    }

    impl<T> Mutex<T> {
        pub fn new(v: T) -> Self {
            Self {
                inner: std::sync::Mutex::new(v),
                id: model::next_mutex_id(),
            }
        }

        pub fn lock(&self) -> std::sync::LockResult<MutexGuard<'_, T>> {
            // Virtual wait-until-free: among participants only one thread
            // runs at a time and ownership is controller-tracked, so the
            // real lock below is acquired without blocking.
            let virtually_held = model::mutex_acquire(self.id);
            match self.inner.lock() {
                Ok(guard) => Ok(MutexGuard {
                    guard: Some(guard),
                    mutex_id: self.id,
                    virtually_held,
                }),
                Err(poisoned) => Err(std::sync::PoisonError::new(MutexGuard {
                    guard: Some(poisoned.into_inner()),
                    mutex_id: self.id,
                    virtually_held,
                })),
            }
        }
    }

    /// Guard for the virtualized [`Mutex`]. On drop the *real* guard is
    /// released first, then the virtual ownership is cleared and waiters
    /// are woken — so a woken thread's real `lock()` always succeeds.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T> {
        guard: Option<std::sync::MutexGuard<'a, T>>,
        mutex_id: usize,
        virtually_held: bool,
    }

    impl<'a, T> std::ops::Deref for MutexGuard<'a, T> {
        type Target = T;
        fn deref(&self) -> &T {
            match &self.guard {
                Some(g) => g,
                // The Option is only emptied in drop().
                None => unreachable!("mutex guard used after drop"),
            }
        }
    }

    impl<'a, T> std::ops::DerefMut for MutexGuard<'a, T> {
        fn deref_mut(&mut self) -> &mut T {
            match &mut self.guard {
                Some(g) => g,
                None => unreachable!("mutex guard used after drop"),
            }
        }
    }

    impl<'a, T> Drop for MutexGuard<'a, T> {
        fn drop(&mut self) {
            drop(self.guard.take());
            if self.virtually_held {
                model::mutex_release(self.mutex_id);
            }
        }
    }
}

#[cfg(feature = "model-check")]
pub mod model {
    //! The controlled scheduler: at most one participant thread runs at
    //! a time; every virtualized operation is a *yield point* where the
    //! controller consults a pluggable decision function (DFS replay or
    //! PCT priorities, supplied by `h2p-check`) to pick the next thread.
    //!
    //! Threads become participants only through [`run_schedule`]'s
    //! scenario root or a [`super::Scope::spawn`] issued by an existing
    //! participant; unrelated threads in the same process (other tests)
    //! are never captured. A global exclusivity lock serializes whole
    //! explorations.

    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

    /// Seeded concurrency bugs the checker must be able to catch. Both
    /// corrupt the `par` cursor claim RMW (see
    /// [`super::virt::AtomicUsize::fetch_add`]).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum InjectedFault {
        /// Every claim becomes a non-atomic load/yield/store — a lost
        /// update double-claims an item under racing schedules.
        SplitClaim,
        /// The first claim over-advances the cursor by one, silently
        /// dropping an item (fires once).
        SkipClaim,
    }

    impl InjectedFault {
        pub fn parse(s: &str) -> Option<Self> {
            match s {
                "split-claim" => Some(Self::SplitClaim),
                "skip-claim" => Some(Self::SkipClaim),
                _ => None,
            }
        }

        pub fn name(self) -> &'static str {
            match self {
                Self::SplitClaim => "split-claim",
                Self::SkipClaim => "skip-claim",
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum TState {
        Runnable,
        WaitingThread(usize),
        WaitingMutex(usize),
        Finished,
    }

    /// Scheduling decision callback: picks an index into the runnable set.
    type DecideFn = Box<dyn FnMut(&[usize]) -> usize + Send>;

    struct Ctl {
        active: Option<usize>,
        states: Vec<TState>,
        held: HashMap<usize, usize>,
        decide: Option<DecideFn>,
        fault: Option<InjectedFault>,
        fault_armed: bool,
        vpar: usize,
        steps: usize,
        step_limit: usize,
        /// Controlled scheduling abandoned (budget, deadlock or panic):
        /// all threads run freely on the real primitives underneath.
        released: bool,
        deadlock: bool,
        budget_exhausted: bool,
    }

    static CTL: StdMutex<Option<Ctl>> = StdMutex::new(None);
    static CV: Condvar = Condvar::new();
    static EXCLUSIVE: StdMutex<()> = StdMutex::new(());
    static MUTEX_IDS: StdAtomicUsize = StdAtomicUsize::new(0);

    thread_local! {
        static PARTICIPANT: std::cell::Cell<Option<usize>> =
            const { std::cell::Cell::new(None) };
    }

    fn ctl_lock() -> StdMutexGuard<'static, Option<Ctl>> {
        match CTL.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn cv_wait(g: StdMutexGuard<'static, Option<Ctl>>) -> StdMutexGuard<'static, Option<Ctl>> {
        match CV.wait(g) {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    pub(super) fn next_mutex_id() -> usize {
        MUTEX_IDS.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether the current thread is a registered participant of the
    /// active exploration. All virtualization is gated on this.
    pub(super) fn participating() -> bool {
        PARTICIPANT.with(std::cell::Cell::get).is_some()
    }

    /// The scenario's virtual parallelism, when called by a participant.
    pub(super) fn virtual_parallelism() -> Option<usize> {
        let _me = PARTICIPANT.with(std::cell::Cell::get)?;
        let g = ctl_lock();
        g.as_ref().map(|c| c.vpar)
    }

    /// Consume the armed fault, if any (participants only). SplitClaim
    /// stays armed — it models a *persistently* broken claim path.
    pub(super) fn take_fault() -> Option<InjectedFault> {
        let _me = PARTICIPANT.with(std::cell::Cell::get)?;
        let mut g = ctl_lock();
        let c = g.as_mut()?;
        if !c.fault_armed {
            return None;
        }
        let fault = c.fault?;
        if fault == InjectedFault::SkipClaim {
            c.fault_armed = false;
        }
        Some(fault)
    }

    fn runnable_ids(c: &Ctl) -> Vec<usize> {
        c.states
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == TState::Runnable)
            .map(|(id, _)| id)
            .collect()
    }

    /// Pick the next active thread via the decision function. Caller
    /// must have cleared `active` (or left it on a non-runnable thread).
    fn schedule_next(c: &mut Ctl) {
        if c.released {
            return;
        }
        let runnable = runnable_ids(c);
        if runnable.is_empty() {
            let anyone_waiting = c
                .states
                .iter()
                .any(|s| matches!(s, TState::WaitingThread(_) | TState::WaitingMutex(_)));
            if anyone_waiting {
                // No runnable thread but blocked threads remain: a
                // genuine deadlock under this schedule. Release
                // everything so the OS threads can unwind on the real
                // primitives; the explorer reports the violation.
                c.deadlock = true;
                c.released = true;
            }
            c.active = None;
            return;
        }
        let choice = match c.decide.as_mut() {
            Some(decide) => decide(&runnable).min(runnable.len() - 1),
            None => 0,
        };
        c.active = Some(runnable[choice]);
    }

    fn wait_until_scheduled(me: usize, mut g: StdMutexGuard<'static, Option<Ctl>>) {
        loop {
            let Some(c) = g.as_ref() else { return };
            if c.released || c.active == Some(me) {
                return;
            }
            g = cv_wait(g);
        }
    }

    /// A yield point: the active participant pauses, the decision
    /// function picks who runs next. No-op for non-participants.
    pub fn yield_point() {
        let Some(me) = PARTICIPANT.with(std::cell::Cell::get) else {
            return;
        };
        let mut g = ctl_lock();
        let Some(c) = g.as_mut() else { return };
        if c.released {
            return;
        }
        c.steps += 1;
        if c.steps >= c.step_limit {
            c.budget_exhausted = true;
            c.released = true;
            CV.notify_all();
            return;
        }
        c.active = None;
        schedule_next(c);
        if g.as_ref().and_then(|c| c.active) == Some(me) {
            return;
        }
        CV.notify_all();
        wait_until_scheduled(me, g);
    }

    /// Register the child of a participant spawn: runnable immediately,
    /// scheduled later. Returns the child's deterministic id.
    pub(super) fn register_child() -> usize {
        let mut g = ctl_lock();
        let Some(c) = g.as_mut() else {
            // Exploration torn down mid-spawn (released run): run free.
            return usize::MAX;
        };
        let id = c.states.len();
        c.states.push(TState::Runnable);
        CV.notify_all();
        id
    }

    /// Body wrapper for spawned participants: waits for its first
    /// schedule slot, runs `f`, and always deregisters — a panic in `f`
    /// releases the exploration so joiners and blocked threads unwind
    /// instead of deadlocking.
    pub(super) fn run_participant<F, T>(id: usize, f: F) -> T
    where
        F: FnOnce() -> T,
    {
        if id == usize::MAX {
            return f();
        }
        PARTICIPANT.with(|p| p.set(Some(id)));
        wait_until_scheduled(id, ctl_lock());
        let mut guard = FinishGuard {
            id,
            completed: false,
        };
        let out = f();
        guard.completed = true;
        drop(guard);
        out
    }

    struct FinishGuard {
        id: usize,
        completed: bool,
    }

    impl Drop for FinishGuard {
        fn drop(&mut self) {
            finish(self.id, !self.completed);
        }
    }

    fn finish(id: usize, panicked: bool) {
        let mut g = ctl_lock();
        if let Some(c) = g.as_mut() {
            if let Some(slot) = c.states.get_mut(id) {
                *slot = TState::Finished;
            }
            if panicked {
                // Unwinding tears through scopes that real-join siblings
                // still waiting for schedule slots; release them all.
                c.released = true;
            }
            for s in &mut c.states {
                if *s == TState::WaitingThread(id) {
                    *s = TState::Runnable;
                }
            }
            if c.active == Some(id) {
                c.active = None;
                schedule_next(c);
            }
            CV.notify_all();
        }
        drop(g);
        PARTICIPANT.with(|p| p.set(None));
    }

    /// Virtually block until `target` finishes (then continue as the
    /// active thread). Called by `JoinHandle::join` before the real join.
    pub(super) fn join_wait(target: usize) {
        let Some(me) = PARTICIPANT.with(std::cell::Cell::get) else {
            return;
        };
        let mut g = ctl_lock();
        loop {
            let Some(c) = g.as_mut() else { return };
            if c.released {
                return;
            }
            if c.states.get(target).copied() == Some(TState::Finished) {
                return;
            }
            if let Some(slot) = c.states.get_mut(me) {
                *slot = TState::WaitingThread(target);
            }
            if c.active == Some(me) {
                c.active = None;
                schedule_next(c);
            }
            CV.notify_all();
            loop {
                let Some(c) = g.as_ref() else { return };
                if c.released || c.active == Some(me) {
                    break;
                }
                g = cv_wait(g);
            }
        }
    }

    /// Virtually acquire mutex `mid`: yields, then blocks until no other
    /// participant holds it. Returns whether virtual ownership was taken
    /// (false for non-participants and released runs — the caller then
    /// relies on the real lock alone).
    pub(super) fn mutex_acquire(mid: usize) -> bool {
        let Some(me) = PARTICIPANT.with(std::cell::Cell::get) else {
            return false;
        };
        yield_point();
        let mut g = ctl_lock();
        loop {
            let Some(c) = g.as_mut() else { return false };
            if c.released {
                return false;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = c.held.entry(mid) {
                e.insert(me);
                return true;
            }
            if let Some(slot) = c.states.get_mut(me) {
                *slot = TState::WaitingMutex(mid);
            }
            if c.active == Some(me) {
                c.active = None;
                schedule_next(c);
            }
            CV.notify_all();
            loop {
                let Some(c) = g.as_ref() else { return false };
                if c.released || c.active == Some(me) {
                    break;
                }
                g = cv_wait(g);
            }
        }
    }

    /// Release virtual ownership of `mid` and wake its waiters; the
    /// release is itself a scheduling decision so "waiter preempts
    /// releaser" interleavings are explored too.
    pub(super) fn mutex_release(mid: usize) {
        if !participating() {
            return;
        }
        {
            let mut g = ctl_lock();
            if let Some(c) = g.as_mut() {
                c.held.remove(&mid);
                for s in &mut c.states {
                    if *s == TState::WaitingMutex(mid) {
                        *s = TState::Runnable;
                    }
                }
                CV.notify_all();
            }
        }
        yield_point();
    }

    /// Outcome of one controlled schedule.
    #[derive(Debug)]
    pub struct RunReport<T> {
        /// The scenario's return value, or the payload of its panic —
        /// invariant violations inside scenarios are `assert!` panics.
        pub result: std::thread::Result<T>,
        /// Yield points executed under this schedule.
        pub steps: usize,
        /// The schedule wedged every thread (a real liveness bug).
        pub deadlock: bool,
        /// The step budget ran out before the scenario finished.
        pub budget_exhausted: bool,
    }

    /// Run `scenario` once under a controlled schedule. `decide` is
    /// called at every scheduling decision with the sorted runnable
    /// thread ids and returns the index of the thread to run next; the
    /// sequence of choices fully determines the schedule, which is what
    /// makes DFS replay exploration possible. Explorations are globally
    /// serialized.
    pub fn run_schedule<T, F, D>(
        vpar: usize,
        fault: Option<InjectedFault>,
        step_limit: usize,
        decide: D,
        scenario: F,
    ) -> RunReport<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
        D: FnMut(&[usize]) -> usize + Send + 'static,
    {
        let _exclusive = match EXCLUSIVE.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        {
            let mut g = ctl_lock();
            *g = Some(Ctl {
                active: None,
                states: Vec::new(),
                held: HashMap::new(),
                decide: Some(Box::new(decide)),
                fault,
                fault_armed: fault.is_some(),
                vpar,
                steps: 0,
                step_limit,
                released: false,
                deadlock: false,
                budget_exhausted: false,
            });
        }
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let id = {
                    let mut g = ctl_lock();
                    match g.as_mut() {
                        Some(c) => {
                            let id = c.states.len();
                            c.states.push(TState::Runnable);
                            if c.active.is_none() {
                                schedule_next(c);
                            }
                            id
                        }
                        None => usize::MAX,
                    }
                };
                run_participant(id, scenario)
            })
            .join()
        });
        let mut g = ctl_lock();
        let (steps, deadlock, budget_exhausted) = match g.take() {
            Some(c) => (c.steps, c.deadlock, c.budget_exhausted),
            None => (0, false, false),
        };
        RunReport {
            result,
            steps,
            deadlock,
            budget_exhausted,
        }
    }
}
