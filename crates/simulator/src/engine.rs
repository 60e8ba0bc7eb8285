//! Rate-based discrete-event execution engine.
//!
//! Tasks are units of work pinned to one processor, with DAG dependencies.
//! Each processor executes one task at a time, FIFO among ready tasks in
//! submission order. A running task progresses at
//!
//! ```text
//! rate = thermal_factor(p) · memory_factor / (1 + slowdown)
//! ```
//!
//! where `slowdown` is recomputed from the current co-runner set at every
//! start/finish event ([`crate::interference`]). This yields the
//! time-varying, combination-dependent co-execution slowdown that the
//! paper measures on real SoCs (Table II) while remaining fully
//! deterministic: event order is resolved by `f64` time with stable
//! task-id tie-breaking, and no randomness is involved.

use serde::{Deserialize, Serialize};

use crate::error::SimError;
use crate::faults::{FailedTask, FaultInjector, FaultKind, FaultOutcome};
use crate::interference::slowdown_for;
pub use crate::label::{request_of_label, TaskLabel};
use crate::memory::MemoryState;
use crate::processor::ProcessorId;
use crate::soc::SocSpec;
use crate::thermal::{ThermalSpec, ThermalState};
use crate::timeline::{Span, Trace};

/// Opaque handle to a submitted task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub(crate) usize);

impl TaskId {
    /// The task's submission index (also its index in [`Trace::spans`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Description of one unit of work submitted to the simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Label carried into the trace: the request, slot and run of a
    /// lowered stage, or free text ([`TaskLabel`]).
    pub label: TaskLabel,
    /// Processor the task must run on.
    pub processor: ProcessorId,
    /// Execution time in milliseconds under solo, unthrottled execution.
    pub solo_ms: f64,
    /// Contention intensity this task emits onto the shared bus while
    /// running (the paper's regression target; ~1.0 for a memory-bound
    /// model, ~0 for a compute-bound one).
    pub intensity: f64,
    /// Susceptibility of this task to co-runners' contention.
    pub sensitivity: f64,
    /// Memory bandwidth demand in GB/s (drives the frequency governor).
    pub bandwidth_gbps: f64,
    /// Resident memory footprint in bytes while the task runs.
    pub footprint_bytes: u64,
    /// Tasks that must complete before this one may start.
    pub deps: Vec<TaskId>,
    /// Earliest wall-clock start in ms (request arrival time); the task
    /// stays invisible to its processor's queue until then.
    pub release_ms: f64,
}

impl TaskSpec {
    /// Creates a task with neutral contention behaviour: zero emitted
    /// intensity, unit sensitivity, no footprint and no dependencies.
    pub fn new(label: impl Into<TaskLabel>, processor: ProcessorId, solo_ms: f64) -> Self {
        TaskSpec {
            label: label.into(),
            processor,
            solo_ms,
            intensity: 0.0,
            sensitivity: 1.0,
            bandwidth_gbps: 0.0,
            footprint_bytes: 0,
            deps: Vec::new(),
            release_ms: 0.0,
        }
    }

    /// Sets the emitted contention intensity (builder style).
    pub fn intensity(mut self, intensity: f64) -> Self {
        self.intensity = intensity;
        self
    }

    /// Sets the contention sensitivity (builder style).
    pub fn sensitivity(mut self, sensitivity: f64) -> Self {
        self.sensitivity = sensitivity;
        self
    }

    /// Sets the bandwidth demand in GB/s (builder style).
    pub fn bandwidth(mut self, gbps: f64) -> Self {
        self.bandwidth_gbps = gbps;
        self
    }

    /// Sets the resident footprint in bytes (builder style).
    pub fn footprint(mut self, bytes: u64) -> Self {
        self.footprint_bytes = bytes;
        self
    }

    /// Adds a dependency (builder style).
    pub fn after(mut self, dep: TaskId) -> Self {
        self.deps.push(dep);
        self
    }

    /// Sets the arrival/release time in ms (builder style).
    pub fn release(mut self, release_ms: f64) -> Self {
        self.release_ms = release_ms;
        self
    }

    /// The request this task works for, if its label names one
    /// ([`TaskLabel::request`]).
    pub fn request_index(&self) -> Option<usize> {
        self.label.request()
    }
}

#[derive(Debug)]
struct Running {
    task: usize,
    remaining_ms: f64,
    start_ms: f64,
}

/// One structured event from a simulation run, for the JSON-lines log.
///
/// Events are emitted in simulation-time order. `Ready` fires when a
/// task joins its processor's FIFO queue (dependencies met and release
/// time reached), `Start`/`Finish` bracket execution, and `Rate` fires
/// whenever a running task's effective progress rate changes — its
/// instantaneous interference slowdown, thermal factor and memory
/// factor. Serialize with [`EngineEvent::json_line`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEvent {
    /// A task joined its processor queue.
    Ready {
        /// Simulation time in ms.
        time_ms: f64,
        /// Task id.
        task: usize,
        /// Queue (processor) joined.
        processor: ProcessorId,
    },
    /// A task began executing.
    Start {
        /// Simulation time in ms.
        time_ms: f64,
        /// Task id.
        task: usize,
        /// Processor it runs on.
        processor: ProcessorId,
    },
    /// A running task's effective rate changed.
    Rate {
        /// Simulation time in ms.
        time_ms: f64,
        /// Task id.
        task: usize,
        /// Processor it runs on.
        processor: ProcessorId,
        /// Interference slowdown `s` (rate divides by `1 + s`).
        slowdown: f64,
        /// Thermal throttle factor in `(0, 1]`.
        thermal_factor: f64,
        /// Memory/paging factor in `(0, 1]`.
        memory_factor: f64,
    },
    /// A task finished executing.
    Finish {
        /// Simulation time in ms.
        time_ms: f64,
        /// Task id.
        task: usize,
        /// Processor it ran on.
        processor: ProcessorId,
        /// Wall-clock duration of the span in ms.
        duration_ms: f64,
        /// Realized average slowdown `(duration - solo) / solo`.
        slowdown: f64,
    },
    /// An injected fault permanently dropped a processor.
    ProcessorDown {
        /// Simulation time in ms.
        time_ms: f64,
        /// Processor that dropped.
        processor: ProcessorId,
    },
    /// An injected fault changed a processor's throttle multiplier.
    Throttle {
        /// Simulation time in ms.
        time_ms: f64,
        /// Processor being throttled.
        processor: ProcessorId,
        /// New fault throttle factor in `(0, 1]` (1.0 = throttle lifted).
        factor: f64,
    },
    /// An injected fault aborted a running task.
    TaskFailed {
        /// Simulation time in ms.
        time_ms: f64,
        /// Task id.
        task: usize,
        /// Processor it was running on.
        processor: ProcessorId,
        /// What killed it.
        kind: FaultKind,
    },
}

impl EngineEvent {
    /// Simulation time at which the event fired.
    pub fn time_ms(&self) -> f64 {
        match self {
            EngineEvent::Ready { time_ms, .. }
            | EngineEvent::Start { time_ms, .. }
            | EngineEvent::Rate { time_ms, .. }
            | EngineEvent::Finish { time_ms, .. }
            | EngineEvent::ProcessorDown { time_ms, .. }
            | EngineEvent::Throttle { time_ms, .. }
            | EngineEvent::TaskFailed { time_ms, .. } => *time_ms,
        }
    }

    /// Renders the event as one JSON object (no trailing newline), the
    /// unit of the JSON-lines event log.
    pub fn json_line(&self) -> String {
        match self {
            EngineEvent::Ready {
                time_ms,
                task,
                processor,
            } => format!(
                "{{\"event\":\"ready\",\"time_ms\":{time_ms},\"task\":{task},\"processor\":{}}}",
                processor.index()
            ),
            EngineEvent::Start {
                time_ms,
                task,
                processor,
            } => format!(
                "{{\"event\":\"start\",\"time_ms\":{time_ms},\"task\":{task},\"processor\":{}}}",
                processor.index()
            ),
            EngineEvent::Rate {
                time_ms,
                task,
                processor,
                slowdown,
                thermal_factor,
                memory_factor,
            } => format!(
                "{{\"event\":\"rate\",\"time_ms\":{time_ms},\"task\":{task},\"processor\":{},\
                 \"slowdown\":{slowdown},\"thermal_factor\":{thermal_factor},\
                 \"memory_factor\":{memory_factor}}}",
                processor.index()
            ),
            EngineEvent::Finish {
                time_ms,
                task,
                processor,
                duration_ms,
                slowdown,
            } => format!(
                "{{\"event\":\"finish\",\"time_ms\":{time_ms},\"task\":{task},\"processor\":{},\
                 \"duration_ms\":{duration_ms},\"slowdown\":{slowdown}}}",
                processor.index()
            ),
            EngineEvent::ProcessorDown { time_ms, processor } => format!(
                "{{\"event\":\"processor_down\",\"time_ms\":{time_ms},\"processor\":{}}}",
                processor.index()
            ),
            EngineEvent::Throttle {
                time_ms,
                processor,
                factor,
            } => format!(
                "{{\"event\":\"throttle\",\"time_ms\":{time_ms},\"processor\":{},\"factor\":{factor}}}",
                processor.index()
            ),
            EngineEvent::TaskFailed {
                time_ms,
                task,
                processor,
                kind,
            } => format!(
                "{{\"event\":\"task_failed\",\"time_ms\":{time_ms},\"task\":{task},\"processor\":{},\
                 \"kind\":\"{}\"}}",
                processor.index(),
                kind.as_str()
            ),
        }
    }
}

/// A simulation under construction: a borrowed SoC plus a task DAG.
///
/// The simulation borrows its [`SocSpec`], so lowering a plan and
/// running it copy nothing of the SoC, and the runs take `&self`, so the
/// submitted tasks stay available for audits after a run.
#[derive(Debug, Clone)]
pub struct Simulation<'soc> {
    soc: &'soc SocSpec,
    tasks: Vec<TaskSpec>,
}

impl<'soc> Simulation<'soc> {
    /// Creates an empty simulation on the given SoC.
    pub fn new(soc: &'soc SocSpec) -> Self {
        Simulation {
            soc,
            tasks: Vec::new(),
        }
    }

    /// The SoC this simulation runs on.
    pub fn soc(&self) -> &'soc SocSpec {
        self.soc
    }

    /// Number of tasks submitted so far.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// The submitted task specs, indexed by [`TaskId`]. Exposed so
    /// callers can audit a [`Trace`] against the specs that produced it
    /// (see [`crate::audit`]).
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Mutable access to the submitted task specs (the recovery runner
    /// scales their durations to model a cost misprediction). Edits are
    /// validated by the next run, like submissions.
    pub fn tasks_mut(&mut self) -> &mut [TaskSpec] {
        &mut self.tasks
    }

    /// Reserves room for `additional` more tasks.
    pub fn reserve(&mut self, additional: usize) {
        self.tasks.reserve(additional);
    }

    /// Submits a task and returns its handle. Validation of processor ids
    /// and dependencies happens in [`Simulation::run`] so tasks can be
    /// submitted in any order.
    pub fn add_task(&mut self, spec: TaskSpec) -> TaskId {
        let id = TaskId(self.tasks.len());
        self.tasks.push(spec);
        id
    }

    fn validate(&self) -> Result<(), SimError> {
        let n_proc = self.soc.processors.len();
        for (i, t) in self.tasks.iter().enumerate() {
            if t.processor.index() >= n_proc {
                return Err(SimError::UnknownProcessor {
                    index: t.processor.index(),
                    available: n_proc,
                });
            }
            if !(t.solo_ms.is_finite() && t.solo_ms >= 0.0) {
                return Err(SimError::InvalidDuration {
                    task: i,
                    solo_ms: t.solo_ms,
                });
            }
            if !(t.release_ms.is_finite() && t.release_ms >= 0.0) {
                return Err(SimError::InvalidDuration {
                    task: i,
                    solo_ms: t.release_ms,
                });
            }
            for d in &t.deps {
                if d.0 >= self.tasks.len() {
                    return Err(SimError::UnknownDependency {
                        task: i,
                        dependency: d.0,
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs the simulation to completion and returns the trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if a task references an unknown processor or
    /// dependency, has an invalid duration, or the DAG contains a cycle.
    pub fn run(&self) -> Result<Trace, SimError> {
        self.run_inner(None)
    }

    /// Like [`Simulation::run`], but also returns the structured event
    /// log: one [`EngineEvent`] per queue entry, start, rate change and
    /// finish, in simulation-time order. The trace is identical to the
    /// one [`Simulation::run`] produces.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_with_events(&self) -> Result<(Trace, Vec<EngineEvent>), SimError> {
        let mut events = self.event_log();
        let trace = self.run_inner(Some(&mut events))?;
        Ok((trace, events))
    }

    /// An empty event log with room for a typical run's events: a
    /// task's `Ready`, `Start` and `Finish` plus about two `Rate`
    /// changes, and a few fault markers per processor.
    fn event_log(&self) -> Vec<EngineEvent> {
        Vec::with_capacity(5 * self.tasks.len() + 2 * self.soc.processors.len())
    }

    /// Runs the simulation under an injected fault script and returns
    /// the partial [`FaultOutcome`] plus the event log. Unlike
    /// [`Simulation::run`], a faulted run never fails because tasks got
    /// stuck: when faults leave unrunnable work (processor down,
    /// dependency dead), the engine halts at the last instant progress
    /// was possible and reports the killed/orphaned tasks in the
    /// outcome.
    ///
    /// Fault throttle multipliers are folded into the `thermal_factor`
    /// of the logged `Rate` events, so the replay reconciliation in
    /// [`crate::audit`] integrates the faulted rates exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on the same *structural* problems as
    /// [`Simulation::run`] (unknown processor/dependency, invalid
    /// duration), and [`SimError::UnknownProcessor`] when the injector
    /// was compiled for a different processor count than the SoC.
    pub fn run_faulted(
        &self,
        faults: &FaultInjector,
    ) -> Result<(FaultOutcome, Vec<EngineEvent>), SimError> {
        if faults.processor_count() != self.soc.processors.len() {
            return Err(SimError::UnknownProcessor {
                index: faults.processor_count(),
                available: self.soc.processors.len(),
            });
        }
        let mut events = self.event_log();
        let core = self.run_core(Some(&mut events), Some(faults))?;
        // A task with no span either failed mid-run (a handful per run)
        // or never started.
        let orphaned: Vec<usize> = core
            .spans
            .iter()
            .enumerate()
            .filter(|&(i, s)| s.is_none() && !core.failed.iter().any(|f| f.task == i))
            .map(|(i, _)| i)
            .collect();
        Ok((
            FaultOutcome {
                spans: core.spans,
                failed: core.failed,
                orphaned,
                halt_ms: core.halt_ms,
                down: core.down,
                memory: core.memory,
                processor_count: core.processor_count,
            },
            events,
        ))
    }

    fn run_inner(&self, events: Option<&mut Vec<EngineEvent>>) -> Result<Trace, SimError> {
        let core = self.run_core(events, None)?;
        Ok(Trace {
            spans: core
                .spans
                .into_iter()
                .map(|s| {
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: the fault-free path only returns once every \
                                  task completed; a hole would be an engine bug worth a \
                                  crash rather than a silently shorter trace"
                    )]
                    s.expect("all completed")
                })
                .collect(),
            memory: core.memory,
            processor_count: core.processor_count,
        })
    }

    /// The engine loop. Its per-run state takes a constant number of
    /// heap blocks whatever the task count: one [`TaskState`] per task
    /// (dependency count, successor range, FIFO link), the successor
    /// ids in one compressed array, one [`Lane`] per processor (queue,
    /// running task, thermal, fault and event-log state), the span
    /// slots, the memory trace reserved to its `1 + 2n` samples, and
    /// the ready/deferred/failed lists, which stay unallocated until
    /// used.
    fn run_core(
        &self,
        mut events: Option<&mut Vec<EngineEvent>>,
        faults: Option<&FaultInjector>,
    ) -> Result<CoreOutcome, SimError> {
        self.validate()?;
        let tasks = &self.tasks;
        let n = tasks.len();
        let n_proc = self.soc.processors.len();

        // Successors in compressed form: count each task's successors
        // into `succ_end`, turn the counts into start offsets, then
        // fill, which leaves `succ_end[t]` at the end of `t`'s range
        // (its start is the previous task's end).
        let mut state: Vec<TaskState> = tasks
            .iter()
            .map(|t| TaskState {
                indegree: t.deps.len(),
                succ_end: 0,
                next: NIL,
            })
            .collect();
        for t in tasks {
            for d in &t.deps {
                state[d.0].succ_end += 1;
            }
        }
        let mut total = 0;
        for s in &mut state {
            let count = s.succ_end;
            s.succ_end = total;
            total += count;
        }
        let mut successors = vec![0usize; total];
        for (i, t) in tasks.iter().enumerate() {
            for d in &t.deps {
                let s = &mut state[d.0];
                successors[s.succ_end] = i;
                s.succ_end += 1;
            }
        }

        let mut lanes: Vec<Lane> = self
            .soc
            .processors
            .iter()
            .map(|p| Lane {
                head: NIL,
                tail: NIL,
                running: None,
                thermal: ThermalState::new(ThermalSpec::for_kind(p.kind), self.soc.thermal_mode),
                rate: 0.0,
                last_rate: None,
                down: false,
                fault_factor: 1.0,
            })
            .collect();
        // Tasks whose dependencies are met but whose release time has not
        // arrived, kept sorted by (release, id) descending so the next
        // release pops from the back.
        let mut deferred: Vec<(f64, usize)> = Vec::new();
        let defer_or_queue =
            |i: usize,
             time_ms: f64,
             lanes: &mut [Lane],
             state: &mut [TaskState],
             deferred: &mut Vec<(f64, usize)>,
             events: &mut Option<&mut Vec<EngineEvent>>| {
                if tasks[i].release_ms > time_ms {
                    let key = (tasks[i].release_ms, i);
                    let pos = deferred
                        .binary_search_by(|&(r, id)| {
                            // total_cmp gives a total order even for the
                            // NaN releases the lint layer rejects.
                            r.total_cmp(&key.0).then(id.cmp(&key.1)).reverse()
                        })
                        .unwrap_or_else(|p| p);
                    deferred.insert(pos, (key.0, key.1));
                } else {
                    enqueue(lanes, state, tasks[i].processor.index(), i);
                    if let Some(ev) = events.as_mut() {
                        ev.push(EngineEvent::Ready {
                            time_ms,
                            task: i,
                            processor: tasks[i].processor,
                        });
                    }
                }
            };
        for i in 0..n {
            if state[i].indegree == 0 {
                defer_or_queue(i, 0.0, &mut lanes, &mut state, &mut deferred, &mut events);
            }
        }

        let mut memory = MemoryState::new(&self.soc.memory);
        // One sample at time zero plus one per start and per finish.
        memory.reserve(1 + 2 * n);
        memory.sample(0.0);

        let mut spans: Vec<Option<Span>> = vec![None; n];
        let mut time_ms = 0.0f64;
        let mut completed = 0usize;
        // Fault-injection record; stays empty (and bit-identically absent
        // from the trace) when `faults` is `None`.
        let mut failed: Vec<FailedTask> = Vec::new();
        // Tasks a finish phase made ready, refilled each event.
        let mut newly_ready: Vec<usize> = Vec::new();
        const EPS: f64 = 1e-9;

        while completed < n {
            // Dropout phase: apply scripted processor dropouts before
            // anything new starts. This runs at the top of the loop so a
            // task finishing exactly at the dropout instant (previous
            // iteration's finish phase) still completes, while nothing
            // can ever start on a down processor.
            if let Some(f) = faults {
                for (p, lane) in lanes.iter_mut().enumerate() {
                    if lane.down {
                        continue;
                    }
                    let Some(at) = f.down_at(p) else { continue };
                    if at > time_ms + 1e-12 {
                        continue;
                    }
                    lane.down = true;
                    if let Some(ev) = events.as_mut() {
                        ev.push(EngineEvent::ProcessorDown {
                            time_ms,
                            processor: ProcessorId(p),
                        });
                    }
                    if let Some(r) = lane.running.take() {
                        lane.last_rate = None;
                        let spec = &tasks[r.task];
                        memory.release(time_ms, spec.footprint_bytes, spec.bandwidth_gbps);
                        if let Some(ev) = events.as_mut() {
                            ev.push(EngineEvent::TaskFailed {
                                time_ms,
                                task: r.task,
                                processor: spec.processor,
                                kind: FaultKind::Dropout,
                            });
                        }
                        failed.push(FailedTask {
                            task: r.task,
                            processor: spec.processor,
                            at_ms: time_ms,
                            kind: FaultKind::Dropout,
                        });
                    }
                }
            }

            // Start phase: fill idle processors from their FIFO queues.
            for lane in lanes.iter_mut() {
                if lane.running.is_some() || lane.down {
                    continue;
                }
                let task = lane.head;
                if task == NIL {
                    continue;
                }
                lane.head = state[task].next;
                if lane.head == NIL {
                    lane.tail = NIL;
                }
                let spec = &tasks[task];
                memory.allocate(time_ms, spec.footprint_bytes, spec.bandwidth_gbps);
                lane.running = Some(Running {
                    task,
                    remaining_ms: spec.solo_ms,
                    start_ms: time_ms,
                });
                if let Some(ev) = events.as_mut() {
                    ev.push(EngineEvent::Start {
                        time_ms,
                        task,
                        processor: spec.processor,
                    });
                }
            }

            if lanes.iter().all(|l| l.running.is_none()) {
                // Nothing running: either jump to the next release, or
                // the remaining tasks form a dependency cycle.
                if let Some(&(release, _)) = deferred.last() {
                    time_ms = time_ms.max(release);
                    while let Some(&(r, id)) = deferred.last() {
                        if r <= time_ms {
                            deferred.pop();
                            enqueue(&mut lanes, &mut state, tasks[id].processor.index(), id);
                            if let Some(ev) = events.as_mut() {
                                ev.push(EngineEvent::Ready {
                                    time_ms,
                                    task: id,
                                    processor: tasks[id].processor,
                                });
                            }
                        } else {
                            break;
                        }
                    }
                    continue;
                }
                if faults.is_some() {
                    // Faulted runs halt with a partial outcome instead of
                    // reporting a cycle: the stuck tasks are orphans of
                    // failed dependencies or sit on down processors.
                    break;
                }
                return Err(SimError::CyclicDependency {
                    stuck: n - completed,
                });
            }

            // Throttle phase: surface scripted fault-throttle changes in
            // the event log (the factor itself is folded into the Rate
            // events below, so replay stays exact).
            if let Some(f) = faults {
                for (p, lane) in lanes.iter_mut().enumerate() {
                    if lane.down {
                        continue;
                    }
                    let factor = f.throttle_factor(p, time_ms);
                    if (factor - lane.fault_factor).abs() > 1e-12 {
                        lane.fault_factor = factor;
                        if let Some(ev) = events.as_mut() {
                            ev.push(EngineEvent::Throttle {
                                time_ms,
                                processor: ProcessorId(p),
                                factor,
                            });
                        }
                    }
                }
            }

            // Rate phase: effective progress rate for every running task.
            let mem_factor = memory.rate_factor();
            for p in 0..n_proc {
                let Some(r) = &lanes[p].running else {
                    lanes[p].rate = 0.0;
                    continue;
                };
                let task = r.task;
                let spec = &tasks[task];
                let corunners = lanes.iter().enumerate().filter_map(|(q, other)| {
                    let other = other.running.as_ref().filter(|_| q != p)?;
                    Some((&self.soc.processors[q], tasks[other.task].intensity))
                });
                let slow = slowdown_for(
                    &self.soc.coupling,
                    &self.soc.processors[p],
                    spec.sensitivity,
                    corunners,
                );
                let fault_factor = faults.map_or(1.0, |f| f.throttle_factor(p, time_ms));
                let lane = &mut lanes[p];
                let thermal_factor = lane.thermal.rate_factor() * fault_factor;
                lane.rate = thermal_factor * mem_factor / (1.0 + slow);
                if let Some(ev) = events.as_mut() {
                    let tuple = (task, slow, thermal_factor, mem_factor);
                    if lane.last_rate != Some(tuple) {
                        lane.last_rate = Some(tuple);
                        ev.push(EngineEvent::Rate {
                            time_ms,
                            task,
                            processor: spec.processor,
                            slowdown: slow,
                            thermal_factor,
                            memory_factor: mem_factor,
                        });
                    }
                }
            }

            // Advance phase: step to the earliest completion or release.
            let completion_dt = lanes
                .iter()
                .filter_map(|lane| {
                    let r = lane.running.as_ref()?;
                    Some(if lane.rate > 0.0 {
                        r.remaining_ms / lane.rate
                    } else {
                        f64::INFINITY
                    })
                })
                .fold(f64::INFINITY, f64::min);
            let release_dt = deferred
                .last()
                .map_or(f64::INFINITY, |&(r, _)| (r - time_ms).max(0.0));
            // Faulted runs also stop at the next scripted fault boundary
            // (dropout instant, throttle edge) and at each running task's
            // scripted transient-failure point.
            let fault_dt = faults
                .and_then(|f| f.next_boundary_after(time_ms))
                .map_or(f64::INFINITY, |b| (b - time_ms).max(0.0));
            let failure_dt = faults.map_or(f64::INFINITY, |f| {
                lanes
                    .iter()
                    .filter_map(|lane| {
                        let r = lane.running.as_ref()?;
                        let frac = f.fail_fraction(r.task)?;
                        let spec = &tasks[r.task];
                        // Solo-ms of work left before the failure point.
                        let to_fail = r.remaining_ms - (1.0 - frac) * spec.solo_ms;
                        Some(if to_fail <= 0.0 {
                            0.0
                        } else if lane.rate > 0.0 {
                            to_fail / lane.rate
                        } else {
                            f64::INFINITY
                        })
                    })
                    .fold(f64::INFINITY, f64::min)
            });
            let dt = completion_dt.min(release_dt).min(fault_dt).min(failure_dt);
            debug_assert!(
                faults.is_some() || dt.is_finite(),
                "at least one task must make progress"
            );
            if !dt.is_finite() {
                // Only reachable under faults: nothing can ever progress
                // again (e.g. every runnable task sits behind dead work).
                break;
            }
            time_ms += dt;
            // Release newly arrived tasks.
            while let Some(&(r, id)) = deferred.last() {
                if r <= time_ms + 1e-12 {
                    deferred.pop();
                    enqueue(&mut lanes, &mut state, tasks[id].processor.index(), id);
                    if let Some(ev) = events.as_mut() {
                        ev.push(EngineEvent::Ready {
                            time_ms,
                            task: id,
                            processor: tasks[id].processor,
                        });
                    }
                } else {
                    break;
                }
            }
            for lane in lanes.iter_mut() {
                lane.thermal.advance(dt, lane.running.is_some());
                let rate = lane.rate;
                if let Some(r) = lane.running.as_mut() {
                    r.remaining_ms = (r.remaining_ms - dt * rate).max(0.0);
                }
            }

            // Failure phase: abort tasks that crossed their scripted
            // transient-failure point. Runs before the finish phase so a
            // scripted failure always wins over completion (the failure
            // fraction is clamped strictly below 1.0).
            if let Some(f) = faults {
                for lane in lanes.iter_mut() {
                    let fails = match &lane.running {
                        Some(r) => f.fail_fraction(r.task).is_some_and(|frac| {
                            let spec = &tasks[r.task];
                            spec.solo_ms - r.remaining_ms + EPS >= frac * spec.solo_ms
                        }),
                        None => false,
                    };
                    if !fails {
                        continue;
                    }
                    let Some(r) = lane.running.take() else {
                        continue;
                    };
                    lane.last_rate = None;
                    let spec = &tasks[r.task];
                    memory.release(time_ms, spec.footprint_bytes, spec.bandwidth_gbps);
                    if let Some(ev) = events.as_mut() {
                        ev.push(EngineEvent::TaskFailed {
                            time_ms,
                            task: r.task,
                            processor: spec.processor,
                            kind: FaultKind::Transient,
                        });
                    }
                    failed.push(FailedTask {
                        task: r.task,
                        processor: spec.processor,
                        at_ms: time_ms,
                        kind: FaultKind::Transient,
                    });
                }
            }

            // Finish phase: retire completed tasks in processor order,
            // then release successors in task-id order for determinism.
            newly_ready.clear();
            for lane in lanes.iter_mut() {
                let done = matches!(&lane.running, Some(r) if r.remaining_ms <= EPS);
                if !done {
                    continue;
                }
                let Some(r) = lane.running.take() else {
                    continue;
                };
                lane.last_rate = None;
                let spec = &tasks[r.task];
                memory.release(time_ms, spec.footprint_bytes, spec.bandwidth_gbps);
                if let Some(ev) = events.as_mut() {
                    let duration_ms = time_ms - r.start_ms;
                    let slowdown = if spec.solo_ms > 0.0 {
                        (duration_ms - spec.solo_ms) / spec.solo_ms
                    } else {
                        0.0
                    };
                    ev.push(EngineEvent::Finish {
                        time_ms,
                        task: r.task,
                        processor: spec.processor,
                        duration_ms,
                        slowdown,
                    });
                }
                spans[r.task] = Some(Span {
                    task: r.task,
                    label: spec.label.clone(),
                    processor: spec.processor,
                    start_ms: r.start_ms,
                    end_ms: time_ms,
                    solo_ms: spec.solo_ms,
                });
                completed += 1;
                let begin = if r.task == 0 {
                    0
                } else {
                    state[r.task - 1].succ_end
                };
                for &s in &successors[begin..state[r.task].succ_end] {
                    state[s].indegree -= 1;
                    if state[s].indegree == 0 {
                        newly_ready.push(s);
                    }
                }
            }
            newly_ready.sort_unstable();
            for &s in &newly_ready {
                defer_or_queue(
                    s,
                    time_ms,
                    &mut lanes,
                    &mut state,
                    &mut deferred,
                    &mut events,
                );
            }
        }

        Ok(CoreOutcome {
            spans,
            failed,
            halt_ms: time_ms,
            down: if faults.is_some() {
                lanes.iter().map(|l| l.down).collect()
            } else {
                Vec::new()
            },
            memory: memory.into_trace(),
            processor_count: n_proc,
        })
    }
}

/// End-of-list marker of the intrusive FIFO queues.
const NIL: usize = usize::MAX;

/// Per-task engine state.
struct TaskState {
    /// Dependencies not yet finished.
    indegree: usize,
    /// End of this task's range in the compressed successor array.
    succ_end: usize,
    /// Next task in the same processor's FIFO queue.
    next: usize,
}

/// Per-processor engine state.
struct Lane {
    /// First and last task of the FIFO ready queue ([`NIL`] if empty),
    /// linked through [`TaskState::next`]. A task is queued at most
    /// once, so one link per task suffices.
    head: usize,
    tail: usize,
    running: Option<Running>,
    thermal: ThermalState,
    /// Progress rate of the running task at the current event.
    rate: f64,
    /// Last rate tuple logged, so rate events are logged only when
    /// something changed (event-logged runs only).
    last_rate: Option<(usize, f64, f64, f64)>,
    /// Dropped out by an injected fault (faulted runs only).
    down: bool,
    /// Last fault throttle factor logged (faulted runs only).
    fault_factor: f64,
}

/// Appends task `i` to processor `p`'s FIFO queue.
fn enqueue(lanes: &mut [Lane], state: &mut [TaskState], p: usize, i: usize) {
    state[i].next = NIL;
    let lane = &mut lanes[p];
    if lane.tail == NIL {
        lane.head = i;
    } else {
        state[lane.tail].next = i;
    }
    lane.tail = i;
}

/// Raw result of the engine loop, shared by the fault-free and faulted
/// entry points. The fault-free path asserts every span slot is filled;
/// the faulted path derives the orphan set before publishing it as a
/// [`FaultOutcome`].
struct CoreOutcome {
    spans: Vec<Option<Span>>,
    failed: Vec<FailedTask>,
    halt_ms: f64,
    /// Per-processor dropout state (faulted runs only; empty otherwise).
    down: Vec<bool>,
    memory: Vec<crate::memory::MemorySample>,
    processor_count: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::ProcessorKind;

    fn soc() -> SocSpec {
        SocSpec::kirin_990()
    }

    fn id(soc: &SocSpec, kind: ProcessorKind) -> ProcessorId {
        soc.processor_by_kind(kind).expect("preset has processor")
    }

    #[test]
    fn single_task_takes_solo_time() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("solo", npu, 10.0));
        let trace = sim.run().expect("runs");
        // NPU never throttles at steady state, no co-runners.
        assert!((trace.makespan_ms() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn dependencies_serialize_execution() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let gpu = id(&soc, ProcessorKind::Gpu);
        let mut sim = Simulation::new(&soc);
        let a = sim.add_task(TaskSpec::new("a", npu, 5.0));
        sim.add_task(TaskSpec::new("b", gpu, 5.0).after(a));
        let trace = sim.run().expect("runs");
        let a_span = trace.span(0).expect("ran");
        let b_span = trace.span(1).expect("ran");
        assert!(b_span.start_ms >= a_span.end_ms);
    }

    #[test]
    fn coexecution_slows_both_sides_symmetrically() {
        let mut soc = soc();
        soc.thermal_mode = crate::thermal::ThermalMode::Disabled;
        let cpu = id(&soc, ProcessorKind::CpuBig);
        let gpu = id(&soc, ProcessorKind::Gpu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("c", cpu, 100.0).intensity(1.0));
        sim.add_task(TaskSpec::new("g", gpu, 100.0).intensity(1.0));
        let trace = sim.run().expect("runs");
        let sc = trace.span(0).expect("ran").slowdown();
        let sg = trace.span(1).expect("ran").slowdown();
        assert!(sc > 0.15, "CPU-GPU interference is strong, got {sc}");
        // Observation 1: equal-priority co-execution suffers identical
        // slowdown on both sides (same gamma, same intensities).
        assert!((sc - sg).abs() < 1e-6, "slowdown must be symmetric");
    }

    #[test]
    fn npu_corunner_barely_slows_cpu() {
        let mut soc = soc();
        soc.thermal_mode = crate::thermal::ThermalMode::Disabled;
        let cpu = id(&soc, ProcessorKind::CpuBig);
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("c", cpu, 100.0).intensity(1.0));
        sim.add_task(TaskSpec::new("n", npu, 100.0).intensity(1.0));
        let trace = sim.run().expect("runs");
        let sc = trace.span(0).expect("ran").slowdown();
        assert!(sc < 0.06, "CPU-NPU interference is weak, got {sc}");
    }

    #[test]
    fn fifo_order_is_respected_per_processor() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("first", npu, 3.0));
        sim.add_task(TaskSpec::new("second", npu, 3.0));
        let trace = sim.run().expect("runs");
        assert!(trace.span(1).unwrap().start_ms >= trace.span(0).unwrap().end_ms);
    }

    #[test]
    fn cycle_is_reported() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        // Forge a forward dependency to create a 2-cycle.
        let mut a = TaskSpec::new("a", npu, 1.0);
        a.deps.push(TaskId(1));
        let a = sim.add_task(a);
        sim.add_task(TaskSpec::new("b", npu, 1.0).after(a));
        let err = sim.run().expect_err("cycle must be detected");
        assert!(matches!(err, SimError::CyclicDependency { stuck: 2 }));
    }

    #[test]
    fn unknown_processor_is_reported() {
        let soc = soc();
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("x", ProcessorId(99), 1.0));
        assert!(matches!(
            sim.run(),
            Err(SimError::UnknownProcessor { index: 99, .. })
        ));
    }

    #[test]
    fn invalid_duration_is_reported() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("x", npu, f64::NAN));
        assert!(matches!(sim.run(), Err(SimError::InvalidDuration { .. })));
    }

    #[test]
    fn zero_duration_tasks_complete() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        let a = sim.add_task(TaskSpec::new("zero", npu, 0.0));
        sim.add_task(TaskSpec::new("next", npu, 1.0).after(a));
        let trace = sim.run().expect("runs");
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.span(0).unwrap().duration_ms(), 0.0);
    }

    #[test]
    fn determinism_same_input_same_trace() {
        let build = || {
            let soc = soc();
            let cpu = id(&soc, ProcessorKind::CpuBig);
            let gpu = id(&soc, ProcessorKind::Gpu);
            let npu = id(&soc, ProcessorKind::Npu);
            let mut sim = Simulation::new(&soc);
            let mut prev: Option<TaskId> = None;
            for i in 0..30 {
                let p = match i % 3 {
                    0 => cpu,
                    1 => gpu,
                    _ => npu,
                };
                let mut t = TaskSpec::new(format!("t{i}"), p, 1.0 + (i % 7) as f64)
                    .intensity(0.1 * (i % 5) as f64);
                if i % 4 == 0 {
                    if let Some(pv) = prev {
                        t = t.after(pv);
                    }
                }
                prev = Some(sim.add_task(t));
            }
            sim.run().expect("runs")
        };
        let t1 = build();
        let t2 = build();
        assert_eq!(t1.spans, t2.spans);
    }

    #[test]
    fn release_times_delay_task_starts() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("late", npu, 5.0).release(100.0));
        let trace = sim.run().expect("runs");
        let s = trace.span(0).expect("ran");
        assert!((s.start_ms - 100.0).abs() < 1e-9, "start {}", s.start_ms);
        assert!((trace.makespan_ms() - 105.0).abs() < 1e-6);
    }

    #[test]
    fn released_task_preempts_idle_wait() {
        // A long task runs on the NPU; a task released mid-way on the
        // idle GPU must start at its release time, not when the NPU task
        // finishes.
        let mut soc = soc();
        soc.thermal_mode = crate::thermal::ThermalMode::Disabled;
        let npu = id(&soc, ProcessorKind::Npu);
        let gpu = id(&soc, ProcessorKind::Gpu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("long", npu, 100.0));
        sim.add_task(TaskSpec::new("mid", gpu, 10.0).release(30.0));
        let trace = sim.run().expect("runs");
        let mid = trace.span(1).expect("ran");
        assert!((mid.start_ms - 30.0).abs() < 1e-9, "start {}", mid.start_ms);
    }

    #[test]
    fn releases_compose_with_dependencies() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        let a = sim.add_task(TaskSpec::new("a", npu, 10.0));
        // Successor is both dependent on `a` (ends at 10) and released at
        // 50: the later constraint governs.
        sim.add_task(TaskSpec::new("b", npu, 5.0).after(a).release(50.0));
        let trace = sim.run().expect("runs");
        assert!((trace.span(1).unwrap().start_ms - 50.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_release_is_reported() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("x", npu, 1.0).release(f64::NAN));
        assert!(matches!(sim.run(), Err(SimError::InvalidDuration { .. })));
    }

    #[test]
    fn event_log_brackets_every_task() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let gpu = id(&soc, ProcessorKind::Gpu);
        let mut sim = Simulation::new(&soc);
        let a = sim.add_task(TaskSpec::new("a", npu, 5.0).intensity(0.8));
        sim.add_task(TaskSpec::new("b", gpu, 4.0).intensity(0.5).after(a));
        sim.add_task(TaskSpec::new("c", npu, 2.0).release(1.0));
        let (trace, events) = sim.run_with_events().expect("runs");
        assert_eq!(trace.spans.len(), 3);
        // Every task gets exactly one ready, one start and one finish,
        // and they agree with the trace timestamps.
        for span in &trace.spans {
            let t = span.task;
            let ready: Vec<_> = events
                .iter()
                .filter(|e| matches!(e, EngineEvent::Ready { task, .. } if *task == t))
                .collect();
            assert_eq!(ready.len(), 1, "task {t} ready events");
            let starts: Vec<_> = events
                .iter()
                .filter(|e| matches!(e, EngineEvent::Start { task, .. } if *task == t))
                .collect();
            assert_eq!(starts.len(), 1, "task {t} start events");
            assert!((starts[0].time_ms() - span.start_ms).abs() < 1e-9);
            let finishes: Vec<_> = events
                .iter()
                .filter(|e| matches!(e, EngineEvent::Finish { task, .. } if *task == t))
                .collect();
            assert_eq!(finishes.len(), 1, "task {t} finish events");
            assert!((finishes[0].time_ms() - span.end_ms).abs() < 1e-9);
        }
        // Events come out in simulation-time order.
        for w in events.windows(2) {
            assert!(w[1].time_ms() >= w[0].time_ms() - 1e-9);
        }
        // The logged run produces the identical trace.
        let soc2 = SocSpec::kirin_990();
        let npu2 = id(&soc2, ProcessorKind::Npu);
        let gpu2 = id(&soc2, ProcessorKind::Gpu);
        let mut plain = Simulation::new(&soc2);
        let a2 = plain.add_task(TaskSpec::new("a", npu2, 5.0).intensity(0.8));
        plain.add_task(TaskSpec::new("b", gpu2, 4.0).intensity(0.5).after(a2));
        plain.add_task(TaskSpec::new("c", npu2, 2.0).release(1.0));
        assert_eq!(plain.run().expect("runs").spans, trace.spans);
    }

    #[test]
    fn event_json_lines_are_well_formed() {
        let soc = soc();
        let cpu = id(&soc, ProcessorKind::CpuBig);
        let gpu = id(&soc, ProcessorKind::Gpu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("c", cpu, 10.0).intensity(1.0));
        sim.add_task(TaskSpec::new("g", gpu, 10.0).intensity(1.0));
        let (_, events) = sim.run_with_events().expect("runs");
        assert!(events
            .iter()
            .any(|e| matches!(e, EngineEvent::Rate { slowdown, .. } if *slowdown > 0.0)));
        for e in &events {
            let line = e.json_line();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"event\":\""), "{line}");
            assert!(line.contains("\"time_ms\":"), "{line}");
            assert!(!line.contains('\n'), "one line per event: {line}");
        }
    }

    #[test]
    fn empty_injector_reproduces_plain_run_exactly() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let gpu = id(&soc, ProcessorKind::Gpu);
        let mut sim = Simulation::new(&soc);
        let a = sim.add_task(TaskSpec::new("a", npu, 5.0).intensity(0.8));
        sim.add_task(TaskSpec::new("b", gpu, 4.0).intensity(0.5).after(a));
        sim.add_task(TaskSpec::new("c", npu, 2.0).release(1.0));
        // Runs borrow the simulation, so one task graph serves both.
        let plain = sim.run().expect("runs");
        let inj = crate::faults::FaultInjector::new(4);
        let (outcome, events) = sim.run_faulted(&inj).expect("runs");
        assert!(outcome.is_complete());
        let completed: Vec<_> = outcome.spans.iter().flatten().cloned().collect();
        assert_eq!(completed, plain.spans);
        assert!(!events.iter().any(|e| matches!(
            e,
            EngineEvent::ProcessorDown { .. }
                | EngineEvent::Throttle { .. }
                | EngineEvent::TaskFailed { .. }
        )));
    }

    #[test]
    fn dropout_kills_running_task_and_orphans_successors() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let gpu = id(&soc, ProcessorKind::Gpu);
        let mut sim = Simulation::new(&soc);
        let a = sim.add_task(TaskSpec::new("victim", npu, 10.0));
        sim.add_task(TaskSpec::new("orphan", gpu, 1.0).after(a));
        sim.add_task(TaskSpec::new("survivor", gpu, 3.0));
        let inj = crate::faults::FaultInjector::new(4).dropout(npu, 4.0);
        let (outcome, events) = sim.run_faulted(&inj).expect("runs");
        assert!(!outcome.is_complete());
        assert_eq!(outcome.completed_count(), 1);
        assert!(outcome.spans[2].is_some(), "survivor completes");
        assert_eq!(outcome.failed.len(), 1);
        assert_eq!(outcome.failed[0].task, 0);
        assert_eq!(outcome.failed[0].kind, crate::faults::FaultKind::Dropout);
        assert!((outcome.failed[0].at_ms - 4.0).abs() < 1e-9);
        assert_eq!(outcome.orphaned, vec![1]);
        assert!(outcome.down[npu.index()]);
        assert!(events.iter().any(
            |e| matches!(e, EngineEvent::ProcessorDown { processor, .. } if *processor == npu)
        ));
        assert!(events.iter().any(|e| matches!(
            e,
            EngineEvent::TaskFailed {
                task: 0,
                kind: FaultKind::Dropout,
                ..
            }
        )));
    }

    #[test]
    fn nothing_starts_on_a_down_processor() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("late", npu, 5.0).release(10.0));
        let inj = crate::faults::FaultInjector::new(4).dropout(npu, 0.0);
        let (outcome, events) = sim.run_faulted(&inj).expect("runs");
        assert_eq!(outcome.completed_count(), 0);
        assert_eq!(outcome.orphaned, vec![0]);
        assert!(!events
            .iter()
            .any(|e| matches!(e, EngineEvent::Start { .. })));
    }

    #[test]
    fn throttle_stretches_exactly_by_its_factor() {
        let mut soc = soc();
        soc.thermal_mode = crate::thermal::ThermalMode::Disabled;
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("t", npu, 10.0));
        // Half rate over [0, 100): 10 ms of work takes 20 ms.
        let inj = crate::faults::FaultInjector::new(4).throttle(npu, 0.0, 100.0, 0.5);
        let (outcome, events) = sim.run_faulted(&inj).expect("runs");
        assert!(outcome.is_complete());
        let span = outcome.spans[0].as_ref().expect("completed");
        assert!(
            (span.end_ms - 20.0).abs() < 1e-6,
            "throttled end {}",
            span.end_ms
        );
        // The throttle factor reaches the event log through the Rate
        // events' thermal factor, plus a Throttle marker.
        assert!(events.iter().any(|e| matches!(
            e,
            EngineEvent::Rate { thermal_factor, .. } if (*thermal_factor - 0.5).abs() < 1e-12
        )));
        assert!(events.iter().any(
            |e| matches!(e, EngineEvent::Throttle { factor, .. } if (*factor - 0.5).abs() < 1e-12)
        ));
    }

    #[test]
    fn throttle_lift_mid_task_changes_rate_at_boundary() {
        let mut soc = soc();
        soc.thermal_mode = crate::thermal::ThermalMode::Disabled;
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("t", npu, 10.0));
        // Half rate over [0, 10): 5 ms of work done by t=10, the rest at
        // full rate: end = 10 + 5 = 15.
        let inj = crate::faults::FaultInjector::new(4).throttle(npu, 0.0, 10.0, 0.5);
        let (outcome, _events) = sim.run_faulted(&inj).expect("runs");
        let span = outcome.spans[0].as_ref().expect("completed");
        assert!((span.end_ms - 15.0).abs() < 1e-6, "end {}", span.end_ms);
    }

    #[test]
    fn transient_failure_fires_at_fraction_of_solo_work() {
        let mut soc = soc();
        soc.thermal_mode = crate::thermal::ThermalMode::Disabled;
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("flaky", npu, 10.0));
        let inj = crate::faults::FaultInjector::new(4).fail_task(0, 0.5);
        let (outcome, events) = sim.run_faulted(&inj).expect("runs");
        assert_eq!(outcome.completed_count(), 0);
        assert_eq!(outcome.failed.len(), 1);
        let f = &outcome.failed[0];
        assert_eq!(f.kind, crate::faults::FaultKind::Transient);
        // Solo rate on an idle NPU is 1.0, so 50% of 10 ms dies at t=5.
        assert!((f.at_ms - 5.0).abs() < 1e-6, "failed at {}", f.at_ms);
        assert!(events.iter().any(|e| matches!(
            e,
            EngineEvent::TaskFailed {
                task: 0,
                kind: FaultKind::Transient,
                ..
            }
        )));
    }

    #[test]
    fn faulted_runs_audit_clean_per_scenario() {
        // Every fault class ends in a clean faulted audit: the replay
        // reconciliation must integrate the faulted rates exactly.
        let scenarios: Vec<crate::faults::FaultInjector> = vec![
            crate::faults::FaultInjector::new(4),
            crate::faults::FaultInjector::new(4).dropout(ProcessorId(3), 4.0),
            crate::faults::FaultInjector::new(4).throttle(ProcessorId(0), 2.0, 9.0, 0.4),
            crate::faults::FaultInjector::new(4).fail_task(1, 0.3),
            crate::faults::FaultInjector::new(4)
                .dropout(ProcessorId(2), 6.0)
                .throttle(ProcessorId(0), 0.0, 5.0, 0.6)
                .fail_task(4, 0.7),
        ];
        for (si, inj) in scenarios.into_iter().enumerate() {
            let soc = soc();
            let cpu = id(&soc, ProcessorKind::CpuBig);
            let gpu = id(&soc, ProcessorKind::Gpu);
            let npu = id(&soc, ProcessorKind::Npu);
            let mut sim = Simulation::new(&soc);
            let mut prev: Option<TaskId> = None;
            for i in 0..9 {
                let p = match i % 3 {
                    0 => cpu,
                    1 => gpu,
                    _ => npu,
                };
                let mut t = TaskSpec::new(format!("t{i}"), p, 2.0 + (i % 4) as f64)
                    .intensity(0.2 * (i % 4) as f64)
                    .release(0.5 * i as f64);
                if i % 3 == 2 {
                    if let Some(pv) = prev {
                        t = t.after(pv);
                    }
                }
                prev = Some(sim.add_task(t));
            }
            let tasks = sim.tasks().to_vec();
            let (outcome, events) = sim.run_faulted(&inj).expect("runs");
            let report = crate::audit::audit_faulted(&soc, &tasks, &events, &outcome);
            assert!(report.is_clean(), "scenario {si}:\n{report}");
        }
    }

    #[test]
    fn injector_processor_count_mismatch_is_reported() {
        let soc = soc();
        let npu = id(&soc, ProcessorKind::Npu);
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("t", npu, 1.0));
        let inj = crate::faults::FaultInjector::new(2);
        assert!(matches!(
            sim.run_faulted(&inj),
            Err(SimError::UnknownProcessor { .. })
        ));
    }

    #[test]
    fn memory_overcommit_slows_everything() {
        let mut soc = soc();
        soc.thermal_mode = crate::thermal::ThermalMode::Disabled;
        let npu = id(&soc, ProcessorKind::Npu);
        let cap = soc.memory.capacity_bytes;
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("huge", npu, 10.0).footprint(cap + 1));
        let trace = sim.run().expect("runs");
        assert!(
            trace.span(0).unwrap().duration_ms() > 10.0 * 1.5,
            "page faults must stretch execution"
        );
    }
}
