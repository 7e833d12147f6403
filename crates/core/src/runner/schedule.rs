//! The scheduler: one coordinator loop for every worker count.
//!
//! [`coordinate`] owns readiness, dispatch, commit, plan-order delivery,
//! stats and observer events; [`Pool::run_job`] is the one place a task
//! body runs. What varies with the worker count is only *who calls
//! `run_job`*: with one worker the coordinator pops the next ready job and
//! runs it on the calling thread — no thread is spawned and no channel is
//! created — and with more, scoped pool workers do, reporting back over a
//! channel the coordinator blocks on.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

use datasynth_telemetry::MetricsRegistry;

use super::tasks::{
    commit, emit_slot, execute, gather, output_rows, task_kind, Ctx, Tables, TaskInput, TaskOutput,
};
use super::{Observer, PlannedSchema, TaskProgress};
use crate::dependency::Task;
use crate::error::PipelineError;
use crate::parallel::panic_message;
use crate::report::TaskReport;
use crate::sink::{GraphSink, SinkManifest};

/// A dispatched task: its plan index plus its gathered inputs.
struct Job {
    index: usize,
    input: TaskInput,
    /// When the coordinator pushed the job — `run_job` subtracts this
    /// from its pickup time to measure queue wait.
    queued_at: Instant,
}

/// A completed task, reported back to the coordinator.
struct Done {
    index: usize,
    result: Result<TaskOutput, PipelineError>,
    /// Wall time of the task body.
    execute: Duration,
    queue_wait: Duration,
}

/// The ready set. Pops the **lowest plan index first**: plan order is
/// topological, so one worker executes the plan exactly in plan order,
/// and a pool prefers the slots plan-order delivery is waiting for.
#[derive(Default)]
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: BTreeMap<usize, Job>,
    closed: bool,
}

impl JobQueue {
    fn push(&self, job: Job) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.jobs.insert(job.index, job);
        self.ready.notify_one();
    }

    /// The lowest-index ready job. With none ready, a pool worker waits
    /// (`wait`) until one is pushed or the queue is closed; the inline
    /// worker gets `None` at once — nobody else could push.
    fn pop(&self, wait: bool) -> Option<Job> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if state.closed {
                return None;
            }
            if let Some((_, job)) = state.jobs.pop_first() {
                return Some(job);
            }
            if !wait {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned");
        }
    }

    /// Stop the pool: discard pending jobs and wake every worker to exit.
    fn close(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.closed = true;
        state.jobs.clear();
        self.ready.notify_all();
    }
}

/// What a worker — a pool thread or the coordinator itself — needs to
/// pick up and run jobs.
struct Pool<'a> {
    ctx: Ctx<'a>,
    planned: &'a PlannedSchema,
    queue: JobQueue,
    /// Tasks running right now, across all workers: each task divides the
    /// thread budget for its *inner* chunking by this, so one giant task
    /// alone still fans out to every core while a full ready set runs one
    /// thread per task — never `threads x threads` oversubscription. The
    /// split only moves computation placement; it cannot change bytes.
    active: AtomicUsize,
}

impl Pool<'_> {
    /// Pick up the next ready job, if any, and run its task body — the
    /// one place a task executes, panics caught and time taken.
    fn run_job(&self, wait: bool) -> Option<Done> {
        let job = self.queue.pop(wait)?;
        let started = Instant::now();
        let queue_wait = started.saturating_duration_since(job.queued_at);
        let task = &self.planned.plan().tasks[job.index];
        let running = self.active.fetch_add(1, Ordering::SeqCst) + 1;
        let mut ctx = self.ctx;
        ctx.threads = (ctx.threads / running).max(1);
        let result = catch_unwind(AssertUnwindSafe(|| execute(&ctx, task, job.input)))
            .unwrap_or_else(|p| Err(PipelineError::WorkerPanic(panic_message(p))));
        self.active.fetch_sub(1, Ordering::SeqCst);
        Some(Done {
            index: job.index,
            result,
            execute: started.elapsed(),
            queue_wait,
        })
    }
}

/// Execute the plan on `workers` workers, delivering every slot to `sink`
/// (and the observer) strictly in plan order. Returns the per-slot
/// telemetry and the reorder buffer's high-water mark.
pub(super) fn run_plan(
    ctx: Ctx<'_>,
    planned: &PlannedSchema,
    workers: usize,
    metrics: Option<&MetricsRegistry>,
    observer: &mut Option<Observer<'_>>,
    sink: &mut dyn GraphSink,
    report: &mut SinkManifest,
) -> Result<(Vec<TaskReport>, u64), PipelineError> {
    let pool = Pool {
        ctx,
        planned,
        queue: JobQueue::default(),
        active: AtomicUsize::new(0),
    };
    if workers == 1 {
        // The inline worker: the coordinator runs each job itself, on the
        // calling thread, whenever it needs the next completion.
        return coordinate(&pool, metrics, observer, sink, report, || {
            pool.run_job(false)
        });
    }
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (pool, done_tx) = (&pool, done_tx.clone());
            scope.spawn(move || {
                while let Some(done) = pool.run_job(true) {
                    if done_tx.send(done).is_err() {
                        break; // coordinator gone: shut down
                    }
                }
            });
        }
        drop(done_tx);
        let outcome = coordinate(&pool, metrics, observer, sink, report, || {
            done_rx.recv().ok()
        });
        pool.queue.close();
        outcome
    })
}

/// `Started(slot)` fires when `slot` becomes the head of the delivery
/// order — live at one worker, where the head is the next job to run.
fn announce_head(observer: &mut Option<Observer<'_>>, tasks: &[Task], slot: usize) {
    if let (Some(obs), Some(task)) = (observer.as_mut(), tasks.get(slot)) {
        obs(TaskProgress::started(slot, tasks.len(), task));
    }
}

/// The coordinator loop. `next_done` yields the next completed task —
/// by running one inline, or by waiting for a pool worker — and `None`
/// only if no task can complete any more.
fn coordinate(
    pool: &Pool<'_>,
    metrics: Option<&MetricsRegistry>,
    observer: &mut Option<Observer<'_>>,
    sink: &mut dyn GraphSink,
    report: &mut SinkManifest,
    mut next_done: impl FnMut() -> Option<Done>,
) -> Result<(Vec<TaskReport>, u64), PipelineError> {
    let (ctx, planned) = (&pool.ctx, pool.planned);
    let tasks = &planned.plan().tasks;
    let total = tasks.len();
    let mut tables = Tables::default();
    let mut stats: Vec<TaskReport> = tasks
        .iter()
        .map(|task| TaskReport {
            task: task.to_string(),
            kind: task_kind(task),
            rows: 0,
            queue_wait: Duration::ZERO,
            gather: Duration::ZERO,
            execute: Duration::ZERO,
            commit: Duration::ZERO,
        })
        .collect();
    let mut indegree: Vec<usize> = planned.analysis.task_deps.iter().map(Vec::len).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); total];
    for (i, ds) in planned.analysis.task_deps.iter().enumerate() {
        for &d in ds {
            dependents[d].push(i);
        }
    }
    let dispatch = |index: usize, tables: &Tables, stats: &mut [TaskReport]| {
        let gather_started = Instant::now();
        let input = gather(ctx, tables, &tasks[index], index);
        stats[index].gather = gather_started.elapsed();
        pool.queue.push(Job {
            index,
            input,
            queued_at: Instant::now(),
        });
    };

    // Seed the ready set with every dependency-free task.
    for index in (0..total).filter(|&i| indegree[i] == 0) {
        dispatch(index, &tables, &mut stats);
    }
    announce_head(observer, tasks, 0);
    let mut completed = vec![false; total];
    let mut drained = 0usize;
    let mut max_reorder_depth = 0;
    for received in 1..=total {
        let done = next_done().ok_or_else(|| {
            PipelineError::Invalid("workers exited before the plan completed".into())
        })?;
        let index = done.index;
        let out = done.result?;
        let commit_started = Instant::now();
        let stat = &mut stats[index];
        (stat.rows, stat.execute, stat.queue_wait) =
            (output_rows(&out), done.execute, done.queue_wait);
        commit(&mut tables, &tasks[index], out);
        stat.commit = commit_started.elapsed();
        if let Some(registry) = metrics {
            let kind = Some(("kind", stat.kind));
            registry.counter_with("datasynth_tasks_total", kind).inc();
            registry
                .counter_with("datasynth_task_rows_total", kind)
                .add(stat.rows);
            registry
                .histogram_with("datasynth_task_execute_micros", kind)
                .record(stat.execute.as_micros() as u64);
        }
        completed[index] = true;
        for &dep in &dependents[index] {
            indegree[dep] -= 1;
            if indegree[dep] == 0 {
                dispatch(dep, &tables, &mut stats);
            }
        }
        // Deliver strictly in plan order, each slot only after every
        // earlier task has completed and drained.
        while drained < total && completed[drained] {
            let (task, stat) = (&tasks[drained], &mut stats[drained]);
            let emit_started = Instant::now();
            emit_slot(
                ctx,
                &mut tables,
                &planned.schedule[drained],
                task,
                sink,
                report,
            )?;
            stat.commit += emit_started.elapsed();
            if let Some(obs) = observer.as_mut() {
                obs(TaskProgress::finished(
                    drained,
                    total,
                    task,
                    stat.rows,
                    stat.execute,
                ));
            }
            drained += 1;
            announce_head(observer, tasks, drained);
        }
        // The reorder buffer: completed tasks held back behind an earlier
        // slot that is still running.
        max_reorder_depth = max_reorder_depth.max((received - drained) as u64);
    }
    Ok((stats, max_reorder_depth))
}
