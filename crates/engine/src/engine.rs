//! The batch engine: fan N jobs across a worker pool, deterministically.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qac_core::{Compiled, RunOptions, RunOutcome};
use qac_telemetry::{FlightKind, TraceId, TraceScope};

use crate::fingerprint::outcome_fingerprint;
use crate::queue::WorkStealQueue;
use crate::seed::attempt_seed;

/// Histogram buckets (µs) for job queue-wait time.
const QUEUE_WAIT_BUCKETS_US: &[f64] = &[10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7];

/// One job: a compiled program plus how to run it.
///
/// The `RunOptions` seed is *ignored* — the engine overrides it with the
/// job's derived seed (see [`crate::seed`]) so that results depend only
/// on the batch seed and the job's position, never on scheduling.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The program to run (shared, so a thousand jobs over five
    /// programs cost five compilations).
    pub program: Arc<Compiled>,
    /// Pins, read count, solver. Seed is overridden per attempt.
    pub options: RunOptions,
    /// Human-readable label for tables and telemetry spans.
    pub label: String,
    /// Job-scoped trace id. Every flight-recorder event the job causes —
    /// across sampler threads and cache lookups —
    /// carries this id, so a failed or timed-out job can dump its own
    /// event history (see [`JobResult::post_mortem_jsonl`]).
    pub trace: TraceId,
}

impl JobSpec {
    /// A job running `program` with `options`, labelled `label`, under a
    /// fresh trace id.
    pub fn new(program: Arc<Compiled>, options: RunOptions, label: impl Into<String>) -> JobSpec {
        JobSpec {
            program,
            options,
            label: label.into(),
            trace: TraceId::fresh(),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Worker threads. 0 = one per available core.
    pub workers: usize,
    /// Bound on tasks queued at once (backpressure for huge batches).
    pub queue_capacity: usize,
    /// Attempts per job (1 = no retries). Each retry reseeds
    /// deterministically from the job's splitmix stream.
    pub max_attempts: usize,
    /// Also retry (up to `max_attempts`) when a run succeeds but decodes
    /// zero valid executions — useful for stochastic solvers that
    /// sometimes miss the ground state.
    pub retry_until_valid: bool,
    /// Per-job wall-clock budget, measured from dequeue and checked
    /// *between* attempts (a running attempt is never interrupted).
    /// `None` = unbounded. Timeouts trade determinism for liveness:
    /// a batch that hits them may differ run-to-run.
    pub timeout: Option<Duration>,
    /// The seed every job/attempt seed derives from.
    pub base_seed: u64,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            workers: 0,
            queue_capacity: 256,
            max_attempts: 3,
            retry_until_valid: false,
            timeout: None,
            base_seed: 0xba7c_45ee_d001,
        }
    }
}

/// Cooperative cancellation: clone the token, hand it to the batch, flip
/// it from any thread. Workers observe it between attempts; jobs not yet
/// finished report [`JobStatus::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// How a job ended.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// The run completed (possibly without valid samples — inspect the
    /// outcome's quality).
    Completed(Box<RunOutcome>),
    /// Every attempt errored; the final error, rendered.
    Failed(String),
    /// The wall-clock budget expired before an attempt could finish.
    TimedOut,
    /// The batch was cancelled before this job ran to completion.
    Cancelled,
}

/// The result of one job, in its batch position.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// The job's label.
    pub label: String,
    /// Terminal status.
    pub status: JobStatus,
    /// Attempts consumed (0 for jobs cancelled/timed out before any).
    pub attempts: usize,
    /// Seed of the final attempt (the job seed when no attempt ran).
    pub seed: u64,
    /// Time between enqueue and dequeue.
    pub queue_wait: Duration,
    /// Time executing attempts.
    pub run_time: Duration,
    /// Worker that executed the job.
    pub worker: usize,
    /// Whether the job was stolen from another worker's deque.
    pub stolen: bool,
    /// The job's trace id (copied from its [`JobSpec`]).
    pub trace: TraceId,
}

impl JobResult {
    /// The outcome, when the job completed.
    pub fn outcome(&self) -> Option<&RunOutcome> {
        match &self.status {
            JobStatus::Completed(outcome) => Some(outcome),
            _ => None,
        }
    }

    /// Canonical digest of the completed outcome (see
    /// [`outcome_fingerprint`]); `None` otherwise.
    pub fn fingerprint(&self) -> Option<u64> {
        self.outcome().map(outcome_fingerprint)
    }

    /// This job's event history from the global flight recorder as
    /// JSONL — stage boundaries, cache hits/misses, queue/retry/timeout
    /// events — for post-mortem analysis without re-running the job.
    /// Bounded by the recorder's ring capacity: a job that finished long
    /// ago may have been evicted by newer events.
    pub fn post_mortem_jsonl(&self) -> String {
        qac_telemetry::global_flight().dump_jsonl(self.trace)
    }
}

/// A deterministic concurrent batch runner.
///
/// See the crate docs for the architecture; the one-line contract:
/// [`BatchEngine::run_batch`] returns the same results, in the same
/// (submission) order, for every worker count.
#[derive(Debug, Clone, Default)]
pub struct BatchEngine {
    options: EngineOptions,
}

impl BatchEngine {
    /// An engine with the given options.
    pub fn new(options: EngineOptions) -> BatchEngine {
        BatchEngine { options }
    }

    /// The configured options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// The worker count this engine resolves to.
    pub fn workers(&self) -> usize {
        if self.options.workers > 0 {
            return self.options.workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Runs every job and returns results in submission order.
    pub fn run_batch(&self, jobs: Vec<JobSpec>) -> Vec<JobResult> {
        self.run_batch_cancellable(jobs, &CancelToken::new())
    }

    /// [`BatchEngine::run_batch`] with a cancellation token.
    pub fn run_batch_cancellable(
        &self,
        jobs: Vec<JobSpec>,
        cancel: &CancelToken,
    ) -> Vec<JobResult> {
        let workers = self.workers();
        let telemetry = qac_telemetry::global();
        let flight = qac_telemetry::global_flight();
        let mut batch_span = telemetry.span("batch");
        batch_span.arg("jobs", jobs.len() as f64);
        batch_span.arg("workers", workers as f64);
        let parent = batch_span.id();
        telemetry.register_histogram("qac_engine_queue_wait_us", QUEUE_WAIT_BUCKETS_US);

        struct Task {
            index: usize,
            job: JobSpec,
            enqueued: Instant,
        }

        let queue: WorkStealQueue<Task> = WorkStealQueue::new(workers, self.options.queue_capacity);
        let total = jobs.len();
        let results: Mutex<Vec<Option<JobResult>>> = Mutex::new((0..total).map(|_| None).collect());

        crossbeam::scope(|scope| {
            for worker in 0..workers {
                let queue = &queue;
                let results = &results;
                scope.spawn(move |_| {
                    while let Some(popped) = queue.pop(worker) {
                        let Task {
                            index,
                            job,
                            enqueued,
                        } = popped.task;
                        let queue_wait = enqueued.elapsed();
                        // Everything the job does on this worker —
                        // pipeline stages, cache lookups, portfolio arms
                        // (which re-propagate into their own spawns) —
                        // records under the job's trace id.
                        let trace_scope = TraceScope::enter(job.trace);
                        let wait_us = queue_wait.as_secs_f64() * 1e6;
                        flight.record(FlightKind::Dequeue, &job.label, wait_us);
                        let mut span = telemetry.span_under(&format!("job:{}", job.label), parent);
                        span.arg("job", index as f64);
                        span.arg("worker", worker as f64);
                        let started = Instant::now();
                        let (status, attempts, seed) = self.execute(index, &job, cancel);
                        let run_time = started.elapsed();
                        span.arg("attempts", attempts as f64);
                        drop(span);
                        telemetry.counter_add("qac_engine_jobs_total", 1);
                        telemetry.counter_add(
                            "qac_engine_retries_total",
                            attempts.saturating_sub(1) as u64,
                        );
                        if popped.stolen {
                            telemetry.counter_add("qac_engine_steals_total", 1);
                        }
                        let (terminal_kind, counter) = match &status {
                            JobStatus::Failed(_) => {
                                (FlightKind::JobFailed, Some("qac_engine_failed_total"))
                            }
                            JobStatus::TimedOut => {
                                (FlightKind::Timeout, Some("qac_engine_timeouts_total"))
                            }
                            JobStatus::Cancelled => {
                                (FlightKind::Cancel, Some("qac_engine_cancelled_total"))
                            }
                            JobStatus::Completed(_) => (FlightKind::JobDone, None),
                        };
                        if let Some(counter) = counter {
                            telemetry.counter_add(counter, 1);
                        }
                        flight.record(terminal_kind, &job.label, attempts as f64);
                        drop(trace_scope);
                        telemetry.observe("qac_engine_queue_wait_us", wait_us);
                        telemetry.sketch_observe("qac_engine_queue_wait_quantiles_us", wait_us);
                        results.lock().unwrap_or_else(|p| p.into_inner())[index] =
                            Some(JobResult {
                                job: index,
                                label: job.label,
                                status,
                                attempts,
                                seed,
                                queue_wait,
                                run_time,
                                worker,
                                stolen: popped.stolen,
                                trace: job.trace,
                            });
                    }
                });
            }
            // The caller's thread is the producer: deal round-robin,
            // blocking at the capacity bound. The producer is outside
            // the jobs' trace scopes, so Enqueue events name the trace
            // explicitly.
            for (index, job) in jobs.into_iter().enumerate() {
                flight.record_for(job.trace, FlightKind::Enqueue, &job.label, index as f64);
                queue.push(
                    index,
                    Task {
                        index,
                        job,
                        enqueued: Instant::now(),
                    },
                );
            }
            queue.close();
        })
        .expect("engine workers do not panic");

        results
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .into_iter()
            .map(|slot| slot.expect("every job produced a result"))
            .collect()
    }

    /// Runs one job's attempt loop. Returns (status, attempts, seed of
    /// the final attempt).
    fn execute(
        &self,
        index: usize,
        job: &JobSpec,
        cancel: &CancelToken,
    ) -> (JobStatus, usize, u64) {
        let deadline = self.options.timeout.map(|t| Instant::now() + t);
        let max_attempts = self.options.max_attempts.max(1);
        let mut attempts = 0usize;
        let mut seed = attempt_seed(self.options.base_seed, index as u64, 0);
        loop {
            if cancel.is_cancelled() {
                return (JobStatus::Cancelled, attempts, seed);
            }
            if let Some(deadline) = deadline {
                if Instant::now() >= deadline {
                    return (JobStatus::TimedOut, attempts, seed);
                }
            }
            seed = attempt_seed(self.options.base_seed, index as u64, attempts as u64);
            attempts += 1;
            if attempts > 1 {
                // Recorded under the worker's trace scope (the caller
                // entered it before execute()).
                qac_telemetry::global_flight().record(
                    FlightKind::Retry,
                    &job.label,
                    attempts as f64,
                );
            }
            let options = job.options.clone().seed(seed);
            match job.program.run(&options) {
                Ok(outcome) => {
                    let acceptable =
                        !self.options.retry_until_valid || outcome.valid_fraction() > 0.0;
                    if acceptable || attempts >= max_attempts {
                        return (JobStatus::Completed(Box::new(outcome)), attempts, seed);
                    }
                }
                Err(error) => {
                    if attempts >= max_attempts {
                        return (JobStatus::Failed(error.to_string()), attempts, seed);
                    }
                }
            }
        }
    }
}
