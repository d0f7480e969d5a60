//! The scoped worker pool.
//!
//! A [`Runtime`] executes a batch of independent jobs on `N` worker threads
//! spawned inside [`std::thread::scope`], so jobs may borrow from the
//! caller's stack (instances, evaluators) without `'static` bounds or
//! reference counting. Jobs are distributed through a shared
//! `Mutex<VecDeque>` — the whole batch is enqueued before the workers
//! start, so workers simply drain the queue and exit when it is empty; no
//! condition variable is needed because nothing is ever enqueued late.
//! Results are written into a preallocated slot per job index, which is
//! what makes the output order (and therefore downstream iteration order)
//! independent of scheduling.
//!
//! Experiment batches run through the **isolated** entry points
//! ([`try_execute_isolated`](Runtime::try_execute_isolated) and its
//! recorded variant): every job attempt runs inside
//! [`std::panic::catch_unwind`], failures are classified
//! ([`FailureKind`]), and a bounded [`RetryPolicy`] re-runs failed jobs.
//! A retried job re-derives its seed from its grid coordinates (seeds
//! never come from shared state), and each attempt gets a fresh private
//! [`TelemetryRecorder`] whose contents are merged, in job-index order,
//! only on the attempt that succeeds — which is why a within-budget faulty
//! run's results *and telemetry* are byte-identical to a fault-free run.
//!
//! Underneath sits the plain [`execute`](Runtime::execute) scheduler,
//! where a job panic propagates to the caller (lock poisoning is
//! recovered via [`PoisonError::into_inner`], so a panicking job never
//! corrupts another job's completed result).

use crate::fault::{FaultKind, FaultPlan, FaultSite};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use wmn_obs::{Recorder, RobustnessStats, TelemetryRecorder};

/// A deterministic parallel job executor.
///
/// Construction is cheap (no threads are kept alive between batches);
/// workers are spawned per [`execute`](Runtime::execute) call and joined
/// before it returns.
///
/// # Examples
///
/// ```
/// use wmn_runtime::pool::Runtime;
///
/// let squares = Runtime::new(4).execute(vec![1u64, 2, 3], |_, x| x * x);
/// assert_eq!(squares, vec![1, 4, 9]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    threads: usize,
}

impl Runtime {
    /// A runtime with the given worker count; `0` means "one worker per
    /// available core" ([`Runtime::available_parallelism`]).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            Self::available_parallelism()
        } else {
            threads
        };
        Runtime { threads }
    }

    /// A single-worker runtime (the serial reference path).
    pub fn serial() -> Self {
        Runtime { threads: 1 }
    }

    /// The number of cores the OS reports, with a fallback of 1 when the
    /// query is unsupported.
    pub fn available_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// The resolved worker count (never 0).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `worker` over every job and returns the results **in job
    /// order**, regardless of which worker finished first.
    ///
    /// `worker` receives the job's index and the job by value. With one
    /// worker (or one job) no threads are spawned at all, so the serial
    /// path is exactly a `map`.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker thread after all workers have
    /// been joined.
    pub fn execute<T, R, F>(&self, jobs: Vec<T>, worker: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.threads <= 1 || jobs.len() <= 1 {
            return jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| worker(i, job))
                .collect();
        }

        let workers = self.threads.min(jobs.len());
        let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(jobs.into_iter().enumerate().collect());
        // Lock poisoning is recovered everywhere (`PoisonError::into_inner`):
        // no invariant here spans a lock acquisition, so a panicking job must
        // not make surviving workers — or the final collection of results
        // that *did* complete — panic a second time.
        let slots: Vec<Mutex<Option<R>>> = std::iter::repeat_with(|| Mutex::new(None))
            .take(queue.lock().unwrap_or_else(PoisonError::into_inner).len())
            .collect();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let Some((index, job)) = queue
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .pop_front()
                    else {
                        break;
                    };
                    let result = worker(index, job);
                    *slots[index].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
                });
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every job index was executed exactly once")
            })
            .collect()
    }

    /// Panic-isolated, retrying batch execution.
    ///
    /// Every attempt of every job runs inside [`catch_unwind`]; a failed
    /// attempt (panic, `Err`, or injected fault from `plan`) is retried up
    /// to `policy.max_attempts` times. The worker receives a
    /// [`JobContext`] naming the job index and the attempt number.
    ///
    /// Jobs are taken by reference so a retry re-runs the *same* job
    /// value; determinism then follows from the caller deriving seeds
    /// from the job's coordinates, never from shared state. Results come
    /// back in job order. The whole batch always runs to completion; on
    /// failure the **lowest-indexed** exhausted job is reported (taking
    /// the lowest index rather than the first to *arrive* keeps error
    /// reporting deterministic across thread counts), and `stats`
    /// accumulates the per-job fault/retry counters in job order.
    ///
    /// # Errors
    ///
    /// The lowest-indexed job that exhausted its attempt budget.
    pub fn try_execute_isolated<T, R, E, F>(
        &self,
        jobs: Vec<T>,
        policy: RetryPolicy,
        plan: Option<&FaultPlan>,
        stats: &mut RobustnessStats,
        worker: F,
    ) -> Result<Vec<R>, JobFailure<E>>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(JobContext, &T) -> Result<R, E> + Sync,
    {
        let mut recorder = TelemetryRecorder::new();
        self.try_execute_isolated_recorded(
            jobs,
            policy,
            plan,
            stats,
            &mut recorder,
            |ctx, job, _rec| worker(ctx, job),
        )
    }

    /// [`try_execute_isolated`](Runtime::try_execute_isolated) with
    /// per-job telemetry.
    ///
    /// Each *attempt* gets a fresh private [`TelemetryRecorder`]; only
    /// the succeeding attempt's recorder is merged into `recorder`, in
    /// **job-index order** after all workers join, so the aggregated
    /// telemetry — like the results — is independent of which worker ran
    /// which job, and a within-budget faulty run's telemetry is
    /// byte-identical to the fault-free run's: failed attempts leave no
    /// trace in the deterministic document.
    ///
    /// # Errors
    ///
    /// The lowest-indexed job that exhausted its attempt budget.
    pub fn try_execute_isolated_recorded<T, R, E, F>(
        &self,
        jobs: Vec<T>,
        policy: RetryPolicy,
        plan: Option<&FaultPlan>,
        stats: &mut RobustnessStats,
        recorder: &mut TelemetryRecorder,
        worker: F,
    ) -> Result<Vec<R>, JobFailure<E>>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(JobContext, &T, &mut dyn Recorder) -> Result<R, E> + Sync,
    {
        let out = self.execute(jobs, |index, job| {
            let mut job_stats = RobustnessStats::default();
            let result = run_isolated_job(index, &job, policy, plan, &mut job_stats, &worker);
            (result, job_stats)
        });

        let mut results = Vec::with_capacity(out.len());
        let mut first_failure: Option<JobFailure<E>> = None;
        for (result, job_stats) in out {
            stats.merge(&job_stats);
            match result {
                Ok((r, job_recorder)) => {
                    recorder.merge(job_recorder);
                    results.push(r);
                }
                Err(failure) => {
                    if first_failure.is_none() {
                        first_failure = Some(failure);
                    }
                }
            }
        }
        match first_failure {
            Some(failure) => Err(failure),
            None => Ok(results),
        }
    }
}

/// Runs one job to success or attempt exhaustion; the heart of the
/// isolated execution family.
fn run_isolated_job<T, R, E, F>(
    index: usize,
    job: &T,
    policy: RetryPolicy,
    plan: Option<&FaultPlan>,
    stats: &mut RobustnessStats,
    worker: &F,
) -> Result<(R, TelemetryRecorder), JobFailure<E>>
where
    F: Fn(JobContext, &T, &mut dyn Recorder) -> Result<R, E>,
{
    let max_attempts = policy.max_attempts.max(1);
    for attempt in 0..max_attempts {
        stats.retry.attempts += 1;
        if attempt > 0 {
            stats.retry.retries += 1;
        }
        let start_fault = plan.and_then(|p| p.decide(FaultSite::JobStart, index, attempt));
        let finish_fault = plan.and_then(|p| p.decide(FaultSite::JobFinish, index, attempt));

        // The injected-fault counters are bumped *inside* the unwind scope
        // (via the captured `&mut stats`) right before the corresponding
        // panic fires, so mutation survives the unwind and the counts stay
        // exact.
        let fault = &mut stats.fault;
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            match start_fault {
                Some(FaultKind::Panic) => {
                    fault.injected_panics += 1;
                    panic!("injected panic@start (job {index}, attempt {attempt})");
                }
                Some(FaultKind::Error) => {
                    fault.injected_errors += 1;
                    return Err(FailureKind::Injected("error@start"));
                }
                None => {}
            }
            let mut attempt_recorder = TelemetryRecorder::new();
            let ctx = JobContext { index, attempt };
            let result = worker(ctx, job, &mut attempt_recorder).map_err(FailureKind::Error)?;
            match finish_fault {
                Some(FaultKind::Panic) => {
                    fault.injected_panics += 1;
                    panic!("injected panic@finish (job {index}, attempt {attempt})");
                }
                Some(FaultKind::Error) => {
                    fault.injected_errors += 1;
                    Err(FailureKind::Injected("error@finish"))
                }
                None => Ok((result, attempt_recorder)),
            }
        }));

        let failure_kind = match unwound {
            Ok(Ok(success)) => {
                if attempt > 0 {
                    stats.retry.recovered_jobs += 1;
                }
                return Ok(success);
            }
            Ok(Err(kind)) => kind,
            Err(payload) => {
                stats.fault.caught_panics += 1;
                FailureKind::Panic(panic_message(payload.as_ref()))
            }
        };
        if attempt + 1 == max_attempts {
            stats.retry.exhausted_jobs += 1;
            return Err(JobFailure {
                index,
                attempts: max_attempts,
                kind: failure_kind,
            });
        }
    }
    unreachable!("loop either returns success or exhausts the attempt budget");
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Bounded retry budget for the isolated execution family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per job (`0` is treated as `1`).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// A policy allowing up to `max_attempts` attempts per job.
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts }
    }
}

impl Default for RetryPolicy {
    /// One attempt, i.e. no retries.
    fn default() -> Self {
        RetryPolicy { max_attempts: 1 }
    }
}

/// What the isolated worker is told about the attempt it is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobContext {
    /// The job's index in the batch (its deterministic identity).
    pub index: usize,
    /// Zero-based attempt number (`> 0` means this is a retry).
    pub attempt: u32,
}

/// Classification of one failed attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind<E> {
    /// The attempt panicked; carries the panic message.
    Panic(String),
    /// The worker returned `Err`.
    Error(E),
    /// A fault plan doomed the attempt (carries the `kind@site` label).
    Injected(&'static str),
}

impl<E: std::fmt::Display> std::fmt::Display for FailureKind<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Panic(msg) => write!(f, "panic: {msg}"),
            FailureKind::Error(e) => write!(f, "error: {e}"),
            FailureKind::Injected(label) => write!(f, "injected fault: {label}"),
        }
    }
}

/// A job that exhausted its attempt budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure<E> {
    /// The failing job's index in the batch.
    pub index: usize,
    /// Attempts consumed (equals the policy's cap).
    pub attempts: u32,
    /// The classification of the final attempt's failure.
    pub kind: FailureKind<E>,
}

impl<E: std::fmt::Display> std::fmt::Display for JobFailure<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {} failed after {} attempt{}: {}",
            self.index,
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.kind
        )
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for JobFailure<E> {}

impl Default for Runtime {
    /// One worker per available core; equivalent to `Runtime::new(0)`.
    fn default() -> Self {
        Runtime::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert_eq!(Runtime::new(0).threads(), Runtime::available_parallelism());
        assert!(Runtime::default().threads() >= 1);
        assert_eq!(Runtime::serial().threads(), 1);
    }

    #[test]
    fn results_are_in_job_order() {
        // Jobs deliberately finish out of order (larger index = less work).
        let jobs: Vec<u64> = (0..64).collect();
        let out = Runtime::new(8).execute(jobs, |i, x| {
            let spins = (64 - i as u64) * 1000;
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i, *idx);
        }
    }

    #[test]
    fn parallel_matches_serial_for_any_thread_count() {
        let work = |i: usize, x: u64| -> u64 {
            let mut acc = x.wrapping_add(i as u64);
            for _ in 0..100 {
                acc = acc.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(i as u64);
            }
            acc
        };
        let jobs: Vec<u64> = (0..23).map(|i| i * 7).collect();
        let reference = Runtime::serial().execute(jobs.clone(), work);
        for threads in [2, 3, 8, 32] {
            assert_eq!(
                Runtime::new(threads).execute(jobs.clone(), work),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u64> = Runtime::new(4).execute(Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = Runtime::new(64).execute(vec![1u64, 2], |_, x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let table = [10u64, 20, 30];
        let out = Runtime::new(2).execute(vec![0usize, 1, 2], |_, i| table[i]);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn recorded_telemetry_is_thread_count_invariant() {
        let run = |threads: usize| {
            let mut recorder = TelemetryRecorder::new();
            let jobs: Vec<u64> = (0..32).collect();
            let out = Runtime::new(threads)
                .try_execute_isolated_recorded(
                    jobs,
                    RetryPolicy::default(),
                    None,
                    &mut RobustnessStats::default(),
                    &mut recorder,
                    |ctx, x, rec: &mut dyn Recorder| {
                        rec.counter("jobs", 1);
                        rec.value("job.payload", *x);
                        rec.counter(if ctx.index % 2 == 0 { "even" } else { "odd" }, *x);
                        Ok::<_, String>(x * 3)
                    },
                )
                .unwrap();
            (out, recorder.render_json())
        };
        let (serial_out, serial_json) = run(1);
        for threads in [2, 5, 8] {
            let (out, json) = run(threads);
            assert_eq!(out, serial_out, "threads = {threads}");
            assert_eq!(json, serial_json, "threads = {threads}");
        }
        assert!(serial_json.contains("\"jobs\":32"));
    }

    #[test]
    fn isolated_matches_plain_execution_without_faults() {
        let jobs: Vec<u64> = (0..16).map(|i| i * 3).collect();
        let mut stats = RobustnessStats::default();
        let out = Runtime::new(4)
            .try_execute_isolated(
                jobs.clone(),
                RetryPolicy::default(),
                None,
                &mut stats,
                |ctx, x| Ok::<_, String>(x + ctx.index as u64),
            )
            .unwrap();
        let expected: Vec<u64> = jobs.iter().enumerate().map(|(i, x)| x + i as u64).collect();
        assert_eq!(out, expected);
        assert_eq!(stats.retry.attempts, 16);
        assert_eq!(stats.retry.retries, 0);
        assert!(stats.fault == Default::default());
    }

    #[test]
    fn isolated_failure_at_every_index_selects_that_index_across_thread_counts() {
        // The satellite's matrix: a single injected failure at each job
        // index, at 1, 2, and 8 threads, must always report exactly that
        // index (with one job there is nothing lower to confuse it with).
        for fail_at in 0..8usize {
            for threads in [1, 2, 8] {
                let jobs: Vec<usize> = (0..8).collect();
                let mut stats = RobustnessStats::default();
                let err = Runtime::new(threads)
                    .try_execute_isolated(
                        jobs,
                        RetryPolicy::default(),
                        None,
                        &mut stats,
                        |ctx, x| {
                            if ctx.index == fail_at {
                                Err(format!("boom at {x}"))
                            } else {
                                Ok(*x)
                            }
                        },
                    )
                    .unwrap_err();
                assert_eq!(err.index, fail_at, "threads = {threads}");
                assert_eq!(err.attempts, 1);
                assert_eq!(err.kind, FailureKind::Error(format!("boom at {fail_at}")));
                assert_eq!(stats.retry.exhausted_jobs, 1, "threads = {threads}");
            }
        }
    }

    #[test]
    fn isolated_reports_lowest_index_of_many_failures() {
        for threads in [1, 2, 8] {
            let jobs: Vec<usize> = (0..16).collect();
            let mut stats = RobustnessStats::default();
            let err = Runtime::new(threads)
                .try_execute_isolated(jobs, RetryPolicy::default(), None, &mut stats, |ctx, _| {
                    if ctx.index % 5 == 3 {
                        Err(format!("job {} failed", ctx.index))
                    } else {
                        Ok(ctx.index)
                    }
                })
                .unwrap_err();
            assert_eq!(err.index, 3, "threads = {threads}");
            assert_eq!(err.kind, FailureKind::Error(String::from("job 3 failed")));
            assert_eq!(stats.retry.exhausted_jobs, 3);
        }
    }

    #[test]
    fn isolated_catches_panics_and_classifies_them() {
        let jobs: Vec<usize> = (0..6).collect();
        let mut stats = RobustnessStats::default();
        let err = Runtime::new(3)
            .try_execute_isolated(
                jobs,
                RetryPolicy::default(),
                None,
                &mut stats,
                |ctx, _| -> Result<usize, String> {
                    if ctx.index == 2 {
                        panic!("organic panic in job {}", ctx.index);
                    }
                    Ok(ctx.index)
                },
            )
            .unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(
            err.kind,
            FailureKind::Panic(String::from("organic panic in job 2"))
        );
        assert_eq!(stats.fault.caught_panics, 1);
        assert_eq!(
            err.to_string(),
            "job 2 failed after 1 attempt: panic: organic panic in job 2"
        );
    }

    #[test]
    fn retried_jobs_recover_and_match_fault_free_output_bytewise() {
        use crate::fault::FaultPlan;
        // Jobs' first attempts are doomed two different ways — a panic
        // before the work, an error after it (whose telemetry must be
        // discarded); with three attempts allowed, the batch recovers, and
        // both results and merged telemetry render byte-identically to the
        // fault-free run.
        let plan = FaultPlan::parse("seed=7;panic@start:p=0.3;error@finish:p=0.3").unwrap();
        let work = |_: JobContext, x: &u64, rec: &mut dyn Recorder| -> Result<u64, String> {
            rec.counter("jobs", 1);
            rec.value("payload", *x);
            Ok(x * 7)
        };
        let run = |threads: usize, plan: Option<&FaultPlan>| {
            let jobs: Vec<u64> = (0..24).collect();
            let mut stats = RobustnessStats::default();
            let mut recorder = TelemetryRecorder::new();
            let out = Runtime::new(threads)
                .try_execute_isolated_recorded(
                    jobs,
                    RetryPolicy::new(3),
                    plan,
                    &mut stats,
                    &mut recorder,
                    work,
                )
                .unwrap();
            (out, recorder.render_json(), stats)
        };
        let (clean_out, clean_json, clean_stats) = run(1, None);
        assert!(clean_stats.is_zero() || clean_stats.retry.attempts == 24);
        for threads in [1, 2, 8] {
            let (out, json, stats) = run(threads, Some(&plan));
            assert_eq!(out, clean_out, "threads = {threads}");
            assert_eq!(json, clean_json, "threads = {threads}");
            // Some faults fired (p=0.3 over 24 jobs × 2 rules) and every
            // doomed job recovered.
            assert!(stats.retry.retries > 0, "threads = {threads}");
            assert_eq!(stats.retry.exhausted_jobs, 0);
            assert_eq!(stats.retry.recovered_jobs, stats.retry.retries);
            // Fault/retry profiles are themselves thread-invariant.
            let (_, _, again) = run(1, Some(&plan));
            assert_eq!(stats, again, "threads = {threads}");
        }
    }

    #[test]
    fn exhausted_retry_budget_reports_the_job_deterministically() {
        use crate::fault::FaultPlan;
        // n=4 doomed attempts > max_attempts=2: job can never recover.
        let plan = FaultPlan::parse("seed=1;error@start:p=1,n=4").unwrap();
        for threads in [1, 2, 8] {
            let jobs: Vec<u64> = (0..6).collect();
            let mut stats = RobustnessStats::default();
            let err = Runtime::new(threads)
                .try_execute_isolated(
                    jobs,
                    RetryPolicy::new(2),
                    Some(&plan),
                    &mut stats,
                    |_, x| Ok::<_, String>(*x),
                )
                .unwrap_err();
            assert_eq!(err.index, 0, "threads = {threads}");
            assert_eq!(err.attempts, 2);
            assert_eq!(err.kind, FailureKind::Injected("error@start"));
            assert_eq!(stats.retry.exhausted_jobs, 6);
            assert_eq!(stats.fault.injected_errors, 12);
        }
    }

    #[test]
    fn injected_panic_counters_are_exact() {
        use crate::fault::FaultPlan;
        let plan = FaultPlan::parse("seed=3;panic@finish:p=1,n=1").unwrap();
        let jobs: Vec<u64> = (0..5).collect();
        let mut stats = RobustnessStats::default();
        let out = Runtime::serial()
            .try_execute_isolated(
                jobs,
                RetryPolicy::new(2),
                Some(&plan),
                &mut stats,
                |_, x| Ok::<_, String>(*x),
            )
            .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.fault.injected_panics, 5);
        assert_eq!(stats.fault.caught_panics, 5);
        assert_eq!(stats.retry.attempts, 10);
        assert_eq!(stats.retry.recovered_jobs, 5);
    }

    #[test]
    fn phase_attribution_merges_thread_invariantly_through_mid_phase_panics() {
        // Most jobs' first attempts die by panic while two phase scopes
        // are still open: the unwind must drop both guards, the doomed
        // attempt's recorder must be discarded whole, and the surviving
        // per-job attribution trees must merge (in job-index order) to the
        // same document the fault-free serial run writes.
        let run = |threads: usize, faulty: bool| {
            let jobs: Vec<u64> = (0..24).collect();
            let mut stats = RobustnessStats::default();
            let mut recorder = TelemetryRecorder::new();
            let out = Runtime::new(threads)
                .try_execute_isolated_recorded(
                    jobs,
                    RetryPolicy::new(2),
                    None,
                    &mut stats,
                    &mut recorder,
                    |ctx, x, rec: &mut dyn Recorder| -> Result<u64, String> {
                        let mut job = wmn_obs::phase(rec, "job");
                        job.counter("jobs", 1);
                        let mut evaluate = wmn_obs::phase(&mut job, "evaluate");
                        evaluate.counter("work", x + 1);
                        if faulty && ctx.attempt == 0 && ctx.index % 5 < 3 {
                            panic!("mid-phase panic in job {}", ctx.index);
                        }
                        Ok(x * 2)
                    },
                )
                .unwrap();
            (out, recorder.render_json(), stats.fault.caught_panics)
        };
        let (clean_out, clean_json, clean_panics) = run(1, false);
        assert_eq!(clean_panics, 0);
        assert!(
            clean_json.contains("\"attribution\":{\"job\":"),
            "{clean_json}"
        );
        for threads in [1, 2, 8] {
            let (out, json, caught_panics) = run(threads, true);
            assert_eq!(out, clean_out, "threads = {threads}");
            assert_eq!(json, clean_json, "threads = {threads}");
            assert_eq!(caught_panics, 15, "threads = {threads}");
        }
    }
}
