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
//! Batches run through the one entry point, [`Runtime::run`]: every job
//! attempt runs inside [`std::panic::catch_unwind`], failures are
//! classified ([`FailureKind`]), and the [`JobPolicy`]'s attempt budget
//! re-runs failed jobs, with the policy's fault plan injected into
//! attempts. A retried job re-derives its seed from its grid coordinates
//! (seeds never come from shared state). When the caller collects
//! telemetry, each attempt gets a fresh private [`TelemetryRecorder`]
//! whose contents are merged, in job-index order, only on the attempt
//! that succeeds — which is why a within-budget faulty run's results *and
//! telemetry* are byte-identical to a fault-free run. Otherwise each
//! attempt records into a [`NoopRecorder`].
//!
//! Lock poisoning inside the scheduler is recovered via
//! [`PoisonError::into_inner`], so a panicking job never corrupts another
//! job's completed result.

use crate::fault::{FaultKind, FaultPlan, FaultSite};
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use wmn_obs::{NoopRecorder, Recorder, RobustnessStats, TelemetryRecorder};

/// A deterministic parallel job executor.
///
/// Construction is cheap (no threads are kept alive between batches);
/// workers are spawned per [`run`](Runtime::run) call and joined before
/// it returns.
///
/// # Examples
///
/// ```
/// use wmn_obs::RobustnessStats;
/// use wmn_runtime::pool::{JobPolicy, Runtime};
///
/// let squares = Runtime::new(4).run(
///     vec![1u64, 2, 3],
///     &JobPolicy::default(),
///     &mut RobustnessStats::default(),
///     None,
///     |x, _| Ok::<_, String>(x * x),
/// );
/// assert_eq!(squares, Ok(vec![1, 4, 9]));
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

    /// The scheduler: runs `worker` over every job and returns the results
    /// **in job order**, regardless of which worker finished first.
    ///
    /// `worker` receives the job's index and the job by value. With one
    /// worker (or one job) no threads are spawned at all, so the serial
    /// path is exactly a `map`. A panic from any worker thread propagates
    /// after all workers have been joined ([`run`](Runtime::run) catches
    /// job panics before they get here).
    fn execute<T, R, F>(&self, jobs: Vec<T>, worker: F) -> Vec<R>
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

    /// Panic-isolated, retrying batch execution — the runtime's one entry
    /// point.
    ///
    /// Every attempt of every job runs inside [`catch_unwind`]; a failed
    /// attempt (panic, `Err`, or a fault injected from
    /// `policy.fault_plan`) is retried up to `policy.max_attempts` times.
    /// The worker receives the job and the attempt's recorder.
    ///
    /// With `Some(telemetry)`, each *attempt* records into a fresh private
    /// [`TelemetryRecorder`]; only the succeeding attempt's recorder is
    /// merged into `telemetry`, in **job-index order** after all workers
    /// join, so the aggregated telemetry — like the results — is
    /// independent of which worker ran which job, and a within-budget
    /// faulty run's telemetry is byte-identical to the fault-free run's:
    /// failed attempts leave no trace in the deterministic document. With
    /// `None`, every attempt records into a [`NoopRecorder`].
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
    pub fn run<T, R, E, F>(
        &self,
        jobs: Vec<T>,
        policy: &JobPolicy,
        stats: &mut RobustnessStats,
        mut telemetry: Option<&mut TelemetryRecorder>,
        worker: F,
    ) -> Result<Vec<R>, JobFailure<E>>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(&T, &mut dyn Recorder) -> Result<R, E> + Sync,
    {
        let record = telemetry.is_some();
        let out = self.execute(jobs, |index, job| {
            let mut job_stats = RobustnessStats::default();
            let result = run_job(index, &job, policy, record, &mut job_stats, &worker);
            (result, job_stats)
        });

        let mut results = Vec::with_capacity(out.len());
        let mut first_failure: Option<JobFailure<E>> = None;
        for (result, job_stats) in out {
            stats.merge(&job_stats);
            match result {
                Ok((r, job_recorder)) => {
                    if let (Some(telemetry), Some(job_recorder)) =
                        (telemetry.as_deref_mut(), job_recorder)
                    {
                        telemetry.merge(job_recorder);
                    }
                    results.push(r);
                }
                Err(failure) => {
                    first_failure.get_or_insert(failure);
                }
            }
        }
        match first_failure {
            Some(failure) => Err(failure),
            None => Ok(results),
        }
    }
}

/// Runs one job to success or attempt exhaustion; the heart of
/// [`Runtime::run`]. A success carries the attempt's recorder when
/// `record` is set.
fn run_job<T, R, E, F>(
    index: usize,
    job: &T,
    policy: &JobPolicy,
    record: bool,
    stats: &mut RobustnessStats,
    worker: &F,
) -> Result<(R, Option<TelemetryRecorder>), JobFailure<E>>
where
    F: Fn(&T, &mut dyn Recorder) -> Result<R, E>,
{
    let max_attempts = policy.max_attempts.max(1);
    let plan = policy.fault_plan.as_ref();
    for attempt in 0..max_attempts {
        stats.attempts += 1;
        if attempt > 0 {
            stats.retries += 1;
        }
        let start_fault = plan.and_then(|p| p.decide(FaultSite::JobStart, index, attempt));
        let finish_fault = plan.and_then(|p| p.decide(FaultSite::JobFinish, index, attempt));

        // The injected-fault counters are bumped *inside* the unwind scope
        // (via the captured `&mut stats`) right before the corresponding
        // panic fires, so mutation survives the unwind and the counts stay
        // exact. Injected panics unwind with `resume_unwind`, which skips
        // the panic hook: a planned fault prints no `panicked at` report,
        // while a real job panic still does.
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            match start_fault {
                Some(FaultKind::Panic) => {
                    stats.injected_panics += 1;
                    resume_unwind(Box::new(format!(
                        "injected panic@start (job {index}, attempt {attempt})"
                    )));
                }
                Some(FaultKind::Error) => {
                    stats.injected_errors += 1;
                    return Err(FailureKind::Injected("error@start"));
                }
                None => {}
            }
            let mut attempt_recorder = record.then(TelemetryRecorder::new);
            let recorder: &mut dyn Recorder = match attempt_recorder.as_mut() {
                Some(recorder) => recorder,
                None => &mut NoopRecorder,
            };
            let result = worker(job, recorder).map_err(FailureKind::Error)?;
            match finish_fault {
                Some(FaultKind::Panic) => {
                    stats.injected_panics += 1;
                    resume_unwind(Box::new(format!(
                        "injected panic@finish (job {index}, attempt {attempt})"
                    )));
                }
                Some(FaultKind::Error) => {
                    stats.injected_errors += 1;
                    Err(FailureKind::Injected("error@finish"))
                }
                None => Ok((result, attempt_recorder)),
            }
        }));

        let failure_kind = match unwound {
            Ok(Ok(success)) => {
                if attempt > 0 {
                    stats.recovered_jobs += 1;
                }
                return Ok(success);
            }
            Ok(Err(kind)) => kind,
            Err(payload) => {
                stats.caught_panics += 1;
                FailureKind::Panic(panic_message(payload.as_ref()))
            }
        };
        if attempt + 1 == max_attempts {
            stats.exhausted_jobs += 1;
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

/// How [`Runtime::run`] treats failing jobs: the attempt budget, and the
/// seeded fault plan injected into attempts (chaos runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobPolicy {
    /// Maximum attempts per job (`0` is treated as `1`).
    pub max_attempts: u32,
    /// Faults to inject into job attempts; `None` injects nothing.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for JobPolicy {
    /// One attempt, i.e. no retries, and no injected faults.
    fn default() -> Self {
        JobPolicy {
            max_attempts: 1,
            fault_plan: None,
        }
    }
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
    use crate::fault::FaultPlan;

    /// A fault-free, unrecorded batch of `work` over `jobs`.
    fn run_plain<T: Send, R: Send>(
        runtime: Runtime,
        jobs: Vec<T>,
        work: impl Fn(&T) -> R + Sync,
    ) -> Vec<R> {
        runtime
            .run(
                jobs,
                &JobPolicy::default(),
                &mut RobustnessStats::default(),
                None,
                |job, _| Ok::<_, String>(work(job)),
            )
            .unwrap()
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        assert_eq!(Runtime::new(0).threads(), Runtime::available_parallelism());
        assert!(Runtime::default().threads() >= 1);
        assert_eq!(Runtime::new(1).threads(), 1);
    }

    #[test]
    fn results_are_in_job_order() {
        // Jobs deliberately finish out of order (larger index = less work).
        let jobs: Vec<u64> = (0..64).collect();
        let out = run_plain(Runtime::new(8), jobs, |&i| {
            let spins = (64 - i) * 1000;
            let mut acc = i;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(i as u64, *idx);
        }
    }

    #[test]
    fn parallel_matches_serial_for_any_thread_count() {
        let work = |&(i, x): &(u64, u64)| -> u64 {
            let mut acc = x.wrapping_add(i);
            for _ in 0..100 {
                acc = acc.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(i);
            }
            acc
        };
        let jobs: Vec<(u64, u64)> = (0..23).map(|i| (i, i * 7)).collect();
        let reference = run_plain(Runtime::new(1), jobs.clone(), work);
        for threads in [2, 3, 8, 32] {
            assert_eq!(
                run_plain(Runtime::new(threads), jobs.clone(), work),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u64> = run_plain(Runtime::new(4), Vec::<u64>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let out = run_plain(Runtime::new(64), vec![1u64, 2], |&x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let table = [10u64, 20, 30];
        let out = run_plain(Runtime::new(2), vec![0usize, 1, 2], |&i| table[i]);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn recorded_telemetry_is_thread_count_invariant() {
        let run = |threads: usize| {
            let mut recorder = TelemetryRecorder::new();
            let jobs: Vec<u64> = (0..32).collect();
            let out = Runtime::new(threads)
                .run(
                    jobs,
                    &JobPolicy::default(),
                    &mut RobustnessStats::default(),
                    Some(&mut recorder),
                    |x, rec| {
                        rec.counter("jobs", 1);
                        rec.value("job.payload", *x);
                        rec.counter(if x % 2 == 0 { "even" } else { "odd" }, *x);
                        Ok::<_, String>(x * 3)
                    },
                )
                .unwrap();
            (out, recorder)
        };
        let (serial_out, serial_rec) = run(1);
        for threads in [2, 5, 8] {
            let (out, rec) = run(threads);
            assert_eq!(out, serial_out, "threads = {threads}");
            assert_eq!(rec, serial_rec, "threads = {threads}");
        }
        assert_eq!(serial_rec.counters()["jobs"], 32);
    }

    #[test]
    fn unrecorded_attempts_get_a_disabled_recorder() {
        let enabled = Runtime::new(2)
            .run(
                vec![0u8; 4],
                &JobPolicy::default(),
                &mut RobustnessStats::default(),
                None,
                |_, rec| Ok::<_, String>(rec.enabled()),
            )
            .unwrap();
        assert_eq!(enabled, vec![false; 4]);
    }

    #[test]
    fn isolated_matches_plain_execution_without_faults() {
        let jobs: Vec<(u64, u64)> = (0..16).map(|i| (i, i * 3)).collect();
        let mut stats = RobustnessStats::default();
        let out = Runtime::new(4)
            .run(
                jobs.clone(),
                &JobPolicy::default(),
                &mut stats,
                None,
                |&(i, x), _| Ok::<_, String>(x + i),
            )
            .unwrap();
        let expected: Vec<u64> = jobs.iter().map(|(i, x)| x + i).collect();
        assert_eq!(out, expected);
        assert_eq!(stats.attempts, 16);
        assert!(stats.is_uneventful());
    }

    #[test]
    fn isolated_failure_at_every_index_selects_that_index_across_thread_counts() {
        // A single failure at each job index, at 1, 2, and 8 threads, must
        // always report exactly that index (with one job there is nothing
        // lower to confuse it with).
        for fail_at in 0..8usize {
            for threads in [1, 2, 8] {
                let jobs: Vec<usize> = (0..8).collect();
                let mut stats = RobustnessStats::default();
                let err = Runtime::new(threads)
                    .run(jobs, &JobPolicy::default(), &mut stats, None, |&x, _| {
                        if x == fail_at {
                            Err(format!("boom at {x}"))
                        } else {
                            Ok(x)
                        }
                    })
                    .unwrap_err();
                assert_eq!(err.index, fail_at, "threads = {threads}");
                assert_eq!(err.attempts, 1);
                assert_eq!(err.kind, FailureKind::Error(format!("boom at {fail_at}")));
                assert_eq!(stats.exhausted_jobs, 1, "threads = {threads}");
            }
        }
    }

    #[test]
    fn isolated_reports_lowest_index_of_many_failures() {
        for threads in [1, 2, 8] {
            let jobs: Vec<usize> = (0..16).collect();
            let mut stats = RobustnessStats::default();
            let err = Runtime::new(threads)
                .run(jobs, &JobPolicy::default(), &mut stats, None, |&x, _| {
                    if x % 5 == 3 {
                        Err(format!("job {x} failed"))
                    } else {
                        Ok(x)
                    }
                })
                .unwrap_err();
            assert_eq!(err.index, 3, "threads = {threads}");
            assert_eq!(err.kind, FailureKind::Error(String::from("job 3 failed")));
            assert_eq!(stats.exhausted_jobs, 3);
        }
    }

    #[test]
    fn isolated_catches_panics_and_classifies_them() {
        let jobs: Vec<usize> = (0..6).collect();
        let mut stats = RobustnessStats::default();
        let err = Runtime::new(3)
            .run(
                jobs,
                &JobPolicy::default(),
                &mut stats,
                None,
                |&x, _| -> Result<usize, String> {
                    if x == 2 {
                        panic!("organic panic in job {x}");
                    }
                    Ok(x)
                },
            )
            .unwrap_err();
        assert_eq!(err.index, 2);
        assert_eq!(
            err.kind,
            FailureKind::Panic(String::from("organic panic in job 2"))
        );
        assert_eq!(stats.caught_panics, 1);
        assert_eq!(
            err.to_string(),
            "job 2 failed after 1 attempt: panic: organic panic in job 2"
        );
    }

    #[test]
    fn retried_jobs_recover_and_match_fault_free_output_bytewise() {
        // Jobs' first attempts are doomed two different ways — a panic
        // before the work, an error after it (whose telemetry must be
        // discarded); with three attempts allowed, the batch recovers, and
        // both results and merged telemetry render byte-identically to the
        // fault-free run.
        let plan = FaultPlan::parse("seed=7;panic@start:p=0.3;error@finish:p=0.3").unwrap();
        let work = |x: &u64, rec: &mut dyn Recorder| -> Result<u64, String> {
            rec.counter("jobs", 1);
            rec.value("payload", *x);
            Ok(x * 7)
        };
        let run = |threads: usize, fault_plan: Option<FaultPlan>| {
            let jobs: Vec<u64> = (0..24).collect();
            let mut stats = RobustnessStats::default();
            let mut recorder = TelemetryRecorder::new();
            let policy = JobPolicy {
                max_attempts: 3,
                fault_plan,
            };
            let out = Runtime::new(threads)
                .run(jobs, &policy, &mut stats, Some(&mut recorder), work)
                .unwrap();
            (out, recorder, stats)
        };
        let (clean_out, clean_rec, clean_stats) = run(1, None);
        assert!(clean_stats == RobustnessStats::default() || clean_stats.attempts == 24);
        for threads in [1, 2, 8] {
            let (out, rec, stats) = run(threads, Some(plan));
            assert_eq!(out, clean_out, "threads = {threads}");
            assert_eq!(rec, clean_rec, "threads = {threads}");
            // Some faults fired (p=0.3 over 24 jobs × 2 rules) and every
            // doomed job recovered.
            assert!(stats.retries > 0, "threads = {threads}");
            assert_eq!(stats.exhausted_jobs, 0);
            assert_eq!(stats.recovered_jobs, stats.retries);
            // Fault/retry profiles are themselves thread-invariant.
            let (_, _, again) = run(1, Some(plan));
            assert_eq!(stats, again, "threads = {threads}");
        }
    }

    #[test]
    fn exhausted_retry_budget_reports_the_job_deterministically() {
        // n=4 doomed attempts > max_attempts=2: job can never recover.
        let policy = JobPolicy {
            max_attempts: 2,
            fault_plan: Some(FaultPlan::parse("seed=1;error@start:p=1,n=4").unwrap()),
        };
        for threads in [1, 2, 8] {
            let jobs: Vec<u64> = (0..6).collect();
            let mut stats = RobustnessStats::default();
            let err = Runtime::new(threads)
                .run(jobs, &policy, &mut stats, None, |x, _| Ok::<_, String>(*x))
                .unwrap_err();
            assert_eq!(err.index, 0, "threads = {threads}");
            assert_eq!(err.attempts, 2);
            assert_eq!(err.kind, FailureKind::Injected("error@start"));
            assert_eq!(stats.exhausted_jobs, 6);
            assert_eq!(stats.injected_errors, 12);
        }
    }

    #[test]
    fn injected_panic_counters_are_exact() {
        let policy = JobPolicy {
            max_attempts: 2,
            fault_plan: Some(FaultPlan::parse("seed=3;panic@finish:p=1,n=1").unwrap()),
        };
        let jobs: Vec<u64> = (0..5).collect();
        let mut stats = RobustnessStats::default();
        let out = Runtime::new(1)
            .run(jobs, &policy, &mut stats, None, |x, _| Ok::<_, String>(*x))
            .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.injected_panics, 5);
        assert_eq!(stats.caught_panics, 5);
        assert_eq!(stats.attempts, 10);
        assert_eq!(stats.recovered_jobs, 5);
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
            // Jobs whose first attempt already panicked; the retry of such
            // a job succeeds.
            let panicked = Mutex::new(std::collections::BTreeSet::new());
            let policy = JobPolicy {
                max_attempts: 2,
                fault_plan: None,
            };
            let out = Runtime::new(threads)
                .run(
                    jobs,
                    &policy,
                    &mut stats,
                    Some(&mut recorder),
                    |&x, rec| -> Result<u64, String> {
                        let mut job = wmn_obs::phase(rec, "job");
                        job.counter("jobs", 1);
                        let mut evaluate = wmn_obs::phase(&mut job, "evaluate");
                        evaluate.counter("work", x + 1);
                        if faulty && x % 5 < 3 && panicked.lock().unwrap().insert(x) {
                            panic!("mid-phase panic in job {x}");
                        }
                        Ok(x * 2)
                    },
                )
                .unwrap();
            (out, recorder, stats.caught_panics)
        };
        let (clean_out, clean_rec, clean_panics) = run(1, false);
        assert_eq!(clean_panics, 0);
        assert!(
            clean_rec.attribution().get(&["job", "evaluate"]).is_some(),
            "{clean_rec:?}"
        );
        for threads in [1, 2, 8] {
            let (out, rec, caught_panics) = run(threads, true);
            assert_eq!(out, clean_out, "threads = {threads}");
            assert_eq!(rec, clean_rec, "threads = {threads}");
            assert_eq!(caught_panics, 15, "threads = {threads}");
        }
    }
}
