//! The bounded job queue and its worker pool.
//!
//! One mutex-guarded table owns every job record; a condvar wakes workers
//! when work arrives and wakes waiters when states change. Workers drain
//! the pending deque onto [`crate::job::run_job`] — whose sweep/check
//! internals already fan out on the process-wide rayon pool — so the
//! worker count bounds *jobs* in flight, not threads.
//!
//! States move strictly `queued → running → done | failed`, or
//! `queued → cancelled`. A running job cannot be cancelled (the pipeline
//! has no safe preemption point), and a finished record is kept for the
//! server's lifetime so results stay fetchable and duplicate submissions
//! dedupe against completed work.

use crate::job::{job_id, run_job, JobResult, JobSpec};
use remote_peering::memo::Key;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; the result is available.
    Done,
    /// The run panicked or the result could not be persisted.
    Failed,
    /// Cancelled while still queued; it never ran.
    Cancelled,
}

impl JobState {
    /// Wire name, as used in the API's `state` fields and filters.
    pub fn key(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`JobState::key`].
    pub fn from_key(key: &str) -> Option<JobState> {
        Some(match key {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }
}

/// Everything the server tracks about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Content-addressed id ([`JobSpec::id`]).
    pub id: String,
    /// The parsed spec.
    pub spec: Arc<JobSpec>,
    /// The spec's content key; dedupe compares it.
    pub key: Key,
    /// Current lifecycle state.
    pub state: JobState,
    /// Submission order (for stable listings).
    pub seq: u64,
    /// When the job was accepted.
    pub submitted: Instant,
    /// When a worker picked it up.
    pub started: Option<Instant>,
    /// When it reached a terminal state.
    pub finished: Option<Instant>,
    /// The result, once done.
    pub result: Option<Arc<JobResult>>,
    /// Failure detail, once failed.
    pub error: Option<String>,
}

/// How a submission was answered.
#[derive(Debug)]
pub enum Submit {
    /// New job, now queued.
    Accepted(String),
    /// A job with the same spec key already exists in this state; no new
    /// work was scheduled.
    Existing(String, JobState),
    /// The pending queue is at capacity (HTTP 429 + `Retry-After`).
    Full,
    /// The server is draining and accepts no new work (HTTP 503).
    Draining,
}

struct Inner {
    jobs: HashMap<String, JobRecord>,
    pending: VecDeque<String>,
    accepting: bool,
    running: usize,
    next_seq: u64,
}

/// The shared queue. Workers, the accept loop, and tests all hold it
/// behind one `Arc`.
pub struct JobQueue {
    inner: Mutex<Inner>,
    cv: Condvar,
    capacity: usize,
}

/// What workers need besides the queue itself.
#[derive(Debug, Clone, Default)]
pub struct WorkerContext {
    /// Persist finished artifacts under this directory (CLI-relative
    /// layout: `sweeps/<name>.json`, `check_report.json`, ...). `None`
    /// keeps results in memory only.
    pub results_dir: Option<PathBuf>,
}

impl JobQueue {
    /// An empty queue admitting at most `capacity` pending jobs.
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                pending: VecDeque::new(),
                accepting: true,
                running: 0,
                next_seq: 0,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Submit a spec. Idempotent on the spec key: a queued, running, or
    /// done job with the same id *and the same key* answers the
    /// submission without scheduling new work; failed and cancelled jobs
    /// are re-enqueued (retry semantics).
    ///
    /// Job ids are 64-bit digests and can collide, but the stored key
    /// holds the spec's full text, so a colliding spec never dedupes onto
    /// another's record (and artifact): `submit` counts
    /// `server.jobs.id_collision` and re-ids the newcomer with a salted
    /// suffix (`<id>-1`, `-2`, ...), so each id serves exactly its spec.
    pub fn submit(&self, spec: JobSpec) -> Submit {
        self.submit_with_id(spec, None)
    }

    /// [`JobQueue::submit`], with the base id supplied by the caller
    /// instead of derived from the spec's key. Hidden: this exists so
    /// tests can force two distinct specs onto one id and exercise the
    /// collision path, which real 64-bit collisions are too rare to reach.
    #[doc(hidden)]
    pub fn submit_with_id(&self, spec: JobSpec, base_id: Option<String>) -> Submit {
        let key = Key::of(&spec);
        let base_id = base_id.unwrap_or_else(|| job_id(&key));
        let mut inner = self.inner.lock().unwrap();
        if !inner.accepting {
            return Submit::Draining;
        }
        let mut id = base_id.clone();
        let mut salt = 0u64;
        loop {
            match inner.jobs.get(&id) {
                Some(rec) if rec.key == key => match rec.state {
                    JobState::Queued | JobState::Running | JobState::Done => {
                        rp_obs::counter!("server.jobs.deduped").inc();
                        return Submit::Existing(id, rec.state);
                    }
                    // Retry semantics: reuse this id for the re-enqueue.
                    JobState::Failed | JobState::Cancelled => break,
                },
                Some(_) => {
                    // Same id, different spec: an id collision. Try the
                    // next salted variant.
                    rp_obs::counter!("server.jobs.id_collision").inc();
                    salt += 1;
                    id = format!("{base_id}-{salt}");
                }
                None => break,
            }
        }
        if inner.pending.len() >= self.capacity {
            rp_obs::counter!("server.jobs.rejected").inc();
            return Submit::Full;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.jobs.insert(
            id.clone(),
            JobRecord {
                id: id.clone(),
                spec: Arc::new(spec),
                key,
                state: JobState::Queued,
                seq,
                submitted: Instant::now(),
                started: None,
                finished: None,
                result: None,
                error: None,
            },
        );
        inner.pending.push_back(id.clone());
        rp_obs::counter!("server.jobs.submitted").inc();
        rp_obs::gauge!("server.queue.depth_hwm").record_max(inner.pending.len() as u64);
        drop(inner);
        self.cv.notify_all();
        Submit::Accepted(id)
    }

    /// Cancel a queued job. Returns the state the job was in (cancelling
    /// only succeeds from `Queued`); `None` for unknown ids.
    pub fn cancel(&self, id: &str) -> Option<JobState> {
        let mut inner = self.inner.lock().unwrap();
        let rec = inner.jobs.get_mut(id)?;
        let was = rec.state;
        if was == JobState::Queued {
            rec.state = JobState::Cancelled;
            rec.finished = Some(Instant::now());
            let idx = inner.pending.iter().position(|p| p == id);
            if let Some(i) = idx {
                inner.pending.remove(i);
            }
            rp_obs::counter!("server.jobs.cancelled").inc();
            drop(inner);
            self.cv.notify_all();
        }
        Some(was)
    }

    /// A snapshot of one record.
    pub fn status(&self, id: &str) -> Option<JobRecord> {
        self.inner.lock().unwrap().jobs.get(id).cloned()
    }

    /// A job's queue position (0 = next), while queued.
    pub fn queue_position(&self, id: &str) -> Option<usize> {
        self.inner
            .lock()
            .unwrap()
            .pending
            .iter()
            .position(|p| p == id)
    }

    /// Snapshots of every record (optionally state-filtered), in
    /// submission order.
    pub fn list(&self, state: Option<JobState>) -> Vec<JobRecord> {
        let inner = self.inner.lock().unwrap();
        let mut records: Vec<JobRecord> = inner
            .jobs
            .values()
            .filter(|r| state.map_or(true, |s| r.state == s))
            .cloned()
            .collect();
        records.sort_by_key(|r| r.seq);
        records
    }

    /// `(queued, running, done, failed, cancelled)` counts.
    pub fn counts(&self) -> (usize, usize, usize, usize, usize) {
        let inner = self.inner.lock().unwrap();
        let mut c = (0, 0, 0, 0, 0);
        for r in inner.jobs.values() {
            match r.state {
                JobState::Queued => c.0 += 1,
                JobState::Running => c.1 += 1,
                JobState::Done => c.2 += 1,
                JobState::Failed => c.3 += 1,
                JobState::Cancelled => c.4 += 1,
            }
        }
        c
    }

    /// Is the queue still accepting submissions?
    pub fn accepting(&self) -> bool {
        self.inner.lock().unwrap().accepting
    }

    /// Stop accepting; wake everyone so idle workers exit once the
    /// pending queue is empty. Already-queued jobs still run (drain).
    pub fn drain(&self) {
        self.inner.lock().unwrap().accepting = false;
        self.cv.notify_all();
    }

    /// Block until no job is queued or running (used by tests and the
    /// drain path's final barrier).
    pub fn wait_until_idle(&self) {
        let mut inner = self.inner.lock().unwrap();
        while !inner.pending.is_empty() || inner.running > 0 {
            inner = self.cv.wait(inner).unwrap();
        }
    }

    /// Spawn `n` worker threads draining this queue. Workers exit when
    /// the queue is draining *and* the pending deque is empty.
    pub fn spawn_workers(
        queue: &Arc<JobQueue>,
        n: usize,
        ctx: WorkerContext,
    ) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|i| {
                let queue = Arc::clone(queue);
                let ctx = ctx.clone();
                std::thread::Builder::new()
                    .name(format!("rp-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &ctx))
                    .expect("spawn worker thread")
            })
            .collect()
    }
}

fn worker_loop(queue: &JobQueue, ctx: &WorkerContext) {
    loop {
        let (id, spec) = {
            let mut inner = queue.inner.lock().unwrap();
            loop {
                if let Some(id) = inner.pending.pop_front() {
                    inner.running += 1;
                    let rec = inner.jobs.get_mut(&id).expect("pending id has a record");
                    rec.state = JobState::Running;
                    rec.started = Some(Instant::now());
                    let spec = Arc::clone(&rec.spec);
                    break (id, spec);
                }
                if !inner.accepting {
                    return;
                }
                inner = queue.cv.wait(inner).unwrap();
            }
        };

        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_job(&spec)));
        rp_obs::histogram!("server.jobs.run_ms", rp_obs::metrics::TASK_MS_BUCKETS)
            .observe(t0.elapsed().as_secs_f64() * 1e3);

        // Persist before flipping the state: a job is only "done" once its
        // artifact is durable wherever the server was told to keep it.
        let settled = match outcome {
            Ok(result) => match persist(ctx, &result) {
                Ok(()) => Ok(Arc::new(result)),
                Err(e) => Err(format!("persist failed: {e}")),
            },
            Err(panic) => Err(format!("job panicked: {}", panic_text(&panic))),
        };

        let mut inner = queue.inner.lock().unwrap();
        inner.running -= 1;
        let rec = inner.jobs.get_mut(&id).expect("running id has a record");
        rec.finished = Some(Instant::now());
        match settled {
            Ok(result) => {
                rec.result = Some(result);
                rec.state = JobState::Done;
                rp_obs::counter!("server.jobs.completed").inc();
            }
            Err(e) => {
                rec.error = Some(e);
                rec.state = JobState::Failed;
                rp_obs::counter!("server.jobs.failed").inc();
            }
        }
        drop(inner);
        queue.cv.notify_all();
    }
}

fn persist(ctx: &WorkerContext, result: &JobResult) -> std::io::Result<()> {
    let Some(dir) = &ctx.results_dir else {
        return Ok(());
    };
    let path = dir.join(result.artifact_rel_path());
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, &result.artifact)
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign_spec(threshold: f64) -> JobSpec {
        JobSpec::parse(
            &serde_json::from_str(&format!(
                "{{\"kind\": \"campaign\", \"params\": {{\"threshold_ms\": {threshold}}}}}"
            ))
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn state_keys_round_trip() {
        for s in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::from_key(s.key()), Some(s));
        }
        assert_eq!(JobState::from_key("paused"), None);
    }

    #[test]
    fn duplicate_submissions_dedupe_and_overflow_rejects() {
        let q = JobQueue::new(2);
        let first = q.submit(campaign_spec(10.0));
        let Submit::Accepted(id) = first else {
            panic!("expected acceptance, got {first:?}");
        };
        match q.submit(campaign_spec(10.0)) {
            Submit::Existing(other, JobState::Queued) => assert_eq!(other, id),
            other => panic!("expected dedupe, got {other:?}"),
        }
        assert!(matches!(q.submit(campaign_spec(11.0)), Submit::Accepted(_)));
        assert!(matches!(q.submit(campaign_spec(12.0)), Submit::Full));
        q.drain();
        assert!(matches!(q.submit(campaign_spec(13.0)), Submit::Draining));
    }

    #[test]
    fn id_collisions_do_not_serve_the_wrong_artifact() {
        let q = JobQueue::new(8);
        let a = campaign_spec(10.0);
        let b = campaign_spec(20.0);
        // Distinct specs — in reality their FNV-64 ids differ too, so force
        // them onto one id to stand in for a genuine 64-bit collision.
        let forced = a.id();
        assert_ne!(forced, b.id(), "test premise: the specs really differ");
        let Submit::Accepted(id_a) = q.submit_with_id(a.clone(), Some(forced.clone())) else {
            panic!("first submission must be accepted");
        };
        assert_eq!(id_a, forced);
        // The colliding spec must NOT dedupe onto a's record: that would
        // hand b's submitter a's artifact. It gets a salted id instead.
        let Submit::Accepted(id_b) = q.submit_with_id(b.clone(), Some(forced.clone())) else {
            panic!("colliding spec must be accepted as new work, not deduped");
        };
        assert_ne!(id_b, id_a, "collision must re-id, not alias");
        assert_eq!(id_b, format!("{forced}-1"));
        // Each id's record holds exactly the spec it was accepted for, and
        // that spec's key.
        assert_eq!(
            format!("{:?}", q.status(&id_a).unwrap().spec),
            format!("{a:?}")
        );
        assert_eq!(
            format!("{:?}", q.status(&id_b).unwrap().spec),
            format!("{b:?}")
        );
        assert_eq!(q.status(&id_a).unwrap().key, Key::of(&a));
        assert_eq!(q.status(&id_b).unwrap().key, Key::of(&b));
        // Resubmitting either spec under the forced id dedupes onto its own
        // record — the salt walk finds the true match.
        match q.submit_with_id(a, Some(forced.clone())) {
            Submit::Existing(id, JobState::Queued) => assert_eq!(id, id_a),
            other => panic!("expected dedupe onto a's record, got {other:?}"),
        }
        match q.submit_with_id(b, Some(forced)) {
            Submit::Existing(id, JobState::Queued) => assert_eq!(id, id_b),
            other => panic!("expected dedupe onto b's record, got {other:?}"),
        }
    }

    #[test]
    fn cancel_only_hits_queued_jobs() {
        let q = JobQueue::new(8);
        let Submit::Accepted(id) = q.submit(campaign_spec(14.0)) else {
            panic!("expected acceptance");
        };
        assert_eq!(q.cancel(&id), Some(JobState::Queued));
        assert_eq!(q.status(&id).unwrap().state, JobState::Cancelled);
        // Second cancel reports the terminal state and changes nothing.
        assert_eq!(q.cancel(&id), Some(JobState::Cancelled));
        assert_eq!(q.cancel("no-such-id"), None);
        // Cancelled jobs left the pending deque entirely.
        assert_eq!(q.queue_position(&id), None);
    }
}
