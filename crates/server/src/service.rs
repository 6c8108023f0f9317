//! The `repro serve` server: TCP accept loop, request routing, and the
//! graceful-drain protocol.
//!
//! Concurrency model: one blocking accept loop, woken by a self-connect
//! when the server stops; connection handler threads that serve one
//! connection at a time (the API is one request per connection) and are
//! reused while idle; and a fixed worker pool draining the job queue.
//! Shutdown — SIGTERM, ctrl-c, or `POST /v1/shutdown` — follows one
//! protocol:
//! stop accepting connections and submissions, let the workers finish
//! every accepted job, flush results to disk, then return so the process
//! can exit 0. No accepted job is ever dropped by a drain.

use crate::http::{read_request, Request, Response};
use crate::job::JobSpec;
use crate::queue::{JobQueue, JobRecord, JobState, Submit, WorkerContext};
use serde_json::{json, Value};
use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// World-pool entry bound (see `remote_peering::memo`).
const POOL_ENTRIES: usize = 32;

/// Everything `Server::bind` needs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:8080` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads draining the job queue. Zero spawns none — a test
    /// hook so queued jobs stay queued until the caller drains.
    pub workers: usize,
    /// Pending-queue bound; submissions beyond it get 429.
    pub queue_capacity: usize,
    /// Optional world-pool byte budget.
    pub pool_bytes: Option<u64>,
    /// Persist artifacts here in the CLI's output layout; `None` keeps
    /// results in memory only.
    pub results_dir: Option<PathBuf>,
    /// Per-read socket timeout (the slow-loris bound).
    pub read_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            workers: 2,
            queue_capacity: 256,
            pool_bytes: None,
            results_dir: None,
            read_timeout: Duration::from_secs(5),
        }
    }
}

/// Terminal counts reported after a drain.
#[derive(Debug, Clone, Copy)]
pub struct DrainStats {
    /// Jobs that finished with a result.
    pub done: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs cancelled before running.
    pub cancelled: usize,
}

/// The server's stop flag. The accept loop blocks in `accept`, so
/// setting the flag also wakes it with one connection to the listener's
/// own address; the loop sees the flag and drops that connection.
struct Stop {
    flag: AtomicBool,
    /// Where the wake-up connects: the bound address, with an unspecified
    /// IP (`0.0.0.0`, `::`) replaced by loopback.
    wake_addr: SocketAddr,
}

impl Stop {
    fn new(local_addr: SocketAddr) -> Stop {
        let mut wake_addr = local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Stop {
            flag: AtomicBool::new(false),
            wake_addr,
        }
    }

    fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Set the flag; the first call wakes the accept loop. A failed
    /// connect means the listener is already gone, which is the goal.
    fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
    }
}

/// How long an idle connection handler waits for another connection
/// before its thread exits.
const HANDLER_IDLE: Duration = Duration::from_secs(10);

/// Hand-off of accepted connections to idle handler threads. Spawning a
/// thread costs more than answering a status poll, so a handler that
/// finishes a connection waits for the next one. A connection goes to an
/// idle handler only when one is free (`pending.len() < idle`); otherwise
/// the accept loop spawns a new handler, so a slow client never delays
/// another one.
#[derive(Default)]
struct Handlers {
    state: Mutex<HandlerState>,
    cv: Condvar,
}

#[derive(Default)]
struct HandlerState {
    /// Connections handed off and not yet taken; never more than `idle`.
    pending: VecDeque<TcpStream>,
    /// Handlers waiting in [`Handlers::next`].
    idle: usize,
    /// Set when the accept loop exits: waiting handlers return.
    closed: bool,
}

impl Handlers {
    /// Give `stream` to an idle handler, or return it when none is free.
    fn offer(&self, stream: TcpStream) -> Option<TcpStream> {
        let mut st = self.state.lock().unwrap();
        if st.pending.len() < st.idle {
            st.pending.push_back(stream);
            self.cv.notify_one();
            None
        } else {
            Some(stream)
        }
    }

    /// Wait for the next handed-off connection; `None` after
    /// [`HANDLER_IDLE`] without one, or once the loop has closed.
    fn next(&self) -> Option<TcpStream> {
        let deadline = Instant::now() + HANDLER_IDLE;
        let mut st = self.state.lock().unwrap();
        st.idle += 1;
        let stream = loop {
            if let Some(stream) = st.pending.pop_front() {
                break Some(stream);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if st.closed || left.is_zero() {
                break None;
            }
            st = self.cv.wait_timeout(st, left).unwrap().0;
        };
        st.idle -= 1;
        stream
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }
}

/// A bound, running server.
pub struct Server {
    queue: Arc<JobQueue>,
    stop: Arc<Stop>,
    local_addr: SocketAddr,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Enable rp-obs collection (`/metrics` and job progress read it),
    /// configure the world pool, bind the listener, and start the accept
    /// loop and worker pool.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        rp_obs::enable();
        remote_peering::memo::configure_world_pool(POOL_ENTRIES, cfg.pool_bytes);
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;

        let queue = Arc::new(JobQueue::new(cfg.queue_capacity));
        let worker_handles = JobQueue::spawn_workers(
            &queue,
            cfg.workers,
            WorkerContext {
                results_dir: cfg.results_dir.clone(),
            },
        );

        let stop = Arc::new(Stop::new(local_addr));
        let accept_handle = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            let read_timeout = cfg.read_timeout;
            std::thread::Builder::new()
                .name("rp-accept".to_string())
                .spawn(move || accept_loop(&listener, &queue, &stop, read_timeout))
                .expect("spawn accept thread")
        };

        Ok(Server {
            queue,
            stop,
            local_addr,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The queue, for in-process submissions in tests.
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }

    /// Begin the drain: stop accepting connections and submissions.
    /// Idempotent; `join` completes it.
    pub fn trigger_shutdown(&self) {
        self.stop.trigger();
        self.queue.drain();
    }

    /// Complete the drain: wait for the accept loop (and every connection
    /// it spawned), then for the workers to finish all accepted jobs.
    pub fn join(mut self) -> DrainStats {
        self.trigger_shutdown();
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // With zero workers the queue may still hold pending jobs; they
        // were never accepted for execution by anyone, so this only waits
        // when a worker exists to make progress.
        let (_, _, done, failed, cancelled) = self.queue.counts();
        DrainStats {
            done,
            failed,
            cancelled,
        }
    }

    /// Serve until SIGTERM or SIGINT (unix), then drain and return.
    #[cfg(unix)]
    pub fn run_until_signal(self) -> DrainStats {
        install_signal_handlers();
        while !SIGNALLED.load(Ordering::SeqCst) && !self.stop.is_set() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join()
    }

    /// Non-unix fallback: serve until `POST /v1/shutdown` flips the stop
    /// flag.
    #[cfg(not(unix))]
    pub fn run_until_signal(self) -> DrainStats {
        while !self.stop.is_set() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join()
    }
}

#[cfg(unix)]
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// SIGTERM/SIGINT → set a flag; the serve loop polls it. Raw `signal(2)`
/// via the C runtime keeps the handler async-signal-safe (one atomic
/// store) without a libc crate dependency.
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

fn accept_loop(
    listener: &TcpListener,
    queue: &Arc<JobQueue>,
    stop: &Arc<Stop>,
    read_timeout: Duration,
) {
    let handlers = Arc::new(Handlers::default());
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Checked after `accept` returns: the stop wake-up (and any
        // connection racing it) is dropped unserved.
        if stop.is_set() {
            break;
        }
        match accepted {
            Ok((stream, _peer)) => {
                if let Some(stream) = handlers.offer(stream) {
                    let (queue, stop, handlers) =
                        (Arc::clone(queue), Arc::clone(stop), Arc::clone(&handlers));
                    let handle = std::thread::Builder::new()
                        .name("rp-conn".to_string())
                        .spawn(move || {
                            let mut stream = Some(stream);
                            while let Some(s) = stream {
                                handle_connection(s, &queue, &stop, read_timeout);
                                stream = handlers.next();
                            }
                        })
                        .expect("spawn connection thread");
                    threads.push(handle);
                }
            }
            // Transient accept failures (e.g. out of file descriptors):
            // back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        // Reap exited handler threads so a long-lived server doesn't
        // accumulate handles.
        threads.retain(|h| !h.is_finished());
    }
    handlers.close();
    for h in threads {
        let _ = h.join();
    }
}

fn handle_connection(
    mut stream: TcpStream,
    queue: &Arc<JobQueue>,
    stop: &Arc<Stop>,
    read_timeout: Duration,
) {
    rp_obs::counter!("server.http.requests").inc();
    let response = match stream.set_read_timeout(Some(read_timeout)) {
        Err(e) => Response::error(400, &format!("socket setup failed: {e}")),
        Ok(()) => match read_request(&stream, read_timeout) {
            Ok(req) => route(&req, queue, stop),
            Err(e) => Response::error(e.status, &e.reason),
        },
    };
    if response.status >= 400 {
        rp_obs::counter!("server.http.errors").inc();
    }
    response.send(&mut stream);
}

fn route(req: &Request, queue: &Arc<JobQueue>, stop: &Stop) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => {
            let (queued, running, done, failed, cancelled) = queue.counts();
            let (pool_entries, pool_bytes) = remote_peering::memo::world_pool_stats();
            Response::json(
                200,
                &json!({
                    "status": "ok",
                    "accepting": queue.accepting(),
                    "jobs": {
                        "queued": queued,
                        "running": running,
                        "done": done,
                        "failed": failed,
                        "cancelled": cancelled,
                    },
                    "world_pool": {
                        "entries": pool_entries,
                        "bytes": pool_bytes,
                    },
                }),
            )
        }
        ("GET", ["metrics"]) => Response::json(200, &rp_obs::report::metrics_json()),
        ("POST", ["v1", "jobs"]) => submit(req, queue),
        ("GET", ["v1", "jobs"]) => list(req, queue),
        ("GET", ["v1", "jobs", id]) => status(id, queue),
        ("GET", ["v1", "jobs", id, "result"]) => result(id, queue),
        ("DELETE", ["v1", "jobs", id]) => cancel(id, queue),
        ("POST", ["v1", "shutdown"]) => {
            stop.trigger();
            queue.drain();
            Response::json(202, &json!({ "draining": true }))
        }
        // Known paths with the wrong method are 405, everything else 404.
        (_, ["healthz"] | ["metrics"] | ["v1", "jobs"] | ["v1", "jobs", _])
        | (_, ["v1", "jobs", _, "result"] | ["v1", "shutdown"]) => {
            Response::error(405, &format!("method {} not allowed here", req.method))
        }
        _ => Response::error(404, &format!("no route for {}", req.path)),
    }
}

fn submit(req: &Request, queue: &Arc<JobQueue>) -> Response {
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => return Response::error(400, "body is not valid UTF-8"),
    };
    let value: Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("body is not valid JSON: {e:?}")),
    };
    let spec = match JobSpec::parse(&value) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &format!("bad job spec: {e}")),
    };
    match queue.submit(spec) {
        Submit::Accepted(id) => Response::json(202, &json!({ "id": id, "state": "queued" })),
        Submit::Existing(id, state) => Response::json(
            200,
            &json!({ "id": id, "state": state.key(), "deduplicated": true }),
        ),
        Submit::Full => {
            let mut resp = Response::error(429, "job queue is full; retry shortly");
            resp.retry_after = Some(1);
            resp
        }
        Submit::Draining => Response::error(503, "server is draining; not accepting jobs"),
    }
}

fn list(req: &Request, queue: &Arc<JobQueue>) -> Response {
    let filter = match req.query_param("state") {
        None => None,
        Some(key) => match JobState::from_key(key) {
            Some(s) => Some(s),
            None => {
                return Response::error(
                    400,
                    &format!(
                        "unknown state {key:?} (queued | running | done | failed | cancelled)"
                    ),
                )
            }
        },
    };
    let jobs: Vec<Value> = queue
        .list(filter)
        .iter()
        .map(|r| record_json(r, queue, false))
        .collect();
    Response::json(200, &json!({ "jobs": Value::Array(jobs) }))
}

fn status(id: &str, queue: &Arc<JobQueue>) -> Response {
    match queue.status(id) {
        Some(rec) => Response::json(200, &record_json(&rec, queue, true)),
        None => Response::error(404, &format!("no job {id}")),
    }
}

fn result(id: &str, queue: &Arc<JobQueue>) -> Response {
    let Some(rec) = queue.status(id) else {
        return Response::error(404, &format!("no job {id}"));
    };
    match rec.state {
        JobState::Done => {
            let artifact = rec.result.as_ref().expect("done job has a result");
            Response {
                status: 200,
                body: artifact.artifact.clone().into_bytes(),
                retry_after: None,
            }
        }
        JobState::Failed => Response::error(
            500,
            rec.error.as_deref().unwrap_or("job failed without detail"),
        ),
        JobState::Cancelled => Response::error(409, &format!("job {id} was cancelled")),
        JobState::Queued | JobState::Running => Response::error(
            409,
            &format!("job {id} is {}; no result yet", rec.state.key()),
        ),
    }
}

fn cancel(id: &str, queue: &Arc<JobQueue>) -> Response {
    match queue.cancel(id) {
        None => Response::error(404, &format!("no job {id}")),
        Some(JobState::Queued) => Response::json(200, &json!({ "id": id, "state": "cancelled" })),
        Some(state) => Response::error(
            409,
            &format!(
                "job {id} is {}; only queued jobs can be cancelled",
                state.key()
            ),
        ),
    }
}

/// One job record as API JSON. `with_progress` adds the rp-obs progress
/// snapshot for running jobs (process-wide pipeline counters, see
/// `rp_obs::report::progress_snapshot`).
fn record_json(rec: &JobRecord, queue: &Arc<JobQueue>, with_progress: bool) -> Value {
    let mut entries: Vec<(String, Value)> = vec![
        ("id".to_string(), json!(rec.id.as_str())),
        ("kind".to_string(), json!(rec.spec.kind())),
        ("state".to_string(), json!(rec.state.key())),
    ];
    match rec.state {
        JobState::Queued => {
            if let Some(pos) = queue.queue_position(&rec.id) {
                entries.push(("queue_position".to_string(), json!(pos)));
            }
        }
        JobState::Running => {
            if let Some(started) = rec.started {
                entries.push((
                    "elapsed_ms".to_string(),
                    json!(started.elapsed().as_millis() as u64),
                ));
            }
            if with_progress {
                entries.push(("progress".to_string(), rp_obs::report::progress_snapshot()));
            }
        }
        JobState::Done => {
            if let (Some(s), Some(f)) = (rec.started, rec.finished) {
                entries.push((
                    "elapsed_ms".to_string(),
                    json!(f.duration_since(s).as_millis() as u64),
                ));
            }
            if let Some(result) = &rec.result {
                entries.push(("artifact".to_string(), json!(result.artifact_rel_path())));
                entries.push(("passed".to_string(), json!(result.passed)));
            }
        }
        JobState::Failed => {
            if let Some(e) = &rec.error {
                entries.push(("error".to_string(), json!(e.as_str())));
            }
        }
        JobState::Cancelled => {}
    }
    Value::Object(entries)
}
