//! `serve_mix`: `repro serve` under a seeded closed-loop job mix.
//!
//! Why: HTTP, the job queue, the three caches (world pool, 8-entry probe
//! LRU, fork keys), scenario and testkit do the work here, and netsim runs
//! only on cache misses.
//!
//! `repro serve --threads 2` runs as a child process on 127.0.0.1 with the
//! CLI defaults (2 workers, queue cap 256, 32-entry world pool). Two client
//! threads each submit a job, poll `GET /v1/jobs/<id>` until it is done and
//! fetch `GET /v1/jobs/<id>/result` before taking the next job: a closed
//! loop, as `repro` callers wait for their results. Latency runs from the
//! submit to the last result byte. After the timed phase every
//! resubmission must have been answered by dedupe with the original id and
//! bytes, and a sample of jobs is re-run in process through
//! `rp_server::run_job`, whose artifact must be byte-equal.

use crate::jobs::{job_stream, warmup, Class, Job};
use crate::stats::{median, peak_rss_mb, reset_peak_rss};
use crate::study::{analysis_layers, world_layers};
use crate::{print_settings, summarize, v, Args, Outcome, Value, THREADS};
use remote_peering::metrics::{MethodParams, PreparedRun};
use remote_peering::world::Scale;
use remote_peering::Campaign;
use serde_json::Value as Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Closed-loop client threads: at most two jobs in flight, one per worker.
const CLIENTS: usize = 2;
/// Server starts (with warm-up) in set-up; `setup_s` is their median.
const SETUPS: usize = 5;
/// Pause between two status polls of one job.
const POLL_PAUSE: Duration = Duration::from_millis(2);
/// A job not finished this long after its submit has failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Jobs generated per run: more than a closed loop finishes in a minute.
const STREAM_LEN: usize = 20_000;
/// How often the server's peak RSS is sampled.
const RSS_INTERVAL: Duration = Duration::from_millis(250);
/// Jobs re-run in process per class after the timed phase.
const VERIFY: [(Class, usize); 3] = [(Class::Warm, 4), (Class::Cold, 3), (Class::Heavy, 2)];

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One request on a fresh connection (the server closes every connection
/// after its response). Returns the status and the body.
fn request(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("socket: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())
        .and_then(|()| s.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Result<(u16, Vec<u8>), String> {
    let end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no end of header")?;
    let head = std::str::from_utf8(&raw[..end]).map_err(|_| "header is not UTF-8")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let body = raw[end + 4..].to_vec();
    let declared = head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse::<usize>().ok())?
    });
    if declared.is_some_and(|n| n != body.len()) {
        return Err("response body is truncated".to_string());
    }
    Ok((status, body))
}

fn get_json(addr: &str, path: &str) -> Result<Json, String> {
    let (status, body) = request(addr, "GET", path, "")?;
    if status != 200 {
        return Err(format!("GET {path} answered {status}"));
    }
    parse_json(&body)
}

fn parse_json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    serde_json::from_str(text).map_err(|e| format!("body is not JSON: {e:?}"))
}

/// A running `repro serve` child process.
struct Served {
    child: Child,
    addr: String,
    log: Option<thread::JoinHandle<()>>,
}

impl Served {
    fn start(repro: &Path, out: &Path) -> Result<Served, String> {
        let mut child = Command::new(repro)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(THREADS.to_string())
            .arg("--out")
            .arg(out)
            .env_remove("RAYON_NUM_THREADS")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Keep reading the server's log so it never blocks on a full pipe.
        let log = thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.strip_prefix("serving on ") {
                    let _ = tx.send(addr.trim().to_string());
                }
            }
        });
        let mut served = Served {
            child,
            addr: String::new(),
            log: Some(log),
        };
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(addr) => {
                served.addr = addr;
                Ok(served)
            }
            Err(_) => Err("server did not report its address".to_string()),
        }
    }

    /// Drain and stop the server, killing it if it does not exit within a
    /// minute. Waits for the process and its log reader; returns whether
    /// it exited cleanly.
    fn stop(&mut self) -> bool {
        let Some(log) = self.log.take() else {
            return true;
        };
        if !self.addr.is_empty() {
            let _ = request(&self.addr, "POST", "/v1/shutdown", "");
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        let _ = log.join();
        clean
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What the client saw of one finished job.
struct Seen {
    latency_ms: f64,
    submit_ms: f64,
    poll_ms: f64,
    fetch_ms: f64,
    polls: u32,
    /// The server's run time (`elapsed_ms` of the done status).
    run_ms: f64,
    kind: String,
    id: String,
    deduped: bool,
    artifact: Vec<u8>,
}

/// Submit, poll to completion, fetch the result.
fn run_over_http(addr: &str, body: &str) -> Result<Seen, String> {
    let t0 = Instant::now();
    let (status, resp) = request(addr, "POST", "/v1/jobs", body)?;
    let submit_ms = ms_since(t0);
    if status >= 400 {
        return Err(format!("submit answered {status}"));
    }
    let doc = parse_json(&resp)?;
    let id = doc
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit answer has no id")?
        .to_string();
    let deduped = doc.get("deduplicated").and_then(Json::as_bool) == Some(true);
    let path = format!("/v1/jobs/{id}");
    let mut polls = 0;
    let mut poll_ms = 0.0;
    let (kind, run_ms) = loop {
        let t = Instant::now();
        let doc = get_json(addr, &path)?;
        poll_ms += ms_since(t);
        polls += 1;
        match doc.get("state").and_then(Json::as_str) {
            Some("done") => {
                let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("?");
                let run = doc.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0);
                break (kind.to_string(), run);
            }
            Some("queued" | "running") => {}
            other => return Err(format!("job {id} ended {other:?}")),
        }
        if t0.elapsed() > JOB_TIMEOUT {
            return Err(format!("job {id} timed out"));
        }
        thread::sleep(POLL_PAUSE);
    };
    let t = Instant::now();
    let (status, artifact) = request(addr, "GET", &format!("{path}/result"), "")?;
    let fetch_ms = ms_since(t);
    if status != 200 {
        return Err(format!("result of {id} answered {status}"));
    }
    Ok(Seen {
        latency_ms: ms_since(t0),
        submit_ms,
        poll_ms,
        fetch_ms,
        polls,
        run_ms,
        kind,
        id,
        deduped,
        artifact,
    })
}

struct Record {
    index: usize,
    class: Class,
    result: Result<Seen, String>,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        self.result.as_ref().map_or(f64::INFINITY, |s| s.latency_ms)
    }
}

/// What one closed-loop phase saw.
#[derive(Default)]
struct Phase {
    records: Vec<Record>,
    elapsed_s: f64,
    /// The server's peak RSS in each [`RSS_INTERVAL`], MiB.
    rss_mb: Vec<f64>,
}

/// The closed loop: each client takes the next job of the stream once its
/// previous job's result has arrived, until `seconds` have passed. Meanwhile
/// the server's peak RSS is read and lowered once per [`RSS_INTERVAL`].
fn closed_loop(served: &Served, jobs: &[Job], next: &AtomicUsize, seconds: f64) -> Phase {
    let start = Instant::now();
    let records = Mutex::new(Vec::new());
    let pid = Some(served.child.id());
    let mut rss_mb = Vec::new();
    thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                while start.elapsed().as_secs_f64() < seconds {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let Some(job) = jobs.get(index) else { break };
                    let result =
                        catch_unwind(AssertUnwindSafe(|| run_over_http(&served.addr, &job.body)))
                            .unwrap_or_else(|_| Err("client panicked".to_string()));
                    records.lock().expect("record lock").push(Record {
                        index,
                        class: job.class,
                        result,
                    });
                }
            });
        }
        reset_peak_rss(pid);
        while start.elapsed().as_secs_f64() < seconds {
            thread::sleep(RSS_INTERVAL);
            rss_mb.extend(peak_rss_mb(pid));
            reset_peak_rss(pid);
        }
    });
    let mut records = records.into_inner().expect("record lock");
    records.sort_by_key(|r| r.index);
    Phase {
        records,
        elapsed_s: start.elapsed().as_secs_f64(),
        rss_mb,
    }
}

/// Start a server and run the warm-up jobs on it. Returns the server and
/// the warm-up job ids.
fn set_up(args: &Args, out: &Path, warm: &[String]) -> Result<(Served, Vec<String>), String> {
    let served = Served::start(&args.repro, out)?;
    let ids = thread::scope(|s| {
        let handles: Vec<_> = warm
            .iter()
            .map(|body| s.spawn(|| run_over_http(&served.addr, body)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client").map(|seen| seen.id))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok((served, ids))
}

fn metric(doc: &Json, name: &str) -> f64 {
    let m = doc.get(name);
    m.and_then(|m| m.get("value").or_else(|| m.get("max")))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Dedupe answers must carry the original job's id and bytes.
fn check_resubmits(records: &mut [Record], jobs: &[Job], warm: &[String], warm_ids: &[String]) {
    let originals: Vec<(usize, String, Vec<u8>)> = records
        .iter()
        .filter_map(|r| {
            let s = r.result.as_ref().ok()?;
            Some((r.index, s.id.clone(), s.artifact.clone()))
        })
        .collect();
    for r in records.iter_mut().filter(|r| r.class == Class::Resubmit) {
        let Ok(seen) = &r.result else { continue };
        let job = &jobs[r.index];
        let want_id = match job.original {
            Some(j) => originals.iter().find(|o| o.0 == j).map(|o| &o.1),
            None => warm
                .iter()
                .position(|b| *b == job.body)
                .map(|k| &warm_ids[k]),
        };
        let want_bytes = job
            .original
            .and_then(|j| originals.iter().find(|o| o.0 == j).map(|o| &o.2));
        let problem = if !seen.deduped {
            Some("resubmission was not deduplicated".to_string())
        } else if want_id.is_some_and(|id| *id != seen.id) {
            Some(format!(
                "dedupe answered {} instead of {want_id:?}",
                seen.id
            ))
        } else if want_bytes.is_some_and(|b| *b != seen.artifact) {
            Some("dedupe result differs from the original's".to_string())
        } else {
            None
        };
        if let Some(p) = problem {
            eprintln!("job {}: {p}", r.index);
            r.result = Err(p);
        }
    }
}

/// Re-run a spread-out sample of each class in process; every artifact
/// must be byte-equal to what the server returned.
fn check_artifacts(records: &mut [Record], jobs: &[Job]) -> usize {
    let mut checked = 0;
    for (class, k) in VERIFY {
        let ok: Vec<usize> = (0..records.len())
            .filter(|&i| records[i].class == class && records[i].result.is_ok())
            .collect();
        let picks: Vec<usize> = (0..k.min(ok.len())).map(|p| ok[p * ok.len() / k]).collect();
        for i in picks {
            let body = &jobs[records[i].index].body;
            let local = catch_unwind(AssertUnwindSafe(|| {
                let value = serde_json::from_str(body).expect("stream bodies are JSON");
                let spec = rp_server::JobSpec::parse(&value).expect("stream bodies are specs");
                rp_server::run_job(&spec).artifact
            }));
            checked += 1;
            let same = match (&local, &records[i].result) {
                (Ok(bytes), Ok(seen)) => bytes.as_bytes() == seen.artifact.as_slice(),
                _ => false,
            };
            if !same {
                eprintln!(
                    "job {}: served artifact differs from run_job",
                    records[i].index
                );
                records[i].result = Err("artifact differs from run_job".to_string());
            }
        }
    }
    checked
}

pub fn run(args: &Args) -> Outcome {
    print_settings(
        args,
        &[
            (
                "server",
                format!("repro serve --threads {THREADS}, 2 workers, queue cap 256, world pool 32"),
            ),
            ("clients", format!("{CLIENTS} closed-loop threads")),
            ("world", "test scale, membership density 0.35".to_string()),
            ("campaign.shards", "0 (CLI default)".to_string()),
            ("campaign.memory_budget_bytes", "none".to_string()),
        ],
    );
    let out = args.scratch.join(format!("serve-{}", std::process::id()));
    let outcome = serve_mix(args, &out);
    let _ = std::fs::remove_dir_all(&out);
    outcome.unwrap_or_else(|e| {
        eprintln!("serve_mix: {e}");
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            values: Vec::new(),
        }
    })
}

fn serve_mix(args: &Args, out: &Path) -> Result<Outcome, String> {
    let warm = warmup(args.seed);
    let jobs = job_stream(args.seed, STREAM_LEN);

    let mut setups = Vec::new();
    let mut current = None;
    for _ in 0..SETUPS {
        if let Some((mut old, _)) = current.take() {
            Served::stop(&mut old);
        }
        let t = Instant::now();
        current = Some(set_up(args, out, &warm)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (mut served, warm_ids) = current.expect("at least one set-up");
    let next = AtomicUsize::new(0);

    let mut values = Vec::new();
    // The traced run spends the first half of its time unobserved and the
    // second half between two scrapes of `/metrics` and `/healthz`, whose
    // difference gives the server-side layers.
    let (plain, timed) = if args.trace {
        let plain = closed_loop(&served, &jobs, &next, args.seconds / 2.0);
        let metrics0 = get_json(&served.addr, "/metrics")?;
        let health0 = get_json(&served.addr, "/healthz")?;
        let timed = closed_loop(&served, &jobs, &next, args.seconds / 2.0);
        let metrics1 = get_json(&served.addr, "/metrics")?;
        let health1 = get_json(&served.addr, "/healthz")?;
        server_layers([&metrics0, &metrics1], [&health0, &health1], &mut values);
        (Some(plain), timed)
    } else {
        (None, closed_loop(&served, &jobs, &next, args.seconds))
    };
    if !served.stop() {
        return Err("server did not drain cleanly".to_string());
    }

    // Output checks, untimed and in process. The traced run keeps rp-obs
    // on here so the re-run jobs' world builds yield the world layers.
    if args.trace {
        rp_obs::enable();
    }
    let plain = plain.unwrap_or_default();
    let plain_len = plain.records.len();
    let peak_mb = plain
        .rss_mb
        .iter()
        .chain(&timed.rss_mb)
        .fold(0.0, |a: f64, &b| a.max(b));
    let mut all = plain.records;
    all.extend(timed.records);
    check_resubmits(&mut all, &jobs, &warm, &warm_ids);
    let checked = check_artifacts(&mut all, &jobs);
    let failed = all.iter().filter(|r| r.result.is_err()).count() as u64;
    for r in &all {
        if let Err(e) = &r.result {
            eprintln!("job {} ({:?}) failed: {e}", r.index, r.class);
        }
    }
    let records = &all[plain_len..];
    let per_class: Vec<String> = [Class::Warm, Class::Cold, Class::Resubmit, Class::Heavy]
        .iter()
        .map(|c| format!("{c:?} {}", records.iter().filter(|r| r.class == *c).count()))
        .collect();
    println!(
        "jobs: {} ({}), {checked} re-run in process and byte-equal",
        records.len(),
        per_class.join(", ")
    );

    let latencies = |rs: &[Record], class: Option<Class>| -> Vec<f64> {
        rs.iter()
            .filter(|r| class.is_none_or(|c| r.class == c))
            .map(Record::latency_ms)
            .collect()
    };
    // The untraced phase: the whole timed phase with `--trace 0`, its first
    // half with `--trace 1`.
    let (untraced, elapsed_s) = if args.trace {
        (&all[..plain_len], plain.elapsed_s)
    } else {
        (records, timed.elapsed_s)
    };
    summarize(
        args.trace,
        &latencies(untraced, None),
        &latencies(untraced, Some(Class::Cold)),
        elapsed_s,
        &mut values,
    );
    if args.trace {
        client_layers(records, &mut values);
        // World, filter and offload layers of the test-scale worlds the
        // served jobs use, timed in process.
        let tree = rp_obs::span::snapshot_tree();
        let campaign = Campaign {
            memory_budget_bytes: Scale::Test.default_memory_budget(),
            ..Campaign::default_paper()
        };
        let hot = crate::jobs::hot_seeds(args.seed)[0];
        let run = PreparedRun::probe_cached(&Scale::Test.config(hot), &campaign);
        world_layers(&tree, &run.world, &mut values);
        rp_obs::disable();
        analysis_layers(&run, &MethodParams::default(), &mut values);

        let plain_p50 = median(&latencies(untraced, None));
        let p50 = median(&latencies(records, None));
        println!("job p50: untraced {plain_p50:.3} ms, traced {p50:.3} ms");
        values.extend([
            v("process.peak_rss_mb", peak_mb, 1),
            v("trace.op_p50_ms", p50, records.len()),
            v("trace.overhead_ms", p50 - plain_p50, records.len()),
        ]);
    } else {
        values.extend([
            v("setup_s", median(&setups), setups.len()),
            v("peak_rss_mb", median(&timed.rss_mb), timed.rss_mb.len()),
        ]);
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: all.len() as u64,
        failed,
        values,
    })
}

/// Memo, dedupe and queue layers: differences of the server's own
/// counters across the traced phase.
fn server_layers(metrics: [&Json; 2], health: [&Json; 2], values: &mut Vec<Value>) {
    let delta = |name: &str| metric(metrics[1], name) - metric(metrics[0], name);
    let ratio = |hit: f64, miss: f64| hit / (hit + miss).max(1.0);
    let (wh, wm) = (delta("core.memo.world_hit"), delta("core.memo.world_miss"));
    let (ph, pm) = (delta("core.memo.probe_hit"), delta("core.memo.probe_miss"));
    let done = |h: &Json| {
        h.get("jobs")
            .and_then(|j| j.get("done"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let pool = health[1]
        .get("world_pool")
        .and_then(|p| p.get("entries"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    println!(
        "traced phase: {} jobs done on the server, world pool {pool} entries; \
         probe memo {ph} hits / {} lookups, world memo {wh} hits / {} lookups",
        done(health[1]) - done(health[0]),
        ph + pm,
        wh + wm
    );
    values.extend([
        v(
            "core.memo.world_hit_ratio",
            ratio(wh, wm),
            (wh + wm) as usize,
        ),
        v(
            "core.memo.probe_hit_ratio",
            ratio(ph, pm),
            (ph + pm) as usize,
        ),
        v("core.memo.probe_hits", ph, 1),
        v("core.memo.probe_lookups", ph + pm, 1),
        v("core.memo.world_evict", delta("core.memo.world_evict"), 1),
        v("core.fork.probe_reused", delta("core.fork.probe_reused"), 1),
        v("server.jobs.deduped", delta("server.jobs.deduped"), 1),
        v(
            "server.queue.depth_hwm",
            metric(metrics[1], "server.queue.depth_hwm"),
            1,
        ),
    ]);
}

/// Request, wait and per-kind run times as the clients saw them.
fn client_layers(records: &[Record], values: &mut Vec<Value>) {
    let ok: Vec<&Seen> = records
        .iter()
        .filter_map(|r| r.result.as_ref().ok())
        .collect();
    let med = |f: &dyn Fn(&Seen) -> Option<f64>| {
        let xs: Vec<f64> = ok.iter().filter_map(|s| f(s)).collect();
        (median(&xs), xs.len())
    };
    let run_of =
        |kind: &'static str| move |s: &Seen| (s.kind == kind && !s.deduped).then_some(s.run_ms);
    for (name, (value, n)) in [
        ("server.submit_ms", med(&|s| Some(s.submit_ms))),
        ("server.poll_ms", med(&|s| Some(s.poll_ms))),
        ("server.run_ms.campaign", med(&run_of("campaign"))),
        ("scenario.sweep_run_ms", med(&run_of("sweep"))),
        ("testkit.check_run_ms", med(&run_of("check"))),
        (
            "server.wait_ms",
            med(&|s| (!s.deduped).then_some(s.latency_ms - s.run_ms - s.submit_ms - s.fetch_ms)),
        ),
    ] {
        values.push(v(name, value, n));
    }
    let polls: f64 = ok.iter().map(|s| f64::from(s.polls)).sum();
    values.push(v(
        "server.polls_per_job",
        polls / ok.len().max(1) as f64,
        ok.len(),
    ));
}
