//! End-to-end tests for `repro serve`: a 200-job queue drains with zero
//! dropped or duplicated jobs, served artifacts are byte-identical to CLI
//! artifacts at any `--threads`, and a SIGTERM drain loses no accepted
//! job.
//!
//! Lives in the rp-bench package so `CARGO_BIN_EXE_repro` resolves — the
//! byte-identity claims are checked against the real binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header block");
    let status = String::from_utf8_lossy(&raw[..header_end])
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, raw[header_end + 4..].to_vec())
}

fn json(body: &[u8]) -> serde_json::Value {
    serde_json::from_str(&String::from_utf8_lossy(body)).expect("JSON body")
}

fn campaign_spec(seed: u64, threshold: u64) -> String {
    format!(
        "{{\"kind\": \"campaign\", \"seed\": {seed}, \"params\": {{\"threshold_ms\": {threshold}}}}}"
    )
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rp_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Run `repro job SPEC --threads N --out DIR` and return the artifact
/// bytes it wrote.
fn cli_job(spec_path: &Path, rel_artifact: &str, threads: usize, out: &Path) -> Vec<u8> {
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("job")
        .arg(spec_path)
        .arg("--threads")
        .arg(threads.to_string())
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run repro job");
    assert!(
        status.success(),
        "repro job failed for {}",
        spec_path.display()
    );
    std::fs::read(out.join(rel_artifact)).expect("CLI artifact exists")
}

/// Tentpole acceptance: 200 distinct campaign jobs (4 worlds x 50 method
/// coordinates), each submitted twice from 8 concurrent clients, complete
/// under a 3-worker pool with zero dropped and zero duplicated jobs, and
/// sampled results are byte-identical to `repro job` runs of the same
/// specs at `--threads 1` and `--threads 4`.
#[test]
fn two_hundred_jobs_drain_without_loss_or_duplication() {
    let results = temp_dir("fleet");
    let server = rp_server::Server::bind(rp_server::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 3,
        queue_capacity: 512,
        results_dir: Some(results.clone()),
        ..rp_server::ServeConfig::default()
    })
    .expect("bind server");
    let addr = server.local_addr();

    // 4 seeds x 50 thresholds = 200 distinct specs over 4 memoized worlds.
    let specs: Vec<String> = (0..4)
        .flat_map(|s| (0..50).map(move |t| campaign_spec(7001 + s, 10 + t)))
        .collect();
    assert_eq!(specs.len(), 200);

    // 8 clients; each spec is submitted by exactly two of them.
    let accepted: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|client| {
                let specs = &specs;
                scope.spawn(move || {
                    let mut accepted = 0;
                    for (i, spec) in specs.iter().enumerate() {
                        if i % 4 != client % 4 {
                            continue;
                        }
                        let (status, body) = request(addr, "POST", "/v1/jobs", spec);
                        match status {
                            202 => accepted += 1,
                            200 => {
                                let doc = json(&body);
                                assert_eq!(
                                    doc.get("deduplicated"),
                                    Some(&serde_json::Value::Bool(true)),
                                    "200 without dedupe marker: {doc}"
                                );
                            }
                            other => panic!("submission got HTTP {other}"),
                        }
                    }
                    accepted
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    // 400 submissions, 200 jobs: every spec accepted exactly once.
    assert_eq!(accepted, 200, "each spec creates exactly one job");

    // Drain: poll this server's own health endpoint until idle.
    let deadline = Instant::now() + Duration::from_secs(600);
    let jobs = loop {
        let (status, body) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        let doc = json(&body);
        let jobs = doc.get("jobs").expect("healthz has jobs").clone();
        let count = |k: &str| jobs.get(k).and_then(serde_json::Value::as_u64).unwrap();
        if count("queued") == 0 && count("running") == 0 {
            break jobs;
        }
        assert!(Instant::now() < deadline, "queue never drained: {jobs}");
        std::thread::sleep(Duration::from_millis(200));
    };
    let count = |k: &str| jobs.get(k).and_then(serde_json::Value::as_u64).unwrap();
    assert_eq!(count("done"), 200, "no job dropped: {jobs}");
    assert_eq!(count("failed"), 0, "{jobs}");
    assert_eq!(count("cancelled"), 0, "{jobs}");

    // The listing agrees, and every job persisted its artifact.
    let (status, body) = request(addr, "GET", "/v1/jobs?state=done", "");
    assert_eq!(status, 200);
    let listed = json(&body);
    let listed = listed
        .get("jobs")
        .and_then(serde_json::Value::as_array)
        .expect("jobs array");
    assert_eq!(listed.len(), 200);
    for job in listed {
        let rel = job
            .get("artifact")
            .and_then(serde_json::Value::as_str)
            .expect("done job lists its artifact");
        assert!(results.join(rel).is_file(), "missing artifact {rel}");
    }

    // Byte-identity spot check: two specs, served bytes vs `repro job`
    // at --threads 1 and --threads 4.
    let spec_dir = temp_dir("fleet_specs");
    for (tag, spec) in [("a", &specs[17]), ("b", &specs[163])] {
        let parsed =
            rp_server::JobSpec::parse(&serde_json::from_str(spec).unwrap()).expect("valid spec");
        let id = parsed.id();
        let (status, served) = request(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
        assert_eq!(status, 200);

        let spec_path = spec_dir.join(format!("{tag}.json"));
        std::fs::write(&spec_path, spec).expect("write spec file");
        let rel = format!("campaigns/campaign_{id}.json");
        for threads in [1, 4] {
            let out = spec_dir.join(format!("{tag}_t{threads}"));
            let cli = cli_job(&spec_path, &rel, threads, &out);
            assert_eq!(
                cli, served,
                "served bytes differ from repro job --threads {threads} for {spec}"
            );
        }
        // The server's persisted copy is the same bytes again.
        let disk = std::fs::read(results.join(&rel)).expect("server persisted artifact");
        assert_eq!(disk, served);
    }

    server.join();
    let _ = std::fs::remove_dir_all(&results);
    let _ = std::fs::remove_dir_all(&spec_dir);
}

/// Satellite: a served smoke sweep and a served check are byte-identical
/// to what the CLI subcommands write, at `--threads 1` and `--threads 4`.
#[test]
fn served_sweep_and_check_match_cli_artifacts() {
    let results = temp_dir("artifacts");
    let server = rp_server::Server::bind(rp_server::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        results_dir: Some(results.clone()),
        ..rp_server::ServeConfig::default()
    })
    .expect("bind server");
    let addr = server.local_addr();

    let jobs = [
        (
            r#"{"kind": "sweep", "preset": "smoke", "seed": 42}"#,
            "sweeps/smoke.json",
            vec!["sweep", "smoke", "--scale", "test"],
        ),
        (
            r#"{"kind": "check", "seed": 42, "faults": 40, "fuzz": 60}"#,
            "check_report.json",
            vec!["check", "--scale", "test", "--faults", "40", "--fuzz", "60"],
        ),
    ];

    for (spec, rel, cli_args) in jobs {
        let (status, body) = request(addr, "POST", "/v1/jobs", spec);
        assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
        let id = json(&body)
            .get("id")
            .and_then(serde_json::Value::as_str)
            .unwrap()
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(600);
        loop {
            let (status, body) = request(addr, "GET", &format!("/v1/jobs/{id}"), "");
            assert_eq!(status, 200);
            match json(&body).get("state").and_then(serde_json::Value::as_str) {
                Some("done") => break,
                Some("failed") => panic!("job failed: {}", String::from_utf8_lossy(&body)),
                _ => {
                    assert!(Instant::now() < deadline, "job never finished");
                    std::thread::sleep(Duration::from_millis(200));
                }
            }
        }
        let (status, served) = request(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
        assert_eq!(status, 200);

        for threads in [1usize, 4] {
            let out = temp_dir(&format!("cli_{}_t{threads}", rel.replace('/', "_")));
            let status = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(&cli_args)
                .arg("--threads")
                .arg(threads.to_string())
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .expect("run repro");
            assert!(status.success());
            let cli = std::fs::read(out.join(rel)).expect("CLI artifact");
            assert_eq!(
                cli, served,
                "served {rel} differs from CLI at --threads {threads}"
            );
            let _ = std::fs::remove_dir_all(&out);
        }
    }
    server.join();
    let _ = std::fs::remove_dir_all(&results);
}

/// Satellite: SIGTERM drains gracefully — the process stops accepting,
/// finishes every accepted job, flushes artifacts, and exits 0.
#[cfg(unix)]
#[test]
fn sigterm_drain_loses_no_accepted_job() {
    let results = temp_dir("drain");
    let (chrome, report) = (results.join("trace.json"), results.join("run_report.json"));
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1"])
        .arg("--out")
        .arg(&results)
        .arg("--trace-chrome")
        .arg(&chrome)
        .arg("--report")
        .arg(&report)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro serve");

    // The server prints "serving on <addr>" once bound; keep draining
    // stderr afterwards so the child never blocks on a full pipe.
    let stderr = child.stderr.take().expect("piped stderr");
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut tail = String::new();
        for line in BufReader::new(stderr).lines() {
            let line = line.unwrap_or_default();
            if let Some(rest) = line.strip_prefix("serving on ") {
                let _ = tx.send(rest.to_string());
            }
            tail.push_str(&line);
            tail.push('\n');
        }
        tail
    });
    let addr: SocketAddr = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("server announced its address")
        .parse()
        .expect("parseable address");

    // Accept six jobs (one worker, so most stay queued), then SIGTERM.
    let specs: Vec<String> = (0..6).map(|t| campaign_spec(7100, 10 + t)).collect();
    let mut ids = Vec::new();
    for spec in &specs {
        let (status, body) = request(addr, "POST", "/v1/jobs", spec);
        assert_eq!(status, 202, "{}", String::from_utf8_lossy(&body));
        ids.push(
            json(&body)
                .get("id")
                .and_then(serde_json::Value::as_str)
                .unwrap()
                .to_string(),
        );
    }

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    let status = child.wait().expect("wait for serve");
    let log = reader.join().expect("stderr reader");
    assert!(status.success(), "serve exited {status:?}; stderr:\n{log}");
    assert!(
        log.contains("drained: 6 done, 0 failed, 0 cancelled"),
        "drain summary missing; stderr:\n{log}"
    );

    // Every accepted job flushed its artifact, byte-identical to an
    // in-process run of the same spec.
    for (spec, id) in specs.iter().zip(&ids) {
        let rel = format!("campaigns/campaign_{id}.json");
        let disk = std::fs::read(results.join(&rel))
            .unwrap_or_else(|e| panic!("artifact {rel} missing after drain: {e}"));
        let parsed =
            rp_server::JobSpec::parse(&serde_json::from_str(spec).unwrap()).expect("valid spec");
        assert_eq!(
            disk,
            rp_server::run_job(&parsed).artifact.into_bytes(),
            "drained artifact {rel} differs from a fresh run"
        );
    }

    // The drain closed the sinks: the Chrome trace is a complete array and
    // the run report counts one `repro.run` span per drained job.
    let trace = std::fs::read_to_string(&chrome).expect("chrome trace");
    let events = serde_json::from_str(&trace).expect("chrome trace parses");
    assert!(!events.as_array().expect("trace-event array").is_empty());
    let doc = json(&std::fs::read(&report).expect("run report"));
    let run = doc
        .get("spans")
        .and_then(serde_json::Value::as_array)
        .and_then(|s| {
            s.iter()
                .find(|n| n.get("name").and_then(|v| v.as_str()) == Some("repro.run"))
        })
        .expect("repro.run span");
    assert_eq!(
        run.get("count").and_then(serde_json::Value::as_u64),
        Some(6)
    );
    let _ = std::fs::remove_dir_all(&results);
}
