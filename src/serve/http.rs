//! Minimal HTTP/1.1 responder for `mergepurge serve --metrics-addr`.
//!
//! The build environment has no HTTP crate, and a metrics endpoint needs
//! almost nothing from one: Prometheus scrapes with a plain
//! `GET /metrics HTTP/1.1` and reads one response. This module binds a
//! `TcpListener`, parses only the request line, and answers three routes:
//!
//! * `GET /metrics` — the Prometheus text exposition (always 200);
//! * `GET /healthz` — engine-worker liveness (200, or 503 when the
//!   heartbeat is stale);
//! * `GET /readyz`  — traffic readiness (200, or 503 during journal
//!   replay, backpressure, or shutdown);
//! * `GET /trace`   — the flight recorder's retained batch spans as
//!   Chrome trace-event JSON (always 200; an empty document before the
//!   first batch), loadable directly in Perfetto.
//!
//! Everything else is 404. Connections are `Connection: close`; the
//! accept loop is nonblocking and polls the daemon's shutdown flag, so
//! the thread exits promptly on SIGTERM.

use super::obs::ObsState;
use mp_metrics::{FlightRecorder, MetricsRecorder};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Runs the HTTP accept loop until `shutdown` flips. The listener must
/// already be bound (binding early lets `readyz` answer 503 while the
/// journal is still replaying).
pub fn serve_http(
    listener: TcpListener,
    obs: &ObsState,
    recorder: &MetricsRecorder,
    flight: &FlightRecorder,
    shutdown: &AtomicBool,
) {
    if listener.set_nonblocking(true).is_err() {
        eprintln!("mergepurge serve: metrics listener: cannot set nonblocking; disabled");
        return;
    }
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are small, rare (seconds apart),
                // and must not outlive the daemon's thread scope.
                let _ = handle(stream, obs, recorder, flight);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Reads the request head (bounded) and returns the request-line target,
/// e.g. `/metrics`.
fn read_target(stream: &mut TcpStream) -> std::io::Result<String> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "only GET is served",
        ));
    }
    Ok(target.to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn handle(
    mut stream: TcpStream,
    obs: &ObsState,
    recorder: &MetricsRecorder,
    flight: &FlightRecorder,
) -> std::io::Result<()> {
    let target = match read_target(&mut stream) {
        Ok(t) => t,
        Err(_) => {
            return respond(
                &mut stream,
                "405 Method Not Allowed",
                "text/plain",
                "GET only\n",
            );
        }
    };
    match target.split('?').next().unwrap_or("") {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &obs.exposition(recorder),
        ),
        "/healthz" => {
            let status = if obs.worker_alive() {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            respond(&mut stream, status, "application/json", &obs.healthz_json())
        }
        "/readyz" => {
            let status = if obs.readiness().is_ok() {
                "200 OK"
            } else {
                "503 Service Unavailable"
            };
            respond(&mut stream, status, "application/json", &obs.readyz_json())
        }
        "/trace" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            &flight.chrome_json(),
        ),
        _ => respond(&mut stream, "404 Not Found", "text/plain", "unknown path\n"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn routes_metrics_health_ready_and_404() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let obs = ObsState::new(4, None);
        obs.beat();
        let recorder = MetricsRecorder::new().with_tracing();
        let flight = FlightRecorder::default();
        {
            let _s = mp_metrics::span_labeled(&recorder, "batch", || "trace=http-test".into());
        }
        flight.record("http-test", 1, false, recorder.drain_spans());
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| serve_http(listener, &obs, &recorder, &flight, &shutdown));

            let (head, body) = get(addr, "/metrics");
            assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
            assert!(body.contains("mergepurge_uptime_seconds"));

            // Not ready yet: replay has not completed.
            let (head, body) = get(addr, "/readyz");
            assert!(head.starts_with("HTTP/1.1 503"), "{head}");
            assert!(body.contains("\"ready\":false"));
            assert!(body.contains("\"replay_complete\":false"), "{body}");
            obs.set_replay_complete();
            obs.set_accepting(true);
            let (head, body) = get(addr, "/readyz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(body.contains("\"replay_complete\":true"), "{body}");

            let (head, body) = get(addr, "/healthz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(body.contains("\"alive\":true"));

            let (head, body) = get(addr, "/trace");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(head.contains("application/json"), "{head}");
            assert!(body.contains("\"traceEvents\""), "{body}");
            assert!(body.contains("trace=http-test"), "{body}");

            let (head, _) = get(addr, "/nope");
            assert!(head.starts_with("HTTP/1.1 404"), "{head}");

            shutdown.store(true, Ordering::SeqCst);
        });
    }
}
