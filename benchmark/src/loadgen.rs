//! Open-loop load generation. Requests are due on a fixed schedule that
//! does not depend on how fast the daemon answers; each request's clock
//! starts at the instant it was *due*, not when it was sent. A stalled
//! reply therefore delays the later sends on that connection, and that
//! delay is part of their measured latency — exactly the wait a real
//! independent caller would have seen.

use crate::proc::sleep_until;
use std::time::{Duration, Instant};

/// A fixed arrival schedule for one connection: request `k` is due at
/// `start + offset + k * interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Delay of the first request after the common start.
    pub offset: Duration,
    /// Gap between due times.
    pub interval: Duration,
    /// Number of requests.
    pub count: usize,
}

impl Schedule {
    /// Due time of request `k`.
    pub fn due(&self, start: Instant, k: usize) -> Instant {
        start + self.offset + self.interval * k as u32
    }
}

/// One request as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was due.
    pub due: Instant,
    /// When it was actually written to the socket.
    pub sent: Instant,
    /// When the reply was fully read (or the failure noticed).
    pub done: Instant,
    /// Whether the reply arrived and said `"ok":true`.
    pub ok: bool,
}

impl Sample {
    /// Reply latency from the due time, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.done.duration_since(self.due).as_secs_f64() * 1e3
    }

    /// How late the generator sent it, milliseconds.
    pub fn lag_ms(&self) -> f64 {
        self.sent.duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Drives one connection through `schedule`. `send(k)` performs request
/// `k` synchronously and reports whether it succeeded; it is called at the
/// request's due time, or immediately when the previous reply came back
/// after that time had already passed.
pub fn drive(
    start: Instant,
    schedule: &Schedule,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(schedule.count);
    for k in 0..schedule.count {
        let due = schedule.due(start, k);
        sleep_until(due);
        let sent = Instant::now();
        let ok = send(k);
        samples.push(Sample {
            due,
            sent,
            done: Instant::now(),
            ok,
        });
    }
    samples
}

/// Summary of one connection's samples against its latency limit.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Latency from due time of every successful request, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Requests that failed outright.
    pub failed: usize,
    /// Requests that failed or whose reply came after the limit.
    pub late: usize,
    /// Worst send lag, milliseconds.
    pub max_lag_ms: f64,
}

/// Summarises `samples`; a failed request counts as missing the limit.
pub fn summarize(samples: &[Sample], limit: Duration) -> Summary {
    let limit_ms = limit.as_secs_f64() * 1e3;
    let mut summary = Summary {
        latencies_ms: Vec::with_capacity(samples.len()),
        failed: 0,
        late: 0,
        max_lag_ms: 0.0,
    };
    for s in samples {
        summary.max_lag_ms = summary.max_lag_ms.max(s.lag_ms());
        if s.ok {
            summary.latencies_ms.push(s.latency_ms());
        } else {
            summary.failed += 1;
        }
        if !s.ok || s.latency_ms() > limit_ms {
            summary.late += 1;
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame, Client};
    use std::os::unix::net::UnixListener;

    /// A stub daemon: answers every frame with `{"ok":true}`, sleeping
    /// `stall` before the reply to request number `stall_on`.
    fn stub(listener: UnixListener, requests: usize, stall_on: usize, stall: Duration) {
        let (mut conn, _) = listener.accept().unwrap();
        for k in 0..requests {
            read_frame(&mut conn).unwrap();
            if k == stall_on {
                std::thread::sleep(stall);
            }
            write_frame(&mut conn, "{\"ok\":true}").unwrap();
        }
    }

    #[test]
    fn requests_after_a_stalled_reply_inherit_the_stall() {
        let dir = std::env::temp_dir().join(format!("mp-ledger-loadgen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let socket = dir.join("stub.sock");
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket).unwrap();

        // Ten requests 50 ms apart; the reply to request 2 takes 300 ms, so
        // requests 3..=7 (due at 150..350 ms, inside the stall that ends at
        // ~400 ms) cannot be sent on time.
        let schedule = Schedule {
            offset: Duration::from_millis(10),
            interval: Duration::from_millis(50),
            count: 10,
        };
        let samples = std::thread::scope(|s| {
            s.spawn(|| stub(listener, schedule.count, 2, Duration::from_millis(300)));
            let mut client = Client::connect(&socket, Duration::from_secs(5)).unwrap();
            let start = Instant::now();
            drive(start, &schedule, |_| {
                client.request("{\"cmd\":\"healthz\"}").is_ok()
            })
        });
        std::fs::remove_dir_all(&dir).unwrap();

        assert!(samples.iter().all(|s| s.ok));
        let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
        let lag: Vec<f64> = samples.iter().map(Sample::lag_ms).collect();
        // Before the stall: on time and fast.
        assert!(lat[0] < 40.0 && lat[1] < 40.0, "{lat:?}");
        // The stalled request itself.
        assert!(lat[2] >= 300.0, "{lat:?}");
        // Request 3 was due 50 ms after request 2 but could only be sent when
        // the stalled reply arrived ~250 ms later: its latency is counted from
        // its due time, so it inherits the remainder of the stall ...
        assert!(
            lag[3] >= 200.0 && lat[3] >= 200.0,
            "lag {lag:?} lat {lat:?}"
        );
        // ... and the backlog drains in order: each later request waited less.
        assert!(
            lat[4] >= 150.0 && lat[5] >= 100.0 && lat[6] >= 50.0,
            "{lat:?}"
        );
        assert!(
            lat[3] > lat[4] && lat[4] > lat[5] && lat[5] > lat[6],
            "{lat:?}"
        );
        // Once the schedule has caught up, requests are on time again.
        assert!(lat[9] < 40.0 && lag[9] < 20.0, "lag {lag:?} lat {lat:?}");

        let summary = summarize(&samples, Duration::from_millis(100));
        assert_eq!(summary.failed, 0);
        // Requests 2..=5 exceeded the 100 ms limit (the stall plus its heirs).
        assert!(summary.late >= 4, "{summary:?}");
        assert!(summary.max_lag_ms >= 200.0);
    }

    #[test]
    fn failed_requests_count_as_late_and_carry_no_latency() {
        let start = Instant::now();
        let schedule = Schedule {
            offset: Duration::ZERO,
            interval: Duration::from_millis(1),
            count: 4,
        };
        let samples = drive(start, &schedule, |k| k != 1);
        let summary = summarize(&samples, Duration::from_secs(1));
        assert_eq!(summary.failed, 1);
        assert_eq!(summary.late, 1);
        assert_eq!(summary.latencies_ms.len(), 3);
    }
}
