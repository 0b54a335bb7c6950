//! Open-loop traffic: a seeded Zipf key sampler, a seeded paced rate
//! schedule, and a generator that sends each request when it is due
//! whether or not earlier ones were answered.
//!
//! Each request is timed from when it was due, so a stall charges its
//! wait to every request queued behind it. The generator uses one thread
//! per connection and at most two connections.

use crate::stats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Zipf-distributed keys over `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)^exponent`, and ranks map to keys through a seeded
/// permutation so popular keys are spread over the table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<u32>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut keys: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        Zipf { cdf, keys }
    }

    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.keys.len() - 1);
        self.keys[rank]
    }
}

/// Paced arrivals at `rate` per second over `duration`: request `i` is
/// due at `(i + j) / rate`, where the seeded jitter `j` is uniform in
/// ±`JITTER`. Evenly paced traffic keeps a step's tail latency a
/// property of the server rather than of random arrival bursts; the
/// jitter keeps the schedule from locking step with server timers.
pub fn paced_schedule(rate: f64, duration: Duration, rng: &mut StdRng) -> Vec<Duration> {
    let n = (rate * duration.as_secs_f64()).floor() as usize;
    (0..n)
        .map(|i| {
            let j: f64 = rng.gen_range(-JITTER..JITTER);
            Duration::from_secs_f64(((i as f64 + 0.5 + j) / rate).max(0.0))
        })
        .collect()
}

/// Largest shift of a paced request, as a share of the gap between
/// requests; below one half, so the schedule stays in order.
const JITTER: f64 = 0.25;

/// One request of a step.
#[derive(Debug, Clone)]
pub struct Request {
    /// When it falls due, from the start of the step.
    pub due: Duration,
    /// The request line, without the newline.
    pub line: String,
    /// Whether the request is of the kind the step's primary latency
    /// figures describe; responses to the others are kept for the caller.
    pub primary: bool,
}

/// One rate step: a fixed schedule of requests.
#[derive(Debug, Clone)]
pub struct Step {
    pub rate: f64,
    pub duration: Duration,
    pub requests: Vec<Request>,
}

impl Step {
    /// A step at `rate` for `duration`, with request lines from `make`
    /// (which returns the line and whether the request is primary).
    pub fn new(
        rate: f64,
        duration: Duration,
        rng: &mut StdRng,
        mut make: impl FnMut(&mut StdRng) -> (String, bool),
    ) -> Self {
        let requests = paced_schedule(rate, duration, rng)
            .into_iter()
            .map(|due| {
                let (line, primary) = make(rng);
                Request { due, line, primary }
            })
            .collect();
        Step { rate, duration, requests }
    }
}

/// What one step delivered.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    pub rate: f64,
    pub sent: usize,
    pub succeeded: usize,
    /// Every request without an `"ok":true` answer, refusals included.
    pub failed: usize,
    /// Requests answered `overloaded`.
    pub refused: usize,
    /// Latency from due time to response, successful requests only.
    pub latencies_ms: Vec<f64>,
    /// The same, primary requests only.
    pub primary_ms: Vec<f64>,
    /// How late the generator sent each request.
    pub lateness_ms: Vec<f64>,
    /// Requests still unanswered when the step's last request was sent.
    pub backlog_at_end: usize,
    /// Wall time from the step's start until its last response.
    pub elapsed: Duration,
    /// `(request index, response)` for requests that are not primary, in
    /// the order each connection received them.
    pub kept: Vec<Vec<(usize, String)>>,
}

impl StepReport {
    /// Achieved goodput: successful responses per second of step wall.
    pub fn goodput(&self) -> f64 {
        self.succeeded as f64 / self.elapsed.as_secs_f64()
    }

    /// The step meets `limit_ms` when nothing failed, the tail latency
    /// stays under the limit, and fewer requests were queued at the end
    /// than the limit allows at this rate (otherwise the backlog grows).
    pub fn meets(&self, limit_ms: f64) -> bool {
        let allowed_backlog = (self.rate * limit_ms / 1e3).ceil() as usize + 2;
        self.failed == 0
            && !self.latencies_ms.is_empty()
            && self.summary().2 <= limit_ms
            && self.backlog_at_end <= allowed_backlog
    }

    /// `(p50, tail percentile, tail)` of the successful latencies.
    pub fn summary(&self) -> (f64, f64, f64) {
        stats::summarize(&self.latencies_ms)
    }

    /// A JSON object describing the step.
    pub fn to_json(&self, limit_ms: f64) -> String {
        let (p50, pct, tail) =
            if self.latencies_ms.is_empty() { (0.0, 0.0, 0.0) } else { self.summary() };
        let (pp50, ppct, ptail) = if self.primary_ms.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            stats::summarize(&self.primary_ms)
        };
        let mut late = self.lateness_ms.clone();
        late.sort_by(f64::total_cmp);
        let late_p99 = if late.is_empty() { 0.0 } else { stats::percentile(&late, 99.0) };
        let late_max = late.last().copied().unwrap_or(0.0);
        format!(
            r#"{{"rate":{},"sent":{},"succeeded":{},"failed":{},"refused":{},"p50_ms":{p50:.4},"tail_pct":{pct},"tail_ms":{tail:.4},"samples":{},"primary_p50_ms":{pp50:.4},"primary_tail_pct":{ppct},"primary_tail_ms":{ptail:.4},"primary_samples":{},"late_p99_ms":{late_p99:.4},"late_max_ms":{late_max:.4},"backlog_at_end":{},"goodput":{:.2},"meets_limit":{}}}"#,
            self.rate,
            self.sent,
            self.succeeded,
            self.failed,
            self.refused,
            self.latencies_ms.len(),
            self.primary_ms.len(),
            self.backlog_at_end,
            self.goodput(),
            self.meets(limit_ms)
        )
    }
}

/// How long a step may overrun its schedule while answers drain.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// Run one step over `conns`, request `i` going to connection
/// `i % conns.len()`. Blocks until every request is answered or the
/// drain grace runs out (the rest count as failed).
pub fn run_step(conns: &[TcpStream], step: &Step) -> StepReport {
    let start = Instant::now();
    let deadline = step.duration + DRAIN_GRACE;
    let per_conn: Vec<ConnReport> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<(usize, &Request)> = step
                    .requests
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % conns.len() == c)
                    .collect();
                s.spawn(move || drive(conn, &mine, start, deadline))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load generator thread panicked")).collect()
    });
    let mut report = StepReport { rate: step.rate, elapsed: start.elapsed(), ..Default::default() };
    for r in per_conn {
        report.sent += r.sent;
        report.succeeded += r.succeeded;
        report.failed += r.failed;
        report.refused += r.refused;
        report.latencies_ms.extend(r.latencies_ms);
        report.primary_ms.extend(r.primary_ms);
        report.lateness_ms.extend(r.lateness_ms);
        report.backlog_at_end += r.backlog_at_end;
        report.kept.push(r.kept);
    }
    report
}

#[derive(Default)]
struct ConnReport {
    sent: usize,
    succeeded: usize,
    failed: usize,
    refused: usize,
    latencies_ms: Vec<f64>,
    primary_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    backlog_at_end: usize,
    kept: Vec<(usize, String)>,
}

/// How long a connection loop sleeps between polls while answers are
/// outstanding. Socket read timeouts are rounded up to scheduler ticks
/// (several ms), far too coarse to send on time, so the loop polls a
/// non-blocking socket and sleeps with the high-resolution timer instead.
const POLL: Duration = Duration::from_micros(100);

/// One connection's event loop: send what is due, read what has
/// arrived, and sleep until the next request falls due or the next poll.
/// Responses arrive in request order on a connection, so a FIFO matches
/// them up.
fn drive(
    conn: &TcpStream,
    reqs: &[(usize, &Request)],
    start: Instant,
    deadline: Duration,
) -> ConnReport {
    let mut r = ConnReport::default();
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    let mut outbuf: Vec<u8> = Vec::new();
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut stream = conn;
    if stream.set_nonblocking(true).is_err() {
        r.failed = reqs.len();
        return r;
    }
    'run: loop {
        let now = start.elapsed();
        while next < reqs.len() && reqs[next].1.due <= now {
            outbuf.extend_from_slice(reqs[next].1.line.as_bytes());
            outbuf.push(b'\n');
            r.lateness_ms.push((now - reqs[next].1.due).as_secs_f64() * 1e3);
            pending.push_back(next);
            next += 1;
            if next == reqs.len() {
                r.backlog_at_end = pending.len();
            }
        }
        while !outbuf.is_empty() {
            match stream.write(&outbuf) {
                Ok(0) => break 'run,
                Ok(n) => {
                    outbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break 'run,
            }
        }
        if next == reqs.len() && pending.is_empty() {
            break;
        }
        if next == reqs.len() && now >= deadline {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = start.elapsed();
                quick_ack(conn);
                inbuf.extend_from_slice(&chunk[..n]);
                let mut consumed = 0;
                while let Some(pos) = inbuf[consumed..].iter().position(|&b| b == b'\n') {
                    let line = String::from_utf8_lossy(&inbuf[consumed..consumed + pos]);
                    consumed += pos + 1;
                    let Some(j) = pending.pop_front() else {
                        r.failed += 1;
                        continue;
                    };
                    let (idx, req) = reqs[j];
                    if line.starts_with(r#"{"ok":true"#) {
                        let ms = (at - req.due).as_secs_f64() * 1e3;
                        r.succeeded += 1;
                        r.latencies_ms.push(ms);
                        if req.primary {
                            r.primary_ms.push(ms);
                        }
                    } else {
                        r.failed += 1;
                        if line.contains("overloaded") {
                            r.refused += 1;
                        }
                    }
                    if !req.primary {
                        r.kept.push((idx, line.into_owned()));
                    }
                }
                inbuf.drain(..consumed);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                let until_due = reqs.get(next).map_or(POLL, |(_, q)| q.due.saturating_sub(now));
                std::thread::sleep(if pending.is_empty() {
                    until_due
                } else {
                    until_due.min(POLL)
                });
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Whatever was never sent or never answered failed.
    r.failed += reqs.len() - next + pending.len();
    r.sent = next;
    r
}

/// Acknowledge what has been received at once instead of after Linux's
/// delayed-ACK heuristics. The JSON front end writes with Nagle's
/// algorithm on, so a response written while the previous one is still
/// unacknowledged waits for the client's ACK. With delayed ACKs a
/// connection drifted in and out of a mode where every response waited
/// for the next request (8 ms at the serve reference rate), which made
/// latency bimodal from run to run; acknowledging at once removes the
/// client's part in that wait.
#[cfg(target_os = "linux")]
fn quick_ack(conn: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let one: i32 = 1;
    // SAFETY: the descriptor belongs to `conn`, which outlives the call,
    // and the option value points to a live `i32` whose size is passed.
    // A failure only leaves delayed ACKs on, so the result is ignored.
    unsafe {
        setsockopt(conn.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &one, 4);
    }
}

#[cfg(not(target_os = "linux"))]
fn quick_ack(_conn: &TcpStream) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed() {
        let draw = |seed: u64| {
            let z = Zipf::new(1000, 1.0, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 1);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<u32>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let keys = draw(3);
        assert!(keys.iter().all(|&k| k < 1000));
        let mut counts = vec![0usize; 1000];
        for &k in &keys {
            counts[k as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Rank 1 of a Zipf(1) over 1000 keys carries ~13% of the draws.
        assert!(counts[0] > 150 && counts[0] < 400, "top key drew {}", counts[0]);
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_near_rate() {
        let sched = |seed: u64| {
            paced_schedule(500.0, Duration::from_secs(4), &mut StdRng::seed_from_u64(seed))
        };
        assert_eq!(sched(9), sched(9));
        assert_ne!(sched(9), sched(10));
        let s = sched(9);
        assert_eq!(s.len(), 2000);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.last().unwrap() < &Duration::from_secs(4));
        // Every request stays within a quarter gap of its slot.
        for (i, t) in s.iter().enumerate() {
            let slot = (i as f64 + 0.5) / 500.0;
            assert!((t.as_secs_f64() - slot).abs() <= 0.25 / 500.0 + 1e-12);
        }
    }

    #[test]
    fn step_lines_follow_the_seed() {
        let build = |seed: u64| {
            let z = Zipf::new(100, 0.9, 1);
            let step =
                Step::new(200.0, Duration::from_secs(1), &mut StdRng::seed_from_u64(seed), |rng| {
                    (format!("{}", z.sample(rng)), true)
                });
            step.requests.iter().map(|r| (r.due, r.line.clone())).collect::<Vec<_>>()
        };
        assert_eq!(build(5), build(5));
        assert_ne!(build(5), build(6));
    }

    #[test]
    fn step_meets_limit_only_without_failures_or_backlog() {
        let mut r = StepReport {
            rate: 100.0,
            latencies_ms: vec![1.0; 100],
            elapsed: Duration::from_secs(1),
            succeeded: 100,
            ..Default::default()
        };
        assert!(r.meets(5.0));
        r.backlog_at_end = 50;
        assert!(!r.meets(5.0));
        r.backlog_at_end = 0;
        r.failed = 1;
        assert!(!r.meets(5.0));
        r.failed = 0;
        // 100 samples report p90; ten slow ones stay beyond it.
        r.latencies_ms[90..].fill(9.0);
        assert!(r.meets(5.0));
        r.latencies_ms[89] = 9.0;
        assert!(!r.meets(5.0));
    }
}
