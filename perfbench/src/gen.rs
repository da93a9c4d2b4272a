//! The benchmark's load generator: one sender thread and one receiver
//! thread over a single connected control socket.
//!
//! Open loop: the sender sleeps to each op's due time (seeded Poisson
//! arrivals, drawn by the caller) and sends regardless of replies, so a
//! stalled daemon faces a growing queue. Every latency is timed from
//! the due time, not the actual send, which charges the stall to every
//! request it delays; how late the sender itself ran is kept apart.
//! Closed loop (used only to pre-load objects, never measured) keeps a
//! fixed number of requests in flight. Every clock read goes through
//! [`WallClock`].

use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use mpil_harness::WallClock;
use mpild::proto::{CtrlRequest, CtrlResponse};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::procfs::own_thread_cpu_ns;
use crate::trace::Spans;

/// Receive wait of the generator's socket; bounds how long the receiver
/// takes to notice the end of a phase, never a reply's latency.
pub const RECV_WAIT: Duration = Duration::from_millis(20);

/// One request and when it is due, relative to the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Due time since the phase started (ignored in closed loop).
    pub due: Duration,
    /// The request.
    pub req: CtrlRequest,
}

/// A reply and when the receiver got it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Receipt time since the phase started.
    pub at: Duration,
    /// The decoded response.
    pub resp: CtrlResponse,
}

/// How the sender paces.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Send each op at its due time.
    Open,
    /// Keep this many ops in flight.
    Closed(usize),
}

/// Everything one phase observed.
#[derive(Debug)]
pub struct PhaseRun {
    /// The ops, in send order; op `i` carried token `base + i`.
    pub ops: Vec<Op>,
    /// Actual send time of each op.
    pub sent_at: Vec<Duration>,
    /// First reply of each op, if any arrived before the phase ended.
    pub replies: Vec<Option<Reply>>,
    /// Replies carrying a token this client never sent.
    pub stray: u64,
    /// Second replies for one token.
    pub duplicate: u64,
    /// Replies that failed to decode.
    pub undecodable: u64,
    /// CPU the two generator threads used.
    pub gen_cpu_ns: u64,
    /// Phase start to the last reply (or the give-up point).
    pub wall: Duration,
    /// Spans recorded by the generator threads.
    pub spans: Spans,
}

impl PhaseRun {
    /// Due-to-reply latency of op `i` in ms; `INFINITY` for a missing
    /// reply or for one `ok` rejects.
    pub fn latency_ms(&self, i: usize, ok: impl Fn(&CtrlResponse) -> bool) -> f64 {
        match &self.replies[i] {
            Some(r) if ok(&r.resp) => (r.at.saturating_sub(self.ops[i].due)).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How late the sender issued each op, in ms.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.ops
            .iter()
            .zip(&self.sent_at)
            .map(|(op, sent)| sent.saturating_sub(op.due).as_secs_f64() * 1e3)
            .collect()
    }
}

/// `count` Poisson arrival times at `rate_per_s`, starting after one gap.
pub fn poisson_dues(count: usize, rate_per_s: f64, seed: u64) -> Vec<Duration> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_per_s;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Runs one phase: sends `ops` with tokens `base..`, collects replies
/// until all have arrived or `grace` has passed since the last send.
///
/// # Errors
///
/// Socket failures on send, or on cloning the socket for the receiver.
pub fn run_phase(
    sock: &UdpSocket,
    base: u64,
    ops: Vec<Op>,
    pacing: Pacing,
    grace: Duration,
    traced: bool,
) -> std::io::Result<PhaseRun> {
    let n = ops.len();
    let rx = sock.try_clone()?;
    let clock = WallClock::start();
    // Incremented before each send, so a reply can never outrun it.
    let issued = AtomicUsize::new(0);
    let answered = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let last_send_ns = AtomicU64::new(0);

    let (send_out, recv_out) = std::thread::scope(|s| {
        let sender = std::thread::Builder::new()
            .name("perfbench-send".into())
            .spawn_scoped(s, || {
                let mut spans = Spans::new(traced);
                let mut sent_at = Vec::with_capacity(n);
                let mut result = Ok(());
                for (i, op) in ops.iter().enumerate() {
                    match pacing {
                        Pacing::Open => loop {
                            let now = clock.elapsed();
                            if now >= op.due {
                                break;
                            }
                            std::thread::sleep(op.due - now);
                        },
                        Pacing::Closed(window) => {
                            while i - answered.load(Ordering::Acquire) >= window {
                                std::thread::sleep(Duration::from_micros(100));
                            }
                        }
                    }
                    let token = base + i as u64;
                    let t0 = clock.elapsed();
                    let frame = op.req.encode(token);
                    let t1 = clock.elapsed();
                    issued.store(i + 1, Ordering::Release);
                    if let Err(e) = sock.send(&frame) {
                        result = Err(e);
                        break;
                    }
                    let t2 = clock.elapsed();
                    spans.record(token, "ctrl.encode", "request", t0, t1);
                    spans.record(token, "ctrl.send", "request", t1, t2);
                    sent_at.push(t1);
                }
                last_send_ns.store(clock.elapsed().as_nanos() as u64, Ordering::Release);
                sender_done.store(true, Ordering::Release);
                (result, sent_at, spans, own_thread_cpu_ns())
            })
            .expect("spawn sender thread");
        let receiver = std::thread::Builder::new()
            .name("perfbench-recv".into())
            .spawn_scoped(s, || {
                let mut spans = Spans::new(traced);
                let mut replies: Vec<Option<Reply>> = vec![None; n];
                let (mut stray, mut duplicate, mut undecodable) = (0u64, 0u64, 0u64);
                let mut last_reply = Duration::ZERO;
                let mut buf = [0u8; 512];
                loop {
                    if answered.load(Ordering::Relaxed) == n {
                        break;
                    }
                    if sender_done.load(Ordering::Acquire) {
                        let last = Duration::from_nanos(last_send_ns.load(Ordering::Acquire));
                        if clock.elapsed() > last + grace {
                            break;
                        }
                    }
                    let Ok(len) = rx.recv(&mut buf) else {
                        continue; // receive wait elapsed
                    };
                    let at = clock.elapsed();
                    let decoded = CtrlResponse::decode(&buf[..len]);
                    let t_dec = clock.elapsed();
                    let Ok((token, resp)) = decoded else {
                        undecodable += 1;
                        continue;
                    };
                    let idx = token.wrapping_sub(base) as usize;
                    if token < base || idx >= issued.load(Ordering::Acquire) {
                        stray += 1;
                        continue;
                    }
                    if replies[idx].is_some() {
                        duplicate += 1;
                        continue;
                    }
                    spans.record(token, "ctrl.decode", "request", at, t_dec);
                    replies[idx] = Some(Reply { at, resp });
                    last_reply = at;
                    answered.fetch_add(1, Ordering::Release);
                }
                (
                    replies,
                    stray,
                    duplicate,
                    undecodable,
                    last_reply,
                    spans,
                    own_thread_cpu_ns(),
                )
            })
            .expect("spawn receiver thread");
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    let (result, sent_at, mut spans, send_cpu) = send_out;
    result?;
    let (replies, stray, duplicate, undecodable, last_reply, recv_spans, recv_cpu) = recv_out;
    spans.absorb(recv_spans);
    let wall = if answered.load(Ordering::Relaxed) == n {
        last_reply
    } else {
        clock.elapsed()
    };
    let mut run = PhaseRun {
        ops,
        sent_at,
        replies,
        stray,
        duplicate,
        undecodable,
        gen_cpu_ns: send_cpu + recv_cpu,
        wall,
        spans,
    };
    if traced {
        // Root span per request (due to reply) and the part spent past
        // the socket: daemon queueing, cluster, and the reply path.
        for i in 0..n {
            if let Some(r) = run.replies[i] {
                let token = base + i as u64;
                run.spans.record(token, "request", "", run.ops[i].due, r.at);
                run.spans
                    .record(token, "service", "request", run.sent_at[i], r.at);
            }
        }
    }
    Ok(run)
}
