//! The service workloads: a 48-node `mpild` behind a loopback-UDP
//! control plane, driven by [`crate::gen`].
//!
//! One run spawns 21 daemons on the same seed. Each gives a set-up
//! sample (`Daemon::spawn` through the first `Stats` reply). Daemon A
//! serves the measured announce phase alone, so its `DaemonReport`
//! prices an announce exactly. Daemon B is pre-loaded with the same
//! announces (closed loop, unmeasured), then serves the measured
//! base-rate lookups (with churn on `svc-churn`), so its report prices a
//! lookup. Daemon C, pre-loaded the same way, serves the capacity
//! ladder, whose length depends on where it stops. All are drained; the
//! client's own counts must reconcile with the `DaemonReport` of every
//! daemon but C, which is driven into overload on purpose.

use std::net::UdpSocket;
use std::time::Duration;

use mpil_harness::{OverlaySource, PerturbRun, Scenario, WallClock};
use mpil_id::Id;
use mpil_net::TransportKind;
use mpild::proto::{err_code, CtrlRequest, CtrlResponse};
use mpild::{Daemon, DaemonConfig, DaemonReport, UdpControl};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::gen::{self, Op, Pacing, PhaseRun};
use crate::procfs::{ms, process_cpu_s, ThreadCpu};
use crate::stats::{median, p50_p99, Outcome};
use crate::trace::Spans;

/// Name of the daemon thread, for per-thread CPU attribution.
pub const DAEMON_THREAD: &str = "mpild";

/// Base-rate arrivals per second (announces and lookups).
const BASE_RATE: f64 = 100.0;
/// Capacity-ladder latency limit on p99, ms.
const LADDER_P99_MS: f64 = 50.0;
/// Capacity-ladder success floor, %.
const LADDER_SUCCESS_PCT: f64 = 99.9;
/// Highest ladder rung tried.
const LADDER_MAX_RATE: f64 = 12_800.0;
/// Churn: every period, perturb this many seeded nodes for `CHURN_LENGTH`.
/// The length exceeds the default 150 ms retry period by a little, so a
/// retry can still meet its origin perturbed, but at most 0.3% of
/// lookups wait two periods. Near 1%, p99 flipped between one and two
/// periods from seed to seed (see perfbench/README.md).
const CHURN_PERIOD: Duration = Duration::from_millis(250);
const CHURN_NODES: usize = 2;
const CHURN_LENGTH: Duration = Duration::from_millis(160);
/// Replies later than this after the last send count as missing.
const GRACE: Duration = Duration::from_secs(3);
/// Daemon spawns per run, each one a set-up sample.
const SETUP_SAMPLES: usize = 21;
const STATS_TOKEN: u64 = 1;
const DRAIN_TOKEN: u64 = 2;

/// Which service workload.
#[derive(Debug, Clone, Copy)]
pub struct SvcSpec {
    /// Data-plane transport of the cluster.
    pub transport: TransportKind,
    /// Perturb nodes during the base-rate lookups.
    pub churn: bool,
    /// Announces (and objects) per run.
    pub announces: usize,
    /// Base-rate lookups per run.
    pub lookups: usize,
    /// Lookups per capacity-ladder rung, at least 1000 so that p99 has
    /// ten samples beyond it; 0 runs no ladder.
    pub rung_ops: usize,
}

impl SvcSpec {
    fn daemon_config(&self, seed: u64) -> DaemonConfig {
        DaemonConfig {
            seed,
            transport: self.transport,
            ..DaemonConfig::default()
        }
    }
}

/// A daemon under test and its client socket.
struct Live {
    sock: UdpSocket,
    handle: std::thread::JoinHandle<Result<(Duration, DaemonReport), String>>,
    setup_s: f64,
    next_token: u64,
    /// Client-side tallies for reconciliation with the `DaemonReport`.
    tally: Tally,
}

#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    announced: u64,
    announce_timeouts: u64,
    hits: u64,
    not_found: u64,
    perturbs_ok: u64,
    /// Replies of a kind that cannot answer their request.
    mismatched: u64,
    stray: u64,
    duplicate: u64,
    undecodable: u64,
}

impl Live {
    /// Spawns a daemon and waits for its first `Stats` reply.
    fn start(config: DaemonConfig) -> Result<Live, String> {
        let ctrl = UdpControl::bind(0).map_err(|e| format!("ctrl bind: {e}"))?;
        let addr = ctrl.local_addr().map_err(|e| format!("ctrl addr: {e}"))?;
        let sock = UdpSocket::bind(("127.0.0.1", 0)).map_err(|e| format!("client bind: {e}"))?;
        sock.connect(addr).map_err(|e| format!("connect: {e}"))?;
        sock.set_read_timeout(Some(gen::RECV_WAIT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let clock = WallClock::start();
        let handle = std::thread::Builder::new()
            .name(DAEMON_THREAD.into())
            .spawn(move || {
                let t = WallClock::start();
                let daemon = Daemon::spawn(config, ctrl).map_err(|e| e.to_string())?;
                let spawn = t.elapsed();
                Ok((spawn, daemon.run()))
            })
            .map_err(|e| format!("daemon thread: {e}"))?;
        sock.send(&CtrlRequest::Stats.encode(STATS_TOKEN))
            .map_err(|e| format!("stats send: {e}"))?;
        let mut buf = [0u8; 512];
        loop {
            if clock.elapsed() > Duration::from_secs(30) {
                return Err("no Stats reply within 30 s".into());
            }
            if let Ok(len) = sock.recv(&mut buf) {
                if let Ok((STATS_TOKEN, CtrlResponse::Stats(_))) = CtrlResponse::decode(&buf[..len])
                {
                    break;
                }
                return Err("unexpected reply to the first Stats request".into());
            }
        }
        Ok(Live {
            sock,
            handle,
            setup_s: clock.elapsed_s(),
            next_token: 1000,
            tally: Tally::default(),
        })
    }

    /// Runs one phase on this daemon and folds its replies into the tally.
    fn phase(&mut self, ops: Vec<Op>, pacing: Pacing, traced: bool) -> Result<PhaseRun, String> {
        let base = self.next_token;
        self.next_token += ops.len() as u64 + 1000;
        let run = gen::run_phase(&self.sock, base, ops, pacing, GRACE, traced)
            .map_err(|e| format!("generator: {e}"))?;
        let t = &mut self.tally;
        t.stray += run.stray;
        t.duplicate += run.duplicate;
        t.undecodable += run.undecodable;
        for (op, reply) in run.ops.iter().zip(&run.replies) {
            match (op.req, reply.map(|r| r.resp)) {
                (CtrlRequest::Announce { .. }, Some(CtrlResponse::Announced { .. })) => {
                    t.announced += 1;
                }
                (
                    CtrlRequest::Announce { .. },
                    Some(CtrlResponse::Err {
                        code: err_code::TIMEOUT,
                    }),
                ) => t.announce_timeouts += 1,
                (CtrlRequest::Lookup { .. }, Some(CtrlResponse::Found { .. })) => t.hits += 1,
                (CtrlRequest::Lookup { .. }, Some(CtrlResponse::NotFound)) => t.not_found += 1,
                (CtrlRequest::Perturb { .. }, Some(CtrlResponse::Ok)) => t.perturbs_ok += 1,
                // Missing and error replies count as failed operations.
                (_, None | Some(CtrlResponse::Err { .. })) => {}
                _ => t.mismatched += 1,
            }
        }
        Ok(run)
    }

    /// Drains the daemon and returns its spawn time and final account.
    fn stop(self) -> Result<(Duration, DaemonReport, Tally), String> {
        let drain = CtrlRequest::Drain { millis: 3000 };
        self.sock
            .send(&drain.encode(DRAIN_TOKEN))
            .map_err(|e| format!("drain send: {e}"))?;
        let (spawn, report) = self
            .handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())??;
        Ok((spawn, report, self.tally))
    }
}

/// Checks that the client's tally reconciles with the daemon's report.
fn reconcile(out: &mut Outcome, who: &str, t: &Tally, r: &DaemonReport) {
    let s = &r.stats;
    let pairs = [
        ("announces", t.announced, s.announces),
        (
            "announce timeouts",
            t.announce_timeouts,
            s.announce_timeouts,
        ),
        ("hits", t.hits, s.hits),
        ("lookup timeouts", t.not_found, s.lookup_timeouts),
        ("perturbs", t.perturbs_ok, r.perturbs),
    ];
    for (what, client, daemon) in pairs {
        out.check(client == daemon, || {
            format!("{who}: client saw {client} {what}, DaemonReport says {daemon}")
        });
    }
    check_replies(out, who, t);
    out.check(r.bad_requests == 0, || {
        format!("{who}: daemon counted {} bad requests", r.bad_requests)
    });
    out.check(r.aborted_at_drain == 0, || {
        format!("{who}: {} requests aborted at drain", r.aborted_at_drain)
    });
}

/// Checks that every reply the client received answers a request it
/// sent, once, with a reply of the request's kind.
fn check_replies(out: &mut Outcome, who: &str, t: &Tally) {
    out.check(t.stray == 0, || {
        format!("{who}: {} replies carry a token never sent", t.stray)
    });
    out.check(t.duplicate == 0, || {
        format!("{who}: {} duplicate replies", t.duplicate)
    });
    out.check(t.undecodable == 0, || {
        format!("{who}: {} undecodable replies", t.undecodable)
    });
    out.check(t.mismatched == 0, || {
        format!(
            "{who}: {} replies do not answer their request",
            t.mismatched
        )
    });
}

/// Frames the cluster's nodes sent: forwards plus client-bound replies
/// and store acks.
fn frames_sent(r: &DaemonReport) -> u64 {
    r.node_stats
        .iter()
        .map(|s| s.forwards + s.replies + s.store_acks)
        .sum()
}

fn frames_processed(r: &DaemonReport) -> u64 {
    r.node_stats.iter().map(|s| s.frames).sum()
}

/// One ladder rung (or the base phase taken as one): its lookup p99,
/// failures counted as misses, and whether success stayed above the
/// floor with no growing backlog.
struct Rung {
    p99_ms: f64,
    sustained: bool,
}

impl Rung {
    fn of(run: &PhaseRun) -> Rung {
        let lat: Vec<f64> = (0..run.ops.len())
            .filter(|&i| is_lookup(&run.ops[i].req))
            .map(|i| run.latency_ms(i, is_hit))
            .collect();
        let n = lat.len().max(1);
        let ok = lat.iter().filter(|l| l.is_finite()).count();
        let quarter = (n / 4).max(1).min(lat.len());
        let (first, _) = p50_p99(&lat[..quarter], f64::INFINITY);
        let (last, _) = p50_p99(&lat[lat.len() - quarter..], f64::INFINITY);
        let growing_backlog = last > 2.0 * first + 5.0;
        Rung {
            p99_ms: p50_p99(&lat, f64::INFINITY).1,
            sustained: 100.0 * ok as f64 / n as f64 >= LADDER_SUCCESS_PCT && !growing_backlog,
        }
    }

    fn holds(&self) -> bool {
        self.sustained && self.p99_ms <= LADDER_P99_MS
    }
}

/// The rate at which p99 reaches the limit, interpolated on a log-rate
/// scale between the highest held rung and the next one, when that one
/// failed on latency alone; otherwise the held rung itself. On a 2-CPU
/// container the 200/s rung's p99 sits near the limit and the bare rung
/// flips between runs; the crossing point moves far less.
fn crossing(held: f64, held_p99: f64, failed: &Rung) -> f64 {
    if held <= 0.0 || !failed.sustained || !failed.p99_ms.is_finite() || failed.p99_ms <= held_p99 {
        return held;
    }
    held * 2f64.powf((LADDER_P99_MS - held_p99) / (failed.p99_ms - held_p99))
}

fn is_hit(r: &CtrlResponse) -> bool {
    matches!(r, CtrlResponse::Found { .. })
}

fn is_announced(r: &CtrlResponse) -> bool {
    matches!(r, CtrlResponse::Announced { .. })
}

/// The seeded objects, each with its announce origin.
fn objects(spec: &SvcSpec, nodes: u32, seed: u64) -> Vec<(Id, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0b1e_c75e);
    (0..spec.announces)
        .map(|_| (Id::random(&mut rng), rng.gen_range(0..nodes)))
        .collect()
}

/// Poisson lookups over the announced objects from random origins.
fn lookup_ops(objects: &[(Id, u32)], count: usize, rate: f64, nodes: u32, seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    gen::poisson_dues(count, rate, seed ^ 0x9e37)
        .into_iter()
        .map(|due| {
            let (object, _) = objects[rng.gen_range(0..objects.len())];
            Op {
                due,
                req: CtrlRequest::Lookup {
                    object,
                    origin: rng.gen_range(0..nodes),
                },
            }
        })
        .collect()
}

/// Merges the churn volleys into a lookup schedule, in due order. The
/// volleys depend on the seed alone; lookup origins stay as drawn, so a
/// lookup may enter through a node that is perturbed then, or when the
/// daemon retries it through the same origin.
fn with_churn(mut ops: Vec<Op>, nodes: u32, seed: u64) -> Vec<Op> {
    let end = ops.last().map_or(Duration::ZERO, |op| op.due);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xc4b2_9ce5);
    let mut at = CHURN_PERIOD;
    while at < end {
        for _ in 0..CHURN_NODES {
            ops.push(Op {
                due: at,
                req: CtrlRequest::Perturb {
                    node: rng.gen_range(0..nodes),
                    millis: CHURN_LENGTH.as_millis() as u32,
                },
            });
        }
        at += CHURN_PERIOD;
    }
    ops.sort_by_key(|op| op.due);
    ops
}

/// Latencies of the ops whose request matches `want`, failures as misses.
fn latencies(
    run: &PhaseRun,
    want: fn(&CtrlRequest) -> bool,
    ok: fn(&CtrlResponse) -> bool,
) -> Vec<f64> {
    (0..run.ops.len())
        .filter(|&i| want(&run.ops[i].req))
        .map(|i| run.latency_ms(i, ok))
        .collect()
}

fn is_lookup(r: &CtrlRequest) -> bool {
    matches!(r, CtrlRequest::Lookup { .. })
}

fn is_announce(r: &CtrlRequest) -> bool {
    matches!(r, CtrlRequest::Announce { .. })
}

/// What one service run measured, before it becomes metrics.
#[derive(Debug, Default)]
pub struct SvcFigures {
    /// Set-up samples, s.
    pub setup_s: Vec<f64>,
    /// `Daemon::spawn` samples, s.
    pub spawn_s: Vec<f64>,
    /// Announce latencies, ms (failures infinite).
    pub announce_ms: Vec<f64>,
    /// Base-rate lookup latencies, ms (failures infinite).
    pub lookup_ms: Vec<f64>,
    /// Fixed-work ops issued.
    pub issued: u64,
    /// Fixed-work ops answered positively.
    pub succeeded: u64,
    /// Fixed-work ops with no reply or an error reply.
    pub failed: u64,
    /// Rate at which the ladder's p99 reaches the limit, ops/s (0 when
    /// no ladder ran).
    pub max_rate: f64,
    /// Wall seconds of the announce and base-lookup phases.
    pub announce_wall_s: f64,
    /// See above.
    pub lookup_wall_s: f64,
    /// Process CPU over the fixed-work phases, s.
    pub cpu_s: f64,
    /// Per-thread CPU over the fixed-work phases.
    pub threads: ThreadCpu,
    /// Generator-thread CPU over the fixed-work phases, ns.
    pub gen_cpu_ns: u64,
    /// Generator lateness samples over the fixed-work phases, ms.
    pub late_ms: Vec<f64>,
    /// Frames nodes sent for the announces (daemon A) and for the
    /// pre-load plus base lookups (daemon B).
    pub frames_a: u64,
    /// See above.
    pub frames_b: u64,
    /// Frames nodes processed (A + B).
    pub frames_processed: u64,
    /// Data-plane retries daemon B issued.
    pub b_retries: u64,
    /// Found hops of base-rate lookups.
    pub hops: Vec<f64>,
    /// Frames nodes dropped while perturbed (B).
    pub dropped_perturbed: u64,
    /// Heap allocations during the fixed-work phases.
    pub allocs: u64,
    /// Spans of the traced run.
    pub spans: Spans,
}

/// Runs a fixed-work phase on `live`, charging its CPU, allocations,
/// generator lateness and spans to the run's totals.
fn fixed_phase(
    live: &mut Live,
    ops: Vec<Op>,
    traced: bool,
    f: &mut SvcFigures,
) -> Result<PhaseRun, String> {
    let (cpu0, thr0, alloc0) = (process_cpu_s(), ThreadCpu::sample(), mpil_alloc::snapshot());
    let mut run = live.phase(ops, Pacing::Open, traced)?;
    f.cpu_s += process_cpu_s() - cpu0;
    f.threads.add(ThreadCpu::sample().since(thr0));
    f.allocs += mpil_alloc::snapshot().since(alloc0).allocs;
    f.gen_cpu_ns += run.gen_cpu_ns;
    f.late_ms.extend(run.lateness_ms());
    f.spans.absorb(std::mem::take(&mut run.spans));
    Ok(run)
}

/// Runs one service workload.
///
/// # Errors
///
/// A daemon that fails to start or a control socket that dies.
pub fn run(
    spec: &SvcSpec,
    seed: u64,
    traced: bool,
    out: &mut Outcome,
) -> Result<SvcFigures, String> {
    let config = spec.daemon_config(seed);
    let nodes = config.nodes as u32;
    let objects = objects(spec, nodes, seed);
    let mut f = SvcFigures {
        spans: Spans::new(traced),
        ..SvcFigures::default()
    };

    for _ in 0..SETUP_SAMPLES - 3 {
        let live = Live::start(config)?;
        f.setup_s.push(live.setup_s);
        let (spawn, report, tally) = live.stop()?;
        f.spawn_s.push(spawn.as_secs_f64());
        reconcile(out, "idle daemon", &tally, &report);
    }

    // Daemon A: the measured announce phase alone.
    let mut a = Live::start(config)?;
    f.setup_s.push(a.setup_s);
    let announce_ops: Vec<Op> = gen::poisson_dues(objects.len(), BASE_RATE, seed ^ 0xa11c)
        .into_iter()
        .zip(&objects)
        .map(|(due, &(object, origin))| Op {
            due,
            req: CtrlRequest::Announce { object, origin },
        })
        .collect();
    let run_a = fixed_phase(&mut a, announce_ops.clone(), traced, &mut f)?;
    f.announce_ms = latencies(&run_a, is_announce, is_announced);
    f.announce_wall_s = run_a.wall.as_secs_f64();
    let (spawn, report_a, tally_a) = a.stop()?;
    f.spawn_s.push(spawn.as_secs_f64());
    reconcile(out, "daemon A", &tally_a, &report_a);
    f.frames_a = frames_sent(&report_a);
    f.frames_processed += frames_processed(&report_a);

    // Daemon B: pre-load, then the base-rate lookups.
    let mut b = Live::start(config)?;
    f.setup_s.push(b.setup_s);
    preload(&mut b, &announce_ops, "daemon B", out)?;
    let mut base = lookup_ops(&objects, spec.lookups, BASE_RATE, nodes, seed ^ 0x100c);
    if spec.churn {
        base = with_churn(base, nodes, seed);
    }
    let run_b = fixed_phase(&mut b, base, traced, &mut f)?;
    f.lookup_ms = latencies(&run_b, is_lookup, is_hit);
    f.lookup_wall_s = run_b.wall.as_secs_f64();
    // The retried tail by depth: answered after one and after two retry
    // periods, and not answered.
    let period = ms(config.retry.timeout);
    let beyond =
        |from: f64, to: f64| f.lookup_ms.iter().filter(|&&l| l > from && l <= to).count() as f64;
    out.note("lookups.after_1_retry", beyond(period, 2.0 * period));
    out.note("lookups.after_2_retries", beyond(2.0 * period, f64::MAX));
    out.note("lookups.unanswered", beyond(f64::MAX, f64::INFINITY));
    f.hops = run_b
        .replies
        .iter()
        .flatten()
        .filter_map(|r| match r.resp {
            CtrlResponse::Found { hops, .. } => Some(f64::from(hops)),
            _ => None,
        })
        .collect();
    let (spawn, report_b, tally_b) = b.stop()?;
    f.spawn_s.push(spawn.as_secs_f64());
    reconcile(out, "daemon B", &tally_b, &report_b);
    f.frames_b = frames_sent(&report_b);
    f.frames_processed += frames_processed(&report_b);
    f.b_retries = report_b.stats.retries;
    f.dropped_perturbed = report_b
        .node_stats
        .iter()
        .map(|s| s.dropped_perturbed)
        .sum();

    // Fixed-work accounting: announces on A plus base lookups on B.
    for run in [&run_a, &run_b] {
        for (op, reply) in run.ops.iter().zip(&run.replies) {
            if matches!(op.req, CtrlRequest::Perturb { .. }) {
                continue;
            }
            f.issued += 1;
            match reply.map(|r| r.resp) {
                Some(CtrlResponse::Announced { .. } | CtrlResponse::Found { .. }) => {
                    f.succeeded += 1
                }
                Some(CtrlResponse::NotFound) => {}
                _ => f.failed += 1,
            }
        }
    }
    out.note(
        "gen.late_max_ms",
        f.late_ms.iter().copied().fold(0.0, f64::max),
    );

    // Daemon C: the capacity ladder, on a quiet cluster. svc-udp's base
    // phase ran on an identical daemon and is its 100/s rung.
    if spec.rung_ops > 0 {
        let mut c = Live::start(config)?;
        f.setup_s.push(c.setup_s);
        preload(&mut c, &announce_ops, "daemon C", out)?;
        f.max_rate = ladder(&mut c, spec, &objects, nodes, seed, &run_b, out)?;
        let (spawn, _, tally_c) = c.stop()?;
        f.spawn_s.push(spawn.as_secs_f64());
        // Overload may lose replies (kernel drops, replies after the
        // grace period), so C's counts need not reconcile; its replies
        // must still answer requests that were sent.
        check_replies(out, "daemon C", &tally_c);
    }
    Ok(f)
}

/// Stores every object on `live` (closed loop, unmeasured).
fn preload(live: &mut Live, announces: &[Op], who: &str, out: &mut Outcome) -> Result<(), String> {
    let run = live.phase(announces.to_vec(), Pacing::Closed(8), false)?;
    let stored = run
        .replies
        .iter()
        .flatten()
        .filter(|r| is_announced(&r.resp))
        .count();
    out.check(stored == announces.len(), || {
        format!(
            "{who}: pre-load stored {stored} of {} objects",
            announces.len()
        )
    });
    Ok(())
}

/// Runs the doubling Poisson ladder on `live` and returns its limit
/// rate. `base` is the quiet 100/s rung when the base phase was quiet.
fn ladder(
    live: &mut Live,
    spec: &SvcSpec,
    objects: &[(Id, u32)],
    nodes: u32,
    seed: u64,
    base: &PhaseRun,
    out: &mut Outcome,
) -> Result<f64, String> {
    let base_rung = Rung::of(base);
    let (mut rate, mut held, mut held_p99) = if spec.churn {
        (BASE_RATE, 0.0, 0.0)
    } else if base_rung.holds() {
        (2.0 * BASE_RATE, BASE_RATE, base_rung.p99_ms)
    } else {
        (f64::INFINITY, 0.0, 0.0)
    };
    let mut max_rate = held;
    let mut step = 0u64;
    while rate <= LADDER_MAX_RATE {
        step += 1;
        let ops = lookup_ops(
            objects,
            spec.rung_ops,
            rate,
            nodes,
            seed ^ (0x1add << 8) ^ step,
        );
        let run = live.phase(ops, Pacing::Open, false)?;
        let rung = Rung::of(&run);
        out.note(format!("ladder.{rate}.p99_ms"), rung.p99_ms);
        if !rung.holds() {
            max_rate = crossing(held, held_p99, &rung);
            break;
        }
        (held, held_p99) = (rate, rung.p99_ms);
        max_rate = held;
        rate *= 2.0;
    }
    out.note("ladder.held_rung", held);
    Ok(max_rate)
}

/// Turns a service run into the result: end-to-end and per-layer metrics.
pub fn report(spec: &SvcSpec, f: &SvcFigures, out: &mut Outcome) {
    let announces = spec.announces as f64;
    let ops = (f.issued as f64).max(1.0);
    let ms_per_op = |ns: u64| ns as f64 / 1e6 / ops;
    let (a50, a99) = p50_p99(&f.announce_ms, ms(GRACE));
    let (l50, l99) = p50_p99(&f.lookup_ms, ms(GRACE));
    let ok_lookups = f.lookup_ms.iter().filter(|l| l.is_finite()).count() as f64;
    let ok_announces = f.announce_ms.iter().filter(|l| l.is_finite()).count() as f64;
    let per_insert = f.frames_a as f64 / announces;
    let per_lookup =
        (f.frames_b as f64 - per_insert * announces).max(0.0) / spec.lookups.max(1) as f64;
    out.attempted = f.issued;
    out.failed = f.failed;
    out.note("samples.announces", f.announce_ms.len() as f64);
    out.note("samples.lookups", f.lookup_ms.len() as f64);
    out.note("samples.setup", f.setup_s.len() as f64);

    let e = &mut out.end_to_end;
    e.put("setup_s", median(&f.setup_s), "s");
    e.put("lookup_p50_ms", l50, "ms");
    e.put("lookup_p99_ms", l99, "ms");
    e.put("announce_p50_ms", a50, "ms");
    e.put("announce_p99_ms", a99, "ms");
    e.put("success_pct", 100.0 * f.succeeded as f64 / ops, "%");
    e.put("max_rate_ops_per_s", f.max_rate, "ops/s");
    e.put("cpu_ms_per_op", 1e3 * f.cpu_s / ops, "ms");
    e.put(
        "peak_rss_mib",
        mpil_harness::peak_rss_mib().unwrap_or(0.0),
        "MiB",
    );
    e.put(
        "insert_ops_per_s",
        ok_announces / f.announce_wall_s.max(1e-9),
        "ops/s",
    );
    e.put(
        "lookup_ops_per_s",
        ok_lookups / f.lookup_wall_s.max(1e-9),
        "ops/s",
    );
    e.put("msgs_per_insert", per_insert, "msgs");
    e.put("msgs_per_lookup", per_lookup, "msgs");

    let stage_s = f.announce_wall_s + f.lookup_wall_s;
    let l = &mut out.per_layer;
    l.put("mpild.cpu_ms_per_op", ms_per_op(f.threads.daemon_ns), "ms");
    l.put("mpild.spawn_s", median(&f.spawn_s), "s");
    l.put(
        "mpild.retries_per_lookup",
        f.b_retries as f64 / spec.lookups.max(1) as f64,
        "count",
    );
    l.put(
        "net.node_cpu_ms_per_op",
        ms_per_op(f.threads.nodes_ns),
        "ms",
    );
    l.put(
        "net.forwards_per_op",
        (f.frames_a + f.frames_b) as f64 / (announces * 2.0 + spec.lookups as f64),
        "msgs",
    );
    l.put("net.hops_p50", median(&f.hops), "hops");
    l.put("net.dropped_perturbed", f.dropped_perturbed as f64, "count");
    l.put("core.insert_stage_s", f.announce_wall_s, "s");
    l.put("core.lookup_stage_s", f.lookup_wall_s, "s");
    l.put(
        "core.allocs_per_event",
        f.allocs as f64 / f.frames_processed.max(1) as f64,
        "count",
    );
    l.put("core.sent", (f.frames_a + f.frames_b) as f64, "count");
    l.put("sim.events", f.frames_processed as f64, "count");
    l.put(
        "sim.events_per_s",
        f.frames_processed as f64 / stage_s.max(1e-9),
        "1/s",
    );
    l.put("gen.late_p99_ms", p50_p99(&f.late_ms, 0.0).1, "ms");
    l.put("gen.cpu_ms_per_op", ms_per_op(f.gen_cpu_ns), "ms");
}

/// `Scenario::build` of the service's overlay in the simulator: the
/// harness counterpart of `Daemon::spawn`, timed for `harness.build_s`.
pub fn harness_build_s(seed: u64) -> f64 {
    let config = DaemonConfig::default();
    let mut run = PerturbRun::new(30, 30, 0.9);
    run.nodes = config.nodes;
    run.operations = 1;
    run.seed = seed;
    let scenario = Scenario::new(
        mpil_harness::EngineSpec::MpilOver(OverlaySource::RandomRegular(config.degree)),
        run,
    );
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let clock = WallClock::start();
            let prepared = scenario.build();
            let s = clock.elapsed_s();
            drop(prepared);
            s
        })
        .collect();
    median(&samples)
}
