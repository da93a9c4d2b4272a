//! The simulator workload: MPIL over a random 8-regular graph, through
//! `Scenario::build` and the `DiscoveryEngine` stages, following the
//! paper's two-stage method.
//!
//! Stage 1 inserts every object from the fixed origin on the quiet
//! network, one at a time, each run to quiescence and timed. Stage 2
//! flaps every node but the origin and issues lookups one at a time,
//! cycling over the objects, each timed from its issue through its
//! deadline. A lookup is issued a seeded random fraction of a flapping
//! period after the previous deadline. Issued exactly one period apart,
//! as `run_scenario` does, every lookup would meet each node at the same
//! point of its cycle. Success then hinged on which of the origin's
//! neighbours drew an offline phase: 73% on one seed, 99.7% on another.

use std::path::{Path, PathBuf};

use mpil_harness::{EngineSpec, OverlaySource, PerturbRun, PreparedRun, Scenario, WallClock};
use mpil_sim::{Flapping, FlappingConfig, LookupOutcome, SimDuration};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::procfs::process_cpu_s;
use crate::stats::{blocked_p99, median, p50_p99, Outcome};
use crate::trace::Spans;

/// Overlays per run, each built from its own seed derived from the run's.
/// Insert speed differs by about ±10% from one overlay to another, and by
/// up to half between back-to-back overlays on a busy host; nine average
/// both better than three did.
const OVERLAYS: usize = 9;
/// Objects checked for a replica after stage 1.
const REPLICA_CHECKS: usize = 200;
/// Consecutive blocks of per-op times whose p99s give the median p99.
const P99_BLOCKS: usize = 15;
/// One op in this many gets per-op spans in the traced run.
const SPAN_SAMPLE: usize = 64;

/// Sizes of one simulator run.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Overlay nodes.
    pub nodes: usize,
    /// Regular-graph degree.
    pub degree: usize,
    /// Objects inserted in stage 1.
    pub inserts: usize,
    /// Lookups issued in stage 2 (cycling over the objects).
    pub lookups: usize,
    /// Flapping probability.
    pub probability: f64,
}

impl SimSpec {
    fn scenario(&self, seed: u64) -> Scenario {
        let mut run = PerturbRun::new(30, 30, self.probability);
        run.nodes = self.nodes;
        run.operations = self.inserts;
        run.seed = seed;
        Scenario::new(
            EngineSpec::MpilOver(OverlaySource::RandomRegular(self.degree)),
            run,
        )
    }
}

/// What one simulator run measured.
#[derive(Debug, Default)]
pub struct SimFigures {
    /// `Scenario::build` samples, s.
    pub setup_s: Vec<f64>,
    /// Per-insert wall times, ms.
    pub insert_ms: Vec<f64>,
    /// Per-lookup wall times, ms.
    pub lookup_ms: Vec<f64>,
    /// Stage wall times, s.
    pub insert_stage_s: f64,
    /// See above.
    pub lookup_stage_s: f64,
    /// Process CPU over both stages, s.
    pub cpu_s: f64,
    /// Lookups that succeeded.
    pub successes: u64,
    /// Stage-attributed message counts (harness `Counters`).
    pub insert_messages: u64,
    /// See above.
    pub lookup_messages: u64,
    /// Kernel sends, deliveries + timer fires, offline drops (stages).
    pub sent: u64,
    /// See above.
    pub events: u64,
    /// See above.
    pub dropped_offline: u64,
    /// Heap allocations over both stages.
    pub allocs: u64,
    /// Hops of successful lookups.
    pub hops: Vec<f64>,
    /// Spans of the traced run.
    pub spans: Spans,
}

/// Stage 1: inserts from the origin, each run to quiescence. Returns the
/// counters after the first `checkpoint` inserts.
fn stage1(
    p: &mut PreparedRun,
    limit: usize,
    checkpoint: usize,
    f: &mut SimFigures,
    clock: &WallClock,
) -> u64 {
    let mut at_checkpoint = 0;
    for (i, &object) in p.objects.iter().take(limit).enumerate() {
        let t0 = clock.elapsed();
        p.engine.insert(p.origin, object);
        let t1 = clock.elapsed();
        p.engine.run_to_quiescence();
        let t2 = clock.elapsed();
        f.insert_ms.push((t2 - t0).as_secs_f64() * 1e3);
        if i % SPAN_SAMPLE == 0 {
            f.spans.record(i as u64, "core.insert", "", t0, t2);
            f.spans
                .record(i as u64, "harness.insert", "core.insert", t0, t1);
            f.spans
                .record(i as u64, "sim.run_to_quiescence", "core.insert", t1, t2);
        }
        if i + 1 == checkpoint {
            at_checkpoint = p.engine.counters().insert_messages;
        }
    }
    at_checkpoint
}

/// Runs the simulator workload: the same work split over [`OVERLAYS`]
/// overlays derived from `seed`, so that one graph's layout does not set
/// the run's speed.
pub fn run(
    spec: &SimSpec,
    seed: u64,
    traced: bool,
    state_dir: Option<&Path>,
    out: &mut Outcome,
) -> SimFigures {
    let mut f = SimFigures {
        spans: Spans::new(traced),
        ..SimFigures::default()
    };
    let clock = WallClock::start();
    let part = SimSpec {
        inserts: spec.inserts / OVERLAYS,
        lookups: spec.lookups / OVERLAYS,
        ..*spec
    };
    for k in 0..OVERLAYS as u64 {
        run_overlay(&part, seed * OVERLAYS as u64 + k, &mut f, &clock, out);
    }
    if let Some(dir) = state_dir {
        check_repeat(dir, spec, seed, &f, out);
    }
    f
}

/// `Scenario::build`, timed as one set-up sample.
fn timed_build(scenario: &Scenario, f: &mut SimFigures, clock: &WallClock) -> PreparedRun {
    let t0 = clock.elapsed();
    let prepared = scenario.build();
    let t1 = clock.elapsed();
    f.setup_s.push((t1 - t0).as_secs_f64());
    f.spans
        .record(scenario.run.seed, "harness.build", "", t0, t1);
    prepared
}

/// Builds one overlay and runs both stages on it, adding to `f`.
fn run_overlay(
    spec: &SimSpec,
    seed: u64,
    f: &mut SimFigures,
    clock: &WallClock,
    out: &mut Outcome,
) {
    let checkpoint = (spec.inserts / 20).max(1);

    // Two timed builds: the first replays the first inserts to check
    // that the counts repeat within the process too.
    let scenario = spec.scenario(seed);
    let mut replay = timed_build(&scenario, f, clock);
    let replay_count = stage1(
        &mut replay,
        checkpoint,
        checkpoint,
        &mut SimFigures::default(),
        clock,
    );
    drop(replay);
    let mut p = timed_build(&scenario, f, clock);

    let cpu0 = process_cpu_s();
    let alloc0 = mpil_alloc::snapshot();
    let stats0 = p.engine.net_stats();

    // Stage 1.
    let s1 = clock.elapsed();
    let at_checkpoint = stage1(&mut p, spec.inserts, checkpoint, f, clock);
    f.insert_stage_s += (clock.elapsed() - s1).as_secs_f64();
    f.spans
        .record(seed, "stage.insert", "", s1, clock.elapsed());
    out.check(at_checkpoint == replay_count, || {
        format!("stage-1 prefix sent {at_checkpoint} insert messages, its replay {replay_count}")
    });
    // `replica_count` scans every node, so check an evenly spaced sample.
    let stride = (p.objects.len() / REPLICA_CHECKS).max(1);
    let bare = p
        .objects
        .iter()
        .step_by(stride)
        .filter(|&&o| p.engine.replica_count(o) == 0)
        .count();
    out.check(bare == 0, || {
        format!("{bare} sampled objects have no replica after stage 1")
    });
    let insert_counters = p.engine.counters();

    // Stage 2: flapping (set up as `run_scenario` does), one lookup at
    // a time.
    let run = scenario.run;
    let flap_cfg = FlappingConfig {
        idle: SimDuration::from_secs(run.idle_secs),
        offline: SimDuration::from_secs(run.offline_secs),
        probability: run.probability,
        start: p.engine.now(),
    };
    let mut flap = Flapping::new(flap_cfg, run.nodes, run.seed ^ 0xf1a9, &mut p.rng);
    flap.exempt(p.origin);
    p.engine.set_availability(Box::new(flap));
    let period = run.period();
    let window = run.deadline_window();
    let mut offsets = SmallRng::seed_from_u64(seed ^ 0x1a95_0ff5);
    let s2 = clock.elapsed();
    let mut handles = Vec::with_capacity(spec.lookups);
    let mut at_period_end = Vec::with_capacity(spec.lookups);
    for j in 0..spec.lookups {
        // Each lookup waits a seeded fraction of a period after the
        // last one's deadline, so lookups sample every phase of the
        // flapping cycle.
        let gap = SimDuration::from_micros(offsets.gen_range(0..period.as_micros()));
        let issue_at = p.engine.now() + gap;
        p.engine.run_until(issue_at);
        let object = p.objects[j % p.objects.len()];
        let t0 = clock.elapsed();
        let handle = p.engine.issue_lookup(p.origin, object, issue_at + window);
        let t1 = clock.elapsed();
        p.engine.run_until(issue_at + window);
        let t2 = clock.elapsed();
        f.lookup_ms.push((t2 - t0).as_secs_f64() * 1e3);
        if j % SPAN_SAMPLE == 0 {
            let id = (seed << 32) | (spec.inserts + j) as u64;
            f.spans.record(id, "core.lookup", "", t0, t2);
            f.spans
                .record(id, "harness.issue_lookup", "core.lookup", t0, t1);
            f.spans.record(id, "sim.run_until", "core.lookup", t1, t2);
        }
        handles.push(handle);
        at_period_end.push(p.engine.lookup_outcome(handle));
    }
    let tail = p.engine.now() + window + SimDuration::from_secs(30);
    p.engine.run_until(tail);
    f.lookup_stage_s += (clock.elapsed() - s2).as_secs_f64();
    f.spans
        .record(seed, "stage.lookup", "", s2, clock.elapsed());

    f.cpu_s += process_cpu_s() - cpu0;
    f.allocs += mpil_alloc::snapshot().since(alloc0).allocs;
    let stats1 = p.engine.net_stats();
    f.sent += stats1.sent - stats0.sent;
    f.events += (stats1.delivered - stats0.delivered) + (stats1.timers_fired - stats0.timers_fired);
    f.dropped_offline += stats1.dropped_offline - stats0.dropped_offline;
    let counters = p.engine.counters();
    f.insert_messages += insert_counters.insert_messages;
    f.lookup_messages += counters.lookup_messages - insert_counters.lookup_messages;

    // `successes` counts the final outcomes; a count taken at each
    // deadline could differ only through an outcome that changed later.
    let mut changed = 0usize;
    for (&h, &early) in handles.iter().zip(&at_period_end) {
        let outcome = p.engine.lookup_outcome(h);
        if outcome != early {
            changed += 1;
        }
        if let LookupOutcome::Succeeded { hops, .. } = outcome {
            f.successes += 1;
            f.hops.push(f64::from(hops));
        }
    }
    out.check(changed == 0, || {
        format!("{changed} lookup outcomes changed after their deadline period")
    });
}

/// Compares this run's counts with an earlier run of the same binary,
/// seed and sizes, if one left them behind; otherwise records them.
fn check_repeat(dir: &Path, spec: &SimSpec, seed: u64, f: &SimFigures, out: &mut Outcome) {
    let path: PathBuf = dir.join(format!(
        "sim-{:016x}-seed{seed}-{}x{}.txt",
        exe_fingerprint(),
        spec.inserts,
        spec.lookups
    ));
    // Message and success counts must repeat exactly for one seed.
    let line = format!(
        "{} {} {}",
        f.insert_messages, f.lookup_messages, f.successes
    );
    match std::fs::read_to_string(&path) {
        Ok(earlier) => out.check(earlier.trim() == line, || {
            format!(
                "counts {line} differ from an earlier run of this seed ({})",
                earlier.trim()
            )
        }),
        Err(_) => {
            let _ = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &line));
        }
    }
}

/// FNV-1a hash of the running executable, so recorded counts are only
/// compared between runs of the same build.
fn exe_fingerprint() -> u64 {
    let bytes = std::fs::read("/proc/self/exe").unwrap_or_default();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Turns a simulator run into the result's metrics.
pub fn report(f: &SimFigures, out: &mut Outcome) {
    // Ops actually run: the overlays split the sizes with truncation.
    let (inserts, lookups) = (f.insert_ms.len() as f64, f.lookup_ms.len() as f64);
    let ops = inserts + lookups;
    let (i50, _) = p50_p99(&f.insert_ms, 0.0);
    let (l50, _) = p50_p99(&f.lookup_ms, 0.0);
    // Per-op times here are tens to hundreds of microseconds, so p99
    // catches every burst of host noise: over one pooled sample, insert
    // p99 spread by 0.21 of its median across six seeds, against 0.10
    // as the median of 15 block p99s in the same runs.
    let i99 = blocked_p99(&f.insert_ms, P99_BLOCKS, 0.0);
    let l99 = blocked_p99(&f.lookup_ms, P99_BLOCKS, 0.0);
    let stages_s = f.insert_stage_s + f.lookup_stage_s;
    out.attempted = ops as u64;
    out.failed = 0;
    out.note("samples.inserts", f.insert_ms.len() as f64);
    out.note("samples.lookups", f.lookup_ms.len() as f64);
    out.note("sim.successes", f.successes as f64);

    let e = &mut out.end_to_end;
    e.put("setup_s", median(&f.setup_s), "s");
    e.put("lookup_p50_ms", l50, "ms");
    e.put("lookup_p99_ms", l99, "ms");
    e.put("announce_p50_ms", i50, "ms");
    e.put("announce_p99_ms", i99, "ms");
    e.put("success_pct", 100.0 * f.successes as f64 / lookups, "%");
    e.put("max_rate_ops_per_s", ops / stages_s.max(1e-9), "ops/s");
    e.put("cpu_ms_per_op", 1e3 * f.cpu_s / ops, "ms");
    e.put(
        "peak_rss_mib",
        mpil_harness::peak_rss_mib().unwrap_or(0.0),
        "MiB",
    );
    e.put(
        "insert_ops_per_s",
        inserts / f.insert_stage_s.max(1e-9),
        "ops/s",
    );
    e.put(
        "lookup_ops_per_s",
        lookups / f.lookup_stage_s.max(1e-9),
        "ops/s",
    );
    e.put(
        "msgs_per_insert",
        f.insert_messages as f64 / inserts,
        "msgs",
    );
    e.put(
        "msgs_per_lookup",
        f.lookup_messages as f64 / lookups,
        "msgs",
    );

    let l = &mut out.per_layer;
    l.put("mpild.retries_per_lookup", 0.0, "count");
    l.put("net.forwards_per_op", f.sent as f64 / ops, "msgs");
    l.put("net.hops_p50", median(&f.hops), "hops");
    l.put("net.dropped_perturbed", f.dropped_offline as f64, "count");
    l.put("core.insert_stage_s", f.insert_stage_s, "s");
    l.put("core.lookup_stage_s", f.lookup_stage_s, "s");
    l.put(
        "core.allocs_per_event",
        f.allocs as f64 / f.events.max(1) as f64,
        "count",
    );
    l.put("core.sent", f.sent as f64, "count");
    l.put("sim.events", f.events as f64, "count");
    l.put(
        "sim.events_per_s",
        f.events as f64 / stages_s.max(1e-9),
        "1/s",
    );
    l.put("harness.build_s", median(&f.setup_s), "s");
}
