//! `perfbench`: the repository benchmark's measuring program.
//!
//! ```text
//! perfbench --workload svc-udp|svc-churn|sim-mpil --seed N --seconds S
//!           --trace 0|1 [--trace-dir DIR] [--state-dir DIR]
//! ```
//!
//! Prints a detail line, then (last) the result line: `correct`,
//! `attempted`, `failed` and `metrics` — every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. Exits 1 when
//! an output check fails, 2 on bad arguments or a workload that could
//! not run. `perfbench/run.py` builds this program and adds the tracing
//! overhead; see `perfbench/README.md` for what each workload and
//! metric means.

mod gen;
mod probe;
mod procfs;
mod sim;
mod stats;
mod svc;
mod trace;

use std::path::PathBuf;

use mpil_net::TransportKind;

use crate::stats::Outcome;

/// Count every heap allocation, for `core.allocs_per_event`.
#[global_allocator]
static ALLOC: mpil_alloc::CountingAlloc = mpil_alloc::CountingAlloc;

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [&str; 13] = [
    "setup_s",
    "lookup_p50_ms",
    "lookup_p99_ms",
    "announce_p50_ms",
    "announce_p99_ms",
    "success_pct",
    "max_rate_ops_per_s",
    "cpu_ms_per_op",
    "peak_rss_mib",
    "insert_ops_per_s",
    "lookup_ops_per_s",
    "msgs_per_insert",
    "msgs_per_lookup",
];

/// Per-layer metrics, printed by every traced run.
const PER_LAYER: [&str; 24] = [
    "mpild.cpu_ms_per_op",
    "mpild.spawn_s",
    "mpild.retries_per_lookup",
    "mpild.proto_encode_ns",
    "mpild.proto_decode_ns",
    "net.udp_rtt_us",
    "net.chan_rtt_us",
    "net.codec_ns",
    "net.node_cpu_ms_per_op",
    "net.forwards_per_op",
    "net.hops_p50",
    "net.dropped_perturbed",
    "core.insert_stage_s",
    "core.lookup_stage_s",
    "core.allocs_per_event",
    "core.sent",
    "sim.events",
    "sim.events_per_s",
    "overlay.build_s",
    "harness.build_s",
    "gen.late_p99_ms",
    "gen.cpu_ms_per_op",
    "trace.spans",
    "trace.overhead_pct",
];

/// Service-layer metrics a simulator run takes from a small service
/// probe, because no service runs in the simulator workload itself.
const SERVICE_PROBE: [&str; 5] = [
    "mpild.cpu_ms_per_op",
    "mpild.spawn_s",
    "net.node_cpu_ms_per_op",
    "gen.late_p99_ms",
    "gen.cpu_ms_per_op",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
    trace_dir: Option<PathBuf>,
    state_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        traced: false,
        trace_dir: None,
        state_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.traced = value.parse::<u8>().map_err(bad)? != 0,
            "--trace-dir" => args.trace_dir = Some(value.into()),
            "--state-dir" => args.state_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn svc_spec(workload: &str, seconds: u64) -> Option<svc::SvcSpec> {
    // svc-udp's quiet p99 and its 200/s rung need more samples to hold
    // still from run to run; svc-churn's p99 sits inside the retried tail.
    let (transport, churn, lookups, rung_ops) = match workload {
        "svc-udp" => (TransportKind::Udp, false, 96, 1500),
        "svc-churn" => (TransportKind::Channel, true, 48, 1000),
        _ => return None,
    };
    Some(svc::SvcSpec {
        transport,
        churn,
        announces: (40 * seconds as usize).max(1000),
        lookups: (lookups * seconds as usize).max(1000),
        rung_ops,
    })
}

fn sim_spec(seconds: u64) -> sim::SimSpec {
    sim::SimSpec {
        nodes: 100_000,
        degree: 8,
        inserts: 1600 * seconds as usize,
        lookups: 40_000 * seconds as usize,
        probability: 0.9,
    }
}

fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    out.note("host.ref_ms", procfs::host_reference_ms());
    let spans = if let Some(spec) = svc_spec(&args.workload, args.seconds) {
        let figures = svc::run(&spec, args.seed, args.traced, out)?;
        svc::report(&spec, &figures, out);
        if args.traced {
            let config = mpild::DaemonConfig::default();
            out.per_layer.put(
                "overlay.build_s",
                probe::overlay_build_s(config.nodes, config.degree, args.seed, 5),
                "s",
            );
            out.per_layer
                .put("harness.build_s", svc::harness_build_s(args.seed), "s");
        }
        figures.spans
    } else if args.workload == "sim-mpil" {
        let spec = sim_spec(args.seconds);
        let figures = sim::run(
            &spec,
            args.seed,
            args.traced,
            args.state_dir.as_deref(),
            out,
        );
        sim::report(&figures, out);
        if args.traced {
            out.per_layer.put(
                "overlay.build_s",
                probe::overlay_build_s(spec.nodes, spec.degree, args.seed, 3),
                "s",
            );
            let mini = svc::SvcSpec {
                transport: TransportKind::Channel,
                churn: false,
                announces: 200,
                lookups: 300,
                rung_ops: 0,
            };
            let mut side = Outcome::default();
            let service = svc::run(&mini, args.seed, false, &mut side)?;
            svc::report(&mini, &service, &mut side);
            for (name, value, unit) in side.per_layer.0 {
                if SERVICE_PROBE.contains(&name) {
                    out.per_layer.put(name, value, unit);
                }
            }
            out.errors.extend(side.errors);
        }
        figures.spans
    } else {
        return Err(format!(
            "unknown --workload '{}' (svc-udp, svc-churn, sim-mpil)",
            args.workload
        ));
    };
    if args.traced {
        probe::run(&mut out.per_layer);
        out.per_layer
            .put("trace.spans", spans.len() as f64, "count");
        // Recording cost of the kept spans as a share of the CPU the
        // measured phases used.
        let cpu_ms = out
            .end_to_end
            .0
            .iter()
            .find(|(name, _, _)| *name == "cpu_ms_per_op")
            .map_or(0.0, |(_, v, _)| v * out.attempted as f64);
        let overhead_ms = spans.len() as f64 * trace::cost_ns() / 1e6;
        out.per_layer.put(
            "trace.overhead_pct",
            100.0 * overhead_ms / cpu_ms.max(1e-9),
            "%",
        );
        if let Some(dir) = &args.trace_dir {
            let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            spans
                .write_jsonl(&path)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    }
    for (name, value, _) in &out.end_to_end.0 {
        out.detail.push((format!("e2e.{name}"), *value));
    }
    for (name, value, _) in &out.per_layer.0 {
        out.detail.push((format!("layer.{name}"), *value));
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    if let Err(e) = run(&args, &mut out) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let expected: &[&str] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let printed = if args.traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for name in expected {
        let count = printed.0.iter().filter(|(n, _, _)| n == name).count();
        assert_eq!(count, 1, "metric {name} must be recorded exactly once");
    }
    assert_eq!(printed.0.len(), expected.len(), "unexpected extra metrics");
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", out.detail_json());
    println!("{}", out.result_json(args.traced));
    if !out.errors.is_empty() {
        std::process::exit(1);
    }
}
