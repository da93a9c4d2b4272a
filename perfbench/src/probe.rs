//! Layer probes for the traced run: fixed loops over one layer's public
//! API, timed from outside. They do not depend on the workload.

use std::time::Duration;

use bytes::Bytes;
use mpil::{Message, MessageId, MessageKind};
use mpil_harness::WallClock;
use mpil_id::Id;
use mpil_net::{ChannelMesh, Transport, UdpMesh, WireMessage};
use mpil_overlay::{generators, NodeIdx};
use mpild::proto::{CtrlRequest, CtrlResponse};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::stats::{median, Metrics};

/// Nanoseconds per call of `f`, median over 5 batches of `iters`.
fn ns_per_call(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let clock = WallClock::start();
            for i in 0..iters {
                f(i);
            }
            clock.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&batches)
}

/// Median round trip (µs) of a 2-endpoint ping-pong through `mesh`.
fn rtt_us<T: Transport + 'static>(mut mesh: Vec<T>, rounds: usize) -> f64 {
    let echo = mesh.pop().expect("two endpoints");
    let ping = mesh.pop().expect("two endpoints");
    let wait = Duration::from_millis(200);
    let echoer = std::thread::spawn(move || {
        let mut served = 0;
        while served < rounds {
            match echo.recv_timeout(wait) {
                Ok(Some((from, payload))) => {
                    if echo.send(from, payload).is_err() {
                        break;
                    }
                    served += 1;
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
    });
    let payload = Bytes::from(vec![7u8; 64]);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let clock = WallClock::start();
        if ping.send(1, payload.clone()).is_err() {
            break;
        }
        match ping.recv_timeout(wait) {
            Ok(Some(_)) => samples.push(clock.elapsed().as_secs_f64() * 1e6),
            _ => break,
        }
    }
    let _ = echoer.join();
    median(&samples)
}

/// Runs every probe and records its metric.
pub fn run(metrics: &mut Metrics) {
    let object = Id::from_low_u64(0xfeed_beef);
    let req = CtrlRequest::Lookup { object, origin: 17 };
    metrics.put(
        "mpild.proto_encode_ns",
        ns_per_call(200_000, |i| {
            std::hint::black_box(req.encode(u64::from(i)));
        }),
        "ns",
    );
    let reply = CtrlResponse::Found { holder: 9, hops: 4 }.encode(12345);
    metrics.put(
        "mpild.proto_decode_ns",
        ns_per_call(200_000, |_| {
            std::hint::black_box(CtrlResponse::decode(std::hint::black_box(&reply)).is_ok());
        }),
        "ns",
    );
    let mut msg = Message::initial(
        MessageId(77),
        MessageKind::Lookup,
        object,
        NodeIdx::new(3),
        10,
        3,
    );
    for hop in [3u32, 9, 14, 27] {
        msg = msg.forwarded(NodeIdx::new(hop), 2);
    }
    let wire = WireMessage::Forward(msg);
    metrics.put(
        "net.codec_ns",
        ns_per_call(100_000, |_| {
            let frame = wire.encode().expect("route fits the wire format");
            std::hint::black_box(WireMessage::decode(&frame).is_ok());
        }),
        "ns",
    );
    let rounds = 2000;
    let udp = UdpMesh::build(2).map_or(0.0, |mesh| rtt_us(mesh, rounds));
    metrics.put("net.udp_rtt_us", udp, "us");
    metrics.put(
        "net.chan_rtt_us",
        rtt_us(ChannelMesh::build(2), rounds),
        "us",
    );
}

/// Median seconds of `generators::random_regular(nodes, degree)`.
pub fn overlay_build_s(nodes: usize, degree: usize, seed: u64, samples: usize) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let clock = WallClock::start();
            let topo = generators::random_regular(nodes, degree, &mut rng);
            let s = clock.elapsed_s();
            drop(topo);
            s
        })
        .collect();
    median(&times)
}
