//! The traced run: one figure per layer, at the selected workload's sizes,
//! plus the same-run reference rows (memcpy and raw Unix-socket roofline,
//! the p = 1 baseline) and the replay's span breakdown. Each figure is one
//! `metric` record; `run.py` attaches units and the end-to-end mapping.

use crate::replay::{self, median_ns, run_group};
use crate::trace::{self_times, Sink};
use crate::workload::Workload;
use crate::{median, rss_kib, Record};
use collectives::{AllreduceAlgo, ReduceOp};
use std::hint::black_box;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::wire::{decode_frame, encode_frame, fnv1a64};
use transport::{Backend, BackendKind, Endpoint, Fabric, FaultPlan, RankId, SocketBackend};
use transport::{Topology, Wire};

fn metric(name: &str, value: f64) {
    Record::new("metric")
        .text("name", name)
        .num("value", value)
        .emit();
}

/// Median seconds per call of `f`: calls are batched until a batch lasts
/// at least 2 ms, and the median of nine batches is taken.
fn per_call(mut f: impl FnMut()) -> f64 {
    let mut n = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..n {
            f();
        }
        if t.elapsed() >= Duration::from_millis(2) || n >= 1 << 24 {
            break;
        }
        n *= 2;
    }
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    median(&mut batches)
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// Element counts of the workload's gradient tensors, in declaration order.
fn tensor_lens(w: Workload, seed: u64) -> Vec<usize> {
    w.spec(seed)
        .build_model()
        .grads()
        .iter()
        .map(|g| g.data().len())
        .collect()
}

fn roofline() {
    let bytes = 16 << 20;
    let src = vec![7u8; bytes];
    let mut dst = vec![0u8; bytes];
    let t = per_call(|| dst.copy_from_slice(black_box(&src)));
    metric("roofline.memcpy_gbps", gbps(bytes, t));

    // A raw Unix stream pair: 64 MiB in 1 MiB writes.
    let chunk = 1 << 20;
    let total = 64 << 20;
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let (mut a, mut b) = std::os::unix::net::UnixStream::pair().expect("socket pair");
            let t = Instant::now();
            let writer = std::thread::spawn(move || {
                let buf = vec![1u8; chunk];
                for _ in 0..total / chunk {
                    a.write_all(&buf).expect("loopback write");
                }
            });
            let mut buf = vec![0u8; chunk];
            for _ in 0..total / chunk {
                b.read_exact(&mut buf).expect("loopback read");
            }
            writer.join().expect("loopback writer");
            t.elapsed().as_secs_f64()
        })
        .collect();
    metric(
        "roofline.unix_loopback_gbps",
        gbps(total, median(&mut runs)),
    );
}

/// Slice codec, checksum and framing on the workload's largest tensor.
fn codec(lens: &[usize]) {
    let n = *lens.iter().max().expect("model has tensors");
    let vals: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
    let bytes = f32::encode_slice(&vals);
    let b = bytes.len();
    metric(
        "transport.encode_slice.gbps",
        gbps(
            b,
            per_call(|| drop(black_box(f32::encode_slice(black_box(&vals))))),
        ),
    );
    metric(
        "transport.decode_slice.gbps",
        gbps(
            b,
            per_call(|| drop(black_box(f32::decode_slice(black_box(&bytes))))),
        ),
    );
    metric(
        "transport.fnv1a64.gbps",
        gbps(
            b,
            per_call(|| {
                black_box(fnv1a64(black_box(&bytes)));
            }),
        ),
    );
    let frame = encode_frame(RankId(0), 7, 3, &bytes);
    metric(
        "transport.encode_frame.gbps",
        gbps(
            b,
            per_call(|| drop(black_box(encode_frame(RankId(0), 7, 3, black_box(&bytes))))),
        ),
    );
    metric(
        "transport.decode_frame.gbps",
        gbps(
            b,
            per_call(|| drop(black_box(decode_frame(black_box(&frame))))),
        ),
    );
}

/// A pair of endpoints over `kind`, and the socket backends to shut down.
fn endpoint_pair(kind: BackendKind) -> (Endpoint, Endpoint, Vec<Arc<SocketBackend>>) {
    if kind == BackendKind::InProc {
        let fabric = Fabric::without_faults(Topology::flat());
        let ranks = fabric.register_ranks(2);
        return (
            Endpoint::new(Arc::clone(&fabric), ranks[0]),
            Endpoint::new(fabric, ranks[1]),
            Vec::new(),
        );
    }
    let mesh = SocketBackend::local_mesh(kind, Topology::flat(), 2, FaultPlan::none())
        .expect("local socket mesh");
    let ep = |b: &Arc<SocketBackend>| Endpoint::from_backend(Arc::clone(b) as Arc<dyn Backend>);
    (ep(&mesh[0]), ep(&mesh[1]), mesh)
}

/// Median µs per 8-byte ping-pong round trip between two endpoints.
fn rtt_us(kind: BackendKind, rounds: usize) -> f64 {
    let (a, b, mesh) = endpoint_pair(kind);
    let (ra, rb) = (a.rank(), b.rank());
    let echo = std::thread::spawn(move || {
        for _ in 0..rounds * 5 {
            let m = b.recv(ra, 11).expect("ping");
            b.send(ra, 12, &m).expect("pong");
        }
    });
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..rounds {
                a.send(rb, 11, &[0u8; 8]).expect("ping");
                a.recv(rb, 12).expect("pong");
            }
            t.elapsed().as_secs_f64() * 1e6 / rounds as f64
        })
        .collect();
    echo.join().expect("echo thread");
    for m in &mesh {
        m.shutdown();
    }
    median(&mut batches)
}

/// One-way `SocketBackend` send→recv bandwidth for a payload of `bytes`.
fn unix_bulk_gbps(bytes: usize) -> f64 {
    let (a, b, mesh) = endpoint_pair(BackendKind::Unix);
    let (ra, rb) = (a.rank(), b.rank());
    let count = (32 << 20) / bytes.max(1) + 4;
    let payload = vec![3u8; bytes];
    let mut runs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let payload = payload.clone();
        let a = &a;
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..count {
                    a.send(rb, 21, &payload).expect("bulk send");
                }
            });
            for _ in 0..count {
                black_box(b.recv(ra, 21).expect("bulk recv"));
            }
        });
        runs.push(t.elapsed().as_secs_f64());
    }
    for m in &mesh {
        m.shutdown();
    }
    gbps(bytes * count, median(&mut runs))
}

/// Allreduce of every workload tensor once (ms per step) for each
/// algorithm, and barrier latency, on a p = 2 group over the workload's
/// backend.
fn collectives(w: Workload, lens: &[usize]) {
    const PASSES: usize = 5;
    let algos = [
        ("coll.allreduce_ms.ring", AllreduceAlgo::Ring),
        ("coll.allreduce_ms.rd", AllreduceAlgo::RecursiveDoubling),
        (
            "coll.allreduce_ms.rabenseifner",
            AllreduceAlgo::Rabenseifner,
        ),
    ];
    let lens = lens.to_vec();
    let per_rank = run_group(w.backend(), 2, move |proc| {
        let comm = proc.init_comm();
        let mut bufs: Vec<Vec<f32>> = lens.iter().map(|&n| vec![1.0; n]).collect();
        let mut out = Vec::new();
        for (_, algo) in algos {
            let mut passes: Vec<f64> = (0..=PASSES)
                .map(|_| {
                    comm.barrier().expect("failure-free barrier");
                    let t = Instant::now();
                    for b in &mut bufs {
                        comm.allreduce(b, ReduceOp::Sum, algo)
                            .expect("failure-free allreduce");
                    }
                    t.elapsed().as_secs_f64() * 1e3
                })
                .skip(1)
                .collect();
            out.push(median(&mut passes));
        }
        comm.barrier().expect("failure-free barrier");
        out.push(per_call(|| comm.barrier().expect("failure-free barrier")) * 1e6);
        out
    });
    // Rank 0's view; the ranks finish each pass within one message.
    for (i, (name, _)) in algos.iter().enumerate() {
        metric(name, per_rank[0][i]);
    }
    metric("coll.barrier_us", per_rank[0][algos.len()]);
}

fn dnn_layer(w: Workload, seed: u64) {
    let spec = w.spec(seed);
    let mut model = spec.build_model();
    let mut opt = spec.build_optimizer();
    let shard = spec
        .build_dataset()
        .shard(0, spec.global_batch, 0, w.world());
    let t = per_call(|| {
        model.zero_grads();
        black_box(model.compute_gradients(&shard));
    });
    metric("dnn.compute_gradients_ms", t * 1e3);
    // Tiny steps keep the parameters finite across the repetitions.
    let mut tiny = dnn::Sgd::new(1e-9, spec.momentum);
    metric(
        "dnn.sgd_step_ms",
        per_call(|| tiny.step(&mut model.params_mut())) * 1e3,
    );
    let ck = dnn::Checkpoint::capture(&model, &opt);
    metric(
        "dnn.checkpoint.capture_ms",
        per_call(|| drop(black_box(dnn::Checkpoint::capture(&model, &opt)))) * 1e3,
    );
    metric(
        "dnn.checkpoint.restore_ms",
        per_call(|| ck.restore(&mut model, &mut opt)) * 1e3,
    );
}

fn telemetry_layer() {
    metric(
        "telemetry.counter_incr_ns",
        per_call(|| telemetry::counter("perfbench.probe.counter").incr()) * 1e9,
    );
    let mut v = 0u64;
    metric(
        "telemetry.histogram_record_ns",
        per_call(|| {
            v = v.wrapping_add(977);
            telemetry::histogram("perfbench.probe.hist").record(v & 0xffff)
        }) * 1e9,
    );
}

fn gloo_layer() {
    use gloo::Store;
    let server = gloo::StoreServer::spawn(gloo::KvStore::shared()).expect("store server");
    let store = gloo::NetStore::connect(server.addr());
    let mut rtts: Vec<f64> = (0..200)
        .map(|i| {
            let t = Instant::now();
            store
                .try_set("perfbench/key", vec![i as u8; 16])
                .expect("store set");
            black_box(store.try_scan_prefix("perfbench/key").expect("store get"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    server.shutdown();
    metric("gloo.netstore.rtt_us", median(&mut rtts));
}

/// One untraced engine job of the workload, read through the program's own
/// records (`ScenarioResult::fabric_stats`, `telemetry::snapshot()`), with
/// the process's resident set sampled while it runs.
fn engine_job(w: Workload, seed: u64) -> u64 {
    let job = w.clean_job(seed, w.world(), w.backend());
    let steps = job.spec.total_steps as f64;
    telemetry::reset();
    let before = rss_kib();
    let peak = Arc::new(AtomicU64::new(before));
    let done = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (peak, done) = (Arc::clone(&peak), Arc::clone(&done));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                peak.fetch_max(rss_kib(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let res = elastic::run_scenario(&job);
    done.store(true, Ordering::Relaxed);
    sampler.join().expect("rss sampler");
    let snap = telemetry::snapshot();
    let fp = res.assert_consistent_state();

    let step = &snap.histograms["elastic.forward.step_ns"];
    let (mut coll_ns, mut coll_ops) = (0u64, 0u64);
    for (name, h) in &snap.histograms {
        if name.starts_with("coll.") && name.ends_with(".latency_ns") {
            coll_ns += h.sum;
        }
    }
    for (name, c) in &snap.counters {
        if name.starts_with("coll.") && name.ends_with(".ops") {
            coll_ops += c;
        }
    }
    let rank_steps = step.count as f64;
    metric("engine.step_ms", step.sum as f64 / rank_steps / 1e6);
    metric("elastic.step.comm_share", coll_ns as f64 / step.sum as f64);
    metric("coll.calls_per_step", coll_ops as f64 / rank_steps);
    let st = res.fabric_stats;
    metric("transport.msgs_per_step", st.messages as f64 / steps);
    metric("transport.bytes_per_step", st.bytes as f64 / steps);
    metric(
        "transport.retransmits_per_msg",
        st.retransmits as f64 / st.messages as f64,
    );
    metric("transport.false_suspicions", st.suspicions as f64);
    // One collective = one group-wide call; each rank counts its own.
    let group_colls = coll_ops as f64 / w.world() as f64;
    let grown = peak.load(Ordering::Relaxed).saturating_sub(before);
    metric("mem.rss_kib_per_collective", grown as f64 / group_colls);
    fp
}

/// The single-worker run of the same job (samples/s after set-up).
fn p1_baseline(w: Workload, seed: u64) {
    let job = w.clean_job(seed, 1, w.backend());
    let samples = (job.spec.total_steps * job.spec.global_batch) as f64;
    let mut zero = job.clone();
    zero.spec.total_steps = 0;
    let mut setup: Vec<f64> = (0..3)
        .map(|_| elastic::run_scenario(&zero).wall.as_secs_f64())
        .collect();
    let setup = median(&mut setup);
    let mut rates: Vec<f64> = (0..3)
        .map(|_| samples / (elastic::run_scenario(&job).wall.as_secs_f64() - setup))
        .collect();
    metric("baseline.p1.samples_per_s", median(&mut rates));
}

/// Training replay and recovery replay with spans; per-step self times.
fn replays(w: Workload, seed: u64, engine_fp: u64, spans_path: &str) -> Result<(), String> {
    let sink = Arc::new(Sink::new());
    let fps = replay::training(&sink, w, seed, w.world());
    if fps.iter().any(|&f| f != engine_fp) {
        return Err(format!(
            "replay fingerprints {fps:x?} differ from the engine's {engine_fp:016x}"
        ));
    }
    let train = sink.spans();
    metric("replay.step_ms", median_ns(&train, "step") / 1e6);
    // Per-step self time of each layer: summed within a step, median over
    // steps (and ranks).
    let selfs = self_times(&train);
    for layer in [
        "dnn.compute_gradients",
        "coll.allreduce",
        "coll.barrier",
        "dnn.sgd_step",
        "step",
    ] {
        let mut per_step: Vec<f64> = train
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "step")
            .map(|(i, _)| {
                let own = (layer == "step") as u64 * selfs[i];
                let kids: u64 = train
                    .iter()
                    .zip(&selfs)
                    .filter(|(c, _)| c.parent == Some(i) && c.name == layer)
                    .map(|(_, &d)| d)
                    .sum();
                (own + kids) as f64 / 1e6
            })
            .collect();
        let name = if layer == "step" { "glue" } else { layer };
        metric(&format!("replay.self_ms.{name}"), median(&mut per_step));
    }

    for _ in 0..10 {
        replay::recovery(&sink);
    }
    let all = sink.spans();
    for (span, name) in [
        ("ulfm.revoke", "ulfm.revoke_ms"),
        ("ulfm.agree.flood", "ulfm.agree_ms.flood"),
        ("ulfm.agree.lattice", "ulfm.agree_ms.lattice"),
        ("ulfm.shrink", "ulfm.shrink_ms"),
        ("ulfm.accept_joiners", "ulfm.accept_joiners_ms"),
    ] {
        metric(name, median_ns(&all, span) / 1e6);
    }
    sink.write(spans_path)
        .map_err(|e| format!("write {spans_path}: {e}"))
}

pub fn run(w: Workload, seed: u64, spans_path: &str) -> Result<(), String> {
    // First, while the heap is fresh: the resident-set growth it measures
    // would otherwise hide in memory earlier probes freed.
    let engine_fp = engine_job(w, seed);
    replays(w, seed, engine_fp, spans_path)?;
    let lens = tensor_lens(w, seed);
    roofline();
    codec(&lens);
    let largest = *lens.iter().max().expect("model has tensors") * 4;
    metric("transport.unix.bulk_gbps", unix_bulk_gbps(largest));
    metric("transport.inproc.rtt_us", rtt_us(BackendKind::InProc, 2000));
    metric("transport.unix.rtt_us", rtt_us(BackendKind::Unix, 500));
    collectives(w, &lens);
    dnn_layer(w, seed);
    telemetry_layer();
    gloo_layer();
    p1_baseline(w, seed);
    Ok(())
}
