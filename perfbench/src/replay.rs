//! Replays of a workload through the layers' public calls, with a span
//! around each call: the training step (`Model::compute_gradients`, one
//! `Communicator::allreduce` per tensor, `barrier`, `Sgd::step`) and the
//! churn recovery (`revoke`, `agree`, `shrink`, `accept_joiners` after
//! `Universe::kill_rank`).

use crate::trace::{Sink, Span};
use crate::workload::Workload;
use collectives::ReduceOp;
use std::sync::{Arc, Barrier};
use std::time::Duration;
use transport::{Backend, BackendKind, Endpoint, FaultPlan, RankId, SocketBackend, Topology};
use ulfm::{AgreeImpl, Proc, Universe};

/// Run `f` on every rank of a fresh failure-free group of `p` ranks over
/// `backend`, and return each rank's result in rank order.
pub fn run_group<R, F>(backend: BackendKind, p: usize, f: F) -> Vec<R>
where
    R: Send + 'static,
    F: Fn(Proc) -> R + Send + Sync + Clone + 'static,
{
    if backend == BackendKind::InProc {
        let universe = Universe::without_faults(Topology::flat());
        let handles = universe.spawn_batch(p, f).expect("in-process universe");
        return handles.into_iter().map(|h| h.join()).collect();
    }
    let mesh = SocketBackend::local_mesh(backend, Topology::flat(), p, FaultPlan::none())
        .expect("local socket mesh");
    let group: Vec<RankId> = (0..p).map(RankId).collect();
    let out = std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .iter()
            .map(|b| {
                let ep = Endpoint::from_backend(Arc::clone(b) as Arc<dyn Backend>);
                let (group, f) = (group.clone(), f.clone());
                s.spawn(move || {
                    let (_universe, proc) = Universe::for_backend(ep, group);
                    f(proc)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("group rank panicked"))
            .collect()
    });
    for b in &mesh {
        b.shutdown();
    }
    out
}

/// Replay `steps` training steps of the workload's spec on `p` ranks, the
/// way the forward engine computes an unfused failure-free step. Returns
/// every rank's final model fingerprint.
pub fn training(sink: &Arc<Sink>, w: Workload, seed: u64, p: usize) -> Vec<u64> {
    let spec = w.spec(seed);
    let sink = Arc::clone(sink);
    run_group(w.backend(), p, move |proc| {
        let comm = proc.init_comm();
        let rank = comm.rank();
        let mut t = sink.local(rank);
        let mut model = spec.build_model();
        let mut opt = spec.build_optimizer();
        let ds = spec.build_dataset();
        for step in 0..spec.total_steps {
            t.begin("step");
            let shard = ds.shard(step, spec.global_batch, rank, p);
            let weight = shard.labels.len() as f32 / spec.global_batch as f32;
            model.zero_grads();
            t.span("dnn.compute_gradients", || model.compute_gradients(&shard));
            let mut grads: Vec<Vec<f32>> = model
                .grads()
                .iter()
                .map(|g| g.data().iter().map(|v| v * weight).collect())
                .collect();
            for g in &mut grads {
                t.span("coll.allreduce", || {
                    comm.allreduce(g, ReduceOp::Sum, spec.algo)
                })
                .expect("failure-free allreduce");
            }
            t.span("coll.barrier", || comm.barrier())
                .expect("failure-free barrier");
            model.set_grads(&grads);
            t.span("dnn.sgd_step", || opt.step(&mut model.params_mut()));
            t.end();
        }
        sink.submit(t);
        elastic::config::state_fingerprint(&model.state_flat())
    })
}

/// Members of the recovery replay's group; the last one is killed.
const RECOVERY_P: usize = 3;

/// One recovery replay at p = 3 in process: kill the last rank, then each
/// survivor times revoke, agree (flood, then lattice), shrink back under
/// the program's default agreement, and the admission of one joiner.
pub fn recovery(sink: &Arc<Sink>) {
    let universe = Universe::without_faults(Topology::flat());
    let ready = Arc::new(Barrier::new(RECOVERY_P + 1));
    let victim = RECOVERY_P - 1;
    let (s, r) = (Arc::clone(sink), Arc::clone(&ready));
    let members = universe
        .spawn_batch(RECOVERY_P, move |proc| {
            let comm = proc.init_comm();
            comm.barrier().expect("failure-free barrier");
            r.wait();
            if comm.rank() == victim {
                // Parked until the kill.
                let _ = comm.recv(0, 1);
                return;
            }
            // Discover the death the way the engine does: a collective
            // fails with the victim as the failed peer.
            let mut probe = [1.0f32];
            while comm
                .allreduce(&mut probe, ReduceOp::Sum, Default::default())
                .is_ok()
            {}
            let mut t = s.local(comm.rank());
            let default_agree = comm.agree_impl();
            t.begin("recovery");
            t.span("ulfm.revoke", || comm.revoke());
            comm.set_agree_impl(AgreeImpl::Flood);
            t.span("ulfm.agree.flood", || comm.agree(1, 0))
                .expect("flood agree");
            comm.set_agree_impl(AgreeImpl::Lattice);
            t.span("ulfm.agree.lattice", || comm.agree(1, 0))
                .expect("lattice agree");
            comm.set_agree_impl(default_agree);
            let shrunk = t.span("ulfm.shrink", || comm.shrink()).expect("shrink");
            while proc.announced_joiners() == 0 {
                std::thread::sleep(Duration::from_micros(100));
            }
            let merged = t
                .span("ulfm.accept_joiners", || shrunk.accept_joiners())
                .expect("accept joiners")
                .expect("the announced joiner is admitted");
            t.end();
            s.submit(t);
            merged.barrier().expect("merged barrier");
        })
        .expect("in-process universe");
    ready.wait();
    universe.kill_rank(RankId(victim)).expect("in-process kill");
    let joiner = universe
        .spawn_joiners(1, |proc| {
            let comm = proc.join_training().expect("joiner admitted");
            comm.barrier().expect("merged barrier");
        })
        .expect("in-process universe");
    for h in members.into_iter().chain(joiner) {
        h.join();
    }
}

/// Median duration (ns) of the spans named `name`.
pub fn median_ns(spans: &[Span], name: &str) -> f64 {
    let mut d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    crate::median(&mut d)
}
