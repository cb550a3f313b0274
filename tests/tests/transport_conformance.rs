//! Backend-generic transport conformance suite.
//!
//! Every [`transport::Backend`] implementation must present the same
//! contract to the layers above it — the ULFM communicator and the elastic
//! engines never know whether bytes move through an in-process mailbox or
//! a real socket. Each case below therefore runs identically on all three
//! backends: the in-process fabric, TCP sockets, and Unix-domain sockets.
//!
//! Covered contract points:
//!  * per-channel FIFO delivery under concurrent traffic,
//!  * checksummed-frame rejection (corrupt frames are never delivered),
//!  * ack/retransmit healing under seeded drop/duplicate/reorder,
//!  * timeout-based failure suspicion on silent peers (and the absence of
//!    suspicion for explicit caller deadlines),
//!  * clean teardown with no spurious deaths,
//!  * buffered messages surviving the sender's voluntary retirement,
//!  * elastic joins surviving joiner deaths at the `join.ticket` and
//!    `join.merge` fault points (socket flavors — the join rendezvous and
//!    link establishment are what differ per backend).

use std::sync::Arc;
use std::time::Duration;
use transport::{
    Backend, BackendKind, Endpoint, Fabric, FaultInjector, FaultPlan, LinkPerturb, PerturbPlan,
    RankId, RetryPolicy, SocketBackend, Topology, TransportError,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flavor {
    InProc,
    Tcp,
    Unix,
}

const ALL_FLAVORS: [Flavor; 3] = [Flavor::InProc, Flavor::Tcp, Flavor::Unix];

/// Build an `n`-rank mesh of the given flavor with a fault schedule.
fn mesh(flavor: Flavor, n: usize, plan: FaultPlan) -> Vec<Endpoint> {
    match flavor {
        Flavor::InProc => {
            let fabric = Fabric::new(Topology::flat(), FaultInjector::new(plan));
            fabric
                .register_ranks(n)
                .into_iter()
                .map(|r| Endpoint::new(Arc::clone(&fabric), r))
                .collect()
        }
        Flavor::Tcp | Flavor::Unix => {
            let kind = match flavor {
                Flavor::Tcp => BackendKind::Tcp,
                _ => BackendKind::Unix,
            };
            SocketBackend::local_mesh(kind, Topology::flat(), n, plan)
                .expect("socket mesh")
                .into_iter()
                .map(|b| Endpoint::from_backend(b as Arc<dyn Backend>))
                .collect()
        }
    }
}

/// Socket service threads hold backend Arcs, so teardown is explicit.
fn teardown(eps: &[Endpoint]) {
    for ep in eps {
        ep.backend().shutdown();
    }
}

/// Sum a per-endpoint stat across the mesh (in-process endpoints share one
/// fabric, so the sum over-counts there — callers only assert `> 0`).
fn total(eps: &[Endpoint], field: impl Fn(&transport::FabricStats) -> u64) -> u64 {
    eps.iter().map(|ep| field(&ep.stats())).sum()
}

#[test]
fn p2p_delivery_is_fifo_per_channel() {
    for flavor in ALL_FLAVORS {
        let eps = mesh(flavor, 2, FaultPlan::none());
        let n_msgs = 64u64;
        std::thread::scope(|s| {
            let sender = &eps[0];
            s.spawn(move || {
                // Interleave two tags: FIFO must hold per (source, tag)
                // channel, not just globally.
                for i in 0..n_msgs {
                    sender.send(RankId(1), 7, &i.to_le_bytes()).unwrap();
                    sender.send(RankId(1), 9, &(i * 3).to_le_bytes()).unwrap();
                }
            });
            let receiver = &eps[1];
            s.spawn(move || {
                for i in 0..n_msgs {
                    let a = receiver.recv(RankId(0), 7).unwrap();
                    assert_eq!(a, i.to_le_bytes(), "{flavor:?}: tag 7 out of order");
                }
                for i in 0..n_msgs {
                    let b = receiver.recv(RankId(0), 9).unwrap();
                    assert_eq!(b, (i * 3).to_le_bytes(), "{flavor:?}: tag 9 out of order");
                }
            });
        });
        teardown(&eps);
    }
}

#[test]
fn corrupt_frames_are_rejected_then_healed_by_retransmit() {
    for flavor in ALL_FLAVORS {
        let eps = mesh(flavor, 2, FaultPlan::none());
        let plan = PerturbPlan::seeded(42)
            .all_links(LinkPerturb::clean().corrupt(0.4))
            .retry(RetryPolicy {
                max_retries: 64,
                base: Duration::from_micros(200),
                cap: Duration::from_millis(2),
            });
        for ep in &eps {
            ep.set_perturbation(plan.clone());
        }
        std::thread::scope(|s| {
            let sender = &eps[0];
            s.spawn(move || {
                for i in 0..32u64 {
                    sender.send(RankId(1), 5, &i.to_le_bytes()).unwrap();
                }
            });
            let receiver = &eps[1];
            s.spawn(move || {
                for i in 0..32u64 {
                    let got = receiver.recv(RankId(0), 5).unwrap();
                    assert_eq!(got, i.to_le_bytes(), "{flavor:?}: corrupted payload leaked");
                }
            });
        });
        assert!(
            total(&eps, |st| st.corrupt_frames) > 0,
            "{flavor:?}: the seeded plan should have corrupted at least one frame"
        );
        assert!(
            total(&eps, |st| st.retransmits) > 0,
            "{flavor:?}: rejected frames must be healed by retransmission"
        );
        teardown(&eps);
    }
}

#[test]
fn lossy_links_heal_via_ack_retransmit() {
    for flavor in ALL_FLAVORS {
        let eps = mesh(flavor, 2, FaultPlan::none());
        let plan = PerturbPlan::seeded(7)
            .all_links(LinkPerturb::clean().drop(0.3).duplicate(0.25).reorder(0.25))
            .retry(RetryPolicy {
                max_retries: 64,
                base: Duration::from_micros(200),
                cap: Duration::from_millis(2),
            });
        for ep in &eps {
            ep.set_perturbation(plan.clone());
        }
        std::thread::scope(|s| {
            let sender = &eps[0];
            s.spawn(move || {
                for i in 0..48u64 {
                    sender.send(RankId(1), 3, &i.to_le_bytes()).unwrap();
                }
            });
            let receiver = &eps[1];
            s.spawn(move || {
                // Exactly-once, in-order delivery despite drop/dup/reorder:
                // sequence numbers reassemble the channel.
                for i in 0..48u64 {
                    let got = receiver.recv(RankId(0), 3).unwrap();
                    assert_eq!(
                        got,
                        i.to_le_bytes(),
                        "{flavor:?}: lossy channel broke order"
                    );
                }
            });
        });
        assert!(
            total(&eps, |st| st.retransmits) > 0,
            "{flavor:?}: dropped frames must retransmit"
        );
        teardown(&eps);
    }
}

#[test]
fn silent_peer_is_suspected_but_explicit_deadline_is_not() {
    for flavor in ALL_FLAVORS {
        let eps = mesh(flavor, 2, FaultPlan::none());

        // An explicit caller deadline is the caller's own timeout: it must
        // report Timeout and *not* declare the peer failed.
        let r = eps[0].recv_timeout(RankId(1), 11, Duration::from_millis(50));
        assert_eq!(r, Err(TransportError::Timeout), "{flavor:?}");
        assert!(eps[0].is_peer_alive(RankId(1)), "{flavor:?}");
        assert_eq!(total(&eps, |st| st.suspicions), 0, "{flavor:?}");

        // An open-ended receive bounded by the suspicion timeout is the
        // failure detector: silence past it means the peer is dead.
        eps[0].set_suspicion_timeout(Some(Duration::from_millis(100)));
        let r = eps[0].recv(RankId(1), 11);
        assert_eq!(r, Err(TransportError::PeerDead(RankId(1))), "{flavor:?}");
        assert!(!eps[0].is_peer_alive(RankId(1)), "{flavor:?}");
        assert!(total(&eps, |st| st.suspicions) > 0, "{flavor:?}");
        teardown(&eps);
    }
}

#[test]
fn clean_teardown_is_prompt_and_never_a_suspicion() {
    for flavor in ALL_FLAVORS {
        let eps = mesh(flavor, 3, FaultPlan::none());
        for ep in &eps {
            ep.set_suspicion_timeout(Some(Duration::from_secs(30)));
        }
        // A full round of traffic, then teardown. A peer that observes a
        // neighbor's FIN before its own shutdown flag is set may record an
        // EOF-path death — that IS fail-stop semantics and is fine. What a
        // clean teardown must never produce is a *suspicion* (a silence
        // verdict) or a hang waiting for drains that cannot complete.
        for (i, ep) in eps.iter().enumerate() {
            ep.send(RankId((i + 1) % 3), 1, b"ring").unwrap();
        }
        for (i, ep) in eps.iter().enumerate() {
            let from = RankId((i + 2) % 3);
            assert_eq!(ep.recv(from, 1).unwrap(), b"ring", "{flavor:?}");
        }
        let start = std::time::Instant::now();
        teardown(&eps);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{flavor:?}: teardown must not stall on drains"
        );
        assert_eq!(
            total(&eps, |st| st.suspicions),
            0,
            "{flavor:?}: clean teardown must not look like a silent failure"
        );
    }
}

// ---------------------------------------------------------------------------
// Elastic-join conformance: a joiner death at either join fault point must
// leave the group progressing, on every backend. Link bootstrap is what
// differs per backend (one shared fabric in-process, socket dials for
// Tcp/Unix; the NetJoin rendezvous is the same on all three), so these run
// the full scenario harness rather than raw endpoints.
// ---------------------------------------------------------------------------

use elastic::scenario::{Engine, ScenarioKind};
use elastic::{run_scenario, ScenarioConfig, TrainSpec, WorkerExit};

fn join_fault_cfg(
    flavor: Flavor,
    joiners: usize,
    dead_joiner: usize,
    point: &str,
) -> ScenarioConfig {
    let backend = match flavor {
        Flavor::InProc => BackendKind::InProc,
        Flavor::Tcp => BackendKind::Tcp,
        Flavor::Unix => BackendKind::Unix,
    };
    ScenarioConfig {
        spec: TrainSpec {
            total_steps: 12,
            steps_per_epoch: 4,
            min_workers: 2,
            ..TrainSpec::default()
        },
        workers: 3,
        ranks_per_node: 3,
        // Upscale schedules no member faults; the only scripted death is
        // the joiner's, at the requested join fault point.
        joiners,
        extra_faults: FaultPlan::none().kill_at_point(RankId(dead_joiner), point, 1),
        backend,
        ..ScenarioConfig::quick(Engine::UlfmForward, ScenarioKind::Upscale)
    }
}

#[test]
fn joiner_killed_at_ticket_does_not_block_its_peer() {
    // Two joiners announce; one is killed right after announcing (before its
    // ticket lands). The members must not wedge on the corpse: the surviving
    // joiner is admitted and all four live replicas converge. Depending on
    // when the leader's failure detector catches the death, the corpse is
    // either filtered from the proposal or merged-then-shrunk — both end in
    // the same live membership.
    for flavor in ALL_FLAVORS {
        let res = run_scenario(&join_fault_cfg(flavor, 2, 4, "join.ticket"));
        assert_eq!(res.completed(), 4, "{flavor:?}: exits: {:?}", res.exits);
        assert!(
            matches!(res.exits[4], WorkerExit::Died),
            "{flavor:?}: killed joiner must report Died: {:?}",
            res.exits[4]
        );
        res.assert_consistent_state();
    }
}

#[test]
fn joiner_killed_at_merge_is_shrunk_back_out() {
    // The joiner holds a committed ticket — every member has already agreed
    // to the merge — and dies before its first synced step. The members'
    // next collective hits the corpse, revokes, and shrinks back to the
    // original three, which finish the run in agreement.
    for flavor in ALL_FLAVORS {
        let res = run_scenario(&join_fault_cfg(flavor, 1, 3, "join.merge"));
        assert_eq!(res.completed(), 3, "{flavor:?}: exits: {:?}", res.exits);
        assert!(
            matches!(res.exits[3], WorkerExit::Died),
            "{flavor:?}: killed joiner must report Died: {:?}",
            res.exits[3]
        );
        res.assert_consistent_state();
    }
}

#[test]
fn buffered_messages_survive_voluntary_retirement() {
    for flavor in ALL_FLAVORS {
        let eps = mesh(flavor, 2, FaultPlan::none());
        eps[1].send(RankId(0), 2, b"last words").unwrap();
        eps[1].retire();
        // ULFM requires already-matched traffic to complete: the buffered
        // message is delivered first, the failure is reported after.
        assert_eq!(
            eps[0].recv(RankId(1), 2).unwrap(),
            b"last words",
            "{flavor:?}"
        );
        assert_eq!(
            eps[0].recv(RankId(1), 2),
            Err(TransportError::PeerDead(RankId(1))),
            "{flavor:?}"
        );
        teardown(&eps);
    }
}
