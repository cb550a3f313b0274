//! A clean socket link must carry bulk frames without resending them.
//!
//! The collectives' largest frames are ring chunks of hundreds of KiB and
//! whole tensors of a MiB or more. On an unperturbed loopback link each one
//! must arrive bit-exact, once, with no suspicion and next to no
//! retransmission: the sender's ack wait has to cover the time it takes to
//! write, read and verify a frame of that size.

use std::sync::Arc;
use transport::{Backend, BackendKind, Endpoint, FaultPlan, RankId, SocketBackend, Topology};

/// Distinct, position-dependent content so a misdelivered or torn frame
/// cannot compare equal.
fn payload(i: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (j.wrapping_mul(31) ^ i.wrapping_mul(131)) as u8)
        .collect()
}

fn bulk_frames_cross_clean_link(kind: BackendKind) {
    const KIB: usize = 1024;
    let sizes: Vec<usize> = (0..36)
        .map(|i| if i % 3 == 2 { 1024 * KIB } else { 512 * KIB })
        .collect();
    let mesh = SocketBackend::local_mesh(kind, Topology::flat(), 2, FaultPlan::none())
        .expect("local socket mesh");
    let ep = |b: &Arc<SocketBackend>| Endpoint::from_backend(Arc::clone(b) as Arc<dyn Backend>);
    let (tx, rx) = (ep(&mesh[0]), ep(&mesh[1]));

    let sender = {
        let sizes = sizes.clone();
        std::thread::spawn(move || {
            for (i, &len) in sizes.iter().enumerate() {
                tx.send(RankId(1), 5, &payload(i, len)).expect("bulk send");
            }
        })
    };
    for (i, &len) in sizes.iter().enumerate() {
        let got = rx.recv(RankId(0), 5).expect("bulk recv");
        assert!(
            got == payload(i, len),
            "frame {i} ({len} B) arrived altered"
        );
    }
    sender.join().expect("sender thread");

    let (s, r) = (mesh[0].stats(), mesh[1].stats());
    for m in &mesh {
        m.shutdown();
    }
    assert_eq!(s.messages, sizes.len() as u64);
    assert_eq!(
        s.suspicions + r.suspicions,
        0,
        "clean link raised a suspicion"
    );
    assert_eq!(r.corrupt_frames, 0);
    // Loose enough for a loaded machine; a size-blind ack wait resends
    // about one frame per frame sent.
    assert!(
        s.retransmits * 4 <= sizes.len() as u64,
        "{} retransmits for {} frames on a clean {kind:?} link",
        s.retransmits,
        sizes.len()
    );
}

#[test]
fn unix_link_sends_bulk_frames_once() {
    bulk_frames_cross_clean_link(BackendKind::Unix);
}

#[test]
fn tcp_link_sends_bulk_frames_once() {
    bulk_frames_cross_clean_link(BackendKind::Tcp);
}
