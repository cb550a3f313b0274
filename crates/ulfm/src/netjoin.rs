//! The join rendezvous: how a new worker announces itself, how members
//! discover and ticket pending joiners, and how a joiner learns its
//! admission — the out-of-band channel of the paper's replacement and
//! upscaling scenarios.
//!
//! [`NetJoin`] is the only implementation, and it keeps all of its state in
//! a [`gloo::Store`] (the rendezvous KV store every worker can already
//! reach): joiners *announce* by publishing a key, members *snapshot* the
//! announced set by scanning a prefix, and a committed admission is
//! materialised as a per-joiner *ticket* key that the joiner polls for. A
//! multi-process job gives every process a handle onto the launcher's
//! network store; an in-process [`crate::Universe`] builds one over a
//! private [`gloo::KvStore`], so threads-as-ranks run the exact protocol
//! real processes do. The two-phase commit itself (leader proposal
//! broadcast + uniform agreement) runs over the collective fabric in
//! [`crate::Communicator::accept_joiners_directed`]; the store only carries
//! the out-of-band rendezvous state, exactly like Horovod's driver store.
//!
//! Key schema under the configured run `prefix`:
//!
//! | key | value |
//! |---|---|
//! | `{prefix}join/announce/{rank:08}` | joiner's dialable address (may be empty) |
//! | `{prefix}join/spare/{rank:08}` | warm spare's dialable address (may be empty) |
//! | `{prefix}join/ticket/{rank:08}` | committed ticket, LE u64 words `[epoch, comm_id+1, n, ranks…]` (`comm_id+1 = 0` encodes `None`), or the `DISMISS` sentinel |
//! | `{prefix}join/abort` | present ⇒ the computation aborted; waiters exit |
//! | `{prefix}addr/{rank:08}` | contact address of an established member |
//!
//! Spare announces live under their own prefix so the epoch-boundary join
//! path never drains the warm pool; a dismissed spare's ticket key holds
//! the `DISMISS` sentinel (which also removes it from future spare
//! snapshots, making dismissal idempotent across processes).
//!
//! Announce keys are never deleted — `announced_total` stays monotone (the
//! leader's give-up heuristic depends on that) and the *pending* set is
//! derived as announced-minus-ticketed, so leader failover re-reads the
//! same pending joiners a dead leader saw.
//!
//! Every store operation is fallible ([`gloo::StoreUnavailable`]) and is
//! wrapped in bounded retry with exponential backoff plus deterministic
//! jitter (hash of operation name and attempt — no wall-clock entropy).
//! Retries are counted under `ulfm.netjoin.store_retries`.

use crate::universe::JoinTicket;
use crate::UlfmError;
use gloo::{Store, StoreUnavailable};
use std::sync::Arc;
use std::time::{Duration, Instant};
use transport::RankId;

/// Bounded attempts for one logical store operation before giving up.
const STORE_ATTEMPTS: u32 = 64;
/// First backoff sleep; doubles per attempt.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// Backoff ceiling.
const BACKOFF_CAP: Duration = Duration::from_millis(50);
/// Poll interval while a joiner waits for its ticket.
const TICKET_POLL: Duration = Duration::from_millis(2);

/// Sentinel ticket value marking a *dismissed* spare. Deliberately not a
/// multiple of 8 bytes so it can never be confused with an encoded ticket.
const DISMISS_SENTINEL: &[u8] = b"DISMISS";

/// Deterministic jitter in microseconds for retry `attempt` of operation
/// `what`: FNV-1a over the name, splitmix64-finalised with the attempt
/// index. No `SystemTime`/`rand` — schedules are reproducible.
fn jitter_us(what: &str, attempt: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in what.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = h
        .wrapping_add(attempt as u64)
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % 500
}

fn encode_ticket(t: &JoinTicket) -> Vec<u8> {
    let mut words = Vec::with_capacity(3 + t.group.len());
    words.push(t.epoch);
    words.push(t.comm_id.map_or(0, |id| id + 1));
    words.push(t.group.len() as u64);
    words.extend(t.group.iter().map(|r| r.0 as u64));
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn decode_ticket(bytes: &[u8]) -> Option<JoinTicket> {
    if !bytes.len().is_multiple_of(8) || bytes.len() < 24 {
        return None;
    }
    let words: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let n = words[2] as usize;
    if words.len() != 3 + n {
        return None;
    }
    Some(JoinTicket {
        group: words[3..].iter().map(|&w| RankId(w as usize)).collect(),
        epoch: words[0],
        comm_id: words[1].checked_sub(1),
    })
}

/// The join service over a rendezvous [`Store`]. Every rank of a job —
/// members, joiners and spares alike — holds a handle onto the same store
/// and prefix. All methods may be called from multiple threads.
pub struct NetJoin {
    store: Arc<dyn Store>,
    prefix: String,
    /// This process's dialable listener address; published with announce
    /// (joiners) or via [`NetJoin::publish_contact`] (members) so peers can
    /// establish late links at ticket time.
    contact: Option<String>,
}

impl NetJoin {
    /// A join service rooted at `prefix` (typically `"{run_id}/"`; keys for
    /// distinct runs must not collide).
    pub fn new(store: Arc<dyn Store>, prefix: impl Into<String>) -> Self {
        Self {
            store,
            prefix: prefix.into(),
            contact: None,
        }
    }

    /// Attach this process's dialable address, published alongside its
    /// announce/contact keys.
    pub fn with_contact(mut self, addr: impl Into<String>) -> Self {
        self.contact = Some(addr.into());
        self
    }

    /// Publish this process's contact address under the member-address key
    /// for `rank`. Established members call this once after binding so
    /// late joiners can dial them (see [`NetJoin::contact`]).
    pub fn publish_contact(&self, rank: RankId) {
        let addr = self.contact.clone().unwrap_or_default();
        self.retry("publish_contact", || {
            self.store
                .try_set(&self.addr_key(rank), addr.clone().into_bytes())
        });
    }

    /// The key of `rank` in the `join/{ns}/` namespace (`announce`,
    /// `spare` or `ticket`).
    fn join_key(&self, ns: &str, rank: RankId) -> String {
        format!("{}join/{ns}/{:08}", self.prefix, rank.0)
    }

    fn abort_key(&self) -> String {
        format!("{}join/abort", self.prefix)
    }

    fn addr_key(&self, rank: RankId) -> String {
        format!("{}addr/{:08}", self.prefix, rank.0)
    }

    /// Run `op` with bounded retry, exponential backoff and deterministic
    /// jitter. `None` after [`STORE_ATTEMPTS`] consecutive failures — the
    /// caller treats that as "state unknown" and its own polling loop (or
    /// the collective commit) absorbs the gap.
    fn retry<T>(
        &self,
        what: &str,
        mut op: impl FnMut() -> Result<T, StoreUnavailable>,
    ) -> Option<T> {
        let mut backoff = BACKOFF_BASE;
        for attempt in 0..STORE_ATTEMPTS {
            match op() {
                Ok(v) => return Some(v),
                Err(StoreUnavailable) => {
                    telemetry::counter("ulfm.netjoin.store_retries").incr();
                    std::thread::sleep(backoff + Duration::from_micros(jitter_us(what, attempt)));
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                }
            }
        }
        telemetry::counter("ulfm.netjoin.store_gave_up").incr();
        None
    }

    /// Exact-key read via prefix scan (the store surface has no point get).
    fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.retry("get", || self.store.try_scan_prefix(key))?
            .into_iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Rank parsed from the zero-padded tail of a schema key.
    fn key_rank(key: &str) -> Option<RankId> {
        key.rsplit('/').next()?.parse::<usize>().ok().map(RankId)
    }

    /// A new worker announces itself as ready to join.
    pub fn announce(&self, rank: RankId) {
        self.announce_into("announce", rank);
    }

    /// Total announcements ever made (monotone): members wait for an
    /// expected joiner count on it without racing admission timing.
    pub fn announced_total(&self) -> u64 {
        self.total("announce")
    }

    /// Sorted snapshot of joiners awaiting admission, filtered by `alive`
    /// so dead joiners are not re-proposed forever. Non-destructive: a
    /// pending entry is only cleared by a committed
    /// [`NetJoin::confirm_tickets`].
    pub fn snapshot_pending(&self, alive: &dyn Fn(RankId) -> bool) -> Vec<RankId> {
        self.unticketed("announce", alive)
    }

    /// Publish `rank` under the `join/{ns}/` namespace with this process's
    /// address. A joiner or spare with a contact also mirrors it under the
    /// member-address key: once its merge commits it *is* a member, and
    /// later joiners dial it there.
    fn announce_into(&self, ns: &str, rank: RankId) {
        let key = self.join_key(ns, rank);
        let addr = self.contact.clone().unwrap_or_default();
        self.retry(ns, || self.store.try_set(&key, addr.clone().into_bytes()));
        if self.contact.is_some() {
            self.publish_contact(rank);
        }
    }

    /// Keys ever published under `join/{ns}/` (monotone: never deleted).
    fn total(&self, ns: &str) -> u64 {
        let prefix = format!("{}join/{ns}/", self.prefix);
        self.retry("total", || self.store.try_count_prefix(&prefix))
            .unwrap_or(0) as u64
    }

    /// Every `(rank, value)` under `join/{ns}/`, in rank order (zero-padded
    /// keys scan sorted). `None` if the store stayed unavailable.
    fn scan(&self, ns: &str) -> Option<Vec<(RankId, Vec<u8>)>> {
        let prefix = format!("{}join/{ns}/", self.prefix);
        let pairs = self.retry(ns, || self.store.try_scan_prefix(&prefix))?;
        Some(
            pairs
                .into_iter()
                .filter_map(|(k, v)| Some((Self::key_rank(&k)?, v)))
                .collect(),
        )
    }

    /// Ranks announced under `join/{ns}/` that hold no ticket key yet,
    /// filtered by `alive`. A ticket key is a committed admission or
    /// promotion, a dismissal, or a forgotten dead rank; all of them leave
    /// the set. Sorted by rank.
    fn unticketed(&self, ns: &str, alive: &dyn Fn(RankId) -> bool) -> Vec<RankId> {
        let Some(announced) = self.scan(ns) else {
            return Vec::new();
        };
        let ticketed: Vec<RankId> = self
            .scan("ticket")
            .unwrap_or_default()
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        announced
            .into_iter()
            .map(|(r, _)| r)
            .filter(|r| !ticketed.contains(r) && alive(*r))
            .collect()
    }

    /// Announced joiners holding a committed ticket. Only admission
    /// commits raise it (and a view change that forgets an admitted joiner
    /// after its death lowers it), so members that have passed the same
    /// commits read the same count.
    pub fn admitted_total(&self) -> u64 {
        let announced: Vec<RankId> = self
            .scan("announce")
            .unwrap_or_default()
            .into_iter()
            .map(|(r, _)| r)
            .collect();
        self.scan("ticket")
            .unwrap_or_default()
            .iter()
            .filter(|(r, v)| v != DISMISS_SENTINEL && announced.contains(r))
            .count() as u64
    }

    /// How many workers are waiting to join.
    pub fn pending_count(&self) -> usize {
        self.snapshot_pending(&|_| true).len()
    }

    /// A *committed* admission: issue the merged-group ticket to each
    /// joiner, which also retires it from the pending set (and a promoted
    /// spare from the pool). Idempotent — every surviving member issues the
    /// identical ticket after the commit agreement, so no single leader
    /// death can strand a decided joiner.
    pub fn confirm_tickets(&self, joiners: &[RankId], ticket: &JoinTicket) {
        let bytes = encode_ticket(ticket);
        for &j in joiners {
            // Idempotent: every surviving member writes the identical
            // committed ticket, so re-confirmation after leader death is a
            // harmless overwrite.
            self.retry("confirm_ticket", || {
                self.store
                    .try_set(&self.join_key("ticket", j), bytes.clone())
            });
        }
    }

    /// Abort the join service: every pending joiner and spare stops
    /// waiting and exits.
    pub fn abort(&self) {
        self.retry("abort", || self.store.try_set(&self.abort_key(), vec![1]));
    }

    /// A joiner blocks until its ticket arrives, it dies, the computation
    /// aborts, or `deadline` passes (`Err(JoinTimeout)` — an orphaned
    /// joiner must exit rather than hang when the accepting group has
    /// completed or given up without aborting explicitly).
    pub fn wait_ticket(
        &self,
        rank: RankId,
        is_alive: &dyn Fn() -> bool,
        deadline: Option<Instant>,
    ) -> Result<JoinTicket, UlfmError> {
        let key = self.join_key("ticket", rank);
        loop {
            // A transient scan failure is indistinguishable from "no ticket
            // yet"; the poll loop itself is the retry.
            if let Ok(pairs) = self.store.try_scan_prefix(&key) {
                if let Some((_, v)) = pairs.into_iter().find(|(k, _)| k == &key) {
                    if v == DISMISS_SENTINEL {
                        // Dismissed spare: the run completed without
                        // needing this standby; exit instead of idling.
                        return Err(UlfmError::Aborted);
                    }
                    if let Some(t) = decode_ticket(&v) {
                        return Ok(t);
                    }
                }
                if self
                    .store
                    .try_count_prefix(&self.abort_key())
                    .is_ok_and(|n| n > 0)
                {
                    return Err(UlfmError::Aborted);
                }
            } else {
                telemetry::counter("ulfm.netjoin.store_retries").incr();
            }
            if !is_alive() {
                return Err(UlfmError::SelfDied);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(UlfmError::JoinTimeout);
            }
            std::thread::sleep(TICKET_POLL);
        }
    }

    /// The published contact address of `rank`: its member-address key,
    /// else the address it announced with. `None` when it published no
    /// address (in-process ranks have nothing to dial).
    pub fn contact(&self, rank: RankId) -> Option<String> {
        let bytes = self
            .get(&self.addr_key(rank))
            .or_else(|| self.get(&self.join_key("announce", rank)))
            .or_else(|| self.get(&self.join_key("spare", rank)))?;
        if bytes.is_empty() {
            return None;
        }
        String::from_utf8(bytes).ok()
    }

    /// A standby worker announces itself into the *warm spare pool* — a
    /// namespace separate from the joiner pending set, so epoch-boundary
    /// admission never drains workers being held back to absorb failures.
    /// A spare waits for its promotion ticket via [`NetJoin::wait_ticket`],
    /// exactly like a joiner.
    pub fn announce_spare(&self, rank: RankId) {
        self.announce_into("spare", rank);
    }

    /// Total spare announcements ever made (monotone, like
    /// [`NetJoin::announced_total`]).
    pub fn spare_total(&self) -> u64 {
        self.total("spare")
    }

    /// Sorted snapshot of spares awaiting promotion, filtered by `alive`.
    /// Non-destructive: a spare leaves the pool only through a committed
    /// [`NetJoin::confirm_tickets`] or [`NetJoin::dismiss_spare`].
    pub fn snapshot_spares(&self, alive: &dyn Fn(RankId) -> bool) -> Vec<RankId> {
        self.unticketed("spare", alive)
    }

    /// Dismiss one waiting spare: it wakes from [`NetJoin::wait_ticket`]
    /// with [`UlfmError::Aborted`] and exits. Called by completing workers
    /// so unused spares do not idle until their deadline. Idempotent.
    pub fn dismiss_spare(&self, rank: RankId) {
        // The sentinel doubles as the "ticketed" marker that removes the
        // spare from every future snapshot — idempotent by overwrite.
        self.retry("dismiss_spare", || {
            self.store
                .try_set(&self.join_key("ticket", rank), DISMISS_SENTINEL.to_vec())
        });
    }

    /// Retire a rank the view change agreed is **dead** from join-side
    /// bookkeeping: it leaves the pending-joiner set and the warm spare
    /// pool, so a burst that kills a parked spare does not leave a ghost
    /// entry to be re-proposed forever. Idempotent.
    pub fn forget(&self, rank: RankId) {
        // The dismissal sentinel is the "ticketed" marker that retires the
        // rank from pending *and* spare snapshots. The rank is dead, so
        // nothing will ever poll the sentinel back — writing it is pure
        // bookkeeping, and every survivor installing the same view delta
        // overwrites the same key.
        self.dismiss_spare(rank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloo::{KvStore, StoreFaults};

    fn ticket() -> JoinTicket {
        JoinTicket {
            group: vec![RankId(0), RankId(1), RankId(3)],
            epoch: 5,
            comm_id: Some(9),
        }
    }

    #[test]
    fn ticket_roundtrips_through_wire_words() {
        let t = ticket();
        assert_eq!(decode_ticket(&encode_ticket(&t)), Some(t));
        let none = JoinTicket {
            group: vec![RankId(2)],
            epoch: 0,
            comm_id: None,
        };
        assert_eq!(decode_ticket(&encode_ticket(&none)), Some(none));
        assert_eq!(decode_ticket(&[1, 2, 3]), None);
        assert_eq!(decode_ticket(&[0u8; 16]), None);
    }

    #[test]
    fn announce_snapshot_confirm_wait() {
        let store = KvStore::shared();
        let j = NetJoin::new(store.clone(), "run/");
        j.announce(RankId(4));
        j.announce(RankId(3));
        assert_eq!(j.announced_total(), 2);
        assert_eq!(j.snapshot_pending(&|_| true), vec![RankId(3), RankId(4)]);
        assert_eq!(j.snapshot_pending(&|r| r != RankId(4)), vec![RankId(3)]);
        assert_eq!(j.pending_count(), 2);

        let t = ticket();
        j.confirm_tickets(&[RankId(3)], &t);
        // Ticketed joiners leave the pending set; announce stays monotone.
        assert_eq!(j.snapshot_pending(&|_| true), vec![RankId(4)]);
        assert_eq!(j.announced_total(), 2);
        assert_eq!(j.admitted_total(), 1);
        assert_eq!(j.wait_ticket(RankId(3), &|| true, None), Ok(t));
    }

    #[test]
    fn wait_ticket_deadline_alive_and_abort() {
        let store = KvStore::shared();
        let j = NetJoin::new(store.clone(), "run/");
        let deadline = Some(Instant::now() + Duration::from_millis(15));
        assert_eq!(
            j.wait_ticket(RankId(7), &|| true, deadline),
            Err(UlfmError::JoinTimeout)
        );
        assert_eq!(
            j.wait_ticket(RankId(7), &|| false, None),
            Err(UlfmError::SelfDied)
        );
        j.abort();
        assert_eq!(
            j.wait_ticket(RankId(7), &|| true, None),
            Err(UlfmError::Aborted)
        );
    }

    #[test]
    fn contact_prefers_member_addr_then_announce() {
        let store = KvStore::shared();
        let member = NetJoin::new(store.clone(), "run/").with_contact("127.0.0.1:9000");
        member.publish_contact(RankId(0));
        let joiner = NetJoin::new(store.clone(), "run/").with_contact("127.0.0.1:9001");
        joiner.announce(RankId(3));
        let bare = NetJoin::new(store.clone(), "run/");
        bare.announce(RankId(5));

        let probe = NetJoin::new(store.clone(), "run/");
        assert_eq!(probe.contact(RankId(0)), Some("127.0.0.1:9000".into()));
        assert_eq!(probe.contact(RankId(3)), Some("127.0.0.1:9001".into()));
        assert_eq!(probe.contact(RankId(5)), None, "empty announce ⇒ no addr");
        assert_eq!(probe.contact(RankId(9)), None, "unknown rank ⇒ no addr");
    }

    #[test]
    fn spare_pool_announce_snapshot_promote_dismiss() {
        let store = KvStore::shared();
        let j = NetJoin::new(store.clone(), "run/").with_contact("127.0.0.1:9100");
        j.announce_spare(RankId(8));
        let bare = NetJoin::new(store.clone(), "run/");
        bare.announce_spare(RankId(6));
        assert_eq!(j.spare_total(), 2);
        // Spares live apart from the joiner pending set.
        assert_eq!(j.pending_count(), 0);
        assert_eq!(j.snapshot_spares(&|_| true), vec![RankId(6), RankId(8)]);
        assert_eq!(j.snapshot_spares(&|r| r != RankId(6)), vec![RankId(8)]);
        // A spare with a contact is dialable like a member.
        assert_eq!(j.contact(RankId(8)), Some("127.0.0.1:9100".into()));

        // Promotion: a committed ticket removes the spare from the pool and
        // wakes it exactly like a joiner.
        let t = ticket();
        j.confirm_tickets(&[RankId(8)], &t);
        assert_eq!(j.snapshot_spares(&|_| true), vec![RankId(6)]);
        assert_eq!(j.wait_ticket(RankId(8), &|| true, None), Ok(t));

        // Dismissal: the sentinel wakes the waiter with Aborted and keeps
        // the spare out of future snapshots (idempotent).
        j.dismiss_spare(RankId(6));
        j.dismiss_spare(RankId(6));
        assert!(j.snapshot_spares(&|_| true).is_empty());
        assert_eq!(
            j.wait_ticket(RankId(6), &|| true, None),
            Err(UlfmError::Aborted)
        );
        // Announce totals stay monotone through promote/dismiss.
        assert_eq!(j.spare_total(), 2);
    }

    #[test]
    fn forget_retires_a_dead_rank_from_pending_and_spares() {
        let store = KvStore::shared();
        let j = NetJoin::new(store.clone(), "run/");
        j.announce(RankId(3));
        j.announce(RankId(4));
        j.announce_spare(RankId(6));
        j.announce_spare(RankId(7));
        j.forget(RankId(3));
        j.forget(RankId(6));
        let (pending, spares) = (j.snapshot_pending(&|_| true), j.snapshot_spares(&|_| true));
        assert_eq!(pending, vec![RankId(4)]);
        assert_eq!(spares, vec![RankId(7)]);
        // Idempotent: a second survivor installing the same view delta
        // changes nothing, and announce totals stay monotone.
        j.forget(RankId(3));
        j.forget(RankId(6));
        assert_eq!(j.snapshot_pending(&|_| true), pending);
        assert_eq!(j.snapshot_spares(&|_| true), spares);
        assert_eq!((j.announced_total(), j.spare_total()), (2, 2));
    }

    #[test]
    fn transient_store_failures_are_retried_and_counted() {
        let before = telemetry::counter("ulfm.netjoin.store_retries").get();
        let store = KvStore::shared_flaky(StoreFaults::rate(0.8, 11));
        let j = NetJoin::new(store.clone(), "flaky/");
        j.announce(RankId(2));
        let t = ticket();
        j.confirm_tickets(&[RankId(2)], &t);
        // max_consecutive bounds failure runs, so bounded retry always
        // lands the writes; the poll loop then finds the ticket.
        assert_eq!(j.wait_ticket(RankId(2), &|| true, None), Ok(t));
        assert!(
            telemetry::counter("ulfm.netjoin.store_retries").get() > before,
            "injected store faults must surface as counted retries"
        );
    }
}
