//! Forward recovery over ULFM: the paper's contribution.
//!
//! ## The protocol (paper §3.1–3.2)
//!
//! Each optimizer step issues `T` gradient allreduces (one per trainable
//! tensor) followed by a **commit barrier**, then applies the optimizer.
//! Every operation carries a global id `step·(T+1) + local`. On any
//! failure:
//!
//! 1. **revoke** the communicator (interrupts members blocked in other
//!    operations — they join recovery via their own `Revoked` error);
//! 2. **agree** — a fault-tolerant agreement whose `min` merge yields the
//!    earliest failed operation id across survivors (the *restart point*),
//!    and whose failed-set union identifies the victims;
//! 3. **shrink** with the recovery policy (drop-process or drop-node;
//!    evicted healthy ranks leave with [`WorkerExit::Excluded`]);
//! 4. **redo** operations from the restart point on the shrunk
//!    communicator, *from retained inputs* — each worker still holds the
//!    gradient it contributed, so the re-executed allreduce aggregates the
//!    survivors' contributions. No rollback, no checkpoint.
//!
//! ## Why the restart point is safe
//!
//! The commit barrier gates the optimizer: a worker applies step `S` only
//! after its barrier completes, and barrier completion at *any* worker
//! implies *every* worker entered it (dissemination property) — hence no
//! worker failed inside step `S`'s allreduces. Consequently the agreed
//! restart point can only reach back to the latest uncommitted work: a
//! tensor allreduce of the current step, or the previous step's barrier.
//! Both are idempotent to redo (allreduces are re-fed from saved inputs;
//! the barrier carries no data), so replicas stay bit-identical — which
//! the tests assert via state fingerprints.
//!
//! ## The policy layer ("Chameleon mode")
//!
//! When [`ForwardConfig::policy_mode`] departs from pure shrink or a warm
//! spare pool is expected, step 3 gains a *policy round*: after the
//! shrink, the survivors uniformly commit one recovery arm
//! ([`ulfm::Communicator::commit_recovery_policy`]) —
//!
//! * **shrink** — the paper's retained-inputs redo above, unchanged;
//! * **spare** — promote pre-joined warm spares ([`Role::Spare`]) into the
//!   gap, synchronize them from live state, and restart the interrupted
//!   step at full strength: no capacity lost, no rollback;
//! * **rollback** — restore *every* survivor from the newest local
//!   checkpoint ([`ForwardConfig::ckpt_every`]) and recompute from there
//!   (the classic engine, available per-failure instead of per-run).
//!
//! The arm is chosen by [`PolicyEngine`](crate::policy::PolicyEngine) from
//! live [`PolicyInputs`], but only the leader's choice matters — it rides
//! inside the committed proposal, so locally-diverging inputs can never
//! diverge the SPMD control flow. If the committed arm itself dies
//! mid-recovery (a spare killed during promotion, a checkpoint sync broken
//! by a cascade), survivors fall down a deterministic chain — spare →
//! shrink → abort-below-floor — whose backstop, the retained-inputs redo,
//! has no preconditions and therefore always applies.

use crate::config::{
    policy_evictions, state_fingerprint, HierMode, RecoveryPolicy, TrainSpec, WorkerExit,
    WorkerStats,
};
use crate::cost_model::{HierModel, PolicyInputs};
use crate::policy::{PolicyEngine, PolicyMode};
use crate::profiler::{RecoveryBreakdown, RecoveryKind};
use collectives::{AllreduceAlgo, ReduceOp};
use dnn::Checkpoint;
use transport::RankId;
use ulfm::{
    Communicator, Hierarchy, JoinOutcome, PolicyCommit, Proc, RecoveryArm, ShrinkOutcome, UlfmError,
};

/// Configuration of the forward-recovery engine.
#[derive(Clone, Debug)]
pub struct ForwardConfig {
    /// The shared training workload.
    pub spec: TrainSpec,
    /// Eviction policy on failure.
    pub policy: RecoveryPolicy,
    /// Accept joiners (replacement/upscale) at epoch boundaries.
    pub accept_joiners: bool,
    /// How many joiners this run *expects* over its lifetime. Until that
    /// many have been admitted, workers block at epoch boundaries for
    /// pending announcements — making replacement/upscale admission
    /// deterministic instead of racing training speed against joiner
    /// startup. Zero (the default) never waits.
    pub expected_joiners: usize,
    /// Upper bound on the epoch-boundary wait for expected joiners, and on
    /// a joiner's own wait for its admission ticket. `None` (the default)
    /// waits forever — correct in-process, where every expected joiner is a
    /// thread that provably starts. Multi-process launches set a bound so a
    /// crashed joiner degrades the group to running shrunk instead of
    /// stalling it; the give-up decision travels inside the committed join
    /// proposal, so members never diverge on local clocks.
    pub join_wait: Option<std::time::Duration>,
    /// Rescale redone gradients by the lost contribution fraction so the
    /// degraded step keeps the same expected gradient magnitude.
    pub renormalize_after_loss: bool,
    /// Optional Goyal-style learning-rate re-scaling on membership change:
    /// after a shrink or join, ramp the rate to
    /// `spec.lr × world / base_world` over `warmup_steps` (paper §5's
    /// convergence techniques [16][22], applied elastically).
    pub lr_scaling: Option<LrScaling>,
    /// How the recovery arm is picked at each failure. The default —
    /// static forward-shrink — reproduces the seed engine bit-identically
    /// (with no spare pool, no policy round runs at all).
    pub policy_mode: PolicyMode,
    /// Warm spares this run expects ([`Role::Spare`] workers). Members
    /// wait for that many pool announcements before training starts, so
    /// the pool is warm before the first failure can hit. Zero (the
    /// default) disables the wait.
    pub expected_spares: usize,
    /// Capture a local in-memory checkpoint every this many steps — the
    /// rollback arm's restore source. Zero (the default) disables capture,
    /// which makes rollback infeasible and degrades it to shrink.
    pub ckpt_every: u64,
}

/// Elastic learning-rate policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LrScaling {
    /// World size at which `spec.lr` is the reference rate.
    pub base_world: usize,
    /// Ramp length after each membership change.
    pub warmup_steps: u64,
}

impl ForwardConfig {
    /// Defaults: drop-process policy, joins enabled, no renormalization,
    /// static forward-shrink (no policy layer).
    pub fn new(spec: TrainSpec) -> Self {
        Self {
            spec,
            policy: RecoveryPolicy::DropProcess,
            accept_joiners: true,
            expected_joiners: 0,
            join_wait: None,
            renormalize_after_loss: false,
            lr_scaling: None,
            policy_mode: PolicyMode::default(),
            expected_spares: 0,
            ckpt_every: 0,
        }
    }

    /// Does recovery run the policy round at all? Pure static shrink with
    /// no spare pool skips it entirely, keeping the seed engine's exact
    /// recovery sequence (and cost). Uniform across workers because `cfg`
    /// is shared — the round is a collective, so all survivors must agree
    /// on whether it runs.
    pub fn policy_active(&self) -> bool {
        self.policy_mode != PolicyMode::Static(RecoveryArm::Shrink) || self.expected_spares > 0
    }
}

/// How a worker participates in the computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Founding member: starts in the initial communicator.
    Member,
    /// Joins a running group at an epoch boundary (replacement/upscale).
    Joiner,
    /// Pre-joins the warm spare pool and waits for a promotion ticket; it
    /// enters the group only when a recovery's policy round commits a
    /// promotion (never at epoch boundaries). Dismissed spares exit with
    /// [`WorkerExit::Aborted`] and zeroed stats.
    Spare,
}

/// Outcome plus per-episode breakdowns (for the figure benches).
pub struct ForwardOutcome {
    /// How the worker ended.
    pub exit: WorkerExit,
    /// Recovery/join episodes recorded at this worker.
    pub breakdowns: Vec<RecoveryBreakdown>,
}

/// Internal: terminal conditions that abort the worker loop.
enum Fatal {
    Died,
    Excluded,
    /// The surviving world shrank below `TrainSpec::min_workers`.
    Aborted,
}

/// What the op loop does after a recovery episode resolves.
enum Flow {
    /// Redo from the agreed restart operation on the shrunk group (the
    /// paper's forward path).
    Redo(u64),
    /// Restart the step loop at this step — state was re-synchronized by a
    /// committed promotion or rollback.
    Restart(u64),
}

/// What the policy round decided (relative to the already-shrunk group).
enum PolicyAction {
    /// Keep the forward redo.
    Shrink,
    /// State re-synchronized; restart the step loop here.
    Restart(u64),
}

/// Gradient-allreduce router: flat (the seed behaviour) or hierarchical,
/// decided per bucket by [`TrainSpec::hier`]. The cached [`Hierarchy`] is
/// rebuilt lazily whenever the communicator epoch changed — a shrink,
/// join, or promotion replaced `comm` — which keeps it correct at *every*
/// comm-reassignment site in the engine (op-loop shrink, nested barrier
/// redo, epoch joins, policy arms, checkpoint-sync recovery) without
/// threading explicit rebuild calls through them. The rebuild itself is
/// local and deterministic in the agreed membership, so replicas stay
/// aligned.
///
/// When the hierarchical route is taken with a size-adaptive
/// ([`AllreduceAlgo::Auto`]) spec, the cross-node exchange resolves
/// against the two-tier model's *leader-count* crossover
/// ([`HierModel::cross_auto_algo`]), not the flat world's.
fn grad_allreduce(
    comm: &Communicator,
    hier: &mut Option<Hierarchy>,
    spec: &TrainSpec,
    model: &HierModel,
    buf: &mut [f32],
) -> Result<(), UlfmError> {
    if spec.hier != HierMode::Off {
        if hier.as_ref().is_none_or(|h| !h.is_current_for(comm)) {
            // A failed build (no node color for a member) falls back to
            // flat collectives instead of aborting the step.
            *hier = Hierarchy::build(comm).ok();
            if hier.is_some() {
                telemetry::counter("elastic.hier.rebuilds").incr();
            }
        }
        if let Some(h) = hier.as_ref() {
            let map = h.map();
            let bytes = std::mem::size_of_val(buf);
            if spec.hier.use_hier(
                model,
                bytes,
                comm.size(),
                map.n_nodes(),
                map.max_node_size(),
            ) {
                telemetry::counter("elastic.hier.routed_buckets").incr();
                let algo = if matches!(spec.algo, AllreduceAlgo::Auto { .. }) {
                    model.cross_auto_algo(map.n_nodes())
                } else {
                    spec.algo
                };
                return comm.hier_allreduce(h, buf, ReduceOp::Sum, algo);
            }
        }
    }
    comm.allreduce(buf, ReduceOp::Sum, spec.algo)
}

/// Run one worker under forward recovery. `is_joiner` workers attach to a
/// running group via the join service instead of the initial communicator.
pub fn run_forward_worker(proc: &Proc, cfg: &ForwardConfig, is_joiner: bool) -> ForwardOutcome {
    run_forward_role(
        proc,
        cfg,
        if is_joiner {
            Role::Joiner
        } else {
            Role::Member
        },
    )
}

/// Run one worker in the given [`Role`]. Members and joiners behave as in
/// [`run_forward_worker`]; spares park in the warm pool until a policy
/// round promotes them (after which they train as full members) or the run
/// ends and dismisses them.
pub fn run_forward_role(proc: &Proc, cfg: &ForwardConfig, role: Role) -> ForwardOutcome {
    let mut breakdowns = Vec::new();
    let exit = run_inner(proc, cfg, role, &mut breakdowns);
    ForwardOutcome { exit, breakdowns }
}

fn run_inner(
    proc: &Proc,
    cfg: &ForwardConfig,
    role: Role,
    breakdowns: &mut Vec<RecoveryBreakdown>,
) -> WorkerExit {
    let spec = &cfg.spec;
    let mut model = spec.build_model();
    let mut opt = spec.build_optimizer();
    let ds = spec.build_dataset();
    let topology = proc.endpoint().topology();
    let mut recoveries = 0usize;
    let mut last_loss = f32::NAN;
    let mut steps_recomputed: u64 = 0;
    // Rollback arm's restore source (captured every `ckpt_every` steps).
    let mut local_ckpt: Option<Checkpoint> = None;
    // Per-step wall time estimate feeding the policy cost model.
    let mut step_time_ema: f64 = 0.0;

    // --- membership -----------------------------------------------------
    let mut comm = match role {
        Role::Member => proc.init_comm(),
        Role::Joiner | Role::Spare => {
            let joined = if role == Role::Spare {
                proc.join_training_as_spare(cfg.join_wait)
            } else {
                proc.join_training_deadline(cfg.join_wait)
            };
            match joined {
                Ok(c) => c,
                Err(UlfmError::SelfDied) => return WorkerExit::Died,
                Err(UlfmError::Aborted) if role == Role::Spare => {
                    // Dismissed: the run finished (or aborted) without
                    // needing this spare. A clean non-event — crucially not
                    // a below-minimum abort.
                    telemetry::counter("elastic.spare.dismissed").incr();
                    proc.retire();
                    return WorkerExit::Aborted(idle_stats(&model));
                }
                Err(UlfmError::Aborted) => {
                    // The run shut down before this joiner was admitted.
                    return abort_exit(proc, 0, f32::NAN, 0, 0, 0, &model, &opt, breakdowns);
                }
                Err(UlfmError::JoinTimeout) => {
                    // Orphaned: the group completed, degraded to running
                    // shrunk, or partitioned away without ever ticketing
                    // us. Leave quietly — crucially *without* abort_joins,
                    // which would dismiss other still-viable joiners.
                    telemetry::counter(if role == Role::Spare {
                        "elastic.spare.ticket_timeouts"
                    } else {
                        "elastic.join.ticket_timeouts"
                    })
                    .incr();
                    proc.retire();
                    return WorkerExit::Aborted(idle_stats(&model));
                }
                Err(e) => unreachable!("join_training failed unexpectedly: {e}"),
            }
        }
    };
    // Select the agreement protocol for every recovery on this (and, via
    // inheritance, every derived) communicator. A joiner's ticket cannot
    // carry the setting, so each worker installs it from its own spec —
    // identical across the SPMD group by construction.
    comm.set_agree_impl(spec.agree);
    let mut step: u64 = if role != Role::Member {
        // Receive (state, step) from the group; the paper's "reinitializing
        // the training state for the new workers". The sync survives sender
        // deaths: it retries on the recovered group until a state-holder
        // commits the broadcast (or none survives and the run aborts). A
        // promoted spare bootstraps exactly like a joiner — the members'
        // side of its promotion is this same sync.
        let mut episode = RecoveryBreakdown::new(RecoveryKind::Join, 0);
        let mut has_state = false;
        let s = checkpoint_sync(
            proc,
            cfg,
            &mut comm,
            &mut model,
            &mut opt,
            &mut has_state,
            0,
            &None,
            SyncOpts {
                source: SyncSource::Live,
                restore_all: false,
                bound: SyncBound::Unbounded,
            },
            &mut episode,
            topology,
            &mut recoveries,
        );
        episode.publish(proc.rank().0);
        breakdowns.push(episode);
        match s {
            Ok(SyncOutcome::Synced(step)) => step,
            Ok(SyncOutcome::GaveUp) => unreachable!("unbounded sync never gives up"),
            Err(f) => {
                return fatal_exit(
                    f,
                    proc,
                    0,
                    f32::NAN,
                    recoveries,
                    0,
                    0,
                    &model,
                    &opt,
                    breakdowns,
                )
            }
        }
    } else {
        0
    };

    // Warm-pool determinism: like expected_joiners, members block until
    // every expected spare has announced itself, so the first failure
    // already sees a warm pool instead of racing spare startup. The
    // counter is monotone and global; `join_wait` bounds the stall.
    if role == Role::Member && cfg.expected_spares > 0 {
        let deadline = cfg.join_wait.map(|w| std::time::Instant::now() + w);
        while proc.announced_spares() < cfg.expected_spares as u64
            && deadline.is_none_or(|d| std::time::Instant::now() < d)
        {
            std::thread::sleep(std::time::Duration::from_micros(300));
        }
    }

    // Fusion schedule (if enabled): gradients pack into buckets in ready
    // order and each bucket allreduces as one resilient collective. The
    // per-step op sequence becomes `n_ops` bucket allreduces + the commit
    // barrier, instead of one allreduce per tensor + barrier; op ids and
    // the restart-point protocol are otherwise identical.
    let fusion = spec
        .fusion
        .map(|cap| crate::fusion::FusionSetup::new(&model, cap));
    // Per-epoch hierarchical routing state: the two-tier cost model is
    // static; the node map is rebuilt inside `grad_allreduce` whenever the
    // communicator epoch changes.
    let hier_model = HierModel::summit();
    let mut hier_cache: Option<Hierarchy> = None;
    let n_ops: i64 = fusion
        .as_ref()
        .map_or(model.num_tensors() as i64, |f| f.n_buckets() as i64);
    // World size the LR schedule is currently anchored to.
    let mut lr_world = comm.size();
    if let Some(policy) = cfg.lr_scaling {
        let target = spec.lr * lr_world as f32 / policy.base_world as f32;
        opt.set_schedule(dnn::LrSchedule::PiecewiseRamp {
            from: spec.lr,
            to: target,
            start: step,
            ramp: policy.warmup_steps,
        });
    }

    while (step as usize) < spec.total_steps {
        telemetry::counter("elastic.forward.steps").incr();
        let _step_span = telemetry::span("elastic.forward.step_ns");
        let step_t0 = std::time::Instant::now();
        let recoveries_before = recoveries;
        // The step body may be re-attempted from scratch: if this worker had
        // raced ahead into step S+1 when a failure struck step S's commit
        // barrier, it redoes that barrier and then *recomputes* its S+1
        // gradients with the post-recovery membership (its pre-failure
        // shard was cut for the old world). A committed promotion or
        // rollback also restarts here, at the re-synchronized step.
        let grads = 'attempt: loop {
            // --- local gradient computation -------------------------------
            let world = comm.size();
            let my_rank = comm.rank();
            let shard = ds.shard(step as usize, spec.global_batch, my_rank, world);
            let shard_weight = shard.labels.len() as f32 / spec.global_batch as f32;
            model.zero_grads();

            // Ops already completed by the eager (ready-queue) launch path,
            // and the first error it encountered, if any.
            let mut done: Vec<bool> = vec![false; n_ops as usize];
            let mut pending_err: Option<(usize, UlfmError)> = None;

            // Weighted gradients: allreduce(SUM) of per-shard means ×
            // weights equals the global-batch mean. `op_bufs` are the
            // collective payloads — fused buckets (ready order) or
            // per-tensor gradients (declaration order); `saved` holds the
            // retained inputs of §3.2 — what makes forward recovery work.
            let (report, mut op_bufs, saved) = if let Some(fs) = &fusion {
                let mut bufs = fs.bucket_buffers();
                let mut saved: Vec<Vec<f32>> = vec![Vec::new(); fs.n_buckets()];
                let mut filled = vec![0usize; fs.n_buckets()];
                let mut fill_start: Vec<Option<std::time::Instant>> = vec![None; fs.n_buckets()];
                let report = model.compute_gradients_with(&shard, |idx, g| {
                    let (b, off, len) = fs.slot(idx);
                    if fill_start[b].is_none() {
                        fill_start[b] = Some(std::time::Instant::now());
                    }
                    for (d, s) in bufs[b][off..off + len].iter_mut().zip(g.data()) {
                        *d = s * shard_weight;
                    }
                    filled[b] += 1;
                    if filled[b] < fs.bucket_tensors(b) {
                        return;
                    }
                    // Bucket filled: save its input, then launch the fused
                    // allreduce immediately — later layers are still
                    // differentiating (the ready-queue overlap).
                    if let Some(t0) = fill_start[b].take() {
                        telemetry::histogram("elastic.fusion.fill_latency_ns")
                            .record(t0.elapsed().as_nanos() as u64);
                    }
                    collectives::observe_bucket(
                        bufs[b].len() * std::mem::size_of::<f32>(),
                        fs.bucket_tensors(b),
                    );
                    saved[b] = bufs[b].clone();
                    if pending_err.is_none() {
                        match grad_allreduce(
                            &comm,
                            &mut hier_cache,
                            spec,
                            &hier_model,
                            &mut bufs[b],
                        ) {
                            Ok(()) => done[b] = true,
                            // Stop launching; the op loop below drives the
                            // recovery from this recorded error.
                            Err(e) => pending_err = Some((b, e)),
                        }
                    }
                });
                (report, bufs, saved)
            } else {
                let report = model.compute_gradients(&shard);
                let grads: Vec<Vec<f32>> = model
                    .grads()
                    .iter()
                    .map(|g| g.data().iter().map(|v| v * shard_weight).collect())
                    .collect();
                let saved = grads.clone();
                (report, grads, saved)
            };
            last_loss = report.loss;
            let step_group: Vec<RankId> = comm.group().to_vec();

            // --- resilient collective phase -------------------------------
            // local_op ∈ [0, n_ops]: gradient allreduces (per bucket or per
            // tensor), then the commit barrier. Ops the eager path already
            // completed are skipped; its recorded error surfaces at the op
            // it struck, feeding the same recovery protocol.
            let mut local_op: i64 = 0;
            let mut redo_from: Option<usize> = None;
            while local_op <= n_ops {
                let lo = local_op as usize;
                let result = if local_op < n_ops && done[lo] {
                    Ok(())
                } else if pending_err.as_ref().is_some_and(|(b, _)| *b == lo) {
                    Err(pending_err.take().expect("just checked").1)
                } else if local_op == n_ops {
                    comm.barrier()
                } else {
                    grad_allreduce(&comm, &mut hier_cache, spec, &hier_model, &mut op_bufs[lo])
                };
                match result {
                    Ok(()) => local_op += 1,
                    Err(UlfmError::SelfDied) => return WorkerExit::Died,
                    Err(UlfmError::Excluded) => unreachable!("collectives never exclude"),
                    Err(_) => {
                        recoveries += 1;
                        let my_global = global_op(step, n_ops, local_op);
                        let mut episode = RecoveryBreakdown::new(RecoveryKind::Forward, step);
                        // Recover, then — if the policy layer is on — run
                        // the policy round. *Every* survivor of the shrink
                        // runs it (racing workers included: they align here
                        // before diverging into their redo paths), so the
                        // commit's collectives stay collective.
                        let flow =
                            match recover(proc, cfg, &comm, my_global, &mut episode, topology) {
                                Ok((new_comm, restart)) => {
                                    comm = new_comm;
                                    if cfg.policy_active() {
                                        policy_dispatch(
                                            proc,
                                            cfg,
                                            &mut comm,
                                            &mut model,
                                            &mut opt,
                                            step,
                                            &local_ckpt,
                                            step_time_ema,
                                            world,
                                            &mut episode,
                                            topology,
                                            &mut recoveries,
                                        )
                                        .map(|action| {
                                            match action {
                                                PolicyAction::Shrink => Flow::Redo(restart),
                                                PolicyAction::Restart(s) => Flow::Restart(s),
                                            }
                                        })
                                    } else {
                                        Ok(Flow::Redo(restart))
                                    }
                                }
                                Err(f) => Err(f),
                            };
                        episode.publish(proc.rank().0);
                        breakdowns.push(breakdowns_last_fix(&mut episode));
                        match flow {
                            Ok(Flow::Restart(s)) => {
                                // Promotion or rollback re-synchronized the
                                // state; recompute from step `s` (racing
                                // workers count their rewound applies as
                                // recomputation).
                                if s < step {
                                    steps_recomputed += step - s;
                                }
                                step = s;
                                continue 'attempt;
                            }
                            Ok(Flow::Redo(restart)) => {
                                let first_of_step = global_op(step, n_ops, 0);
                                if restart >= first_of_step {
                                    // Restart within this step: restore the
                                    // retained inputs and redo from there.
                                    // Ops the eager path completed on the
                                    // old communicator are redone too —
                                    // their `done` marks are void.
                                    let rlocal = (restart - first_of_step) as usize;
                                    assert!(rlocal as i64 <= n_ops);
                                    for (i, s) in saved.iter().enumerate().skip(rlocal) {
                                        op_bufs[i].copy_from_slice(s);
                                    }
                                    for d in done.iter_mut().skip(rlocal) {
                                        *d = false;
                                    }
                                    pending_err = None;
                                    redo_from = Some(redo_from.map_or(rlocal, |r| r.min(rlocal)));
                                    local_op = rlocal as i64;
                                } else {
                                    // This worker raced ahead: the agreed
                                    // restart is the previous step's commit
                                    // barrier. Redo it (with nested recovery)
                                    // and recompute this step from scratch.
                                    assert_eq!(
                                        restart,
                                        first_of_step - 1,
                                        "restart cannot reach into committed work"
                                    );
                                    loop {
                                        match comm.barrier() {
                                            Ok(()) => break,
                                            Err(UlfmError::SelfDied) => return WorkerExit::Died,
                                            Err(_) => {
                                                recoveries += 1;
                                                let mut ep = RecoveryBreakdown::new(
                                                    RecoveryKind::Forward,
                                                    step,
                                                );
                                                // The policy round runs here
                                                // too: the slower survivors
                                                // of this cascade run it in
                                                // their op loops, and its
                                                // commit must see everyone.
                                                let flow2 = match recover(
                                                    proc, cfg, &comm, restart, &mut ep, topology,
                                                ) {
                                                    Ok((c, r2)) => {
                                                        assert_eq!(
                                                            r2, restart,
                                                            "nested restart must stay at the \
                                                             redone barrier"
                                                        );
                                                        comm = c;
                                                        if cfg.policy_active() {
                                                            policy_dispatch(
                                                                proc,
                                                                cfg,
                                                                &mut comm,
                                                                &mut model,
                                                                &mut opt,
                                                                step,
                                                                &local_ckpt,
                                                                step_time_ema,
                                                                world,
                                                                &mut ep,
                                                                topology,
                                                                &mut recoveries,
                                                            )
                                                            .map(|action| match action {
                                                                PolicyAction::Shrink => {
                                                                    Flow::Redo(restart)
                                                                }
                                                                PolicyAction::Restart(s) => {
                                                                    Flow::Restart(s)
                                                                }
                                                            })
                                                        } else {
                                                            Ok(Flow::Redo(restart))
                                                        }
                                                    }
                                                    Err(f) => Err(f),
                                                };
                                                ep.publish(proc.rank().0);
                                                breakdowns.push(breakdowns_last_fix(&mut ep));
                                                match flow2 {
                                                    Ok(Flow::Redo(_)) => {}
                                                    Ok(Flow::Restart(s)) => {
                                                        if s < step {
                                                            steps_recomputed += step - s;
                                                        }
                                                        step = s;
                                                        continue 'attempt;
                                                    }
                                                    Err(f) => {
                                                        return fatal_exit(
                                                            f,
                                                            proc,
                                                            step,
                                                            last_loss,
                                                            recoveries,
                                                            world,
                                                            steps_recomputed,
                                                            &model,
                                                            &opt,
                                                            breakdowns,
                                                        )
                                                    }
                                                }
                                            }
                                        }
                                    }
                                    continue 'attempt;
                                }
                            }
                            Err(f) => {
                                return fatal_exit(
                                    f,
                                    proc,
                                    step,
                                    last_loss,
                                    recoveries,
                                    world,
                                    steps_recomputed,
                                    &model,
                                    &opt,
                                    breakdowns,
                                )
                            }
                        }
                    }
                }
            }

            // Degraded-step renormalization: contributions of evicted
            // workers are gone from redone tensors; optionally scale back
            // up. The factor derives from the step's original sharding, so
            // every survivor applies the identical scale.
            if let (Some(rfrom), true) = (redo_from, cfg.renormalize_after_loss) {
                let surviving: f32 = comm
                    .group()
                    .iter()
                    .map(|g| {
                        step_group
                            .iter()
                            .position(|&x| x == *g)
                            .map(|idx| shard_len(idx, step_group.len(), spec.global_batch))
                            .unwrap_or(0) as f32
                    })
                    .sum::<f32>()
                    / spec.global_batch as f32;
                if surviving > 0.0 && surviving < 1.0 {
                    let scale = 1.0 / surviving;
                    let from = rfrom.min(op_bufs.len());
                    for g in op_bufs.iter_mut().skip(from) {
                        for v in g.iter_mut() {
                            *v *= scale;
                        }
                    }
                }
            }
            // Fused buckets scatter back to declaration-order tensors; the
            // unfused payloads already are the per-tensor gradients.
            break 'attempt match &fusion {
                Some(fs) => fs.unpack(&op_bufs),
                None => op_bufs,
            };
        };

        // --- committed: apply the update ---------------------------------
        let cascade = (recoveries - recoveries_before) as u64;
        if cascade > 0 {
            telemetry::histogram("elastic.recovery.cascade_depth").record(cascade);
        }
        model.set_grads(&grads);
        if let Some(policy) = cfg.lr_scaling {
            // Re-anchor the rate whenever the world changed this step.
            let world = comm.size();
            if world != lr_world {
                let target = spec.lr * world as f32 / policy.base_world as f32;
                opt.set_schedule(dnn::LrSchedule::PiecewiseRamp {
                    from: opt.current_lr(),
                    to: target,
                    start: step,
                    ramp: policy.warmup_steps,
                });
                lr_world = world;
            }
        }
        opt.step(&mut model.params_mut());
        step += 1;
        if cfg.ckpt_every > 0 && step.is_multiple_of(cfg.ckpt_every) {
            let mut ck = Checkpoint::capture(&model, &opt);
            // Anchor to the training step (state is ready to compute it),
            // which the rollback arm uses for the restart point and age.
            ck.step = step;
            local_ckpt = Some(ck);
        }
        let dt = step_t0.elapsed().as_secs_f64();
        step_time_ema = if step_time_ema > 0.0 {
            0.8 * step_time_ema + 0.2 * dt
        } else {
            dt
        };

        // --- epoch boundary: accept joiners (scenarios II & III) ---------
        if cfg.accept_joiners && (step as usize).is_multiple_of(spec.steps_per_epoch) {
            if let Err(f) = admit_joiners(
                proc,
                cfg,
                &mut comm,
                &mut model,
                &mut opt,
                step,
                &mut recoveries,
                topology,
                breakdowns,
            ) {
                return fatal_exit(
                    f,
                    proc,
                    step,
                    last_loss,
                    recoveries,
                    lr_world,
                    steps_recomputed,
                    &model,
                    &opt,
                    breakdowns,
                );
            }
        }
    }

    // A run that ends before an expected joiner was admitted (it is
    // shorter than one epoch, or the joiner announced after the last
    // boundary) runs the boundary admission once more, so the joiner
    // receives the final state instead of waiting out its deadline. The
    // admitted count only changes through commits every member took part
    // in, so all members read the same count here and decide alike; a run
    // whose expected joiners are all in adds no commit round.
    if cfg.accept_joiners && proc.admitted_joiners() < cfg.expected_joiners as u64 {
        if let Err(f) = admit_joiners(
            proc,
            cfg,
            &mut comm,
            &mut model,
            &mut opt,
            step,
            &mut recoveries,
            topology,
            breakdowns,
        ) {
            return fatal_exit(
                f,
                proc,
                step,
                last_loss,
                recoveries,
                lr_world,
                steps_recomputed,
                &model,
                &opt,
                breakdowns,
            );
        }
    }

    // Leaving the computation cleanly: dismiss spares the run never needed
    // (idempotent — racing completers may all call it), then mark ourselves
    // gone so that any concurrent recovery among slower workers does not
    // wait for us.
    let stats = WorkerStats {
        steps_done: step,
        final_loss: last_loss,
        recoveries,
        final_world: comm.size(),
        state_fingerprint: state_fingerprint(&model.state_flat()),
        final_lr: opt.current_lr(),
        steps_recomputed,
    };
    proc.dismiss_spares();
    proc.retire();
    WorkerExit::Completed(stats)
}

/// The epoch-boundary admission (scenarios II & III): wait for the
/// expected joiners, commit their admission, and synchronize them from
/// live state. On return `comm` is the (possibly merged) communicator.
#[allow(clippy::too_many_arguments)]
fn admit_joiners(
    proc: &Proc,
    cfg: &ForwardConfig,
    comm: &mut Communicator,
    model: &mut dnn::Model,
    opt: &mut dnn::Sgd,
    step: u64,
    recoveries: &mut usize,
    topology: transport::Topology,
    breakdowns: &mut Vec<RecoveryBreakdown>,
) -> Result<(), Fatal> {
    // Scenario II/III determinism: no epoch boundary passes until every
    // expected joiner has announced itself. The counter is monotone and
    // global, so all members unblock on the same condition regardless of
    // who drains the pending list when. `join_wait` bounds the stall: past
    // the deadline the group gives up and continues shrunk rather than
    // waiting on a joiner that crashed before announcing. Spares are a
    // different namespace entirely: epoch boundaries never drain the pool.
    let wait_deadline = cfg.join_wait.map(|w| std::time::Instant::now() + w);
    while proc.announced_joiners() < cfg.expected_joiners as u64
        && wait_deadline.is_none_or(|d| std::time::Instant::now() < d)
    {
        std::thread::sleep(std::time::Duration::from_micros(300));
    }
    // The admission itself is re-entrant: a death mid-handshake (leader
    // included) fails the commit uniformly, the survivors shrink, and the
    // shrunk group's new rank 0 re-proposes the still-pending joiners. The
    // give-up hint below is only the *leader's* input — the decision every
    // member acts on rides in the committed proposal, so deadline clocks
    // cannot diverge the SPMD control flow.
    loop {
        let arrived = proc.announced_joiners() >= cfg.expected_joiners as u64;
        let expired = wait_deadline.is_some_and(|d| std::time::Instant::now() >= d);
        match comm.accept_joiners_directed(arrived || expired) {
            Ok(JoinOutcome::Merged(mut merged)) => {
                let mut episode = RecoveryBreakdown::new(RecoveryKind::Join, step);
                let mut has_state = true;
                let res = checkpoint_sync(
                    proc,
                    cfg,
                    &mut merged,
                    model,
                    opt,
                    &mut has_state,
                    step,
                    &None,
                    SyncOpts {
                        source: SyncSource::Live,
                        restore_all: false,
                        bound: SyncBound::Unbounded,
                    },
                    &mut episode,
                    topology,
                    recoveries,
                );
                episode.publish(proc.rank().0);
                breakdowns.push(episode);
                res?;
                *comm = merged;
                return Ok(());
            }
            Ok(JoinOutcome::NoneYet) => {
                // Leader asked the group to keep waiting: nobody had
                // announced when it proposed. Poll again shortly.
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Ok(JoinOutcome::StopWaiting) => {
                if expired && !arrived {
                    // Degradation to a shrunk-but-progressing group: the
                    // expected joiner never came and the leader committed
                    // giving up on it.
                    telemetry::counter("elastic.join.wait_timeouts").incr();
                }
                return Ok(());
            }
            Err(UlfmError::SelfDied) => return Err(Fatal::Died),
            Err(_) => {
                // Failed admission commit (or a death observed on entry):
                // recover on the *old* communicator — the pending joiners
                // stayed pending — and retry.
                *recoveries += 1;
                let mut episode = RecoveryBreakdown::new(RecoveryKind::Forward, step);
                let r = recover(proc, cfg, comm, u64::MAX, &mut episode, topology);
                episode.publish(proc.rank().0);
                breakdowns.push(episode);
                *comm = r?.0;
            }
        }
    }
}

/// The exit of a worker whose recovery ended fatally.
#[allow(clippy::too_many_arguments)]
fn fatal_exit(
    fatal: Fatal,
    proc: &Proc,
    step: u64,
    last_loss: f32,
    recoveries: usize,
    world: usize,
    steps_recomputed: u64,
    model: &dnn::Model,
    opt: &dnn::Sgd,
    breakdowns: &mut Vec<RecoveryBreakdown>,
) -> WorkerExit {
    match fatal {
        Fatal::Died => WorkerExit::Died,
        Fatal::Excluded => {
            // Evicted by the drop-node policy.
            proc.retire();
            WorkerExit::Excluded(WorkerStats {
                steps_done: step,
                final_loss: last_loss,
                recoveries,
                final_world: world,
                state_fingerprint: state_fingerprint(&model.state_flat()),
                final_lr: f32::NAN,
                steps_recomputed,
            })
        }
        Fatal::Aborted => abort_exit(
            proc,
            step,
            last_loss,
            recoveries,
            world,
            steps_recomputed,
            model,
            opt,
            breakdowns,
        ),
    }
}

/// Stats for a worker that never trained (dismissed or orphaned spare /
/// joiner).
fn idle_stats(model: &dnn::Model) -> WorkerStats {
    WorkerStats {
        steps_done: 0,
        final_loss: f32::NAN,
        recoveries: 0,
        final_world: 0,
        state_fingerprint: state_fingerprint(&model.state_flat()),
        final_lr: f32::NAN,
        steps_recomputed: 0,
    }
}

/// Work around borrowck: move the episode out (it was filled in-place).
fn breakdowns_last_fix(episode: &mut RecoveryBreakdown) -> RecoveryBreakdown {
    std::mem::replace(episode, RecoveryBreakdown::new(RecoveryKind::Forward, 0))
}

/// Exit path for a graceful below-minimum shutdown: release waiting
/// joiners, record the abort episode, and leave with the progress so far.
#[allow(clippy::too_many_arguments)]
fn abort_exit(
    proc: &Proc,
    step: u64,
    last_loss: f32,
    recoveries: usize,
    world: usize,
    steps_recomputed: u64,
    model: &dnn::Model,
    opt: &dnn::Sgd,
    breakdowns: &mut Vec<RecoveryBreakdown>,
) -> WorkerExit {
    telemetry::counter("elastic.abort.below_min").incr();
    let mut episode = RecoveryBreakdown::new(RecoveryKind::Abort, step);
    episode.time("below_min", || {
        // Joiners (and spares) still blocked on the ticket service would
        // otherwise wait for a computation that no longer exists; dismiss
        // them, then leave so concurrent recoveries observe the departure
        // instead of hanging on our silence.
        proc.abort_joins();
        proc.retire();
    });
    episode.publish(proc.rank().0);
    breakdowns.push(episode);
    WorkerExit::Aborted(WorkerStats {
        steps_done: step,
        final_loss: last_loss,
        recoveries,
        final_world: world,
        state_fingerprint: state_fingerprint(&model.state_flat()),
        final_lr: opt.current_lr(),
        steps_recomputed,
    })
}

fn global_op(step: u64, n_tensors: i64, local_op: i64) -> u64 {
    (step as i64 * (n_tensors + 1) + local_op) as u64
}

fn shard_len(rank: usize, world: usize, global: usize) -> usize {
    (rank + 1) * global / world - rank * global / world
}

/// One recovery episode: revoke → agree(min) → shrink(policy), then the
/// `min_workers` floor check — a group that shrank below the floor aborts
/// uniformly (every survivor of the same shrink sees the same size).
fn recover(
    proc: &Proc,
    cfg: &ForwardConfig,
    comm: &Communicator,
    my_global_op: u64,
    episode: &mut RecoveryBreakdown,
    topology: transport::Topology,
) -> Result<(Communicator, u64), Fatal> {
    telemetry::counter("elastic.recovery.attempts").incr();
    episode.time("revoke", || comm.revoke());

    let agreed = episode.time("agree", || comm.agree(u64::MAX, my_global_op));
    let agreed = match agreed {
        Ok(a) => a,
        Err(UlfmError::SelfDied) => return Err(Fatal::Died),
        Err(e) => unreachable!("agree only fails fatally: {e}"),
    };
    // How many failures this episode handles as one batch: with suspicion
    // batching + lattice agreement a whole burst lands here at once and the
    // eviction policy dispatches on the full set in one view change.
    telemetry::histogram("elastic.recovery.batch_size").record(agreed.failed.len() as u64);

    let total_ranks = proc.endpoint().total_ranks();
    let policy = cfg.policy;
    let shrunk = episode.time("shrink", || {
        comm.shrink_with(|failed| policy_evictions(policy, failed, topology, total_ranks))
    });
    match shrunk {
        Ok(ShrinkOutcome::Member(c)) => {
            if c.size() < cfg.spec.min_workers {
                return Err(Fatal::Aborted);
            }
            Ok((c, agreed.min))
        }
        Ok(ShrinkOutcome::Excluded) => Err(Fatal::Excluded),
        Err(UlfmError::SelfDied) => Err(Fatal::Died),
        Err(e) => unreachable!("shrink only fails fatally: {e}"),
    }
}

/// The policy round: score the arms, commit one uniformly, execute it, and
/// fall down the deterministic fallback chain if it dies mid-recovery.
/// Runs on the *already-shrunk* group; `world_before` is the size the
/// failed attempt started with. Returns what the op loop should do next.
#[allow(clippy::too_many_arguments)]
fn policy_dispatch(
    proc: &Proc,
    cfg: &ForwardConfig,
    comm: &mut Communicator,
    model: &mut dnn::Model,
    opt: &mut dnn::Sgd,
    step: u64,
    local_ckpt: &Option<Checkpoint>,
    step_time_ema: f64,
    world_before: usize,
    episode: &mut RecoveryBreakdown,
    topology: transport::Topology,
    recoveries: &mut usize,
) -> Result<PolicyAction, Fatal> {
    let r = policy_dispatch_inner(
        proc,
        cfg,
        comm,
        model,
        opt,
        step,
        local_ckpt,
        step_time_ema,
        world_before,
        episode,
        topology,
        recoveries,
    );
    if matches!(r, Err(Fatal::Aborted)) {
        // The chain's last edge: whatever arm was running, a cascade drove
        // the group below the floor and the run aborts.
        telemetry::counter("elastic.policy.fallback.to_abort").incr();
    }
    r
}

#[allow(clippy::too_many_arguments)]
fn policy_dispatch_inner(
    proc: &Proc,
    cfg: &ForwardConfig,
    comm: &mut Communicator,
    model: &mut dnn::Model,
    opt: &mut dnn::Sgd,
    step: u64,
    local_ckpt: &Option<Checkpoint>,
    step_time_ema: f64,
    world_before: usize,
    episode: &mut RecoveryBreakdown,
    topology: transport::Topology,
    recoveries: &mut usize,
) -> Result<PolicyAction, Fatal> {
    // Live inputs, gathered locally. Only the leader's copy decides — the
    // decision rides inside the committed proposal, so divergent local
    // views (clocks, fabric stats, pool races) cannot split the SPMD flow.
    let fabric = proc.endpoint().stats();
    let inputs = PolicyInputs {
        world: comm.size(),
        lost: world_before.saturating_sub(comm.size()).max(1),
        spares: proc.waiting_spares(),
        has_ckpt: local_ckpt.is_some(),
        ckpt_age_steps: local_ckpt
            .as_ref()
            .map_or(0, |c| step.saturating_sub(c.step)),
        remaining_steps: (cfg.spec.total_steps as u64).saturating_sub(step),
        step_time: step_time_ema.max(1e-6),
        state_bytes: (model.state_flat().len() * 8) as f64,
        perturb_rate: fabric.retransmits as f64 / fabric.messages.max(1) as f64,
    };
    let hint = PolicyEngine::new(cfg.policy_mode).choose(&inputs);
    telemetry::counter(match hint {
        RecoveryArm::Shrink => "elastic.policy.decision.shrink",
        RecoveryArm::PromoteSpares => "elastic.policy.decision.spare",
        RecoveryArm::Rollback => "elastic.policy.decision.rollback",
    })
    .incr();

    let group_before: Vec<RankId> = comm.group().to_vec();
    let committed = episode.time("policy_commit", || {
        comm.commit_recovery_policy(hint, inputs.lost)
    });
    match committed {
        Err(UlfmError::SelfDied) => Err(Fatal::Died),
        Err(_) => {
            // The policy round itself died (a member or spare lost during
            // the proposal): recover once more and fall back to plain
            // shrink — the arm with no preconditions.
            telemetry::counter("elastic.policy.fallback.round_to_shrink").incr();
            *recoveries += 1;
            match recover(proc, cfg, comm, u64::MAX, episode, topology) {
                Ok((c, _)) => {
                    *comm = c;
                    episode.policy = Some("shrink");
                    Ok(PolicyAction::Shrink)
                }
                Err(f) => Err(f),
            }
        }
        Ok(PolicyCommit::Shrink) => {
            episode.policy = Some("shrink");
            Ok(PolicyAction::Shrink)
        }
        Ok(PolicyCommit::Promoted(merged)) => {
            // The spares hold their promotion tickets; synchronize them
            // from live state. `restore_all` reconciles racing survivors
            // (divergent by at most one optimizer apply) onto rank 0's
            // state; the bound gives up — uniformly, since post-recovery
            // membership is agreed — if no promoted spare survives the
            // sync, falling back to the shrink redo.
            let promoted: Vec<RankId> = merged
                .group()
                .iter()
                .copied()
                .filter(|r| !group_before.contains(r))
                .collect();
            *comm = merged;
            let mut has_state = true;
            let synced = checkpoint_sync(
                proc,
                cfg,
                comm,
                model,
                opt,
                &mut has_state,
                step,
                &None,
                SyncOpts {
                    source: SyncSource::Live,
                    restore_all: true,
                    bound: SyncBound::RanksAlive(&promoted),
                },
                episode,
                topology,
                recoveries,
            )?;
            match synced {
                SyncOutcome::Synced(s) => {
                    telemetry::counter("elastic.policy.outcome.promoted").incr();
                    episode.policy = Some("spare");
                    Ok(PolicyAction::Restart(s))
                }
                SyncOutcome::GaveUp => {
                    telemetry::counter("elastic.policy.fallback.spare_to_shrink").incr();
                    episode.policy = Some("spare->shrink");
                    Ok(PolicyAction::Shrink)
                }
            }
        }
        Ok(PolicyCommit::Rollback) => {
            // One shot: broadcast rank 0's local checkpoint and restore
            // every survivor from it. Any failure inside the attempt —
            // including the post-shrink root lacking a checkpoint — gives
            // up and falls back to the shrink redo (retained inputs are
            // still held).
            let mut has_state = true;
            let synced = checkpoint_sync(
                proc,
                cfg,
                comm,
                model,
                opt,
                &mut has_state,
                step,
                local_ckpt,
                SyncOpts {
                    source: SyncSource::Ckpt,
                    restore_all: true,
                    bound: SyncBound::Attempts(1),
                },
                episode,
                topology,
                recoveries,
            )?;
            match synced {
                SyncOutcome::Synced(s) => {
                    episode.policy = Some("rollback");
                    Ok(PolicyAction::Restart(s))
                }
                SyncOutcome::GaveUp => {
                    telemetry::counter("elastic.policy.fallback.rollback_to_shrink").incr();
                    episode.policy = Some("rollback->shrink");
                    Ok(PolicyAction::Shrink)
                }
            }
        }
    }
}

/// Outcome of one checkpoint-broadcast attempt.
enum SyncAttempt {
    /// The commit agreement accepted the broadcast; payload as delivered.
    Committed(Vec<u8>),
    /// A failure broke the attempt; recover and retry.
    Retry,
    /// The root holds no state of the requested source.
    Abort,
    /// This rank died.
    Died,
}

/// What the sender broadcasts in [`checkpoint_sync`].
enum SyncSource {
    /// Live training state, captured fresh at the root.
    Live,
    /// The root's most recent local checkpoint (the rollback arm).
    Ckpt,
}

/// When a bounded [`checkpoint_sync`] stops retrying. Every variant is
/// SPMD-uniform: per-attempt outcomes and post-recovery membership are both
/// agreed, so all survivors count attempts and see the group identically.
enum SyncBound<'a> {
    /// Retry until committed or no state-holder survives (legacy behavior
    /// of joiner bootstrap and epoch-boundary admission).
    Unbounded,
    /// Give up after this many *failed* attempts (the rollback arm's
    /// single shot).
    Attempts(u32),
    /// Give up once none of these ranks remains in the group (the
    /// promotion arm: stop once every promoted spare is dead).
    RanksAlive(&'a [RankId]),
}

/// How a [`checkpoint_sync`] behaves.
struct SyncOpts<'a> {
    /// What the root broadcasts.
    source: SyncSource,
    /// Restore *every* member from the payload, not just state-less ones —
    /// rollback semantics, and the racing-survivor reconciliation under
    /// promotion.
    restore_all: bool,
    /// Retry bound.
    bound: SyncBound<'a>,
}

/// How a bounded [`checkpoint_sync`] ended.
enum SyncOutcome {
    /// Committed; the step the synchronized state is ready to compute.
    Synced(u64),
    /// The bound tripped before a commit; nobody restored anything (the
    /// restore only happens on the uniform commit), so the caller can fall
    /// back safely.
    GaveUp,
}

/// Resilient (step ‖ state) synchronization, shared by the joiner/spare
/// bootstrap, the epoch-boundary admission, and the promotion and rollback
/// policy arms. Group rank 0 broadcasts its state (live or checkpointed
/// per [`SyncOpts`]), then a uniform commit agreement decides whether every
/// member got it; on failure the group recovers (revoke → agree → shrink →
/// floor check) and — within the bound — retries with the shrunk group's
/// rank 0 as the new sender.
///
/// The sender is always a state-holder while one survives: state-holders
/// form a prefix of the merged group (members before joiners, and shrink
/// preserves relative order), so rank 0 lacking state means *no* original
/// member survives — which the commit agreement reports uniformly; an
/// unbounded sync aborts on that (restoring garbage is the alternative),
/// a bounded one gives up and lets the caller fall back.
#[allow(clippy::too_many_arguments)]
fn checkpoint_sync(
    proc: &Proc,
    cfg: &ForwardConfig,
    comm: &mut Communicator,
    model: &mut dnn::Model,
    opt: &mut dnn::Sgd,
    has_state: &mut bool,
    my_step: u64,
    local_ckpt: &Option<Checkpoint>,
    opts: SyncOpts<'_>,
    episode: &mut RecoveryBreakdown,
    topology: transport::Topology,
    recoveries: &mut usize,
) -> Result<SyncOutcome, Fatal> {
    let mut attempt = 0u64;
    let mut failed_attempts = 0u32;
    loop {
        if attempt > 0 {
            telemetry::counter("elastic.ckpt_sync.retries").incr();
        }
        attempt += 1;
        // Named fault point: scripts can kill the sender (or any receiver)
        // between checkpoint-broadcast attempts.
        if comm.endpoint().fault_point("ckpt.sync").is_err() {
            return Err(Fatal::Died);
        }
        let outcome = episode.time("state_sync", || {
            let root = comm.rank() == 0;
            let provides = match opts.source {
                SyncSource::Live => *has_state,
                SyncSource::Ckpt => local_ckpt.is_some(),
            };
            let mut payload = if root && provides {
                match opts.source {
                    SyncSource::Live => {
                        let ck = Checkpoint::capture(model, opt);
                        let mut bytes = my_step.to_le_bytes().to_vec();
                        bytes.extend_from_slice(&ck.bytes);
                        bytes
                    }
                    SyncSource::Ckpt => {
                        let ck = local_ckpt.as_ref().expect("provides checked");
                        let mut bytes = ck.step.to_le_bytes().to_vec();
                        bytes.extend_from_slice(&ck.bytes);
                        bytes
                    }
                }
            } else {
                Vec::new()
            };
            // A failed broadcast unwinds reliably (the binomial tree
            // forwards poison frames), so every member reaches the commit
            // agreement without any comm-wide revocation.
            let sent = comm.bcast(0, &mut payload);
            if matches!(sent, Err(UlfmError::SelfDied)) {
                return SyncAttempt::Died;
            }
            // Commit flags: bit0 = my broadcast completed; bit1 = the root
            // holds state of the requested source (non-roots contribute 1
            // so the AND isolates the root's claim). The commit also needs
            // every member to have taken part: a joiner or promoted spare
            // that died holding its ticket never does, so the attempt
            // fails (and a promotion's bound trips) no matter how quickly
            // the others got here.
            let flags = (sent.is_ok() as u64) | if root { (provides as u64) << 1 } else { 0b10 };
            match comm.agree_all(flags) {
                Ok((v, _)) if v.flags & 0b10 == 0 => SyncAttempt::Abort,
                Ok((v, true)) if v.flags & 1 == 1 && v.failed.is_empty() => {
                    SyncAttempt::Committed(payload)
                }
                Ok(_) => SyncAttempt::Retry,
                Err(UlfmError::SelfDied) => SyncAttempt::Died,
                Err(e) => unreachable!("agree only fails fatally: {e}"),
            }
        });
        match outcome {
            SyncAttempt::Committed(payload) => {
                if opts.restore_all || !*has_state {
                    let step = u64::from_le_bytes(payload[..8].try_into().unwrap());
                    let ck = Checkpoint {
                        step,
                        bytes: payload[8..].to_vec(),
                    };
                    ck.restore(model, opt);
                    *has_state = true;
                    return Ok(SyncOutcome::Synced(step));
                }
                return Ok(SyncOutcome::Synced(my_step));
            }
            SyncAttempt::Died => return Err(Fatal::Died),
            SyncAttempt::Abort => {
                return match opts.bound {
                    // No state-holder left and nothing to fall back to.
                    SyncBound::Unbounded => Err(Fatal::Aborted),
                    // The agreement that reported it is uniform, so every
                    // survivor gives up here together.
                    _ => Ok(SyncOutcome::GaveUp),
                };
            }
            SyncAttempt::Retry => {
                *recoveries += 1;
                match recover(proc, cfg, comm, u64::MAX, episode, topology) {
                    Ok((c, _)) => *comm = c,
                    Err(f) => return Err(f),
                }
                failed_attempts += 1;
                let give_up = match opts.bound {
                    SyncBound::Unbounded => false,
                    SyncBound::Attempts(n) => failed_attempts >= n,
                    SyncBound::RanksAlive(ranks) => !ranks.iter().any(|r| comm.group().contains(r)),
                };
                if give_up {
                    return Ok(SyncOutcome::GaveUp);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TrainSpec;

    #[test]
    fn global_op_encoding() {
        // T = 4 tensors → 5 ops per step.
        assert_eq!(global_op(0, 4, 0), 0);
        assert_eq!(global_op(0, 4, 4), 4); // barrier of step 0
        assert_eq!(global_op(1, 4, 0), 5);
        assert_eq!(global_op(1, 4, -1), 4); // redo of step 0's barrier
    }

    #[test]
    fn shard_len_tiles() {
        let total: usize = (0..5).map(|r| shard_len(r, 5, 64)).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn policy_inactive_by_default() {
        // The seed configuration must not grow a policy round.
        let cfg = ForwardConfig::new(TrainSpec::default());
        assert!(!cfg.policy_active());
        let mut adaptive = ForwardConfig::new(TrainSpec::default());
        adaptive.policy_mode = PolicyMode::Adaptive;
        assert!(adaptive.policy_active());
        let mut spared = ForwardConfig::new(TrainSpec::default());
        spared.expected_spares = 1;
        assert!(spared.policy_active());
    }
}
