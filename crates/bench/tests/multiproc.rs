//! Multi-process recovery integration tests.
//!
//! These drive the real `repro launch` / `repro worker` binaries: N
//! separate OS processes form a socket mesh through the network rendezvous
//! store, one (or two) of them are SIGKILLed mid-training by the scripted
//! fault plan, and the survivors must detect the loss through socket
//! EOF/timeout, run revoke → agree → shrink, and finish with bit-identical
//! replicas.
//!
//! The launcher audits the run itself (exit code 0 only when every victim
//! died and every survivor completed with matching fingerprints); the test
//! additionally re-parses the per-rank result files so a launcher bug
//! cannot silently vacuously pass.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Wall-clock bound for one launch, overridable for slow CI machines with
/// the same knob the chaos suites use.
fn watchdog() -> Duration {
    let secs = std::env::var("CHAOS_WATCHDOG_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120u64);
    Duration::from_secs(secs)
}

fn outdir(case: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("multiproc")
        .join(case);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create outdir");
    dir
}

/// Run `repro launch` with a watchdog; return its exit code.
fn launch(args: &[&str], dir: &Path) -> i32 {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("launch")
        .args(args)
        .arg("--outdir")
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro launch");
    let deadline = Instant::now() + watchdog();
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => return status.code().unwrap_or(-1),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                panic!(
                    "repro launch {:?} exceeded the {}s watchdog (override with \
                     CHAOS_WATCHDOG_SECS); worker logs in {}",
                    args,
                    watchdog().as_secs(),
                    dir.display()
                );
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Parse `result-{rank}.txt` files into rank → (exit label, fingerprint).
fn results(dir: &Path, n: usize) -> BTreeMap<usize, (String, Option<String>)> {
    let mut out = BTreeMap::new();
    for rank in 0..n {
        let path = dir.join(format!("result-{rank}.txt"));
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        let mut exit = String::new();
        let mut fp = None;
        for tok in text.split_whitespace() {
            if let Some(v) = tok.strip_prefix("exit=") {
                exit = v.to_string();
            } else if let Some(v) = tok.strip_prefix("fp=") {
                fp = Some(v.to_string());
            }
        }
        out.insert(rank, (exit, fp));
    }
    out
}

fn assert_survivors_identical(
    results: &BTreeMap<usize, (String, Option<String>)>,
    victims: &[usize],
    world: usize,
) {
    let mut fingerprints = Vec::new();
    for (&rank, (exit, fp)) in results {
        if victims.contains(&rank) {
            // A victim either reported its own death or was SIGKILLed
            // before reporting (empty file). It must NOT have completed.
            assert_ne!(
                exit, "completed",
                "victim rank {rank} completed — the scripted kill never fired"
            );
        } else {
            assert_eq!(
                exit, "completed",
                "survivor rank {rank} did not complete: {exit:?}"
            );
            fingerprints.push((rank, fp.clone().expect("survivor fingerprint")));
        }
    }
    assert_eq!(
        fingerprints.len(),
        world - victims.len(),
        "every survivor must report"
    );
    let first = &fingerprints[0].1;
    for (rank, fp) in &fingerprints {
        assert_eq!(
            fp, first,
            "rank {rank} replica diverged: {fp} != {first} — replicas must be bit-identical"
        );
    }
}

/// Read one counter back out of a worker's `telemetry-{rank}.json` dump.
/// The hand-rolled schema nests counters under `"counters"` as flat
/// `"name": value` pairs, so a token scan suffices.
fn telemetry_counter(dir: &Path, rank: usize, name: &str) -> u64 {
    let path = dir.join(format!("telemetry-{rank}.json"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let needle = format!("\"{name}\":");
    let Some(at) = text.find(&needle) else {
        return 0;
    };
    text[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or(0)
}

/// Every completed recovery must have resolved in exactly one view change:
/// the shrink-generation counter (`iterations`) equals the completed-shrink
/// counter, and the lattice protocol actually ran.
fn assert_one_view_change_per_recovery(dir: &Path, survivors: &[usize]) {
    for &rank in survivors {
        let iterations = telemetry_counter(dir, rank, "ulfm.shrink.iterations");
        let completions = telemetry_counter(dir, rank, "ulfm.shrink.completions");
        let lattice_rounds = telemetry_counter(dir, rank, "ulfm.lattice.rounds");
        assert!(completions >= 1, "rank {rank} never completed a shrink");
        assert_eq!(
            iterations, completions,
            "rank {rank}: the burst took {iterations} shrink generations across \
             {completions} recoveries — lattice must absorb it in one view change each"
        );
        assert!(
            lattice_rounds > 0,
            "rank {rank}: --agree lattice was requested but no lattice rounds ran"
        );
    }
}

#[test]
fn sigkill_burst_2_of_5_lattice_resolves_in_one_view_change() {
    // Rank 1 is SIGKILLed mid-allreduce; rank 3 is SIGKILLed *inside* the
    // recovery agreement that rank 1's death triggers (its first
    // `lattice.propose` fault point) — a genuine k=2 concurrent burst seen
    // by real processes over real sockets. Under lattice agreement the
    // in-flight proposal widens to cover rank 3, so the survivors install
    // a single view change and finish bit-identical.
    let dir = outdir("burst-2of5-lattice");
    let code = launch(
        &[
            "--n",
            "5",
            "--transport",
            "unix",
            "--steps",
            "12",
            "--min-workers",
            "2",
            "--agree",
            "lattice",
            "--die",
            "1@allreduce.step:5,3@lattice.propose:1",
            "--timeout-secs",
            "90",
        ],
        &dir,
    );
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 5), &[1, 3], 5);
    assert_one_view_change_per_recovery(&dir, &[0, 2, 4]);
}

#[test]
fn sigkill_burst_3_of_5_lattice_resolves_in_one_view_change() {
    // k=3 of p=5: one death in training, two more mid-agreement. The two
    // survivors must still converge through a single widened view change.
    let dir = outdir("burst-3of5-lattice");
    let code = launch(
        &[
            "--n",
            "5",
            "--transport",
            "tcp",
            "--steps",
            "12",
            "--min-workers",
            "2",
            "--agree",
            "lattice",
            "--die",
            "1@allreduce.step:5,2@lattice.propose:1,3@lattice.propose:1",
            "--timeout-secs",
            "90",
        ],
        &dir,
    );
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 5), &[1, 2, 3], 5);
    assert_one_view_change_per_recovery(&dir, &[0, 4]);
}

#[test]
fn clean_run_p3_under_lattice_agreement() {
    // The lattice protocol as the *only* agreement implementation across a
    // full multi-process run (including any failure-free commit paths) —
    // survivors must finish exactly as under flood.
    let dir = outdir("clean-p3-lattice");
    let code = launch(
        &[
            "--n",
            "3",
            "--transport",
            "tcp",
            "--steps",
            "12",
            "--min-workers",
            "2",
            "--agree",
            "lattice",
            "--timeout-secs",
            "60",
        ],
        &dir,
    );
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 3), &[], 3);
}

#[test]
fn sigkill_mid_allreduce_p3_survivors_shrink_and_finish() {
    let dir = outdir("kill-mid-allreduce-p3");
    let code = launch(
        &[
            "--n",
            "3",
            "--transport",
            "unix",
            "--steps",
            "12",
            "--min-workers",
            "2",
            "--die",
            "1@allreduce.step:5",
            "--timeout-secs",
            "60",
        ],
        &dir,
    );
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 3), &[1], 3);
}

#[test]
fn sigkill_mid_allreduce_and_mid_recovery_p4() {
    // Rank 1 dies in the 5th allreduce; rank 3 dies inside the *recovery*
    // that rank 1's death triggers (the first shrink attempt) — a cascade.
    // The remaining two workers must shrink twice and still agree.
    let dir = outdir("kill-mid-recovery-p4");
    let code = launch(
        &[
            "--n",
            "4",
            "--transport",
            "tcp",
            "--steps",
            "12",
            "--min-workers",
            "2",
            "--die",
            "1@allreduce.step:5,3@shrink.attempt:1",
            "--timeout-secs",
            "60",
        ],
        &dir,
    );
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 4), &[1, 3], 4);
}

#[test]
fn upscale_spare_joins_p3_and_matches_members() {
    // A warm spare (rank 3) is spawned alongside the three members; it
    // dials in through the store, announces, and is admitted at the first
    // epoch boundary. All four processes must finish bit-identical.
    let dir = outdir("upscale-spare-p3");
    let code = launch(
        &[
            "--n",
            "3",
            "--transport",
            "tcp",
            "--steps",
            "8",
            "--min-workers",
            "2",
            "--spares",
            "1",
            "--timeout-secs",
            "60",
        ],
        &dir,
    );
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 4), &[], 4);
}

#[test]
fn spare_admitted_when_run_ends_before_first_epoch_boundary() {
    // Three steps end before the first epoch boundary (step 4), so no
    // boundary admission ever runs inside the step loop. The members must
    // admit the spare once more as training ends instead of leaving it to
    // wait out the 30 s join deadline.
    let dir = outdir("spare-short-run-p3");
    let t0 = Instant::now();
    let code = launch(
        &[
            "--n",
            "3",
            "--transport",
            "unix",
            "--steps",
            "3",
            "--spares",
            "1",
            "--join-wait-secs",
            "30",
            "--timeout-secs",
            "60",
        ],
        &dir,
    );
    let took = t0.elapsed();
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 4), &[], 4);
    assert!(
        took < Duration::from_secs(10),
        "the stranded spare was admitted only after {took:?}"
    );
}

#[test]
fn replace_killed_worker_p3_with_spawned_joiner() {
    // True replacement: rank 1 is SIGKILLed mid-allreduce, the survivors
    // shrink (degrading past one joinerless epoch boundary on the short
    // join deadline), and only then does the launcher's `--spawn 3@6`
    // trigger fire — a fresh OS process that joins the shrunk group at the
    // next boundary and finishes in lockstep with the survivors.
    let dir = outdir("replace-killed-p3");
    let code = launch(
        &[
            "--n",
            "3",
            "--transport",
            "unix",
            "--steps",
            "12",
            "--min-workers",
            "2",
            "--die",
            "1@allreduce.step:5",
            "--spawn",
            "3@6",
            "--join-wait-secs",
            "3",
            "--timeout-secs",
            "90",
        ],
        &dir,
    );
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 4), &[1], 4);
}

#[test]
fn joiner_sigkilled_at_merge_is_survived() {
    // Two spares announce; one is SIGKILLed at its join.merge fault point —
    // after every member committed the merge, before its first synced step.
    // The members and the surviving joiner must shrink the corpse back out
    // and finish identically.
    let dir = outdir("joiner-killed-at-merge");
    let code = launch(
        &[
            "--n",
            "3",
            "--transport",
            "tcp",
            "--steps",
            "8",
            "--min-workers",
            "2",
            "--spares",
            "2",
            "--die",
            "4@join.merge:1",
            "--timeout-secs",
            "90",
        ],
        &dir,
    );
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 5), &[4], 5);
}

#[test]
fn join_deadline_expiry_degrades_to_shrunk_group() {
    // The members expect a joiner that never spawns. Each epoch boundary
    // waits out the 1s join deadline, the leader commits giving up, and the
    // group continues shrunk instead of wedging. The launcher's self-audit
    // (exit 0) is the acceptance check: all three members completed.
    let dir = outdir("join-deadline-degrades");
    let code = launch(
        &[
            "--n",
            "3",
            "--transport",
            "tcp",
            "--steps",
            "8",
            "--min-workers",
            "2",
            "--expect-joiners",
            "1",
            "--join-wait-secs",
            "1",
            "--timeout-secs",
            "60",
        ],
        &dir,
    );
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 3), &[], 3);
}

#[test]
fn clean_run_p3_all_complete_identically() {
    let dir = outdir("clean-p3");
    let code = launch(
        &[
            "--n",
            "3",
            "--transport",
            "tcp",
            "--steps",
            "12",
            "--min-workers",
            "2",
            "--timeout-secs",
            "60",
        ],
        &dir,
    );
    assert_eq!(code, 0, "launcher audit failed; logs in {}", dir.display());
    assert_survivors_identical(&results(&dir, 3), &[], 3);
}
