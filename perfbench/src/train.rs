//! Untraced end-to-end jobs of the in-process workloads, one job per
//! process: `run.py` starts a process per job, so each job's peak resident
//! set is its own, and a job past its deadline is killed without ending the
//! run. Prints the job's record; `run.py` checks it and turns the records
//! into metrics.

use crate::workload::Workload;
use crate::{peak_rss_kib, Record};
use transport::BackendKind;

/// Run one job and print its record: its wall time, this process's peak
/// resident set, every replica's fingerprint, and the per-run counts the
/// program already keeps (`ScenarioResult::fabric_stats`, recovery
/// breakdowns). `kind` picks the job:
/// - `reference`: the workload's job on the in-process fabric, whose
///   replicas the others must match (fingerprints do not depend on the
///   transport);
/// - `setup`: a zero-step job, job start to ready-to-train;
/// - `job`: the workload's job.
pub fn run(w: Workload, seed: u64, kind: &str) -> Result<(), String> {
    if w == Workload::ChurnProc {
        return Err("churn-proc jobs are real processes; run.py drives them".into());
    }
    let mut cfg = w.clean_job(seed, w.world(), w.backend());
    match kind {
        "reference" => cfg.backend = BackendKind::InProc,
        "setup" => cfg.spec.total_steps = 0,
        "job" => {}
        other => return Err(format!("unknown job kind `{other}`")),
    }
    let res = elastic::run_scenario(&cfg);
    let fps: Vec<Option<u64>> = res
        .exits
        .iter()
        .map(|e| {
            e.stats()
                .filter(|_| e.completed())
                .map(|s| s.state_fingerprint)
        })
        .collect();
    let st = res.fabric_stats;
    Record::new(kind)
        .num("wall_s", res.wall.as_secs_f64())
        .int(
            "samples",
            (cfg.spec.total_steps * cfg.spec.global_batch) as u64,
        )
        .int("peak_kib", peak_rss_kib())
        .int("completed", res.completed() as u64)
        .int("episodes", res.breakdowns.len() as u64)
        .int("messages", st.messages)
        .int("bytes", st.bytes)
        .int("retransmits", st.retransmits)
        .int("suspicions", st.suspicions)
        .fps("fps", &fps)
        .emit();
    Ok(())
}
