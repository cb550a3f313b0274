//! churn-proc jobs: `repro launch` runs, one after another, timed from
//! launch to the launcher's audited exit. The launcher's files stay in each
//! job's directory for `run.py` to check and parse.

use crate::workload::{ChurnJob, CHURN_MEMBERS, CHURN_SPARES};
use crate::Record;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The launcher's own deadline per job; it kills stragglers and exits
/// nonzero when it passes.
const LAUNCH_TIMEOUT_S: u64 = 60;

/// One launch over Unix sockets. `die` scripts the SIGKILL. The record
/// carries the launch's wall time, its exit code, and the peak resident set
/// of its largest process (the launcher or a worker).
fn launch(repro: &str, outdir: &str, steps: usize, spares: usize, die: Option<&str>) -> Record {
    let mut cmd = Command::new(repro);
    cmd.args(["launch", "--transport", "unix", "--outdir", outdir])
        .args(["--n", &CHURN_MEMBERS.to_string()])
        .args(["--steps", &steps.to_string()])
        .args(["--spares", &spares.to_string()])
        .args(["--timeout-secs", &LAUNCH_TIMEOUT_S.to_string()]);
    if let Some(die) = die {
        cmd.args(["--die", die]);
    }
    let t0 = Instant::now();
    let child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro launch");
    let (rc, peak_kib) = wait_with_rusage(child);
    let wall = t0.elapsed();
    Record::new(if die.is_some() { "job" } else { "setup" })
        .num("wall_s", wall.as_secs_f64())
        .int("rc", rc)
        .int("peak_kib", peak_kib)
        .int("ranks", (CHURN_MEMBERS + spares) as u64)
        .text("dir", outdir)
}

/// Set-up jobs (zero steps, members only: a zero-step job never reaches the
/// epoch boundary that would admit a spare), then one killed job per entry
/// of `jobs` until `seconds` pass.
pub fn run(
    repro: &str,
    outdir: &str,
    jobs: &[ChurnJob],
    setups: usize,
    seconds: f64,
) -> Result<(), String> {
    for i in 0..setups {
        launch(repro, &format!("{outdir}/setup-{i}"), 0, 0, None).emit();
    }
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    for (i, job) in jobs.iter().enumerate() {
        if t0.elapsed() >= budget {
            break;
        }
        let dir = format!("{outdir}/job-{i}");
        launch(repro, &dir, job.steps, CHURN_SPARES, Some(&job.die()))
            .int("victim", job.victim as u64)
            .int("at", job.at)
            .int("steps", job.steps as u64)
            .emit();
    }
    Ok(())
}

/// `struct rusage` of 64-bit Linux: two `struct timeval`s, then fourteen
/// `long`s, the first of which is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// Reap `child` and return its exit code (`u64::MAX` when a signal ended
/// it) and the peak resident set, in KiB, of the largest process among it
/// and the descendants it waited for.
fn wait_with_rusage(child: Child) -> (u64, u64) {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable values with the
        // layouts of the platform's `int` and `struct rusage`, and wait4
        // writes only within them.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted, "wait4: {err}");
    }
    // Reaped here, so `child` must not be waited for again; dropping a
    // `Child` does not wait.
    drop(child);
    let rc = if status & 0x7f == 0 {
        ((status >> 8) & 0xff) as u64
    } else {
        u64::MAX
    };
    (rc, usage.maxrss as u64)
}
