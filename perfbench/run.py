#!/usr/bin/env python3
"""Measured benchmark of the elastic training stack.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `perfbench` (this directory's
Rust package) and the `repro` launcher from source, runs the workload's
jobs one after another for S seconds, checks every job's outputs, and
prints a report followed by one JSON line: end-to-end metrics with
`--trace 0`, per-layer metrics from a separate traced run with `--trace 1`.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

WORKLOADS = ("dense-unix", "deep-inproc", "churn-proc")
# Runtime files (Unix-socket names, churn-proc job directories, spans).
RUN_DIR = ".bench_run"
# Zero-step jobs per run; setup_s is their trimmed mean.
SETUPS = 100
# churn-proc jobs in a traced run (its episode-phase rows), and the most
# an end-to-end run can reach per second: a launch takes at least one 20 ms
# poll of the launcher.
TRACED_CHURN_JOBS = 8
MAX_CHURN_JOBS_PER_S = 50
# An in-process job's deadline (a 40-step job takes 2-3 s). A job that
# misses it is killed and counted as failed, and the run goes on. churn-proc
# jobs have the launcher's own deadline (`LAUNCH_TIMEOUT_S` in src/churn.rs).
JOB_TIMEOUT_S = 30
# How long a run may take beyond the measured seconds, after the build: the
# set-up jobs, the references, and a last job that runs into its deadline.
# Every child gets at most what is left of it, so a run ends in time even
# when jobs hang.
RUN_MARGIN_S = 135
# Of that margin, what `perfbench churn` leaves to the in-process references
# of its jobs (about 5 s for a 30 s run).
REFERENCE_RESERVE_S = 30
# p of the in-process workloads (`Workload::world` in src/workload.rs).
TRAIN_WORLD = 2

# Per-layer metric -> (end-to-end metric it should move, workload).
LAYER_MAP = {
    "transport.encode_slice.gbps": ("samples_per_s", "dense-unix"),
    "transport.decode_slice.gbps": ("samples_per_s", "dense-unix"),
    "transport.fnv1a64.gbps": ("samples_per_s", "dense-unix"),
    "transport.encode_frame.gbps": ("samples_per_s", "dense-unix"),
    "transport.decode_frame.gbps": ("samples_per_s", "dense-unix"),
    "transport.unix.bulk_gbps": ("samples_per_s", "dense-unix"),
    "transport.inproc.rtt_us": ("samples_per_s", "deep-inproc"),
    "transport.unix.rtt_us": ("job_s, recovery_ms.*", "churn-proc"),
    "transport.retransmits_per_msg": ("samples_per_s, fail_ratio", "dense-unix"),
    "transport.false_suspicions": ("samples_per_s, fail_ratio", "dense-unix"),
    "transport.msgs_per_step": ("samples_per_s", "dense-unix"),
    "transport.bytes_per_step": ("samples_per_s", "dense-unix"),
    "coll.allreduce_ms.ring": ("samples_per_s", "dense-unix, deep-inproc"),
    "coll.allreduce_ms.rd": ("samples_per_s", "dense-unix, deep-inproc"),
    "coll.allreduce_ms.rabenseifner": ("samples_per_s", "dense-unix, deep-inproc"),
    "coll.barrier_us": ("samples_per_s", "deep-inproc"),
    "coll.calls_per_step": ("samples_per_s", "deep-inproc"),
    "ulfm.revoke_ms": ("recovery_ms.*", "churn-proc"),
    "ulfm.agree_ms.flood": ("recovery_ms.*", "churn-proc"),
    "ulfm.agree_ms.lattice": ("recovery_ms.*", "churn-proc"),
    "ulfm.shrink_ms": ("recovery_ms.*", "churn-proc"),
    "ulfm.accept_joiners_ms": ("join_ms.*", "churn-proc"),
    "ulfm.agree.rounds": ("recovery_ms.*", "churn-proc"),
    "ulfm.shrink.generations": ("recovery_ms.*", "churn-proc"),
    "gloo.netstore.rtt_us": ("setup_s, join_ms.*", "churn-proc"),
    "dnn.compute_gradients_ms": ("samples_per_s", "dense-unix, deep-inproc"),
    "dnn.sgd_step_ms": ("samples_per_s", "dense-unix, deep-inproc"),
    "dnn.checkpoint.capture_ms": ("join_ms.*", "churn-proc"),
    "dnn.checkpoint.restore_ms": ("join_ms.*", "churn-proc"),
    "elastic.recovery.revoke_ms": ("recovery_ms.*", "churn-proc"),
    "elastic.recovery.agree_ms": ("recovery_ms.*", "churn-proc"),
    "elastic.recovery.shrink_ms": ("recovery_ms.*", "churn-proc"),
    "elastic.join.state_sync_ms": ("join_ms.*", "churn-proc"),
    "elastic.step.comm_share": ("samples_per_s", "dense-unix, deep-inproc"),
    "recovery_ms.p50": ("job_s", "churn-proc"),
    "recovery_ms.p90": ("job_s", "churn-proc"),
    "join_ms.p50": ("job_s", "churn-proc"),
    "join_ms.p90": ("job_s", "churn-proc"),
    "telemetry.counter_incr_ns": ("samples_per_s", "deep-inproc"),
    "telemetry.histogram_record_ns": ("samples_per_s", "deep-inproc"),
    "mem.rss_kib_per_collective": ("rss_peak_mib", "deep-inproc"),
    "engine.step_ms": ("samples_per_s", "all"),
    "replay.step_ms": ("(reference: replay of engine.step_ms)", "all"),
    "replay.self_ms.dnn.compute_gradients": ("samples_per_s", "dense-unix, deep-inproc"),
    "replay.self_ms.coll.allreduce": ("samples_per_s", "dense-unix, deep-inproc"),
    "replay.self_ms.coll.barrier": ("samples_per_s", "deep-inproc"),
    "replay.self_ms.dnn.sgd_step": ("samples_per_s", "dense-unix, deep-inproc"),
    "replay.self_ms.glue": ("samples_per_s", "deep-inproc"),
    "roofline.memcpy_gbps": ("(reference row)", "all"),
    "roofline.unix_loopback_gbps": ("(reference row)", "all"),
    "baseline.p1.samples_per_s": ("(reference row: single worker)", "all"),
}


def say(line=""):
    """A report line. The JSON result is always the last stdout line."""
    print(line, flush=True)


class Bench:
    def __init__(self, args):
        self.args = args
        spec = json.load(open("BENCHMARK.json"))
        self.units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        self.e2e = [m["name"] for m in spec["end_to_end"]]
        self.layers = [m["name"] for m in spec["per_layer"]]
        # A SIGKILLed worker leaves its socket file behind; start empty.
        shutil.rmtree(os.path.join(RUN_DIR, "tmp"), ignore_errors=True)
        os.makedirs(os.path.join(RUN_DIR, "tmp"), exist_ok=True)
        self.env = dict(os.environ)
        self.env.setdefault("CARGO_TARGET_DIR", ".bench_build")
        # Unix-socket names go under the checkout; relative keeps them short.
        self.env["TMPDIR"] = os.path.join(RUN_DIR, "tmp")
        target = os.path.join(self.env["CARGO_TARGET_DIR"], "release")
        self.perfbench = os.path.join(target, "perfbench")
        self.repro = os.path.join(target, "repro")
        self.attempted = 0
        self.failures = []
        self.deadline = None

    # ---- processes --------------------------------------------------------

    def build(self):
        for cmd in (
            ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
            ["cargo", "build", "--release", "--offline", "-p", "bench", "--bin", "repro"],
        ):
            r = subprocess.run(cmd, env=self.env, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                # The host's memory is shared: a compiler killed for lack
                # of it gets one more try, one compiler at a time.
                r = subprocess.run(cmd + ["--jobs", "1"], env=self.env,
                                   stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                raise SystemExit("build failed: %s" % " ".join(cmd))
        # The run's clock starts once the program is built.
        self.deadline = time.monotonic() + self.args.seconds + RUN_MARGIN_S

    def remaining(self):
        return self.deadline - time.monotonic()

    def child(self, argv, timeout, stdin=""):
        """Run `argv` in a process group of its own and return its exit
        code (None when it missed `timeout`) and its stdout. Whatever is
        left of the group when the child ends, as the workers of a killed
        `repro launch`, is killed and waited for."""
        proc = subprocess.Popen(
            argv, env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=sys.stderr, text=True, start_new_session=True)
        try:
            out, _ = proc.communicate(stdin, timeout=max(timeout, 0.1))
            rc = proc.returncode
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, _ = proc.communicate()
            rc = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            # Orphans of the group are this process's children (see
            # `become_subreaper`), so they can be waited for.
            while True:
                try:
                    os.waitpid(-proc.pid, 0)
                except ChildProcessError:
                    break
        return rc, out

    @staticmethod
    def records(out):
        """The JSON records among `out`'s lines. A child killed at its
        deadline may have left its last line cut short; it is skipped."""
        recs = []
        for line in out.splitlines():
            if line.startswith("{"):
                try:
                    recs.append(json.loads(line))
                except ValueError:
                    pass
        return recs

    def perfbench_records(self, timeout, *argv, jobs=()):
        """Run the in-process half, with `jobs` as its stdin lines, and
        return its JSON records and whether it ended within `timeout`."""
        rc, out = self.child([self.perfbench, *argv], timeout, "".join(j + "\n" for j in jobs))
        if rc is not None and rc != 0:
            raise SystemExit("perfbench %s exited %d" % (argv[0], rc))
        return self.records(out), rc is not None

    def train_job(self, kind):
        """One in-process job in its own `perfbench train` process. A job
        that misses its deadline is killed; it, and one whose process
        fails, comes back as a record with a `failure`."""
        argv = [self.perfbench, "train", "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--job", kind]
        timeout = min(JOB_TIMEOUT_S, self.remaining())
        t0 = time.monotonic()
        rc, out = self.child(argv, timeout)
        wall = time.monotonic() - t0
        recs = self.records(out)
        if rc is None:
            return {"kind": kind, "wall_s": wall, "failure": "timed out after %.3g s" % timeout}
        if rc != 0 or not recs:
            return {"kind": kind, "wall_s": wall,
                    "failure": "process exited %d with %d records" % (rc, len(recs))}
        return recs[-1]

    def churn_jobs(self, seconds, setups, count):
        """churn-proc launches (see `perfbench churn`), each with its result
        and telemetry files parsed. The victim's files are not read: it may
        be SIGKILLed while writing them. When `perfbench churn` runs out of
        the run's time, the launch it was in counts as failed and the
        launches before it are kept."""
        outdir = os.path.join(RUN_DIR, "churn")
        shutil.rmtree(outdir, ignore_errors=True)
        jobs = [bl.job_spec(steps, "%d@allreduce.step:%d" % (victim, at))
                for steps, victim, at in bl.pick_jobs(self.args.seed, count)]
        timeout = self.remaining() - REFERENCE_RESERVE_S
        recs, in_time = self.perfbench_records(
            timeout, "churn", "--repro", self.repro, "--outdir", outdir, "--setups", str(setups),
            "--seconds", str(seconds), jobs=jobs)
        if not in_time:
            self.count(None, "perfbench churn stopped after %.3g s, in a launch" % timeout)
        for rec in recs:
            victim = rec.get("victim")
            rec["results"], rec["telemetries"] = {}, []
            for rank in range(rec.get("ranks", 0)):
                rec["results"][rank] = None
                if rank == victim:
                    continue
                try:
                    with open(os.path.join(rec["dir"], "result-%d.txt" % rank)) as f:
                        rec["results"][rank] = bl.parse_result(f.read())
                    with open(os.path.join(rec["dir"], "telemetry-%d.json" % rank)) as f:
                        rec["telemetries"].append(json.load(f))
                except (FileNotFoundError, ValueError):
                    pass  # the check reports the rank as not completed
        shutil.rmtree(outdir, ignore_errors=True)
        setup = [r for r in recs if r["kind"] == "setup"]
        jobs = [r for r in recs if r["kind"] == "job"]
        return setup, jobs

    def check_churn(self, setup, jobs):
        """Check every churn-proc job against the in-process references of
        its death."""
        for s in setup:
            fps = [r and r.get("fp") for r in s["results"].values()]
            if s["rc"] != 0:
                self.count(s, "zero-step launch exited %d" % s["rc"])
            else:
                self.count(s, bl.check_consistent({"fps": fps}, len(fps)))

        def references(j):
            return [bl.job_spec(j["steps"], d) for d in bl.reference_deaths(j["victim"], j["at"])]

        refs = {}
        recs, in_time = self.perfbench_records(
            self.remaining(), "reference", jobs=sorted({r for j in jobs for r in references(j)}))
        if not in_time:
            raise SystemExit("in-process references missed the run's deadline")
        for rec in recs:
            fps = [fp for fp in rec["fps"] if fp is not None]
            if rec["completed"] != len(rec["fps"]) - 1 or len(set(fps)) != 1:
                raise SystemExit("in-process reference for %s is inconsistent" % rec["job"])
            refs[rec["job"]] = fps[0], rec["samples"]
        for j in jobs:
            j["samples"] = refs[references(j)[0]][1]
            allowed = {refs[r][0] for r in references(j)}
            problem = bl.check_churn_job(j["rc"], j["results"], j["victim"], allowed)
            self.count(j, problem and "job %d/%d@%d: %s" % (
                j["steps"], j["victim"], j["at"], problem))

    def check(self, rec, problem):
        """Count an in-process job: failed when its process failed, else
        when `problem(rec)` names a problem."""
        self.count(rec, rec.get("failure") or problem(rec))

    def count(self, job, problem):
        self.attempted += 1
        if problem:
            self.failures.append(problem)
            say("  FAILED job: %s" % problem)

    # ---- reporting --------------------------------------------------------

    def timing(self, name, values, unit, higher_better=False):
        """Report a timing as its median, the highest percentile with at
        least ten samples beyond it (the low tail when higher is better)
        and its trimmed mean; returns the trimmed mean."""
        q = bl.tail_percentile(len(values))
        if q is not None and higher_better:
            q = 100 - q
        tail = "" if q is None else ", p%g %.6g" % (q, bl.percentile(values, q))
        mean = bl.trimmed_mean(values)
        say("  %-22s p50 %.6g%s, trimmed mean %.6g %s (n=%d)" % (
            name, bl.median(values), tail, mean, unit, len(values)))
        return mean

    def result(self, metrics, names):
        missing = [n for n in names if n not in metrics]
        if missing:
            raise SystemExit("metrics not measured: %s" % missing)
        fail_ratio = len(self.failures) / self.attempted
        say("  %-22s %.4g failed/attempted (%d of %d jobs)" % (
            "fail_ratio", fail_ratio, len(self.failures), self.attempted))
        print(json.dumps({
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {n: {"value": metrics[n], "unit": self.units[n]} for n in names},
        }), flush=True)

    # ---- the two kinds of run ---------------------------------------------

    def end_to_end(self):
        w, seed, secs = self.args.workload, self.args.seed, self.args.seconds
        say("end-to-end run: workload %s, seed %d, %g s" % (w, seed, secs))
        if w == "churn-proc":
            setup_jobs, jobs = self.churn_jobs(secs, SETUPS, int(secs * MAX_CHURN_JOBS_PER_S) + 1)
            self.check_churn(setup_jobs, jobs)
            setup = [s["wall_s"] for s in setup_jobs]
            walls = [j["wall_s"] for j in jobs]
            # Training throughput inside the job: its samples over the time
            # its longest-training rank (an initial survivor) spent in
            # `elastic.forward.step_ns` steps, recovery and join included.
            train_s = [(j["samples"], max(map(bl.training_ns, j["telemetries"]), default=0) / 1e9)
                       for j in jobs]
            rates = [samples / s for samples, s in train_s if s > 0]
            tels = [t for j in jobs for t in j["telemetries"]]
        else:
            ref = self.train_job("reference")
            self.check(ref, lambda r: bl.check_consistent(r, TRAIN_WORLD))
            setup_jobs = []
            while len(setup_jobs) < SETUPS and self.remaining() > 0:
                setup_jobs.append(self.train_job("setup"))
                self.check(setup_jobs[-1], lambda r: bl.check_consistent(r, TRAIN_WORLD))
            # Jobs run for `secs`, and on until one completes, so that a run
            # whose first jobs hang still has a throughput to report.
            jobs = []
            t0 = time.monotonic()
            while ((time.monotonic() - t0 < secs or all("failure" in j for j in jobs))
                   and self.remaining() > 0):
                jobs.append(self.train_job("job"))
                self.check(jobs[-1], lambda r: bl.check_training_job(
                    r, ref.get("fps", [None])[0], TRAIN_WORLD))
            setup = [s["wall_s"] for s in setup_jobs]
            walls = [j["wall_s"] for j in jobs]
            done = [j for j in jobs if "failure" not in j]
            say("  transport: %d retransmits over %d messages in %d jobs; %d suspicions" % (
                sum(j["retransmits"] for j in done), sum(j["messages"] for j in done),
                len(done), sum(j["suspicions"] for j in done)))
            tels = []
        if not walls or not setup:
            raise SystemExit("no job finished within %g s" % secs)
        m = {}
        m["setup_s"] = self.timing("setup_s", setup, "s")
        m["job_s"] = self.timing("job_s", walls, "s")
        if w != "churn-proc":
            rates = [j["samples"] / (j["wall_s"] - m["setup_s"]) for j in done]
        if not rates:
            raise SystemExit("no job completed within %g s" % secs)
        m["samples_per_s"] = self.timing("samples_per_s", rates, "samples/s", higher_better=True)
        # Memory is not timed: its per-job peaks are averaged untrimmed.
        peaks = [j["peak_kib"] / 1024.0 for j in jobs if "peak_kib" in j]
        m["rss_peak_mib"] = sum(peaks) / len(peaks)
        say("  %-22s mean %.6g, max %.6g MiB (n=%d)" % (
            "rss_peak_mib", m["rss_peak_mib"], max(peaks), len(peaks)))
        for name, samples in (("recovery_ms", bl.recovery_samples(tels)),
                              ("join_ms", bl.join_samples(tels))):
            if samples:
                self.timing(name, samples, "ms")
        self.result(m, self.e2e)

    def traced(self):
        w, seed = self.args.workload, self.args.seed
        say("traced run: workload %s, seed %d" % (w, seed))
        spans = os.path.join(RUN_DIR, "spans-%s.jsonl" % w)
        m = {}
        recs, in_time = self.perfbench_records(
            self.remaining(), "layers", "--workload", w, "--seed", str(seed), "--spans", spans)
        if not in_time:
            raise SystemExit("perfbench layers missed the run's deadline")
        for rec in recs:
            m[rec["name"]] = rec["value"]
        # The layers' engine job and replay check their own replicas.
        self.attempted += 2
        setup, jobs = self.churn_jobs(1e9, 0, TRACED_CHURN_JOBS)
        self.check_churn(setup, jobs)
        tels = [t for j in jobs for t in j["telemetries"]]
        for phase in ("revoke", "agree", "shrink"):
            m["elastic.recovery.%s_ms" % phase] = bl.median(
                bl.phase_samples(tels, "forward", phase))
        m["elastic.join.state_sync_ms"] = bl.median(bl.phase_samples(tels, "join", "state_sync"))
        rec_samples, join = bl.recovery_samples(tels), bl.join_samples(tels)
        m["recovery_ms.p50"] = bl.percentile(rec_samples, 50)
        m["recovery_ms.p90"] = bl.percentile(rec_samples, 90)
        m["join_ms.p50"] = bl.percentile(join, 50)
        m["join_ms.p90"] = bl.percentile(join, 90)
        # Counts per recovery episode (every agreement of the job counted).
        counters = [t["counters"] for t in tels]
        episodes = len(rec_samples)
        m["ulfm.agree.rounds"] = sum(c.get("ulfm.agree.rounds", 0) for c in counters) / episodes
        gens = [t["histograms"].get("ulfm.shrink.generations") for t in tels]
        m["ulfm.shrink.generations"] = sum(g["sum"] for g in gens if g) / episodes
        say("  %-38s %14s  %-10s %s" % ("metric", "value", "unit", "moves (workload)"))
        for name in self.layers:
            if name in m:
                e2e, wl = LAYER_MAP.get(name, ("", ""))
                say("  %-38s %14.6g  %-10s %s (%s)" % (name, m[name], self.units[name], e2e, wl))
        say("  replay step %.4g ms vs untraced engine step %.4g ms: the gap is tracing"
            " overhead plus engine work the replay does not cover" % (
                m["replay.step_ms"], m["engine.step_ms"]))
        say("  spans: %s" % spans)
        self.result(m, self.layers)


def become_subreaper():
    """Make the orphans of this process's descendants its children, so that
    every process a run starts can be waited for."""
    pr_set_child_subreaper = 36
    ctypes.CDLL(None).prctl(pr_set_child_subreaper, 1, 0, 0, 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    become_subreaper()
    bench = Bench(args)
    bench.build()
    if args.trace:
        bench.traced()
    else:
        bench.end_to_end()


if __name__ == "__main__":
    main()
